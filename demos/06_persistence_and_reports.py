"""Checkpoints and run reports: bit-exact round trips and plot-ready CSV.

Run: python demos/06_persistence_and_reports.py
"""

import tempfile
from pathlib import Path

import numpy as np

from aqvq.data import DatasetSource, synth_dataset
from aqvq.experiments import train_run
from aqvq.model import ModelConfig, evaluate
from aqvq.persist import RunReport, load_checkpoint, save_checkpoint

dataset = synth_dataset(DatasetSource(clusters=4, dims=8, samples=512,
                                      noise_sigma=0.05, seed=5))
config = ModelConfig(input_shape=(8,), num_hiddens=16, quantizer="adaptive",
                     capacity=16, learning_rate=1e-3, seed=5)

state, report = train_run(config, dataset, steps=150, record_every=10, gap_every=50)
print(f"trained {state.step} steps; "
      f"final val recon sum {report.summary['final_val_recon_sum']:.4f}")

with tempfile.TemporaryDirectory(prefix="aqvq_demo_") as tmp:
    workdir = Path(tmp)

    # Checkpoints (format 5) store each array's exact bytes: one hex payload
    # of every array's little-endian bytes ends the JSON document, so
    # reloading is exact.
    ckpt = workdir / "checkpoint.json"
    save_checkpoint(state, ckpt)
    reloaded = load_checkpoint(ckpt)
    before = evaluate(dataset.val, state)
    after = evaluate(dataset.val, reloaded)
    print(f"evaluate before save == after load: {before == after}")

    again = workdir / "checkpoint_again.json"
    save_checkpoint(reloaded, again)
    print(f"double save byte-identical: {ckpt.read_bytes() == again.read_bytes()}")

    # Reports serialize to JSON and to CSV with identical values.
    report.to_json(workdir / "report.json")
    report.to_csv(workdir / "report.csv")
    lines = (workdir / "report.csv").read_text().splitlines()
    print(f"\nreport.csv header: {lines[0]}")
    print(f"first record:      {lines[1]}")
    print(f"round trip: {RunReport.from_json(workdir / 'report.json').records == report.records}")

print("\nthe same flows are available from the command line; see the README")
