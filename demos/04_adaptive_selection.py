"""Adaptive codebook selection: every structure quantizes every row,
attention scores rank them, and a hard Gumbel-Softmax draw picks one
per row. Usage shifts from exploration toward the best structure as the
temperature anneals.

Run: python demos/04_adaptive_selection.py
"""

from dataclasses import replace

from aqvq.adaptive import usage_histogram
from aqvq.data import DatasetSource, synth_dataset
from aqvq.experiments import run_trials, sweep_cells, train_run
from aqvq.model import ModelConfig

dataset = synth_dataset(DatasetSource(clusters=4, dims=8, samples=1024,
                                      noise_sigma=0.05, seed=11))
base = ModelConfig(input_shape=(8,), num_hiddens=16, learning_rate=1e-4, seed=0)
budget = 1200

_, report = train_run(replace(base, quantizer="adaptive", capacity=64), dataset, budget)

counts = [r["usage"] for r in report.records]
labels = ["[16,4]", "[32,2]", "[64,1]"]
print("selection frequency over training (window = 200 steps)")
print("steps      " + "  ".join(f"{l:>7}" for l in labels))
for i, row in enumerate(usage_histogram(counts, window=200)):
    lo, hi = i * 200 + 1, min((i + 1) * 200, budget)
    print(f"{lo:4d}-{hi:4d}  " + "  ".join(f"{v:7.3f}" for v in row))

adaptive_recon = report.summary["final_val_recon_sum"]
sweep = run_trials(dataset, sweep_cells(64, base), budget)
print("\nfinal validation recon sums:")
for r in sweep:
    print(f"  fixed {r['cell']:>7}: {r['final_val_recon_sum']:8.4f}")
print(f"  adaptive      : {adaptive_recon:8.4f}")
best = min(r["final_val_recon_sum"] for r in sweep)
verdict = "beats" if adaptive_recon < best else "tracks"
print(f"\nthe adaptive model {verdict} the best fixed structure at this budget")
