"""The gradient gap: how far the straight-through gradient sits from the
gradient the decoder would send back without quantization. Zero when
quantization is lossless; it grows as codeword dimension shrinks.

Run: python demos/05_gradient_gap.py
"""

import numpy as np

from aqvq.analysis import gradient_gap
from aqvq.data import DatasetSource, synth_dataset
from aqvq.experiments import run_trials, sweep_cells
from aqvq.model import ModelConfig, encode, init_state

dataset = synth_dataset(DatasetSource(clusters=4, dims=8, samples=1024,
                                      noise_sigma=0.05, seed=11))
probe = dataset.val[:64]
base = ModelConfig(input_shape=(8,), num_hiddens=16, learning_rate=1e-4, seed=0)

# A model whose codebook holds exact copies of its encoder outputs has a
# gap of exactly zero: quantization loses nothing.
config = ModelConfig(input_shape=(8,), num_hiddens=4, quantizer="fixed",
                     codebook_n=65, codebook_d=4, seed=3)
state = init_state(config)
layer = state.quantizer
layer.w_in.data[:] = np.eye(4)
layer.b_in.data[:] = 0.0
layer.w_out.data[:] = np.eye(4)
layer.b_out.data[:] = 0.0
layer.codebook.embeddings.data[:64] = layer.project_in(encode(probe, state)).data
print(f"gap with a lossless codebook: {gradient_gap(probe, state)}")

# Track the gap during training for each structure of capacity 64.
# The probes are the records whose gap is set.
rows = run_trials(dataset, sweep_cells(64, base), steps=2000, gap_every=500)
probes = {r["cell"]: [rec for rec in r["records"] if rec["gap"] is not None] for r in rows}
print("\ngradient gap on a fixed probe batch (probed every 500 steps)")
header = "structure  " + "  ".join(f"step{p['step']:5d}" for p in next(iter(probes.values())))
print(header)
for label, trace in probes.items():
    print(f"{label:>9}  " + "  ".join(f"{p['gap']:9.4f}" for p in trace))
print("\nquantization loss at the same probes")
for label, trace in probes.items():
    print(f"{label:>9}  " + "  ".join(f"{p['vq']:9.5f}" for p in trace))
final_gaps = {label: trace[-1]["gap"] for label, trace in probes.items()}
print(f"\nby the end of training the one-dimensional codebook carries the "
      f"largest gap ({final_gaps['[64,1]']:.4f}) despite its low quantization loss")
