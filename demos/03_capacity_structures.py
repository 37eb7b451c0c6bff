"""Codebook structures at fixed capacity: enumerate the [n, d] splits,
sweep them under one budget, and fit the closed-form capacity model.

Run: python demos/03_capacity_structures.py
"""

import numpy as np

from aqvq.adaptive import enumerate_structures
from aqvq.analysis import analytic_loss, fit_analytic, optimal_n
from aqvq.data import DatasetSource, synth_dataset
from aqvq.experiments import run_trials, sweep_cells
from aqvq.model import ModelConfig

# Every power-of-two split of one capacity, more codewords of lower dimension.
for w in (64, 65536):
    labels = " ".join(s.label for s in enumerate_structures(w))
    print(f"capacity {w}: {labels}")

# Sweep every structure of capacity 64 on a 4-cluster mixture.
dataset = synth_dataset(DatasetSource(clusters=4, dims=8, samples=1024,
                                      noise_sigma=0.05, seed=11))
base = ModelConfig(input_shape=(8,), num_hiddens=16, learning_rate=1e-4, seed=0)
rows = run_trials(dataset, sweep_cells(64, base), steps=800)
print("\nstructure  val recon sum")
for r in rows:
    print(f"{r['cell']:>9}  {r['final_val_recon_sum']:10.4f}")

# The capacity model says loss = V/n + a*n: dropping dimension first helps,
# then hurts. Fit it to the sweep and report the implied optimum.
pairs = [(r["config"].codebook_n, r["final_val_recon_sum"]) for r in rows]
fit = fit_analytic(pairs)
print(f"\nfitted V={fit.model.var_v:.4f} a={fit.model.dim_const_a:.6f} "
      f"(rms residual {fit.residual:.4f})")
print(f"implied optimal codebook size: {optimal_n(fit.model):.1f}")

# The model itself is exactly symmetric around its optimum.
from aqvq.analysis import AnalyticModel
toy = AnalyticModel(var_v=4.0, dim_const_a=1.0)
print(f"\ntoy model: optimum at n={optimal_n(toy):.0f}, "
      f"loss {analytic_loss(1, toy):.0f} at n=1, {analytic_loss(2, toy):.0f} at n=2, "
      f"{analytic_loss(4, toy):.0f} at n=4")
