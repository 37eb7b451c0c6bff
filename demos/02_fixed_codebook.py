"""Fixed-codebook quantization on a Gaussian mixture: nearest-neighbour
assignment, the VQ loss, and EMA codeword learning.

Run: python demos/02_fixed_codebook.py
"""

import numpy as np

from aqvq.data import DatasetSource, synth_dataset
from aqvq.model import ModelConfig, evaluate, init_state, train_step
from aqvq.tensor import Tensor
from aqvq.vq import Codebook, ema_update, nearest_indices, quantize

rng = np.random.default_rng(1)

# Quantize a handful of points against a small codebook by hand.
codebook = Codebook(rng.normal(size=(4, 2)))
points = Tensor(rng.normal(size=(6, 2)))
out = quantize(points, codebook, alpha=0.25, beta=1.0)
[(_, _, indices)] = out.assignments
print("assignments:", indices.tolist())
# codebook term plus 0.25 x commitment term, both mean((z - e)^2)
print(f"vq loss {out.loss.item():.4f}")

# EMA pulls each codeword toward the mean of its assigned points.
batch = np.vstack([rng.normal(loc=(2, 2), scale=0.1, size=(16, 2)),
                   rng.normal(loc=(-2, -2), scale=0.1, size=(16, 2))])
cb = Codebook(rng.normal(size=(2, 2)))
for step in range(600):
    idx = nearest_indices(batch, cb)
    ema_update(cb, batch, idx, gamma=0.99, laplace_eps=1e-5)
print("codewords after EMA:", np.round(cb.embeddings.data, 3).tolist())
print("cluster means:      ", np.round([batch[:16].mean(0), batch[16:].mean(0)], 3).tolist())

# Full model: dense autoencoder with a [16,4] codebook in the middle.
dataset = synth_dataset(DatasetSource(clusters=4, dims=8, samples=512,
                                      noise_sigma=0.05, seed=7))
config = ModelConfig(input_shape=(8,), num_hiddens=16, quantizer="fixed",
                     codebook_n=16, codebook_d=4, learning_rate=1e-3, seed=7)
state = init_state(config)
order = np.random.default_rng(7)
for step in range(400):
    batch = dataset.train[order.integers(0, len(dataset.train), size=64)]
    metrics = train_step(batch, state)
    if step % 100 == 0:
        print(f"step {step:4d}: recon {metrics['recon']:.4f} vq {metrics['vq']:.4f}")
final = evaluate(dataset.val, state)
print(f"validation recon sum after 400 steps: {final['recon_loss_sum']:.4f}")
