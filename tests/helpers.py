"""Shared test oracles: brute-force scans, an einsum convolution, a
hand-rolled autoencoder, and frozen-residual surrogates for gradient
checking through the straight-through paths."""

import numpy as np

from aqvq.model import decode, encode, forward_loss
from aqvq.tensor import (
    Tensor,
    add,
    bmm,
    concat,
    gather_rows,
    mse,
    mul_scalar,
    reshape,
    softmax,
)
from aqvq.adaptive import attention_logits
from aqvq.vq import nearest_indices


def brute_force_nearest(z, embeddings):
    """Exhaustive per-row distance scan; ties resolved to the lowest index."""
    z = np.asarray(z, dtype=np.float64)
    embeddings = np.asarray(embeddings, dtype=np.float64)
    out = np.empty(z.shape[0], dtype=np.int64)
    for t in range(z.shape[0]):
        best_j, best_d = 0, np.inf
        for j in range(embeddings.shape[0]):
            diff = z[t] - embeddings[j]
            d = float(np.dot(diff, diff))
            if d < best_d:
                best_j, best_d = j, d
        out[t] = best_j
    return out


def reference_conv2d_3x3(x, w, b, stride, g):
    """3x3 convolution, zero padding 1, as one einsum per tap.

    Returns the output and the gradients of ``sum(out * g)`` with
    respect to ``x``, ``w`` and ``b``, computed in ``x``'s dtype.
    """
    batch, chans, height, width = x.shape
    oh = (height - 1) // stride + 1
    ow = (width - 1) // stride + 1
    xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))

    def window(arr, i, j):
        return arr[:, :, i : i + stride * (oh - 1) + 1 : stride, j : j + stride * (ow - 1) + 1 : stride]

    out = np.tile(b[None, :, None, None], (batch, 1, oh, ow)).astype(x.dtype)
    dw = np.zeros_like(w)
    dxp = np.zeros_like(xp)
    for i in range(3):
        for j in range(3):
            out += np.einsum("bchw,oc->bohw", window(xp, i, j), w[:, :, i, j])
            dw[:, :, i, j] = np.einsum("bohw,bchw->oc", g, window(xp, i, j))
            window(dxp, i, j)[...] += np.einsum("bohw,oc->bchw", g, w[:, :, i, j])
    return out, dxp[:, :, 1 : 1 + height, 1 : 1 + width], dw, g.sum(axis=(0, 2, 3))


class HandAutoencoder:
    """Independent dense autoencoder: numpy forward, hand-derived
    gradients, hand-rolled Adam. Used to cross-check the package's
    quantizer-free training path."""

    def __init__(self, weights):
        # weights: dict with w1,b1,w2,b2 (encoder) and w3,b3,w4,b4 (decoder)
        self.p = {k: v.copy() for k, v in weights.items()}
        self.m = {k: np.zeros_like(v) for k, v in self.p.items()}
        self.v = {k: np.zeros_like(v) for k, v in self.p.items()}
        self.t = 0

    def loss_and_grads(self, x):
        p = self.p
        h1 = x @ p["w1"] + p["b1"]
        a1 = np.where(h1 > 0, h1, 0.0)
        z = a1 @ p["w2"] + p["b2"]
        h2 = z @ p["w3"] + p["b3"]
        a2 = np.where(h2 > 0, h2, 0.0)
        y = a2 @ p["w4"] + p["b4"]
        diff = y - x
        loss = float((diff * diff).mean())
        dy = 2.0 * diff / diff.size
        g = {}
        g["w4"] = a2.T @ dy
        g["b4"] = dy.sum(axis=0)
        da2 = dy @ p["w4"].T
        dh2 = da2 * (h2 > 0)
        g["w3"] = z.T @ dh2
        g["b3"] = dh2.sum(axis=0)
        dz = dh2 @ p["w3"].T
        g["w2"] = a1.T @ dz
        g["b2"] = dz.sum(axis=0)
        da1 = dz @ p["w2"].T
        dh1 = da1 * (h1 > 0)
        g["w1"] = x.T @ dh1
        g["b1"] = dh1.sum(axis=0)
        return loss, g

    def adam_step(self, grads, lr, beta1=0.9, beta2=0.999, eps=1e-8):
        self.t += 1
        bias1 = 1.0 - beta1**self.t
        bias2 = 1.0 - beta2**self.t
        for k, g in grads.items():
            self.m[k] = beta1 * self.m[k] + (1 - beta1) * g
            self.v[k] = beta2 * self.v[k] + (1 - beta2) * g * g
            self.p[k] -= lr * (self.m[k] / bias1) / (np.sqrt(self.v[k] / bias2) + eps)

    def train(self, batches, lr):
        losses = []
        for x in batches:
            loss, grads = self.loss_and_grads(x)
            losses.append(loss)
            self.adam_step(grads, lr)
        return losses


def fixed_surrogate(state, x):
    """(actual, surrogate) loss builders for a fixed-quantizer model.

    The surrogate freezes the assignment, the straight-through residual,
    and the stop-gradient arguments at their base-point values; its true
    gradient is exactly what straight-through backpropagation computes
    for the actual loss, so central differences of the surrogate are the
    oracle for backward() on the actual loss.
    """
    config = state.config
    t = Tensor(np.asarray(x, dtype=config.dtype))
    layer = state.quantizer
    z_d0 = layer.project_in(encode(t, state))
    idx0 = nearest_indices(z_d0.data, layer.codebook)
    g0 = layer.codebook.embeddings.data[idx0].copy()
    residual0 = g0 - z_d0.data
    z_d0_const = z_d0.data.copy()

    def actual():
        loss, _, _ = forward_loss(x, state, tau=1.0, rng=None)
        return loss

    def surrogate():
        z_d = layer.project_in(encode(t, state))
        quantized = add(z_d, Tensor(residual0))
        x_hat = decode(layer.project_out(quantized), state)
        recon = mse(t, x_hat)
        cb = mse(Tensor(z_d0_const), gather_rows(layer.codebook.embeddings, idx0))
        cm = mse(z_d, Tensor(g0))
        return add(recon, mul_scalar(add(cb, mul_scalar(cm, config.alpha)), config.beta))

    return actual, surrogate


def adaptive_surrogate(state, x, tau=1.0, hard=True):
    """(actual, surrogate) loss builders for an adaptive-pool model.

    Per-codebook residuals and stop-gradient arguments are frozen at the
    base point; with ``hard`` the one-hot selections are frozen too while
    the soft scores stay live. The surrogate's gradient matches the
    straight-through backward of the actual loss (candidate values pass
    through straight-through connections even in soft mode, so plain
    finite differences never apply directly). Selection noise is off.
    """
    config = state.config
    pool = state.quantizer
    t = Tensor(np.asarray(x, dtype=config.dtype))
    z_e0 = encode(t, state)
    frozen = []
    for layer in pool.quantizers:
        z_d0 = layer.project_in(z_e0)
        idx0 = nearest_indices(z_d0.data, layer.codebook)
        g0 = layer.codebook.embeddings.data[idx0].copy()
        frozen.append((idx0, g0, g0 - z_d0.data, z_d0.data.copy()))
    logits0 = attention_logits(z_e0, pool)
    soft0 = softmax(mul_scalar(logits0, 1.0 / tau)).data.copy()
    if hard:
        hard0 = np.zeros_like(soft0)
        hard0[np.arange(soft0.shape[0]), soft0.argmax(axis=1)] = 1.0
        score_shift = hard0 - soft0
    else:
        score_shift = np.zeros_like(soft0)

    def actual():
        if hard:
            loss, _, _ = forward_loss(x, state, tau=tau, rng=None)
            return loss
        from aqvq.adaptive import adaptive_forward
        z_e = encode(t, state)
        result = adaptive_forward(z_e, pool, tau, alpha=config.alpha,
                                  beta=config.beta, rng=None, hard=False)
        return add(mse(t, decode(result.z_q, state)), result.loss)

    def surrogate():
        z_e = encode(t, state)
        rows = z_e.data.shape[0]
        candidates = []
        per_codebook = []
        for layer, (idx0, g0, residual0, z_d0_const) in zip(pool.quantizers, frozen):
            z_d = layer.project_in(z_e)
            quantized = add(z_d, Tensor(residual0))
            back = layer.project_out(quantized)
            candidates.append(reshape(back, (rows, 1, pool.num_hiddens)))
            cb = mse(Tensor(z_d0_const), gather_rows(layer.codebook.embeddings, idx0))
            cm = mse(z_d, Tensor(g0))
            per_codebook.append(mul_scalar(add(cb, mul_scalar(cm, config.alpha)), config.beta))
        z_s = candidates[0] if pool.m == 1 else concat(candidates, axis=1)
        total = per_codebook[0]
        for term in per_codebook[1:]:
            total = add(total, term)
        extra = mul_scalar(total, 1.0 / pool.m)
        soft = softmax(mul_scalar(attention_logits(z_e, pool), 1.0 / tau))
        scores = add(soft, Tensor(score_shift))
        z_q = reshape(bmm(reshape(scores, (rows, 1, pool.m)), z_s),
                      (rows, pool.num_hiddens))
        recon = mse(t, decode(z_q, state))
        return add(recon, extra)

    return actual, surrogate
