"""Shared test oracles: brute-force scans, the dense distance scan, the
pattern images built one sample at a time, an einsum convolution, the
VQ-VAE objective as separate graph nodes, the EMA update over whole
N x D arrays, the per-parameter Adam loop, a hand-rolled autoencoder,
frozen-residual surrogates for gradient checking through the
straight-through paths, a checkpoint's whole document for
``write_json`` and damaged copies of its text, and a run-report record
as stored."""

import base64
import json
import re

import numpy as np

from aqvq.model import ADAM_BETA1, ADAM_BETA2, ADAM_EPS, decode, encode, forward_loss
from aqvq.persist import FORMAT_VERSION, _state_arrays
from aqvq.tensor import (
    Tensor,
    add,
    bmm,
    concat,
    detach,
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


def dense_scan_nearest(z, embeddings):
    """``nearest_indices`` of T x 1 rows against an N x 1 codebook, as one
    T x N matrix of its distance expression.

    Each entry is ``(z^2 + (-2 z) e) + e^2``: ``z^2`` and ``-2 z`` in the
    rows' dtype, ``e^2`` in the codebook's, and the product and sums in
    their common dtype, each one elementwise operation as in the tiled
    scan. ``np.argmin`` takes the lowest index of the smallest entry.
    ``z`` keeps its own dtype.
    """
    z = np.asarray(z)
    embeddings = np.asarray(embeddings)
    assert z.shape[1] == embeddings.shape[1] == 1
    e = embeddings[:, 0]
    return np.argmin(((z * z) + (z * -2.0) * e) + e * e, axis=1)


def reference_patterns(source, rng):
    """The 8x8 pattern images of ``data._patterns``, built one sample at a
    time with the same draws in the same order, and their families."""
    side = 8
    yy, xx = np.mgrid[0:side, 0:side]
    images = np.empty((source.samples, 1, side, side))
    families = rng.integers(0, 3, size=source.samples)
    for i, family in enumerate(families):
        if family == 0:  # stripes, random orientation/period/phase
            period = int(rng.integers(2, 5))
            phase = int(rng.integers(0, period))
            axis = yy if rng.random() < 0.5 else xx
            img = ((axis + phase) // period % 2).astype(np.float64)
        elif family == 1:  # checkerboard with random cell size
            cell = int(rng.integers(1, 4))
            img = (((yy // cell) + (xx // cell)) % 2).astype(np.float64)
        else:  # gaussian blob at a random location
            cy, cx = rng.uniform(1.5, 6.5, size=2)
            width = rng.uniform(1.0, 2.5)
            img = np.exp(-((yy - cy) ** 2 + (xx - cx) ** 2) / (2.0 * width**2))
        images[i, 0] = img
    images += source.noise_sigma * rng.normal(size=images.shape)
    return images, families


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


def reference_vq_loss(z_e, codebook, alpha, beta):
    """``beta * (codebook term + alpha * commitment term)`` of ``z_e``
    against its nearest codewords, built from separate graph nodes: the
    codebook term ``mse(sg[z_e], e)`` sends its gradient only to the
    gathered codewords, the commitment term ``mse(z_e, sg[e])`` only to
    ``z_e``."""
    selected = gather_rows(codebook.embeddings, nearest_indices(z_e.data, codebook))
    codebook_term = mse(detach(z_e), selected)
    commitment_term = mse(z_e, detach(selected))
    return mul_scalar(add(codebook_term, mul_scalar(commitment_term, alpha)), beta)


def reference_ema_update(codebook, z_rows, indices, gamma, laplace_eps):
    """The default-form EMA update of ``vq.ema_update`` over whole N x D
    arrays: decay every running count and sum, add this batch's share
    (zero for unassigned codewords), smooth the counts and divide."""
    emb = codebook.embeddings.data
    z = np.asarray(z_rows.data if isinstance(z_rows, Tensor) else z_rows, dtype=emb.dtype)
    idx = np.asarray(indices, dtype=np.int64)
    n_codes = emb.shape[0]
    counts = np.bincount(idx, minlength=n_codes).astype(np.float64)
    sums = np.zeros_like(emb)
    np.add.at(sums, idx, z)
    codebook.ema_cluster_size *= gamma
    codebook.ema_cluster_size += (1.0 - gamma) * counts
    codebook.ema_embed_sum *= gamma
    codebook.ema_embed_sum += (1.0 - gamma) * sums
    total = codebook.ema_cluster_size.sum()
    smoothed = (
        (codebook.ema_cluster_size + laplace_eps)
        / (total + n_codes * laplace_eps)
        * total
    )
    emb[...] = codebook.ema_embed_sum / smoothed[:, None]


def reference_adam_update(state):
    """``model._adam_update`` as one loop over the parameters, each with
    its own moment slices, cut from the arena by the parameter sizes in
    order, and a zero gradient for a parameter without one."""
    lr = state.config.learning_rate
    state.adam_t += 1
    t = state.adam_t
    bias1 = 1.0 - ADAM_BETA1 ** t
    bias2 = 1.0 - ADAM_BETA2 ** t
    end = 0
    for p in state.params.values():
        g = p.grad if p.grad is not None else np.zeros_like(p.data)
        start, end = end, end + p.data.size
        m, v = (arr[start:end].reshape(p.data.shape) for arr in state.arena[1:])
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * g * g
        p.data -= lr * (m / bias1) / (np.sqrt(v / bias2) + ADAM_EPS)


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


def checkpoint_document(state, dataset=None):
    """The whole document a checkpoint of ``state`` holds, its hex payload
    in place: ``write_json`` of it writes the bytes ``save_checkpoint``
    must write."""
    arrays = _state_arrays(state)
    return {
        "format_version": FORMAT_VERSION,
        "config": {
            "model": state.config.to_dict(),
            "dataset": dataset.to_dict() if dataset is not None else None,
        },
        "step": state.step,
        "adam_t": state.adam_t,
        "arrays": {name: {"shape": list(arr.shape), "dtype": str(arr.dtype)}
                   for name, arr in arrays.items()},
        "payload": "".join(arr.astype(arr.dtype.newbyteorder("<"), copy=False).tobytes().hex()
                           for arr in arrays.values()),
    }


def stored_values(doc) -> dict:
    """The flat values of each array of a checkpoint document, read from
    its hex payload."""
    values, at = {}, 0
    for name, entry in doc["arrays"].items():
        dtype = np.dtype(entry["dtype"]).newbyteorder("<")
        size = 2 * dtype.itemsize * int(np.prod(entry["shape"]))
        values[name] = np.frombuffer(bytes.fromhex(doc["payload"][at:at + size]), dtype)
        at += size
    return values


DAMAGE = ("cut-inside-payload", "bytes-after-brace", "odd-length-long", "odd-length-short",
          "non-hex", "json-escape", "escaped-quote", "payload-missing", "key-after-payload",
          "payload-before-step", "one-value-short", "format-3")


def damaged_checkpoints(data: bytes) -> dict:
    """Damaged copies of the checkpoint text ``data``, as ``save_checkpoint``
    wrote it: each id of ``DAMAGE`` maps to the damaged text and a pattern of
    the message that rejects it."""
    doc = json.loads(data)
    names = [re.escape(name) for name in doc["arrays"]]
    start = data.index(b'"payload": "') + len(b'"payload": "')
    end = start + len(doc["payload"])
    last_value = 2 * np.dtype(doc["arrays"][list(doc["arrays"])[-1]]["dtype"]).itemsize
    rest = {k: v for k, v in doc.items() if k != "payload"}
    version3 = {**rest, "format_version": 3, "arrays": {
        name: {**doc["arrays"][name], "b64": base64.b64encode(values.tobytes()).decode("ascii")}
        for name, values in stored_values(doc).items()}}
    return {
        "cut-inside-payload": (data[:start + 10],
                               f"the file ends inside the payload, in {names[0]}"),
        "bytes-after-brace": (data + b"{}\n", "bytes follow the document's closing brace"),
        "odd-length-long": (data[:end] + b"0" + data[end:],
                            "the payload runs past the hex of the arrays' bytes"),
        "odd-length-short": (data[:end - 1] + data[end:],
                             f"the payload ends inside {names[-1]}"),
        "non-hex": (data[:start + 4] + b"g" + data[start + 5:],
                    f"{names[0]} has a bad payload: Non-hexadecimal digit"),
        "json-escape": (data[:start + 4] + b"\\u%04x" % data[start + 4] + data[start + 5:],
                        f"{names[0]} has a bad payload: Non-hexadecimal digit"),
        "escaped-quote": (data[:start + 4] + b'\\"' + data[start + 4:],
                          f"{names[0]} has a bad payload: Non-hexadecimal digit"),
        "payload-missing": (json.dumps(rest).encode(), 'no "payload" string ends the document'),
        "key-after-payload": (json.dumps({**doc, "surprise": 1}).encode(),
                              "the payload is not the document's last value"),
        "payload-before-step": (json.dumps({k: doc[k] for k in ["format_version", "config",
                                                                "payload", "step", "adam_t",
                                                                "arrays"]}).encode(),
                                "missing checkpoint field 'step'"),
        "one-value-short": (data[:end - last_value] + data[end:],
                            f"the payload ends inside {names[-1]}"),
        "format-3": (json.dumps(version3).encode(), "format version 3 is not supported"),
    }


def report_record(step, **changes):
    """A run-report record as ``RunReport.to_json`` stores it, with ``changes``."""
    return {"step": step, "recon": 0.5, "vq": 0.1, "gap": None, "temperature": None,
            "usage": None, **changes}
