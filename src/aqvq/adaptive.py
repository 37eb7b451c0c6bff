"""Adaptive selection among codebooks of different shapes.

All candidate codebooks share one capacity: the product of codebook
size and codeword dimension is held constant while the split varies.
An attention score over learned per-codebook keys ranks the candidates,
and a hard Gumbel-Softmax draw picks one per row (``selection``).

In training, ``adaptive_forward`` quantizes every incoming row by every
candidate, because the loss averages all m candidates' terms, the EMA
learns from every candidate's assignments and the soft scores stay in
the gradient path. The combination is a batched matrix product of the
one-hot scores with the stacked candidate outputs, so the forward pass
reproduces the selected candidate exactly. In evaluation the draw has
no noise and temperature 1, so the pick depends on the rows alone:
``selected_forward`` makes it first and quantizes each row by the one
codebook it picked, with the same bytes. Both return the same
``QuantResult`` as a fixed layer, plus the selection counts.
"""

from __future__ import annotations

import warnings
from functools import reduce

import numpy as np

from .errors import ConfigError, ContractError, DimensionError
from .tensor import (
    Tensor,
    add,
    bmm,
    concat,
    matmul,
    mul_scalar,
    normal_param,
    reshape,
    softmax,
    transpose,
    zeros_param,
)
from .tensor import straight_through as _straight_through
from .tensor import affine
from .vq import CodebookSpec, QuantizerLayer, QuantResult, quantize

__all__ = [
    "CodebookPool",
    "enumerate_structures",
    "attention_logits",
    "gumbel_softmax",
    "temperature",
    "selection",
    "adaptive_forward",
    "selected_forward",
    "usage_histogram",
]


def enumerate_structures(w: int) -> list[CodebookSpec]:
    """All power-of-two splits [n, d] with n * d = w and n > d, ascending n."""
    if w < 2 or (w & (w - 1)) != 0:
        raise ConfigError(f"capacity must be a power of two of at least 2, got {w}")
    specs = []
    d = 1
    while d * d < w:
        specs.append(CodebookSpec(w // d, d))
        d *= 2
    return sorted(specs, key=lambda s: s.n)


class CodebookPool:
    """m independent quantizer layers plus the attention that ranks them.

    Each layer owns its codebook and projections; nothing is shared.
    ``keys``/``values`` hold one learned H-vector per codebook. Scoring
    runs multi-head attention of the projected query against the
    projected keys; per-head outputs over the values are mapped to m
    logits by a learned output map. With ``scores_qk_only`` the values
    are dropped and the raw per-head compatibility scores are averaged
    instead (with identity projections and one head this reduces to
    q . k / sqrt(H)). The constructor draws from ``rng`` the layers in
    ``specs`` order, then ``keys``, ``values``, each head's ``wq``, each
    head's ``wk``, each head's ``wv``, and ``w_out``.
    """

    def __init__(self, specs, num_hiddens: int, rng: np.random.Generator,
                 num_heads: int = 2, trainable_codebooks: bool = False,
                 scores_qk_only: bool = False, dtype=np.float64):
        specs = list(specs)
        if not specs:
            raise ConfigError("codebook pool needs at least one structure")
        if num_heads < 1 or num_hiddens % num_heads != 0:
            raise ConfigError(
                f"num_heads={num_heads} must be at least 1 and divide num_hiddens={num_hiddens}"
            )
        m, h = len(specs), num_hiddens
        self.quantizers = [QuantizerLayer(spec, h, rng, trainable_codebook=trainable_codebooks,
                                          dtype=dtype) for spec in specs]
        self.keys = normal_param(rng, h, (m, h), dtype)
        self.values = normal_param(rng, h, (m, h), dtype)
        head = (h, h // num_heads)  # one H x (H/heads) map per head
        self.wq = [normal_param(rng, h, head, dtype) for _ in range(num_heads)]
        self.wk = [normal_param(rng, h, head, dtype) for _ in range(num_heads)]
        self.wv = [normal_param(rng, h, head, dtype) for _ in range(num_heads)]
        self.w_out = normal_param(rng, h, (h, m), dtype)  # H x m
        self.b_out = zeros_param(m, dtype)
        self.num_heads = num_heads
        self.scores_qk_only = scores_qk_only

    @property
    def m(self) -> int:
        return len(self.quantizers)

    @property
    def num_hiddens(self) -> int:
        return self.keys.data.shape[1]

    def parameters(self, prefix: str = "pool.") -> dict:
        params = {f"{prefix}keys": self.keys, f"{prefix}values": self.values}
        for h in range(self.num_heads):
            params.update((f"{prefix}{name}{h}", getattr(self, name)[h]) for name in ("wq", "wk", "wv"))
        params[f"{prefix}w_out"] = self.w_out
        params[f"{prefix}b_out"] = self.b_out
        for i, q in enumerate(self.quantizers):
            params.update(q.parameters(prefix=f"{prefix}q{i}."))
        return params


def attention_logits(q: Tensor, pool: CodebookPool) -> Tensor:
    """Score each row of ``q`` against the pool's m codebooks.

    Scaled dot-product attention per head between projected queries and
    projected keys. The default route softmax-weights the projected
    values and maps the concatenated head outputs to m logits;
    ``scores_qk_only`` averages the raw compatibility scores instead.
    """
    if q.data.ndim != 2:
        raise DimensionError(f"queries must be T x H, got {q.data.shape}")
    if q.data.shape[1] != pool.num_hiddens:
        raise DimensionError(
            f"query width {q.data.shape[1]} != pool width {pool.num_hiddens}"
        )
    per_head_scores = []
    per_head_mixed = []
    for h in range(pool.num_heads):
        qh = matmul(q, pool.wq[h])
        kh = matmul(pool.keys, pool.wk[h])
        scale = 1.0 / np.sqrt(qh.data.shape[1])
        scores = mul_scalar(matmul(qh, transpose(kh)), scale)  # T x m
        per_head_scores.append(scores)
        if not pool.scores_qk_only:
            vh = matmul(pool.values, pool.wv[h])
            per_head_mixed.append(matmul(softmax(scores), vh))  # T x head_dim
    if pool.scores_qk_only:
        return mul_scalar(reduce(add, per_head_scores), 1.0 / pool.num_heads)
    return affine(concat(per_head_mixed, axis=1), pool.w_out, pool.b_out)


def gumbel_softmax(logits: Tensor, tau: float, hard: bool = True,
                   rng: np.random.Generator | None = None) -> Tensor:
    """Gumbel-Softmax over the last axis of T x m logits.

    Soft mode returns ``softmax((logits + g) / tau)`` with standard
    Gumbel noise ``g`` (no noise when ``rng`` is None). Hard mode emits
    the exact one-hot argmax of the soft distribution while routing
    gradients through the soft scores.
    """
    if tau <= 0:
        raise ConfigError(f"gumbel temperature must be positive, got {tau}")
    if logits.data.ndim != 2:
        raise DimensionError(f"logits must be T x m, got {logits.data.shape}")
    perturbed = logits
    if rng is not None:
        noise = rng.gumbel(size=logits.data.shape)
        perturbed = add(logits, Tensor(noise, dtype=logits.dtype))
    soft = softmax(mul_scalar(perturbed, 1.0 / tau))
    if not hard:
        return soft
    onehot = np.zeros_like(soft.data)
    onehot[np.arange(soft.data.shape[0]), soft.data.argmax(axis=1)] = 1.0
    return _straight_through(soft, Tensor(onehot))


def temperature(iterations: int, batch_index: int, mode: str) -> float:
    """Selection temperature schedule: linear countdown in training, 1 at validation."""
    if mode not in ("training", "validation"):
        raise ConfigError(f"unknown temperature mode {mode!r}")
    if batch_index < 0:
        raise ContractError(f"batch index must be nonnegative, got {batch_index}")
    if mode == "validation":
        return 1.0
    if batch_index > iterations:
        warnings.warn(
            f"batch index {batch_index} beyond schedule end {iterations}; temperature clamped to 1",
            stacklevel=2,
        )
        return 1.0
    return float(iterations - batch_index) + 1.0


def selection(z_e: Tensor, pool: CodebookPool, tau: float, hard: bool = True,
              rng: np.random.Generator | None = None) -> Tensor:
    """The T x m selection scores of ``z_e``'s rows: a Gumbel-Softmax draw
    over their attention logits; the pick of a row is its argmax."""
    return gumbel_softmax(attention_logits(z_e, pool), tau, hard=hard, rng=rng)


def adaptive_forward(z_e: Tensor, pool: CodebookPool, tau: float,
                     alpha: float = 0.25, beta: float = 1.0,
                     rng: np.random.Generator | None = None,
                     hard: bool = True) -> QuantResult:
    """Quantize rows through every codebook and combine by learned selection.

    The loss is the mean of the m per-codebook vq losses; ``counts``
    holds the hard selections per codebook.
    """
    if z_e.data.ndim != 2:
        raise DimensionError(f"adaptive quantization expects T x H rows, got {z_e.data.shape}")
    t_rows = z_e.data.shape[0]
    candidates = []
    assignments = []
    losses = []
    for layer in pool.quantizers:
        out = quantize(layer.project_in(z_e), layer.codebook, alpha=alpha, beta=beta)
        candidates.append(layer.project_out(out.z_q))
        assignments += out.assignments
        losses.append(out.loss)
    z_s = reshape(concat(candidates, axis=1), (t_rows, pool.m, pool.num_hiddens))
    mean_loss = mul_scalar(reduce(add, losses), 1.0 / pool.m)
    scores = selection(z_e, pool, tau, hard=hard, rng=rng)
    counts = np.bincount(scores.data.argmax(axis=1), minlength=pool.m)
    combined = bmm(reshape(scores, (t_rows, 1, pool.m)), z_s)
    return QuantResult(z_q=reshape(combined, (t_rows, pool.num_hiddens)),
                       loss=mean_loss,
                       assignments=assignments, counts=counts)


def selected_forward(z_e: Tensor, pool: CodebookPool, alpha: float = 0.25,
                     beta: float = 1.0) -> QuantResult:
    """Quantize each row by the one codebook it selects, without noise at
    temperature 1: the evaluation-time ``adaptive_forward``.

    The pick is made first, as ``adaptive_forward`` makes it, and only
    the rows that picked a codebook are searched in it. ``z_q`` has the
    bytes of ``adaptive_forward``'s: the projections run over the whole
    batch, because BLAS can round a row differently in a product of
    another shape, and a row searched alone in a batch of several is
    searched as a pair with itself, because BLAS scores a lone row with
    another kernel than a block. The loss is the selected candidate's
    vq term, weighted by its rows; it is a value for reporting, not a
    node of the graph.
    """
    if z_e.data.ndim != 2:
        raise DimensionError(f"adaptive quantization expects T x H rows, got {z_e.data.shape}")
    t_rows = z_e.data.shape[0]
    if t_rows == 0:
        raise ContractError("cannot quantize an empty batch")
    picks = selection(z_e, pool, 1.0).data.argmax(axis=1)
    counts = np.bincount(picks, minlength=pool.m)
    z_q = np.empty((t_rows, pool.num_hiddens), dtype=z_e.dtype)
    loss = 0.0
    assignments = []
    for i in np.flatnonzero(counts):
        layer, rows = pool.quantizers[i], np.flatnonzero(picks == i)
        projected = layer.project_in(z_e).data
        searched = np.repeat(rows, 2) if rows.size == 1 < t_rows else rows
        out = quantize(Tensor(projected[searched]), layer.codebook, alpha=alpha, beta=beta)
        codewords = np.zeros_like(projected)
        codewords[rows] = out.z_q.data[: rows.size]
        z_q[rows] = layer.project_out(Tensor(codewords)).data[rows]
        loss += out.loss.item() * (rows.size / t_rows)
        assignments += out.assignments
    return QuantResult(z_q=Tensor(z_q), loss=Tensor(loss, dtype=z_e.dtype),
                       assignments=assignments, counts=counts)


def usage_histogram(counts, window: int) -> list[np.ndarray]:
    """Normalized selection frequencies over consecutive windows of steps.

    ``counts`` holds one vector of selections per codebook for each step.
    """
    if window < 1:
        raise ContractError(f"window must be at least 1, got {window}")
    counts = [np.asarray(c, dtype=np.float64) for c in counts]
    out = []
    for start in range(0, len(counts), window):
        summed = np.sum(counts[start : start + window], axis=0)
        total = summed.sum()
        if total <= 0:
            raise ContractError("selection counts contain no selections")
        out.append(summed / total)
    return out
