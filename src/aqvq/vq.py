"""Fixed-codebook vector quantization.

A codebook is an N x D matrix of codewords. Continuous rows are
assigned to their nearest codeword, forwarded through a
straight-through connection, and pulled together by a codebook and a
commitment term, one graph node. Codewords learn either by gradient
descent on the codebook term or by exponential-moving-average updates
toward the vectors assigned to them. A codebook holds arrays only: the
EMA decay and smoothing constants are arguments of ``ema_update``, as
the loss weights are of ``quantize``.

``QuantizerLayer`` wraps a codebook together with the affine maps that
carry hidden activations into and out of the codeword dimension.
``QuantResult`` is what ``quantize`` and every quantizer kind hand back
to the model: a fixed layer is the one-codebook case of an adaptive pool.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ContractError, DimensionError
from .tensor import Tensor, _check_finite, _node, affine, normal_param, zeros_param
from .tensor import straight_through as _straight_through

__all__ = [
    "CodebookSpec",
    "Codebook",
    "QuantResult",
    "QuantizerLayer",
    "nearest_indices",
    "quantize",
    "ema_update",
]


@dataclass(frozen=True)
class CodebookSpec:
    """Codebook structure: ``n`` codewords of dimension ``d``, with n > d."""

    n: int
    d: int

    def __post_init__(self):
        if self.n < 1 or self.d < 1:
            raise ConfigError(f"codebook structure needs positive sizes, got [{self.n},{self.d}]")
        if self.n <= self.d:
            raise ConfigError(
                f"codebook size must exceed codeword dimension, got [{self.n},{self.d}]"
            )

    @property
    def capacity(self) -> int:
        return self.n * self.d

    @property
    def label(self) -> str:
        return f"[{self.n},{self.d}]"


class Codebook:
    """N x D codeword matrix plus the EMA statistics that update it.

    A codebook holds arrays only: ``embeddings`` is a Tensor so the
    codebook can participate in the graph (gradient-trained codebooks
    set ``trainable=True``), and the EMA constants are arguments of
    ``ema_update``. The EMA accumulators start consistent with the
    initial codewords: cluster sizes at one and sums equal to the
    codewords, so rows that never receive assignments keep their value
    instead of collapsing. Everything is in the codewords' dtype except
    ``ema_cluster_size``, which counts assignments and is always float64.

    ``sort_order`` is derived, not state: the permutation the last sorted
    search of a D == 1 codebook sorted the codewords by (None until
    then), kept so the next search starts from it (see ``_sort_order``).
    It is never saved, and the search never trusts it: the codewords are
    sorted again from it on every call.
    """

    def __init__(self, embeddings, trainable: bool = False):
        arr = np.asarray(embeddings)
        if arr.dtype.kind != "f":
            arr = arr.astype(np.float64)
        if arr.ndim != 2:
            raise DimensionError(f"codebook must be a matrix, got shape {arr.shape}")
        self.embeddings = Tensor(arr.copy(), requires_grad=trainable)
        self.ema_cluster_size = np.ones(arr.shape[0], dtype=np.float64)
        self.ema_embed_sum = arr.copy()
        self.sort_order = None

    @property
    def n(self) -> int:
        return self.embeddings.data.shape[0]

    @property
    def d(self) -> int:
        return self.embeddings.data.shape[1]


@dataclass
class QuantResult:
    """What ``quantize``, a fixed layer or an adaptive pool returns for T rows.

    Without a quantizer ``model.quantizer_output`` returns the identity
    case: the rows themselves, a zero loss and no assignments.
    """

    z_q: Tensor              # T quantized rows, as wide as the rows given in
    loss: Tensor             # the quantizer's term of the model loss
    assignments: list        # (codebook, T x D quantized rows, indices) per codebook
    counts: np.ndarray | None = None  # selections per codebook; None without a selection


def _rows_of(z, dtype) -> np.ndarray:
    arr = z.data if isinstance(z, Tensor) else np.asarray(z)
    if arr.dtype != dtype:
        with np.errstate(over="ignore"):  # out of range becomes inf, which callers reject
            arr = arr.astype(dtype)
    if arr.ndim != 2:
        raise DimensionError(f"expected T x D rows, got shape {arr.shape}")
    return arr


# distance elements per tile: T x width doubles, 512 KB, so a tile stays in L2
TILE_ELEMENTS = 1 << 16
# tile widths are whole multiples of this many codewords (see nearest_indices)
PANEL = 8


def nearest_indices(z_rows, codebook: Codebook) -> np.ndarray:
    """Index of the closest codeword per row; ties go to the lowest index.

    A codebook with D >= 2 is scored with one matrix product per tile of
    codewords: the augmented rows ``q = [-2 z, 1]`` times the augmented
    codewords ``[e, |e|^2]``, which gives ``|e|^2 - 2 z.e``. That is the
    squared distance less ``|z|^2``, which is the same for every
    codeword of a row and so cannot change its pick; it is not formed.
    For D == 1 the score is the full ``(|z|^2 - 2 z.e) + |e|^2``, with
    the products from ``np.multiply``, which forms the same exact
    products far faster than a K=1 matmul and is the expression
    ``_nearest_sorted`` reproduces.

    The augmented codebook, a (D+1) x padded array, is built once per
    call; each tile is scored into a single reused T x width buffer of
    about TILE_ELEMENTS elements, and each tile's smallest score and its
    index are kept per row. One ``argmin`` across the tiles' smallest
    scores then merges them: it takes the first of equal ones, so an
    earlier tile keeps a tie, and the pick is the argmin of the row's
    whole score vector. Rows holding NaN or inf raise ``NumericError``.

    Every tile has the same width, a whole multiple of PANEL codewords;
    the columns past the last codeword are zero codewords whose
    ``|e|^2`` row holds ``+inf``, so a pad scores ``+inf`` against any
    finite row and is never picked. This keeps ties exact: BLAS computes
    a partial panel of columns with another kernel than a whole one,
    which can round the product differently, so bit-identical codewords
    would get different scores and a higher index could win.
    ``TestNearestIndices::test_duplicate_codewords_go_to_lowest_index``
    pins the rule.

    A finite D == 1 codebook that needs more than one tile is searched
    in sorted order instead, with the same result (see
    ``_nearest_sorted``), sorted from the order its last search left in
    ``codebook.sort_order``.
    """
    emb = codebook.embeddings.data
    z = _rows_of(z_rows, emb.dtype)
    if z.shape[1] != emb.shape[1]:
        raise DimensionError(
            f"rows have dimension {z.shape[1]}, codebook has {emb.shape[1]}"
        )
    rows, (n, d) = z.shape[0], emb.shape
    if n == 0:
        raise ContractError("codebook has no codewords")
    _check_finite(z, "nearest_indices rows")
    width = max(PANEL, TILE_ELEMENTS // max(rows, 1) // PANEL * PANEL)
    width = min(width, -(-n // PANEL) * PANEL)
    padded = -(-n // width) * width
    if d == 1 and padded > width and rows:
        codebook.sort_order = _sort_order(emb[:, 0], codebook.sort_order)
        best = _nearest_sorted(z[:, 0], emb[:, 0], codebook.sort_order)
        if best is not None:
            return best
    codes = _augmented(emb, padded)
    # -2 z.e as (-2 z).e: scaling by a power of two is exact
    scaled = z * -2.0
    if d == 1:
        row_sq = z * z
    else:
        q = np.ones((rows, d + 1), dtype=emb.dtype)
        q[:, :d] = scaled
    buf = np.empty((rows, width), dtype=emb.dtype)

    def score(start):
        tile = codes[:, start : start + width]
        if d == 1:
            np.multiply(scaled, tile[0], out=buf)
            np.add(row_sq, buf, out=buf)
            np.add(buf, tile[1], out=buf)
        else:
            np.matmul(q, tile, out=buf)

    if padded == width:
        score(0)
        return buf.argmin(axis=1)
    tiles, picks = padded // width, np.arange(rows)
    best = np.empty((tiles, rows), dtype=np.intp)
    low = np.empty((tiles, rows), dtype=emb.dtype)
    for k in range(tiles):
        score(k * width)
        buf.argmin(axis=1, out=best[k])
        low[k] = buf[picks, best[k]]
    tile = low.argmin(axis=0)
    return best[tile, picks] + tile * width


def _augmented(emb: np.ndarray, padded: int) -> np.ndarray:
    """The (D+1) x padded array ``[e, |e|^2]^T`` of ``nearest_indices``.

    Rows 0..D-1 hold the codewords as columns, row D their ``|e|^2``.
    Columns past the last codeword are zero codewords with ``+inf`` in
    row D. ``|e|^2`` is summed down the transposed block, one codeword
    coordinate after another: for D <= 4 that is the order, and so the
    bytes, of ``(emb * emb).sum(axis=1)``; for a larger D that sum adds
    pairwise and can differ from this one in the last bit.
    """
    n, d = emb.shape
    codes = np.empty((d + 1, padded), dtype=emb.dtype)
    block = codes[:d, :n]
    block[...] = emb.T
    codes[:d, n:] = 0.0
    codes[d, n:] = np.inf
    np.square(block).sum(axis=0, out=codes[d, :n])
    return codes


def _sort_order(codes: np.ndarray, previous: np.ndarray | None) -> np.ndarray:
    """A permutation that sorts the scalar codewords ``codes``.

    Given the order a previous search sorted them by, the codewords are
    sorted again in that order with a stable sort and the result is
    mapped back through it. The EMA or Adam steps between two searches
    move codewords little, so they are nearly sorted in the old order,
    on which timsort is close to linear. Any permutation of the right
    size works as a start, because ``_nearest_sorted``'s picks depend on
    the sorted values only; without one (or with one of another size)
    the codewords are argsorted from scratch. The new order overwrites
    ``previous``, so a codebook's order array keeps its place in memory
    from one search to the next.
    """
    if previous is None or previous.shape != codes.shape:
        return np.argsort(codes)
    previous[...] = previous[np.argsort(codes[previous], kind="stable")]
    return previous


def _nearest_sorted(z: np.ndarray, codes: np.ndarray,
                    order: np.ndarray | None = None) -> np.ndarray | None:
    """``nearest_indices`` of scalar rows ``z`` against scalar codewords.

    The codewords are taken in ``order``, a permutation that sorts them
    (argsorted here when None), and each row's bracketing pair gives
    ``best``, its exact distance to the nearest codeword. The dense
    scan's score of a codeword at exact distance ``r`` from row ``z``
    differs from ``r^2`` by at most about ``1.5 eps (|z| + |e|)^2``
    (the three products err by at most ``eps / 2`` times that square
    together, and each of the two sums by as much again), plus half a
    subnormal for each of the five roundings that underflows. A
    codeword can therefore score at or below the nearest
    one only if ``r^2 <= best^2 + 3 eps (|z| + max|e|)^2 + 5 tiny``.
    The window of codewords within ``sqrt(best^2 + 16 eps (|z| +
    max|e|)^2 + 16 tiny)`` covers that with room for the rounding of
    the window itself, and only the window is scored, with the dense
    expression. Its smallest score, lowest index first, is the dense
    scan's pick. Only the sorted values matter: the windows come from
    ``searchsorted`` on them and ties go to the lowest original index,
    so which of several sorting permutations ``order`` is does not
    change a pick.

    The rows share the codebook's dtype, whose ``eps`` and ``tiny`` these
    are. Returns None, leaving the search to the dense scan, when the
    codebook holds NaN or inf or a score could overflow.
    """
    if order is None:
        order = np.argsort(codes)
    ordered = codes[order]
    fin = np.finfo(codes.dtype)
    edge = np.abs(ordered[[0, -1]]).max()  # max |e|; NaN, which sorts last, if any
    reach = float(np.abs(z).max()) + float(edge)
    if not 4.0 * reach * reach < float(fin.max):
        return None
    pos = np.searchsorted(ordered, z)
    below = ordered[np.maximum(pos - 1, 0)]
    above = ordered[np.minimum(pos, codes.size - 1)]
    best = np.minimum(np.abs(z - below), np.abs(z - above))
    span = np.abs(z) + edge
    radius = np.sqrt(best * best + 16 * fin.eps * span * span + 16 * fin.smallest_subnormal)
    lo = np.searchsorted(ordered, z - radius, "left")
    sizes = np.searchsorted(ordered, z + radius, "right") - lo
    starts = np.cumsum(sizes) - sizes
    owner = np.repeat(np.arange(z.size), sizes)
    cand = order[np.arange(sizes.sum()) + np.repeat(lo - starts, sizes)]
    e = codes[cand]
    score = ((z * z)[owner] + (z * -2.0)[owner] * e) + e * e
    low = np.minimum.reduceat(score, starts)
    tied = score == np.repeat(low, sizes)
    return np.minimum.reduceat(np.where(tied, cand, codes.size), starts)


def quantize(z_e: Tensor, codebook: Codebook, alpha: float = 0.25,
             beta: float = 1.0) -> QuantResult:
    """Quantize rows of ``z_e``; return the codewords and the VQ-VAE loss.

    The loss is one ``vq_loss`` graph node, ``beta * (m + alpha * m)`` with
    ``m = mean((z_e - e)^2)`` over all elements and ``e`` the selected
    codewords. The codebook term ``m`` sends its gradient to the
    codewords (only when they are trained by gradient), the commitment
    term ``alpha * m`` to ``z_e``. ``z_q`` carries the exact codeword
    values forward and the straight-through gradient back to ``z_e``.
    ``assignments`` is the one ``(codebook, rows, indices)`` record that
    ``ema_update`` learns from.
    """
    if alpha < 0 or beta < 0:
        raise ConfigError(f"loss weights must be nonnegative, got alpha={alpha} beta={beta}")
    rows = _rows_of(z_e, z_e.dtype)
    if rows.shape[0] == 0:
        raise ContractError("cannot quantize an empty batch")
    idx = nearest_indices(rows, codebook)
    embeddings = codebook.embeddings
    selected = embeddings.data[idx]
    diff = rows - selected
    alpha, beta, scale = float(alpha), float(beta), 2.0 / diff.size
    m = (diff * diff).mean()

    def vjp(g):
        # each term in the arithmetic order of an mse node of its own
        g = g * beta
        codes = None
        if embeddings.requires_grad:
            codes = np.zeros_like(embeddings.data)
            np.add.at(codes, idx, -(g * scale) * diff)
        return ((g * alpha) * scale) * diff, codes

    loss = _node("vq_loss", (m + m * alpha) * beta, (z_e, embeddings), vjp)
    return QuantResult(_straight_through(z_e, Tensor(selected)), loss, [(codebook, rows, idx)])


def ema_update(codebook: Codebook, z_rows, indices, gamma: float, laplace_eps: float,
               paper_form: bool = False) -> None:
    """Move codewords toward the vectors assigned to them.

    Default form: running counts and sums per codeword, each decayed by
    ``gamma`` in (0, 1) before this batch's share ``1 - gamma`` is
    added; the cluster sizes are Laplace-smoothed by ``laplace_eps > 0``
    over the batch total, then ``embeddings = embed_sum /
    smoothed_size``. With ``paper_form=True`` each assigned vector
    instead directly drags its codeword: ``new = (1 - gamma) * old +
    gamma * z``, applied per assigned row in order, and ``laplace_eps``
    is unused.

    Both forms update the codebook's arrays in place. The default form
    never allocates an N x D temporary when the codebook has more
    codewords than rows: it sums the batch only for the assigned
    codewords, which gives the same bytes as adding a zero-filled N x D
    batch except that a running sum that decays to an exact negative
    zero keeps its sign. Rows holding NaN or inf raise ``NumericError``.
    """
    if not 0.0 < gamma < 1.0:
        raise ConfigError(f"EMA decay must lie in (0,1), got {gamma}")
    if laplace_eps <= 0:
        raise ConfigError(f"laplace_eps must be positive, got {laplace_eps}")
    gamma, laplace_eps = float(gamma), float(laplace_eps)
    z = _rows_of(z_rows, codebook.embeddings.data.dtype)
    idx = np.asarray(indices, dtype=np.int64)
    if idx.shape != (z.shape[0],):
        raise DimensionError(f"{z.shape[0]} rows but {idx.shape} indices")
    n_codes = codebook.n
    if idx.size and (idx.min() < 0 or idx.max() >= n_codes):
        raise ContractError("assignment index out of range")
    if z.shape[1] != codebook.d:
        raise DimensionError(f"rows have dimension {z.shape[1]}, codebook has {codebook.d}")
    _check_finite(z, "ema_update rows")
    emb = codebook.embeddings.data

    if paper_form:
        for row, j in zip(z, idx):
            emb[j] = (1.0 - gamma) * emb[j] + gamma * row
        return

    # with more codewords than rows, sum the batch only for the assigned
    # codewords: an unassigned one would add (1 - gamma) * 0 to its decayed sum
    if n_codes > idx.size:
        hit, slot = np.unique(idx, return_inverse=True)
    else:
        hit, slot = slice(None), idx
    sums = np.zeros_like(emb[hit])
    np.add.at(sums, slot, z)
    cluster_size, embed_sum = codebook.ema_cluster_size, codebook.ema_embed_sum
    cluster_size *= gamma
    cluster_size[hit] += (1.0 - gamma) * np.bincount(slot, minlength=sums.shape[0])
    embed_sum *= gamma
    embed_sum[hit] += (1.0 - gamma) * sums
    total = cluster_size.sum()
    smoothed = cluster_size + laplace_eps
    smoothed /= total + n_codes * laplace_eps
    smoothed *= total
    np.divide(embed_sum, smoothed[:, None], out=emb)


class QuantizerLayer:
    """A codebook plus the affine maps into and out of its dimension.

    ``project_in`` carries T x H hidden rows to the codeword dimension
    D, ``project_out`` carries quantized rows back to H. Both maps are
    learned; ``model.quantizer_output`` runs the full
    project/quantize/project pipeline. The constructor draws the
    codewords, ``w_in`` and ``w_out`` from ``rng`` in that order; the
    biases start at zero.
    """

    def __init__(self, spec: CodebookSpec, num_hiddens: int, rng: np.random.Generator,
                 trainable_codebook: bool = False, dtype=np.float64):
        self.spec = spec
        # std 1/sqrt(d) keeps expected codeword norm at 1 across structures
        codewords = rng.normal(0.0, 1.0 / np.sqrt(spec.d), size=(spec.n, spec.d))
        self.codebook = Codebook(codewords.astype(dtype, copy=False), trainable=trainable_codebook)
        self.w_in = normal_param(rng, num_hiddens, (num_hiddens, spec.d), dtype)
        self.b_in = zeros_param(spec.d, dtype)
        self.w_out = normal_param(rng, spec.d, (spec.d, num_hiddens), dtype)
        self.b_out = zeros_param(num_hiddens, dtype)

    def project_in(self, hidden: Tensor) -> Tensor:
        return affine(hidden, self.w_in, self.b_in)

    def project_out(self, quantized: Tensor) -> Tensor:
        return affine(quantized, self.w_out, self.b_out)

    def parameters(self, prefix: str = "") -> dict:
        params = {f"{prefix}{name}": getattr(self, name) for name in ("w_in", "b_in", "w_out", "b_out")}
        if self.codebook.embeddings.requires_grad:
            params[f"{prefix}codebook"] = self.codebook.embeddings
        return params
