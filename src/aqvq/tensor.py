"""Dense tensors with reverse-mode differentiation.

A small define-by-run engine on top of numpy. Every operation eagerly
computes its value and remembers how to push gradients back to its
inputs; ``backward`` walks the resulting graph once in reverse
topological order. Double precision is the default; float32 inputs are
kept as float32.

Inside ``_no_graph`` an op keeps neither its inputs nor its backward
rule, so each intermediate is freed as soon as the next op has read it;
evaluation runs there (``model.evaluate`` says why).

The op set is deliberately small: exactly what an encoder/decoder pair,
a vector quantizer with straight-through gradients, scaled dot-product
attention, and mean-squared losses need. There is no broadcasting
beyond scalars, no GPU path, and no higher-order differentiation.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import ContractError, DimensionError, NumericError

__all__ = [
    "Tensor",
    "normal_param",
    "zeros_param",
    "Graph",
    "backward",
    "finite_difference_grad",
    "relative_error",
    "add",
    "mul_scalar",
    "relu",
    "affine",
    "matmul",
    "transpose",
    "reshape",
    "concat",
    "bmm",
    "softmax",
    "mse",
    "detach",
    "straight_through",
    "gather_rows",
    "conv2d_3x3",
]


def _contiguous(arr: np.ndarray) -> np.ndarray:
    # ascontiguousarray would promote 0-d arrays to 1-d; keep scalars 0-d
    return arr if arr.ndim == 0 else np.ascontiguousarray(arr)


def _as_float_array(data, dtype=None) -> np.ndarray:
    arr = np.asarray(data, dtype=dtype)
    if arr.dtype.kind != "f":
        arr = arr.astype(np.float64)
    return _contiguous(arr)


def _check_finite(arr: np.ndarray, where: str) -> None:
    if not np.isfinite(arr).all():
        raise NumericError(f"non-finite values in {where}")


class Tensor:
    """n-dimensional array with an optional gradient slot.

    ``data`` is a contiguous float array, ``grad`` (same shape) is
    populated by ``backward`` for every node with ``requires_grad``.
    Tensors produced by ops carry links to their inputs; leaves do not.
    """

    __slots__ = ("data", "grad", "requires_grad", "kind", "_parents", "_vjp")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        self.data = _as_float_array(data, dtype)
        _check_finite(self.data, "tensor construction")
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = bool(requires_grad)
        self.kind = "leaf"
        self._parents: tuple = ()
        self._vjp: Optional[Callable] = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        if self.data.size != 1:
            raise ContractError(f"item() on tensor of shape {self.shape}")
        return float(self.data.reshape(()))

    def __repr__(self):
        return f"Tensor(kind={self.kind!r}, shape={self.shape}, requires_grad={self.requires_grad})"


def normal_param(rng: np.random.Generator, fan_in: int, shape, dtype) -> Tensor:
    """Trainable weights drawn from a normal with std 1/sqrt(fan_in)."""
    return Tensor(rng.normal(0.0, 1.0 / np.sqrt(fan_in), size=shape).astype(dtype, copy=False),
                  requires_grad=True)


def zeros_param(shape, dtype) -> Tensor:
    """Trainable zeros, the initial value of every bias."""
    return Tensor(np.zeros(shape, dtype=dtype), requires_grad=True)


# Whether ops record their graph; off only inside ``_no_graph``. One flag
# per process: a thread training while another evaluates would lose its graph.
_recording = True


@contextmanager
def _no_graph():
    """Run ops without recording: their results keep no parents and no
    backward rule and require no gradient. The previous setting comes
    back on exit, also when the body raises."""
    global _recording
    saved, _recording = _recording, False
    try:
        yield
    finally:
        _recording = saved


def _node(kind: str, data: np.ndarray, parents: Sequence[Tensor], vjp) -> Tensor:
    """Wrap an op result, recording parents and the backward rule unless
    inside ``_no_graph``."""
    _check_finite(data, f"output of op '{kind}'")
    out = Tensor.__new__(Tensor)
    out.data = _contiguous(np.asarray(data))
    out.grad = None
    out.requires_grad = _recording and any(p.requires_grad for p in parents)
    out.kind = kind
    out._parents = tuple(parents) if _recording else ()
    out._vjp = vjp if out.requires_grad else None
    return out


class Graph:
    """Topologically ordered record of the ops reachable from a root.

    ``nodes`` lists every tensor in the computation, inputs strictly
    before their consumers. Built once per backward pass (the forward
    pass defines the graph by running).
    """

    def __init__(self, root: Tensor):
        order: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(root, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited:
                    stack.append((parent, False))
        self.nodes = order


def backward(loss: Tensor) -> None:
    """Populate ``grad`` on every requires_grad tensor reachable from ``loss``.

    ``loss`` must be scalar. Gradients accumulate into existing ``grad``
    buffers, so callers zero them between steps. Each graph node is
    visited exactly once; the traversal order is deterministic, so
    repeated runs produce bit-identical gradients.
    """
    if loss.data.shape != ():
        raise ContractError(f"backward target must be scalar, got shape {loss.data.shape}")
    if not loss.requires_grad:
        return
    graph = Graph(loss)
    pending: dict[int, np.ndarray] = {id(loss): np.ones((), dtype=loss.dtype)}
    for node in reversed(graph.nodes):
        grad = pending.pop(id(node), None)
        if grad is None:
            continue
        _check_finite(grad, f"gradient at op '{node.kind}'")
        if node.requires_grad:
            node.grad = grad if node.grad is None else node.grad + grad
        if node._vjp is None:
            continue
        for parent, pgrad in zip(node._parents, node._vjp(grad)):
            if pgrad is None or not parent.requires_grad:
                continue
            if pgrad.shape != parent.data.shape:
                raise DimensionError(
                    f"vjp of '{node.kind}' produced shape {pgrad.shape} for parent {parent.data.shape}"
                )
            seen = pending.get(id(parent))
            pending[id(parent)] = pgrad if seen is None else seen + pgrad


def relative_error(a, b) -> float:
    """Max elementwise |a-b| / max(1e-8, |a|+|b|)."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = np.maximum(1e-8, np.abs(a) + np.abs(b))
    return float(np.max(np.abs(a - b) / denom)) if a.size else 0.0


def finite_difference_grad(f, t: Tensor, step: float = 1e-6) -> Tensor:
    """Central-difference gradient of scalar ``f`` with respect to ``t``.

    Test oracle: evaluates ``f`` twice per element of ``t`` at ``±step``
    perturbations and restores ``t`` afterwards.
    """
    if step <= 0:
        raise ContractError("finite difference step must be positive")

    def evaluate() -> float:
        value = f(t)
        value = value.item() if isinstance(value, Tensor) else float(value)
        if not np.isfinite(value):
            raise NumericError("non-finite function value during finite differencing")
        return value

    flat = t.data.reshape(-1)
    out = np.empty_like(flat)
    for i in range(flat.size):
        saved = flat[i]
        flat[i] = saved + step
        hi = evaluate()
        flat[i] = saved - step
        lo = evaluate()
        flat[i] = saved
        out[i] = (hi - lo) / (2.0 * step)
    return Tensor(out.reshape(t.data.shape))


# ---------------------------------------------------------------------------
# Ops. Each returns a node whose vjp maps the output gradient to one
# gradient per parent (None where no gradient flows).
# ---------------------------------------------------------------------------


def add(a: Tensor, b) -> Tensor:
    """Elementwise sum; the second operand may be a scalar."""
    if not isinstance(b, Tensor):
        b = Tensor(np.asarray(b, dtype=a.dtype))
    if b.data.shape == a.data.shape:
        vjp = lambda g: (g, g)
    elif b.data.shape == ():
        vjp = lambda g: (g, g.sum())
    else:
        raise DimensionError(f"add: shapes {a.data.shape} and {b.data.shape}")
    return _node("add", a.data + b.data, (a, b), vjp)


def mul_scalar(t: Tensor, c: float) -> Tensor:
    """Multiply by a Python scalar constant."""
    c = float(c)
    return _node("mul_scalar", t.data * c, (t,), lambda g: (g * c,))


def relu(t: Tensor) -> Tensor:
    mask = t.data > 0
    return _node("relu", np.where(mask, t.data, 0.0), (t,), lambda g: (g * mask,))


def affine(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Row-wise affine map ``x @ w + b`` for 2-d ``x``."""
    if x.data.ndim != 2 or w.data.ndim != 2 or b.data.ndim != 1:
        raise DimensionError(
            f"affine expects 2-d x, 2-d w, 1-d b; got {x.data.shape}, {w.data.shape}, {b.data.shape}"
        )
    if x.data.shape[1] != w.data.shape[0] or w.data.shape[1] != b.data.shape[0]:
        raise DimensionError(f"affine: x {x.data.shape}, w {w.data.shape}, b {b.data.shape}")

    def vjp(g):
        return g @ w.data.T, x.data.T @ g, g.sum(axis=0)

    return _node("affine", x.data @ w.data + b.data, (x, w, b), vjp)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[1] != b.data.shape[0]:
        raise DimensionError(f"matmul: {a.data.shape} @ {b.data.shape}")
    return _node(
        "matmul", a.data @ b.data, (a, b), lambda g: (g @ b.data.T, a.data.T @ g)
    )


def transpose(t: Tensor, axes: Optional[Sequence[int]] = None) -> Tensor:
    if axes is None:
        if t.data.ndim != 2:
            raise DimensionError(f"transpose without axes expects 2-d, got {t.data.shape}")
        axes = (1, 0)
    axes = tuple(axes)
    inverse = tuple(np.argsort(axes))
    return _node(
        "transpose", np.transpose(t.data, axes), (t,), lambda g: (np.transpose(g, inverse),)
    )


def reshape(t: Tensor, shape) -> Tensor:
    shape = tuple(shape)
    if np.prod(shape, dtype=np.int64) != t.data.size:
        raise DimensionError(f"reshape {t.data.shape} -> {shape}")
    return _node(
        "reshape",
        t.data.reshape(shape),
        (t,),
        lambda g: (g.reshape(t.data.shape),),
    )


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    tensors = list(tensors)
    if not tensors:
        raise ContractError("concat of zero tensors")
    ndim = tensors[0].data.ndim
    for t in tensors:
        if t.data.ndim != ndim:
            raise DimensionError("concat operands must share rank")
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum(sizes)[:-1]

    def vjp(g):
        return tuple(np.ascontiguousarray(piece) for piece in np.split(g, offsets, axis=axis))

    return _node("concat", np.concatenate([t.data for t in tensors], axis=axis), tensors, vjp)


def bmm(a: Tensor, b: Tensor) -> Tensor:
    """Batched matrix product of rank-3 operands (B,p,q) @ (B,q,r)."""
    if a.data.ndim != 3 or b.data.ndim != 3:
        raise DimensionError(f"bmm expects rank-3 operands, got {a.data.shape}, {b.data.shape}")
    if a.data.shape[0] != b.data.shape[0] or a.data.shape[2] != b.data.shape[1]:
        raise DimensionError(f"bmm: {a.data.shape} @ {b.data.shape}")

    def vjp(g):
        return g @ b.data.swapaxes(1, 2), a.data.swapaxes(1, 2) @ g

    return _node("bmm", a.data @ b.data, (a, b), vjp)


def softmax(t: Tensor) -> Tensor:
    """Softmax along the last axis."""
    shifted = t.data - t.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    s = e / e.sum(axis=-1, keepdims=True)

    def vjp(g):
        inner = (g * s).sum(axis=-1, keepdims=True)
        return ((g - inner) * s,)

    return _node("softmax", s, (t,), vjp)


def mse(a: Tensor, b: Tensor) -> Tensor:
    """Mean over all elements of the squared difference; scalar output."""
    if a.data.shape != b.data.shape:
        raise DimensionError(f"mse: shapes {a.data.shape} vs {b.data.shape}")
    diff = a.data - b.data
    n = diff.size
    if n == 0:
        raise ContractError("mse of empty tensors")

    def vjp(g):
        scale = g * (2.0 / n)
        return scale * diff, -scale * diff

    return _node("mse", np.asarray((diff * diff).mean()), (a, b), vjp)


def detach(t: Tensor) -> Tensor:
    """Copy of ``t`` cut out of the graph; gradient contribution is zero."""
    out = Tensor(t.data.copy())
    out.kind = "detach"
    return out


def straight_through(grad_path: Tensor, value: Tensor) -> Tensor:
    """Forward the values of ``value``; route the full gradient to ``grad_path``.

    Behaves like ``grad_path + detach(value - grad_path)`` but copies the
    forward values directly so they are bit-identical to ``value``.
    """
    if grad_path.data.shape != value.data.shape:
        raise DimensionError(
            f"straight_through: shapes {grad_path.data.shape} vs {value.data.shape}"
        )
    return _node("straight_through", value.data.copy(), (grad_path,), lambda g: (g,))


def gather_rows(matrix: Tensor, indices) -> Tensor:
    """Select rows of a 2-d tensor; backward scatter-adds into the source."""
    if matrix.data.ndim != 2:
        raise DimensionError(f"gather_rows expects a matrix, got {matrix.data.shape}")
    idx = np.asarray(indices, dtype=np.int64)
    if idx.ndim != 1:
        raise DimensionError("gather_rows indices must be a flat vector")
    if idx.size and (idx.min() < 0 or idx.max() >= matrix.data.shape[0]):
        raise ContractError("gather_rows index out of range")

    def vjp(g):
        acc = np.zeros_like(matrix.data)
        np.add.at(acc, idx, g)
        return (acc,)

    return _node("gather_rows", matrix.data[idx].copy(), (matrix,), vjp)


# Elements of one tile's (9C, positions) column block in "up" mode: 512 KB
# in double precision. At 1 << 15 and 1 << 18 the conv-w64 benchmark
# evaluated no faster, and 1 << 18 and an untiled block read a higher
# peak RSS. "down" ignores it: one small block for the whole batch.
CONV_TILE_ELEMENTS = 1 << 16

# Per axis and output phase a (rows of the first index), which taps of a
# 3x3 kernel (columns) read low-resolution neighbour i-1, i and i+1 (the
# rows of each 3x3 block) after a nearest 2x upsample: output 2i reads
# upsampled rows 2i-1, 2i and 2i+1, that is neighbours i-1, i and i;
# output 2i+1 reads i, i and i+1.
_PHASE_TAPS = np.array([[[1, 0, 0], [0, 1, 1], [0, 0, 0]],
                        [[0, 0, 0], [1, 1, 0], [0, 0, 1]]])
# (36, 9) 0/1 map from a kernel's taps (column 3t + s) to the four phase
# kernels on the low-resolution grid (row 9(2a + c) + 3n + m: phase (a, c),
# neighbour (i + n - 1, j + m - 1)). Down's map is the identity: one phase
# whose neighbour (n, m) is tap (n, m).
_UP_TAPS = np.einsum("ant,cms->acnmts", _PHASE_TAPS, _PHASE_TAPS).reshape(36, 9)
_DOWN_TAPS = np.eye(9)


def _windows(step: int, oh: int, ow: int, height: int, width: int) -> list:
    """The nine taps' (k, output rows, input rows, output columns, input
    columns) slices: output (r, q) of tap k = 3i + j reads input
    (step*r + i - 1, step*q + j - 1) where that lies inside the input."""

    def along(i, n, size):
        lo, hi = int(i == 0), min(n, (size - i) // step + 1)
        return slice(lo, hi), slice(step * lo + i - 1, step * hi + i - step, step)

    return [(k, *along(k // 3, oh, height), *along(k % 3, ow, width)) for k in range(9)]


def _im2col(x: np.ndarray, windows: list, oh: int, ow: int) -> np.ndarray:
    """(9C, oh*ow*B) columns of a (B, C, H, W) input at the positions of
    an (oh, ow) grid: rows in ``c*9 + k`` order, columns in (row, column,
    image) order so that each copy runs along the batch, zero where a tap
    falls in the padding."""
    batch, chans = x.shape[:2]
    x_t = np.ascontiguousarray(x.transpose(1, 2, 3, 0))  # (C, H, W, B)
    cols = np.zeros((chans, 9, oh, ow, batch), dtype=x_t.dtype)
    for k, out_rows, in_rows, out_cols, in_cols in windows:
        cols[:, k, out_rows, out_cols] = x_t[:, in_rows, in_cols]
    return cols.reshape(chans * 9, oh * ow * batch)


def _col2im(dcols: np.ndarray, windows: list, shape: tuple) -> np.ndarray:
    """The adjoint of ``_im2col``: the (B, C, H, W) input gradient of
    column gradients ``dcols`` shaped (C, 9, oh, ow, B), for an input
    of (C, H, W, B) ``shape``."""
    dx_t = np.zeros(shape, dtype=dcols.dtype)
    for k, out_rows, in_rows, out_cols, in_cols in windows:
        dx_t[:, in_rows, in_cols] += dcols[:, k, out_rows, out_cols]
    return dx_t.transpose(3, 0, 1, 2)


def conv2d_3x3(x: Tensor, w: Tensor, b: Tensor, mode: str) -> Tensor:
    """3x3 convolution with zero padding 1, either at stride 2 ("down") or
    after a nearest 2x upsample of the input ("up").

    ``x`` is (B, C, H, W), ``w`` is (O, C, 3, 3), ``b`` is (O,). The
    output is (B, O, ceil(H/2), ceil(W/2)) down and (B, O, 2H, 2W) up.

    Both modes run one path. A 0/1 tap map builds from ``w`` the kernel,
    P^2 phase kernels stacked into one (P^2 O, 9C) matrix, whose GEMM on
    im2col columns taken on a grid of ``x`` (``_im2col``: nine strided
    views of the (C, H, W, B)-transposed input, rows in ``c*9 + k`` order,
    the batch innermost) gives P x P output pixels per grid point,
    interleaved into the output. The output gradient times the columns'
    transpose is the kernel's gradient, folded back through the tap map,
    and ``dx`` is the col2im (``_col2im``) of the transposed kernel times
    the output gradient, skipped (None) when ``x`` needs no gradient. A
    mode fixes four things:

    - the grid's step: 2 down, the output positions; 1 up, the input's
      own, as output (2i + a, 2j + c) reads only the 3x3 neighbourhood of
      (i, j), so the upsampled input is never built;
    - the phases P per axis: 1 down, 2 up;
    - the tap map: the 9x9 identity down, whose products are exact;
      ``_UP_TAPS`` up (Shi et al. 2016, arXiv 1609.05158);
    - the tiles: down, the whole batch, whose one small column block the
      backward rule keeps (none under ``_no_graph``, which keeps no rule);
      up, tiles of whole images of at most about ``CONV_TILE_ELEMENTS``
      column elements, rebuilt from ``x`` by the backward rule, so
      neither the graph nor evaluation holds a batch's column block.
    """
    if mode not in ("down", "up"):
        raise DimensionError(f"conv2d_3x3 mode must be 'down' or 'up', got {mode!r}")
    if x.data.ndim != 4:
        raise DimensionError(f"conv2d_3x3 input must be rank 4, got {x.data.shape}")
    if w.data.ndim != 4 or w.data.shape[2:] != (3, 3):
        raise DimensionError(f"conv2d_3x3 kernel must be (O, C, 3, 3), got {w.data.shape}")
    batch, chans, height, width = x.data.shape
    out_ch = w.data.shape[0]
    if w.data.shape[1] != chans or b.data.shape != (out_ch,):
        raise DimensionError(
            f"conv2d_3x3: x {x.data.shape}, w {w.data.shape}, b {b.data.shape}"
        )
    if mode == "down":
        step, phases, taps, keep = 2, 1, _DOWN_TAPS, True
        tiles = [slice(0, batch)]
    else:
        step, phases, taps, keep = 1, 2, _UP_TAPS, False
        per_tile = max(1, CONV_TILE_ELEMENTS // (chans * 9 * height * width))
        tiles = [slice(b0, min(b0 + per_tile, batch)) for b0 in range(0, batch, per_tile)]
    gh, gw = (height - 1) // step + 1, (width - 1) // step + 1
    windows = _windows(step, gh, gw, height, width)
    taps = taps.astype(w.dtype)
    kernel = (w.data.reshape(out_ch * chans, 9) @ taps.T).reshape(out_ch, chans, -1, 9)
    kernel = kernel.transpose(2, 0, 1, 3).reshape(-1, chans * 9)
    kept = _im2col(x.data, windows, gh, gw) if keep else None

    def columns(tile):
        return _im2col(x.data[tile], windows, gh, gw) if kept is None else kept

    out = np.empty((batch, out_ch, phases * gh, phases * gw), dtype=x.dtype)
    for tile in tiles:
        n = tile.stop - tile.start
        resp = kernel @ columns(tile)
        out[tile].reshape(n, out_ch, gh, phases, gw, phases)[...] = (
            resp.reshape(phases, phases, out_ch, gh, gw, n).transpose(5, 2, 3, 0, 4, 1))
    out += b.data[:, None, None]

    def vjp(g):
        dx = np.empty_like(x.data) if x.requires_grad else None
        dkernel = np.zeros(kernel.shape, dtype=w.dtype)
        for tile in tiles:
            n = tile.stop - tile.start
            gmat = g[tile].reshape(n, out_ch, gh, phases, gw, phases).transpose(3, 5, 1, 2, 4, 0)
            gmat = gmat.reshape(-1, gh * gw * n)
            dkernel += gmat @ columns(tile).T
            if dx is not None:
                dcols = (kernel.T @ gmat).reshape(chans, 9, gh, gw, n)
                dx[tile] = _col2im(dcols, windows, (chans, height, width, n))
        dw = dkernel.reshape(-1, out_ch, chans, 9).transpose(1, 2, 0, 3)
        dw = dw.reshape(out_ch * chans, -1) @ taps
        return dx, dw.reshape(w.data.shape), g.sum(axis=(0, 2, 3))

    return _node("conv2d_3x3", out, (x, w, b), vjp)
