"""Dense tensors with reverse-mode differentiation.

A small define-by-run engine on top of numpy. Every operation eagerly
computes its value and remembers how to push gradients back to its
inputs; ``backward`` walks the resulting graph once in reverse
topological order. Double precision is the default; float32 inputs are
kept as float32.

The op set is deliberately small: exactly what an encoder/decoder pair,
a vector quantizer with straight-through gradients, scaled dot-product
attention, and mean-squared losses need. There is no broadcasting
beyond scalars, no GPU path, and no higher-order differentiation.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

import numpy as np

from .errors import ContractError, DimensionError, NumericError

__all__ = [
    "Tensor",
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
    "upsample2x",
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

    # Minimal operator sugar; anything fancier goes through the ops below.
    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(self, other)

    def __mul__(self, c):
        return mul_scalar(self, c)

    def __rmul__(self, c):
        return mul_scalar(self, c)

    def __neg__(self):
        return mul_scalar(self, -1.0)

    def __sub__(self, other):
        if not isinstance(other, Tensor):
            other = Tensor(np.asarray(other, dtype=self.dtype))
        return add(self, mul_scalar(other, -1.0))


def _node(kind: str, data: np.ndarray, parents: Sequence[Tensor], vjp) -> Tensor:
    """Wrap an op result, recording parents and the backward rule."""
    _check_finite(data, f"output of op '{kind}'")
    out = Tensor.__new__(Tensor)
    out.data = _contiguous(np.asarray(data))
    out.grad = None
    out.requires_grad = any(p.requires_grad for p in parents)
    out.kind = kind
    out._parents = tuple(parents)
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
    elif a.data.shape == ():
        vjp = lambda g: (g.sum(), g)
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


# Elements of one tile's im2col column block: the same cache budget as
# ``vq.TILE_ELEMENTS``.
CONV_TILE_ELEMENTS = 1 << 16


def _taps(flat: np.ndarray, start: int, length: int, row: int) -> np.ndarray:
    """(rows*9, length) im2col block of a channel-major padded grid.

    ``flat`` is (rows, cells) with images of padded width ``row`` laid
    end to end; tap (i, j) is the column shift ``i*row + j``.
    """
    cols = np.empty((flat.shape[0], 9, length), dtype=flat.dtype)
    for k in range(9):
        off = start + (k // 3) * row + k % 3
        cols[:, k] = flat[:, off : off + length]
    return cols.reshape(-1, length)


def conv2d_3x3(x: Tensor, w: Tensor, b: Tensor, stride: int = 1) -> Tensor:
    """3x3 convolution with zero padding 1 and stride 1 or 2.

    ``x`` is (B, C, H, W), ``w`` is (O, C, 3, 3), ``b`` is (O,).

    im2col on a padded grid: the input is padded once into a
    channel-major (C, B*(H+2)*(W+2)) array, so each of the 9 taps is a
    contiguous column shift and a tile of images is one (9C, positions)
    column block times ``w.reshape(O, 9C)``. That gives the stride-1
    response at every padded position; every ``stride``-th row and
    column of the top-left (H, W) corner of each image grid is the
    output. Tiles hold
    about ``CONV_TILE_ELEMENTS`` column elements so the block stays in
    cache, and backward rebuilds each tile's columns instead of keeping
    them. ``dw`` is the zero-dilated output gradient on the same grid
    times the transposed columns. ``dx`` is a transposed convolution:
    the same tap stack, taken on that gradient shifted by one image
    corner (``2*(W+2)+2``), times the kernel with channels swapped and
    taps flipped. Its GEMM has inner dimension 9O rather than the O of
    a col2im product, which numpy runs far slower when O is 1. ``dx``
    is skipped (None) when ``x`` does not require a gradient.
    """
    if stride not in (1, 2):
        raise DimensionError(f"conv2d_3x3 stride must be 1 or 2, got {stride}")
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
    row = width + 2
    cells = (height + 2) * row
    shift = 2 * row + 2  # the largest tap offset

    def grid(flat, start, n):
        """(n, rows, H+2, W+2) view of n images of a flat padded grid."""
        block = flat[:, start : start + n * cells].reshape(-1, n, height + 2, row)
        return block.transpose(1, 0, 2, 3)

    def tiles(rows):
        step = max(1, CONV_TILE_ELEMENTS // (9 * rows * cells))
        for b0 in range(0, batch, step):
            n = min(step, batch - b0)
            yield b0, n, b0 * cells, n * cells

    xflat = np.zeros((chans, batch * cells + shift), dtype=x.dtype)
    grid(xflat, 0, batch)[:, :, 1 : height + 1, 1 : width + 1] = x.data
    out = np.empty((batch, out_ch, (height - 1) // stride + 1, (width - 1) // stride + 1),
                   dtype=x.dtype)
    w_cols = w.data.reshape(out_ch, chans * 9)
    for b0, n, start, length in tiles(chans):
        resp = w_cols @ _taps(xflat, start, length, row)
        out[b0 : b0 + n] = grid(resp, 0, n)[:, :, :height:stride, :width:stride]
    out += b.data[:, None, None]

    def vjp(g):
        gflat = np.zeros((out_ch, batch * cells + shift), dtype=g.dtype)
        grid(gflat, shift, batch)[:, :, :height:stride, :width:stride] = g
        dw = np.zeros((out_ch, chans * 9), dtype=w.dtype)
        dx = np.empty_like(x.data) if x.requires_grad else None
        w_flip = w.data[:, :, ::-1, ::-1].transpose(1, 0, 2, 3).reshape(chans, out_ch * 9)
        for b0, n, start, length in tiles(chans if dx is None else max(chans, out_ch)):
            dw += gflat[:, shift + start : shift + start + length] @ _taps(xflat, start, length, row).T
            if dx is not None:
                resp = w_flip @ _taps(gflat, start, length, row)
                dx[b0 : b0 + n] = grid(resp, 0, n)[:, :, 1 : height + 1, 1 : width + 1]
        return dx, dw.reshape(w.data.shape), g.sum(axis=(0, 2, 3))

    return _node("conv2d_3x3", out, (x, w, b), vjp)


def upsample2x(x: Tensor) -> Tensor:
    """Nearest-neighbour 2x spatial upsampling of a (B, C, H, W) tensor."""
    if x.data.ndim != 4:
        raise DimensionError(f"upsample2x input must be rank 4, got {x.data.shape}")
    batch, chans, height, width = x.data.shape
    out = np.repeat(np.repeat(x.data, 2, axis=2), 2, axis=3)

    def vjp(g):
        return (g.reshape(batch, chans, height, 2, width, 2).sum(axis=(3, 5)),)

    return _node("upsample2x", out, (x,), vjp)
