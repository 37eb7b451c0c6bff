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


def normal_param(rng: np.random.Generator, fan_in: int, shape, dtype) -> Tensor:
    """Trainable weights drawn from a normal with std 1/sqrt(fan_in)."""
    return Tensor(rng.normal(0.0, 1.0 / np.sqrt(fan_in), size=shape).astype(dtype),
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


# Elements of one tile's (channels, padded positions) block at stride 1,
# channels being the larger of the input and output counts: 256 KB in
# double precision, so a tile's grids, response and product buffer stay
# in cache. Stride 2 builds one small column block for the whole batch
# and does not tile.
CONV_TILE_ELEMENTS = 1 << 15


def _taps(flat: np.ndarray, length: int, row: int) -> np.ndarray:
    """(rows*9, length) im2col block of a channel-major padded grid.

    ``flat`` is (rows, cells) with images of padded width ``row`` laid
    end to end; tap (i, j) is the column shift ``i*row + j``.
    """
    cols = np.empty((flat.shape[0], 9, length), dtype=flat.dtype)
    for k in range(9):
        off = (k // 3) * row + k % 3
        cols[:, k] = flat[:, off : off + length]
    return cols.reshape(-1, length)


def _tap_sum(w_taps: np.ndarray, flat: np.ndarray, length: int, row: int,
             acc_buf: np.ndarray, prod_buf: np.ndarray) -> np.ndarray:
    """(P, length) sum over the taps k of ``w_taps[k] @`` the column
    shift k of ``flat``, with ``w_taps`` (9, P, Q).

    Each product reads a view of ``flat``, lands in ``prod_buf`` and is
    added into ``acc_buf`` (flat buffers of at least P*length elements,
    reused across tiles). Where Q is 1 the products are rank-1 updates,
    which numpy runs about 25x slower than one GEMM on the (9, length)
    tap stack, so that case copies the stack and takes no ``prod_buf``.
    """
    rows = w_taps.shape[1]
    acc = acc_buf[: rows * length].reshape(rows, length)
    if w_taps.shape[2] == 1:
        return np.matmul(w_taps[:, :, 0].T, _taps(flat, length, row), out=acc)
    prod = prod_buf[: rows * length].reshape(rows, length)
    np.matmul(w_taps[0], flat[:, :length], out=acc)
    for k in range(1, 9):
        off = (k // 3) * row + k % 3
        np.matmul(w_taps[k], flat[:, off : off + length], out=prod)
        acc += prod
    return acc


def conv2d_3x3(x: Tensor, w: Tensor, b: Tensor, stride: int = 1) -> Tensor:
    """3x3 convolution with zero padding 1 and stride 1 or 2.

    ``x`` is (B, C, H, W), ``w`` is (O, C, 3, 3), ``b`` is (O,).

    Stride 1 works tile by tile, a tile holding about
    ``CONV_TILE_ELEMENTS`` elements of one (channels, positions) block.
    A tile's n images are padded into a channel-major
    (C, n*(H+2)*(W+2)) grid, so each of the 9 taps is a contiguous
    column shift. The tile's response is the sum of nine GEMMs, tap
    weights (O, C) times a shifted view of the grid (the accumulating
    convolution of Vasudevan et al. 2017, arXiv 1704.04428), and the
    top-left (H, W) corner of each image grid is the output. ``dw``
    sums, per tap, the output gradient on the same grid times the
    transposed shifted view. ``dx`` is a transposed convolution: the
    same tap sum taken on that gradient shifted by one image corner
    (``2*(W+2)+2``), with channels swapped and taps flipped. Where a
    GEMM's inner dimension is 1 (C for the forward, O for ``dx``) the
    nine products become one on the copied im2col tap stack
    (``_taps``). The backward rule pads each tile again rather than
    keep a padded copy of the batch, so the graph holds nothing but
    ``x`` and evaluation never holds more than one tile's grid.

    Stride 2 builds im2col columns at the output positions only, from
    nine strided views of the input (zero where a tap falls in the
    padding): rows in ``c*9 + k`` order, columns in (row, column, image)
    order so that each copy runs along the batch. ``w.reshape(O, 9C)``
    times the columns is the output, the output gradient times their
    transpose is ``dw``, and ``dx`` is the col2im of the transposed
    kernel times the gradient. That block holds one column per output
    position, not per padded input position, so it is small enough for
    the backward rule to keep; under ``_no_graph`` there is no backward
    rule and it is freed as soon as the op returns.

    ``dx`` is skipped (None) when ``x`` does not require a gradient.
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
    oh, ow = (height - 1) // stride + 1, (width - 1) // stride + 1
    out = np.empty((batch, out_ch, oh, ow), dtype=x.dtype)
    if stride == 2:
        w_cols = w.data.reshape(out_ch, chans * 9)

        def along(i, n, size):
            """(output, input) slices of tap offset i on one axis: output r
            reads input 2r + i - 1 where that lies in [0, size)."""
            lo, hi = int(i == 0), min(n, (size - i) // 2 + 1)
            return slice(lo, hi), slice(2 * lo + i - 1, 2 * hi + i - 2, 2)

        windows = [(k, *along(k // 3, oh, height), *along(k % 3, ow, width)) for k in range(9)]
        x_t = np.ascontiguousarray(x.data.transpose(1, 2, 3, 0))  # (C, H, W, B)
        cols = np.zeros((chans, 9, oh, ow, batch), dtype=x.dtype)
        for k, out_rows, in_rows, out_cols, in_cols in windows:
            cols[:, k, out_rows, out_cols] = x_t[:, in_rows, in_cols]
        cols = cols.reshape(chans * 9, oh * ow * batch)
        del x_t
        out[...] = (w_cols @ cols).reshape(out_ch, oh, ow, batch).transpose(3, 0, 1, 2)
    else:
        row = width + 2
        cells = (height + 2) * row
        shift = 2 * row + 2  # the largest tap offset
        step = max(1, CONV_TILE_ELEMENTS // (max(chans, out_ch) * cells))
        tiles = [(b0, min(step, batch - b0)) for b0 in range(0, batch, step)]
        span = min(step, batch) * cells  # positions of the longest tile

        def grid(flat, start, n):
            """(n, rows, H+2, W+2) view of n images of a flat padded grid."""
            block = flat[:, start : start + n * cells].reshape(-1, n, height + 2, row)
            return block.transpose(1, 0, 2, 3)

        def laid(arr, start, at):
            """Zero (channels, n*cells + shift) grid holding the n images
            of ``arr`` from column ``start``, each at row and column ``at``."""
            flat = np.zeros((arr.shape[1], arr.shape[0] * cells + shift), dtype=arr.dtype)
            grid(flat, start, arr.shape[0])[:, :, at : at + height, at : at + width] = arr
            return flat

        def scratch(rows, inner):
            """``_tap_sum``'s accumulator and product buffers; it takes
            no product buffer where the inner dimension is 1."""
            acc = np.empty(rows * span, dtype=x.dtype)
            return acc, (np.empty_like(acc) if inner > 1 else None)

        w_taps = w.data.transpose(2, 3, 0, 1).reshape(9, out_ch, chans)
        acc, buf = scratch(out_ch, chans)
        for b0, n in tiles:
            x_grid = laid(x.data[b0 : b0 + n], 0, 1)
            resp = _tap_sum(w_taps, x_grid, n * cells, row, acc, buf)
            out[b0 : b0 + n] = grid(resp, 0, n)[:, :, :height, :width]
    out += b.data[:, None, None]

    def vjp(g):
        dx = np.empty_like(x.data) if x.requires_grad else None
        if stride == 2:
            gmat = g.transpose(1, 2, 3, 0).reshape(out_ch, oh * ow * batch)
            if dx is not None:
                dcols = (w_cols.T @ gmat).reshape(chans, 9, oh, ow, batch)
                dx_t = np.zeros((chans, height, width, batch), dtype=g.dtype)
                for k, out_rows, in_rows, out_cols, in_cols in windows:
                    dx_t[:, in_rows, in_cols] += dcols[:, k, out_rows, out_cols]
                dx[...] = dx_t.transpose(3, 0, 1, 2)
            return dx, (gmat @ cols.T).reshape(w.data.shape), g.sum(axis=(0, 2, 3))
        dw = np.zeros(w.data.shape, dtype=w.dtype)
        if dx is not None:
            wt_taps = w.data[:, :, ::-1, ::-1].transpose(2, 3, 1, 0).reshape(9, chans, out_ch)
            acc, buf = scratch(chans, out_ch)
        for b0, n in tiles:
            length = n * cells
            x_grid = laid(x.data[b0 : b0 + n], 0, 1)
            g_grid = laid(g[b0 : b0 + n], shift, 0)
            g_rows = g_grid[:, shift : shift + length]
            for k in range(9):
                off = (k // 3) * row + k % 3
                dw[:, :, k // 3, k % 3] += g_rows @ x_grid[:, off : off + length].T
            if dx is not None:
                resp = _tap_sum(wt_taps, g_grid, length, row, acc, buf)
                dx[b0 : b0 + n] = grid(resp, 0, n)[:, :, 1 : height + 1, 1 : width + 1]
        return dx, dw, g.sum(axis=(0, 2, 3))

    return _node("conv2d_3x3", out, (x, w, b), vjp)


def upsample2x(x: Tensor) -> Tensor:
    """Nearest-neighbour 2x spatial upsampling of a (B, C, H, W) tensor."""
    if x.data.ndim != 4:
        raise DimensionError(f"upsample2x input must be rank 4, got {x.data.shape}")
    out = np.repeat(np.repeat(x.data, 2, axis=2), 2, axis=3)

    def vjp(g):  # each input pixel's four copies, summed as (a00 + a01) + (a10 + a11)
        return ((g[:, :, 0::2, 0::2] + g[:, :, 0::2, 1::2])
                + (g[:, :, 1::2, 0::2] + g[:, :, 1::2, 1::2]),)

    return _node("upsample2x", out, (x,), vjp)
