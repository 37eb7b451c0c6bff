"""Training diagnostics and the closed-form capacity trade-off.

``gradient_gap`` measures how far the straight-through gradient at the
encoder output sits from the gradient the same decoder would send back
without quantization; it is zero exactly when quantization is lossless.
The analytic loss model combines a variance term shrinking with
codebook size and a representation term growing with it, giving a
closed-form optimal size.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, FitError
from .model import TrainState, decode, encode, quantizer_output
from .tensor import Tensor, _no_graph, backward, mse

__all__ = [
    "AnalyticModel",
    "FitResult",
    "gradient_gap",
    "analytic_loss",
    "optimal_n",
    "fit_analytic",
]


@dataclass(frozen=True)
class AnalyticModel:
    """Positive constants of the capacity model L(n) = V/n + a*n."""

    var_v: float          # data variance driving the quantization term
    dim_const_a: float    # representation penalty per lost dimension

    def __post_init__(self):
        for name in ("var_v", "dim_const_a"):
            if not 0 < getattr(self, name) < np.inf:
                raise DomainError(f"{name} must be strictly positive and finite, "
                                  f"got {getattr(self, name)}")


@dataclass(frozen=True)
class FitResult:
    model: AnalyticModel
    residual: float  # rms misfit of the least-squares solution


def gradient_gap(x, state: TrainState, target=None) -> float:
    """L2 distance between quantized and unquantized loss gradients at z_e.

    Both branches decode from the same encoder output: once directly
    and once through the quantizer (straight-through gradients). The
    reconstruction loss alone drives both gradients; ``target`` defaults
    to ``x`` itself. Parameters are left untouched; accumulated scratch
    gradients are cleared.
    """
    with _no_graph():  # only z_e's values are read; each branch starts a graph of its own
        z_e = encode(x, state)
    target = Tensor(np.asarray(x if target is None else target,
                               dtype=state.config.dtype))

    leaf_plain = Tensor(z_e.data.copy(), requires_grad=True)
    backward(mse(target, decode(leaf_plain, state)))
    g_plain = leaf_plain.grad.copy()

    leaf_quant = Tensor(z_e.data.copy(), requires_grad=True)
    backward(mse(target, decode(quantizer_output(leaf_quant, state).z_q, state)))
    g_quant = leaf_quant.grad.copy()

    state.zero_grads()
    return float(np.linalg.norm((g_plain - g_quant).ravel()))


def analytic_loss(n: float, model: AnalyticModel) -> float:
    """Capacity-model loss V/n + a*n at codebook size ``n``."""
    if n <= 0:
        raise DomainError(f"codebook size must be positive, got {n}")
    return model.var_v / n + model.dim_const_a * n


def optimal_n(model: AnalyticModel) -> float:
    """Minimizer of the capacity-model loss: sqrt(V / a)."""
    return float(np.sqrt(model.var_v / model.dim_const_a))


def fit_analytic(pairs) -> FitResult:
    """Least-squares fit of V and a in L(n) = V/n + a*n from (n, loss) pairs.

    Requires at least three distinct sizes.
    """
    pairs = [(float(n), float(loss)) for n, loss in pairs]
    sizes = np.array([p[0] for p in pairs])
    losses = np.array([p[1] for p in pairs])
    if np.unique(sizes).size < 3:
        raise FitError(f"need at least 3 distinct codebook sizes, got {np.unique(sizes).size}")
    if not (np.isfinite(sizes).all() and np.isfinite(losses).all()):
        raise DomainError("codebook sizes and losses must be finite")
    if (sizes <= 0).any():
        raise DomainError("codebook sizes must be positive")
    design = np.stack([1.0 / sizes, sizes], axis=1)
    coeffs, *_ = np.linalg.lstsq(design, losses, rcond=None)
    var_v, dim_const_a = (float(c) for c in coeffs)
    if var_v <= 0 or dim_const_a <= 0:
        raise FitError(
            f"fitted constants are not positive (V={var_v:.3g}, a={dim_const_a:.3g}); "
            "the data does not follow the capacity model"
        )
    residual = float(np.sqrt(np.mean((design @ coeffs - losses) ** 2)))
    return FitResult(model=AnalyticModel(var_v=var_v, dim_const_a=dim_const_a),
                     residual=residual)
