"""Encoder/decoder pair around a quantization layer, with Adam training.

Two desk-scale architectures: a dense path (vector in, one hidden
nonlinearity each side, one latent row per sample) and a small
convolutional path (two stride-2 3x3 convolutions down, nearest
upsample plus convolution back up, one latent row per spatial
position). The quantizer between them is a fixed codebook, an adaptive
pool, or nothing at all (plain autoencoder). ``quantizer_output`` is the
one place that tells the two quantizer kinds apart; both hand back a
``QuantResult``, so the loss, training and evaluation code never branch
on the kind.
"""

from __future__ import annotations

from dataclasses import dataclass, field, asdict

import numpy as np

from .adaptive import CodebookPool, adaptive_forward, enumerate_structures
from .errors import ConfigError, ContractError, DimensionError, NumericError, check_config
from .tensor import (
    Tensor,
    add,
    affine,
    backward,
    conv2d_3x3,
    mse,
    mul_scalar,
    relu,
    reshape,
    transpose,
    upsample2x,
)
from .vq import CodebookSpec, QuantizerLayer, QuantResult, ema_update
from .vq import quantize as vq_quantize

__all__ = [
    "ModelConfig",
    "TrainState",
    "rng_streams",
    "init_state",
    "encode",
    "decode",
    "quantizer_output",
    "forward_loss",
    "train_step",
    "evaluate",
]

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class ModelConfig:
    """Everything needed to build and train one model."""

    encoder_arch: str = "dense"        # "dense" | "small_conv"
    input_shape: tuple = (8,)          # (M,) for dense, (C, H, W) for small_conv, H and W multiples of 4
    num_hiddens: int = 16
    quantizer: str = "fixed"           # "fixed" | "adaptive" | "none"
    codebook_n: int = 16               # fixed quantizer structure
    codebook_d: int = 4
    capacity: int = 64                 # adaptive pool capacity (n * d per codebook)
    num_heads: int = 2
    alpha: float = 0.25
    beta: float = 1.0
    gamma: float = 0.99
    laplace_eps: float = 1e-5
    use_ema: bool = True
    ema_paper_form: bool = False
    scores_qk_only: bool = False
    learning_rate: float = 1e-4
    batch_size: int = 64
    precision: str = "double"          # "double" | "single"
    seed: int = 0

    def __post_init__(self):
        self.input_shape = tuple(int(v) for v in self.input_shape)
        if self.encoder_arch not in ("dense", "small_conv"):
            raise ConfigError(f"unknown encoder architecture {self.encoder_arch!r}")
        if self.quantizer not in ("fixed", "adaptive", "none"):
            raise ConfigError(f"unknown quantizer mode {self.quantizer!r}")
        if self.encoder_arch == "dense" and len(self.input_shape) != 1:
            raise ConfigError(f"dense input shape must be (M,), got {self.input_shape}")
        if self.encoder_arch == "small_conv" and len(self.input_shape) != 3:
            raise ConfigError(f"conv input shape must be (C, H, W), got {self.input_shape}")
        if self.encoder_arch == "small_conv" and (self.input_shape[1] % 4 or self.input_shape[2] % 4):
            # two stride-2 layers down and two 2x upsamples back
            raise ConfigError(f"conv input height and width must be multiples of 4, "
                              f"got {self.input_shape}")
        if min(self.input_shape + (self.num_hiddens, self.batch_size)) < 1:
            raise ConfigError("input_shape, num_hiddens and batch_size must be positive")
        if self.alpha < 0 or self.beta < 0:
            raise ConfigError("alpha and beta must be nonnegative")
        if not 0.0 < self.gamma < 1.0:
            raise ConfigError(f"gamma must lie in (0,1), got {self.gamma}")
        if self.precision not in ("double", "single"):
            raise ConfigError(f"precision must be 'double' or 'single', got {self.precision!r}")

    @property
    def dtype(self):
        return np.float64 if self.precision == "double" else np.float32

    @property
    def latent_grid(self) -> tuple:
        """Spatial extents of the latent after encoding (conv mode)."""
        if self.encoder_arch != "small_conv":
            return ()
        _, h, w = self.input_shape
        return (h // 4, w // 4)  # two stride-2 layers

    def positions_per_sample(self) -> int:
        if self.encoder_arch == "dense":
            return 1
        gh, gw = self.latent_grid
        return gh * gw

    def to_dict(self) -> dict:
        d = asdict(self)
        d["input_shape"] = list(self.input_shape)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        return cls(**check_config("model", d, cls))


@dataclass
class TrainState:
    """Parameters, codebooks and optimizer buffers for one training run."""

    config: ModelConfig
    params: dict
    codebooks: list
    quantizer: object            # QuantizerLayer | CodebookPool | None
    adam_m: dict = field(default_factory=dict)
    adam_v: dict = field(default_factory=dict)
    adam_t: int = 0
    step: int = 0

    def zero_grads(self) -> None:
        for p in self.params.values():
            p.grad = None
        for cb in self.codebooks:
            cb.embeddings.grad = None

    def trainable(self) -> dict:
        return {k: v for k, v in self.params.items() if v.requires_grad}


def rng_streams(seed: int) -> dict:
    """Independent generators for init, data order, and selection noise."""
    children = np.random.SeedSequence(seed).spawn(3)
    return {
        "init": np.random.default_rng(children[0]),
        "data": np.random.default_rng(children[1]),
        "gumbel": np.random.default_rng(children[2]),
    }


def _weight(rng, fan_in: int, shape, dtype) -> Tensor:
    return Tensor(rng.normal(0.0, 1.0 / np.sqrt(fan_in), size=shape).astype(dtype),
                  requires_grad=True)


def _zeros(shape, dtype) -> Tensor:
    return Tensor(np.zeros(shape, dtype=dtype), requires_grad=True)


def init_state(config: ModelConfig, rng: np.random.Generator | None = None) -> TrainState:
    """Build parameters and quantizer for ``config`` (seeded by its seed)."""
    rng = rng or rng_streams(config.seed)["init"]
    dtype = config.dtype
    h = config.num_hiddens
    params: dict = {}

    if config.encoder_arch == "dense":
        m = config.input_shape[0]
        params["enc.w1"] = _weight(rng, m, (m, h), dtype)
        params["enc.b1"] = _zeros(h, dtype)
        params["enc.w2"] = _weight(rng, h, (h, h), dtype)
        params["enc.b2"] = _zeros(h, dtype)
        params["dec.w1"] = _weight(rng, h, (h, h), dtype)
        params["dec.b1"] = _zeros(h, dtype)
        params["dec.w2"] = _weight(rng, h, (h, m), dtype)
        params["dec.b2"] = _zeros(m, dtype)
    else:
        c = config.input_shape[0]
        params["enc.conv1.w"] = _weight(rng, c * 9, (h, c, 3, 3), dtype)
        params["enc.conv1.b"] = _zeros(h, dtype)
        params["enc.conv2.w"] = _weight(rng, h * 9, (h, h, 3, 3), dtype)
        params["enc.conv2.b"] = _zeros(h, dtype)
        params["dec.conv1.w"] = _weight(rng, h * 9, (h, h, 3, 3), dtype)
        params["dec.conv1.b"] = _zeros(h, dtype)
        params["dec.conv2.w"] = _weight(rng, h * 9, (c, h, 3, 3), dtype)
        params["dec.conv2.b"] = _zeros(c, dtype)

    quantizer = None
    codebooks: list = []
    if config.quantizer == "fixed":
        spec = CodebookSpec(config.codebook_n, config.codebook_d)
        quantizer = QuantizerLayer.create(
            spec, h, rng, gamma=config.gamma, laplace_eps=config.laplace_eps,
            trainable_codebook=not config.use_ema, dtype=dtype,
        )
        codebooks = [quantizer.codebook]
        params.update(quantizer.parameters(prefix="q."))
    elif config.quantizer == "adaptive":
        quantizer = CodebookPool.create(
            enumerate_structures(config.capacity), h, rng, num_heads=config.num_heads,
            gamma=config.gamma, laplace_eps=config.laplace_eps,
            trainable_codebooks=not config.use_ema, scores_qk_only=config.scores_qk_only,
            dtype=dtype,
        )
        codebooks = [q.codebook for q in quantizer.quantizers]
        params.update(quantizer.parameters(prefix="pool."))

    state = TrainState(config=config, params=params, codebooks=codebooks,
                       quantizer=quantizer)
    for name, p in state.trainable().items():
        state.adam_m[name] = np.zeros_like(p.data)
        state.adam_v[name] = np.zeros_like(p.data)
    return state


def _as_input(x, config: ModelConfig) -> Tensor:
    t = x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=config.dtype))
    expected = config.input_shape
    if t.data.shape[1:] != expected:
        raise DimensionError(
            f"input shaped {t.data.shape} does not match configured {('B',) + expected}"
        )
    return t


def encode(x, state: TrainState) -> Tensor:
    """Encode a batch into latent rows: one T x H matrix, T positions."""
    config = state.config
    t = _as_input(x, config)
    p = state.params
    if config.encoder_arch == "dense":
        hidden = relu(affine(t, p["enc.w1"], p["enc.b1"]))
        return affine(hidden, p["enc.w2"], p["enc.b2"])
    feat = relu(conv2d_3x3(t, p["enc.conv1.w"], p["enc.conv1.b"], stride=2))
    feat = conv2d_3x3(feat, p["enc.conv2.w"], p["enc.conv2.b"], stride=2)
    b = feat.data.shape[0]
    gh, gw = config.latent_grid
    rows = reshape(transpose(feat, (0, 2, 3, 1)), (b * gh * gw, config.num_hiddens))
    return rows


def decode(z_rows: Tensor, state: TrainState) -> Tensor:
    """Decode latent rows back to the input shape."""
    config = state.config
    p = state.params
    if z_rows.data.ndim != 2 or z_rows.data.shape[1] != config.num_hiddens:
        raise DimensionError(
            f"decoder expects T x {config.num_hiddens} rows, got {z_rows.data.shape}"
        )
    if config.encoder_arch == "dense":
        hidden = relu(affine(z_rows, p["dec.w1"], p["dec.b1"]))
        return affine(hidden, p["dec.w2"], p["dec.b2"])
    gh, gw = config.latent_grid
    t_rows = z_rows.data.shape[0]
    if t_rows % (gh * gw) != 0:
        raise DimensionError(f"{t_rows} rows do not tile a {gh}x{gw} latent grid")
    b = t_rows // (gh * gw)
    feat = transpose(reshape(z_rows, (b, gh, gw, config.num_hiddens)), (0, 3, 1, 2))
    feat = relu(conv2d_3x3(upsample2x(feat), p["dec.conv1.w"], p["dec.conv1.b"], stride=1))
    return conv2d_3x3(upsample2x(feat), p["dec.conv2.w"], p["dec.conv2.b"], stride=1)


def quantizer_output(z_rows: Tensor, state: TrainState, tau: float = 1.0,
                     rng: np.random.Generator | None = None) -> QuantResult | None:
    """Apply the configured quantizer to latent rows; None without one.

    A fixed layer is the one-codebook case of an adaptive pool: it
    projects, quantizes and projects back, and selects nothing.
    """
    quantizer, config = state.quantizer, state.config
    if quantizer is None:
        return None
    if isinstance(quantizer, CodebookPool):
        return adaptive_forward(z_rows, quantizer, tau, alpha=config.alpha,
                                beta=config.beta, rng=rng, hard=True)
    z_d = quantizer.project_in(z_rows)
    out = vq_quantize(z_d, quantizer.codebook, alpha=config.alpha, beta=config.beta)
    return QuantResult(z_q=quantizer.project_out(out.z_q), loss=out.vq_loss,
                       assignments=[(quantizer.codebook, z_d.data, out.indices)])


def forward_loss(x, state: TrainState, tau: float = 1.0,
                 rng: np.random.Generator | None = None):
    """Full model loss on a batch: reconstruction plus the quantizer term.

    Returns (scalar loss Tensor, parts dict with "recon" and "vq",
    QuantResult or None). Without a quantizer "vq" is 0.
    """
    t = _as_input(x, state.config)
    z_e = encode(t, state)
    q = quantizer_output(z_e, state, tau=tau, rng=rng)
    recon = mse(t, decode(z_e if q is None else q.z_q, state))
    if q is None:
        return recon, {"recon": recon.item(), "vq": 0.0}, None
    return add(recon, q.loss), {"recon": recon.item(), "vq": q.loss.item()}, q


def _adam_update(state: TrainState) -> None:
    lr = state.config.learning_rate
    state.adam_t += 1
    t = state.adam_t
    bias1 = 1.0 - ADAM_BETA1 ** t
    bias2 = 1.0 - ADAM_BETA2 ** t
    for name, p in state.trainable().items():
        g = p.grad if p.grad is not None else np.zeros_like(p.data)
        m = state.adam_m[name]
        v = state.adam_v[name]
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * g * g
        p.data -= lr * (m / bias1) / (np.sqrt(v / bias2) + ADAM_EPS)


def train_step(x, state: TrainState, tau: float = 1.0,
               rng: np.random.Generator | None = None) -> dict:
    """One optimization step; returns the step's metrics.

    Adam updates every trainable parameter; with EMA enabled the
    codebooks are excluded from Adam and updated by decayed cluster
    averages of this step's assignments instead. An adaptive pool adds
    its selection ``counts`` and ``temperature`` to the metrics.
    """
    config = state.config
    try:
        loss, parts, q = forward_loss(x, state, tau=tau, rng=rng)
        state.zero_grads()
        backward(loss)
        _adam_update(state)
        if config.use_ema and q is not None:
            for codebook, rows, indices in q.assignments:
                ema_update(codebook, rows, indices, paper_form=config.ema_paper_form)
    except NumericError as err:
        raise NumericError(f"step {state.step}: {err}") from err
    state.step += 1
    metrics = {"step": state.step, "loss": loss.item(), **parts}
    if q is not None and q.counts is not None:
        metrics["counts"] = q.counts
        metrics["temperature"] = float(tau)
    return metrics


def evaluate(data, state: TrainState, batch_size: int = 256) -> dict:
    """Deterministic validation pass; never mutates the state.

    Selection noise is off and the selection temperature is fixed at 1.
    ``recon_loss_sum`` accumulates per-sample losses (mean over each
    sample's elements, summed over samples), so its value does not
    depend on the evaluation batch size; the mean is per batch. The
    ``vq_loss_*`` figures sum the quantizer term the same way.
    """
    arr = np.asarray(data, dtype=state.config.dtype)
    if arr.shape[0] == 0:
        raise ContractError("cannot evaluate on an empty split")
    recon_sum = 0.0
    quant_sum = 0.0
    n_batches = 0
    for start in range(0, arr.shape[0], batch_size):
        batch = arr[start : start + batch_size]
        _, parts, _ = forward_loss(batch, state, tau=1.0, rng=None)
        recon_sum += parts["recon"] * batch.shape[0]
        quant_sum += parts["vq"] * batch.shape[0]
        n_batches += 1
    return {
        "recon_loss_sum": recon_sum,
        "recon_loss_mean": recon_sum / n_batches,
        "vq_loss_sum": quant_sum,
        "vq_loss_mean": quant_sum / n_batches,
        "n_batches": n_batches,
        "n_samples": int(arr.shape[0]),
    }
