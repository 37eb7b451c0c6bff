"""Encoder/decoder pair around a quantization layer, with Adam training.

Two desk-scale architectures: a dense path (vector in, one hidden
nonlinearity each side, one latent row per sample) and a small
convolutional path (two stride-2 3x3 convolutions down; back up, two
3x3 convolutions of a nearest 2x upsample, each computed on the
low-resolution grid; one latent row per spatial position). The
quantizer between them is a fixed codebook, an adaptive pool, or none
(a plain autoencoder: the identity quantizer).
``quantizer_output`` is the one place that tells the three kinds apart
in training; each hands back a ``QuantResult``, so the loss and training
code never branch on the kind. ``evaluate`` alone quantizes an adaptive
pool's rows another way: each by the one codebook it selects.
"""

from __future__ import annotations

from dataclasses import dataclass, asdict

import numpy as np

from .adaptive import CodebookPool, adaptive_forward, enumerate_structures, selected_forward
from .errors import (
    ConfigError,
    ContractError,
    DimensionError,
    NumericError,
    check_addressable,
    check_config,
)
from .tensor import (
    Tensor,
    _no_graph,
    add,
    affine,
    backward,
    conv2d_3x3,
    mse,
    normal_param,
    relu,
    reshape,
    transpose,
    zeros_param,
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
EVAL_BATCH_SIZE = 256


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
        if any(isinstance(v, bool) or not isinstance(v, (int, np.integer))
               for v in self.input_shape):
            raise ConfigError(f"input_shape entries must be integers, got {self.input_shape}")
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
        # the largest weights: input channels or features by hidden units, hidden by hidden
        kernel = (3, 3) if self.encoder_arch == "small_conv" else ()
        check_addressable("model", "input_shape and num_hiddens",
                          self.input_shape[0], self.num_hiddens, *kernel)
        check_addressable("model", "num_hiddens", self.num_hiddens, self.num_hiddens, *kernel)
        for name in ("alpha", "beta", "learning_rate", "laplace_eps"):
            if not np.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite, got {getattr(self, name)}")
        if self.alpha < 0 or self.beta < 0 or self.learning_rate < 0:
            raise ConfigError("alpha, beta and learning_rate must be nonnegative")
        if self.num_heads < 1:
            raise ConfigError(f"num_heads must be at least 1, got {self.num_heads}")
        if self.seed < 0:
            raise ConfigError(f"model seed must be nonnegative, got {self.seed}")
        if not 0.0 < self.gamma < 1.0:
            raise ConfigError(f"gamma must lie in (0,1), got {self.gamma}")
        if self.laplace_eps <= 0:
            raise ConfigError(f"laplace_eps must be positive, got {self.laplace_eps}")
        if self.quantizer == "fixed":
            CodebookSpec(self.codebook_n, self.codebook_d)
            check_addressable("model", "codebook_n and codebook_d",
                              self.codebook_n, self.codebook_d)
        elif self.quantizer == "adaptive":
            enumerate_structures(self.capacity)
            check_addressable("model", "capacity", self.capacity)  # n * d of every codebook
            if self.num_hiddens % self.num_heads:
                raise ConfigError(f"num_heads={self.num_heads} must divide "
                                  f"num_hiddens={self.num_hiddens}")
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
    params: dict                 # name -> Tensor trained by Adam
    codebooks: list
    quantizer: object            # QuantizerLayer | CodebookPool | None
    arena: tuple = ()            # flat (params, m, v): each parameter's data is a view of params
    adam_t: int = 0
    step: int = 0

    def zero_grads(self) -> None:
        for p in self.params.values():
            p.grad = None


def rng_streams(seed: int) -> dict:
    """Independent generators for init, data order, and selection noise."""
    children = np.random.SeedSequence(seed).spawn(3)
    return {
        "init": np.random.default_rng(children[0]),
        "data": np.random.default_rng(children[1]),
        "gumbel": np.random.default_rng(children[2]),
    }


def init_state(config: ModelConfig) -> TrainState:
    """Build parameters and quantizer for ``config``, from its seed's "init" stream."""
    return _build_state(config, rng_streams(config.seed)["init"])


def _build_state(config: ModelConfig, rng) -> TrainState:
    """The state of ``config``, every initial value drawn from ``rng``'s
    ``normal``. A checkpoint load passes a stand-in that draws nothing,
    since it overwrites every drawn array."""
    dtype = config.dtype
    h = config.num_hiddens
    params: dict = {}

    if config.encoder_arch == "dense":
        m = config.input_shape[0]
        params["enc.w1"] = normal_param(rng, m, (m, h), dtype)
        params["enc.b1"] = zeros_param(h, dtype)
        params["enc.w2"] = normal_param(rng, h, (h, h), dtype)
        params["enc.b2"] = zeros_param(h, dtype)
        params["dec.w1"] = normal_param(rng, h, (h, h), dtype)
        params["dec.b1"] = zeros_param(h, dtype)
        params["dec.w2"] = normal_param(rng, h, (h, m), dtype)
        params["dec.b2"] = zeros_param(m, dtype)
    else:
        c = config.input_shape[0]
        params["enc.conv1.w"] = normal_param(rng, c * 9, (h, c, 3, 3), dtype)
        params["enc.conv1.b"] = zeros_param(h, dtype)
        params["enc.conv2.w"] = normal_param(rng, h * 9, (h, h, 3, 3), dtype)
        params["enc.conv2.b"] = zeros_param(h, dtype)
        params["dec.conv1.w"] = normal_param(rng, h * 9, (h, h, 3, 3), dtype)
        params["dec.conv1.b"] = zeros_param(h, dtype)
        params["dec.conv2.w"] = normal_param(rng, h * 9, (c, h, 3, 3), dtype)
        params["dec.conv2.b"] = zeros_param(c, dtype)

    quantizer = None
    codebooks: list = []
    if config.quantizer == "fixed":
        spec = CodebookSpec(config.codebook_n, config.codebook_d)
        quantizer = QuantizerLayer(spec, h, rng, trainable_codebook=not config.use_ema, dtype=dtype)
        codebooks = [quantizer.codebook]
        params.update(quantizer.parameters(prefix="q."))
    elif config.quantizer == "adaptive":
        quantizer = CodebookPool(
            enumerate_structures(config.capacity), h, rng, num_heads=config.num_heads,
            trainable_codebooks=not config.use_ema, scores_qk_only=config.scores_qk_only,
            dtype=dtype,
        )
        codebooks = [q.codebook for q in quantizer.quantizers]
        params.update(quantizer.parameters(prefix="pool."))

    flat = np.concatenate([p.data.ravel() for p in params.values()])
    end = 0
    for p in params.values():
        start, end = end, end + p.data.size
        p.data = flat[start:end].reshape(p.data.shape)
    return TrainState(config=config, params=params, codebooks=codebooks, quantizer=quantizer,
                      arena=(flat, np.zeros_like(flat), np.zeros_like(flat)))


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
    feat = relu(conv2d_3x3(t, p["enc.conv1.w"], p["enc.conv1.b"], "down"))
    feat = conv2d_3x3(feat, p["enc.conv2.w"], p["enc.conv2.b"], "down")
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
    feat = relu(conv2d_3x3(feat, p["dec.conv1.w"], p["dec.conv1.b"], "up"))
    return conv2d_3x3(feat, p["dec.conv2.w"], p["dec.conv2.b"], "up")


def quantizer_output(z_rows: Tensor, state: TrainState, tau: float = 1.0,
                     rng: np.random.Generator | None = None) -> QuantResult:
    """Apply the configured quantizer to latent rows.

    Without a quantizer this is the identity: the rows pass through, the
    quantizer term is 0 and nothing is assigned. A fixed layer is the
    one-codebook case of an adaptive pool: it projects, quantizes and
    projects back, and selects nothing.
    """
    quantizer, config = state.quantizer, state.config
    if quantizer is None:
        return QuantResult(z_rows, Tensor(0.0, dtype=z_rows.dtype), [])
    if isinstance(quantizer, CodebookPool):
        return adaptive_forward(z_rows, quantizer, tau, alpha=config.alpha,
                                beta=config.beta, rng=rng, hard=True)
    out = vq_quantize(quantizer.project_in(z_rows), quantizer.codebook,
                      alpha=config.alpha, beta=config.beta)
    out.z_q = quantizer.project_out(out.z_q)
    return out


def forward_loss(x, state: TrainState, tau: float = 1.0,
                 rng: np.random.Generator | None = None):
    """Full model loss on a batch: reconstruction plus the quantizer term.

    Returns (scalar loss Tensor, parts dict with "recon" and "vq",
    QuantResult). Without a quantizer "vq" is 0.
    """
    t = _as_input(x, state.config)
    return _loss(t, quantizer_output(encode(t, state), state, tau=tau, rng=rng), state)


def _loss(t: Tensor, q: QuantResult, state: TrainState):
    """``forward_loss`` of the batch ``t``, whose encoding quantized to ``q``."""
    recon = mse(t, decode(q.z_q, state))
    return add(recon, q.loss), {"recon": recon.item(), "vq": q.loss.item()}, q


def _adam_update(state: TrainState) -> None:
    """One Adam step over the whole arena; a parameter without a gradient takes zeros."""
    lr = state.config.learning_rate
    state.adam_t += 1
    bias1 = 1.0 - ADAM_BETA1 ** state.adam_t
    bias2 = 1.0 - ADAM_BETA2 ** state.adam_t
    flat, m, v = state.arena
    g = np.concatenate([np.zeros(p.data.size, p.data.dtype) if p.grad is None else p.grad.ravel()
                        for p in state.params.values()])
    m *= ADAM_BETA1
    m += (1.0 - ADAM_BETA1) * g
    v *= ADAM_BETA2
    v += (1.0 - ADAM_BETA2) * g * g
    flat -= lr * (m / bias1) / (np.sqrt(v / bias2) + ADAM_EPS)
    if not np.isfinite(flat).all():
        name = next(n for n, p in state.params.items() if not np.isfinite(p.data).all())
        raise NumericError(f"non-finite values in parameter {name!r} after Adam update")


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
        if config.use_ema:
            for codebook, rows, indices in q.assignments:
                ema_update(codebook, rows, indices, config.gamma, config.laplace_eps,
                           paper_form=config.ema_paper_form)
    except NumericError as err:
        raise NumericError(f"step {state.step}: {err}") from err
    state.step += 1
    metrics = {"step": state.step, "loss": loss.item(), **parts}
    if q.counts is not None:
        metrics["counts"] = q.counts
        metrics["temperature"] = float(tau)
    return metrics


def evaluate(data, state: TrainState, batch_size: int = EVAL_BATCH_SIZE) -> dict:
    """Deterministic validation pass; never mutates the state.

    Selection noise is off and the selection temperature is fixed at 1,
    so an adaptive pool's pick depends on the rows alone: each row is
    quantized only by the codebook it selects (``selected_forward``),
    which reconstructs it with the same bytes as training's all-candidate
    pass. ``recon_loss_sum`` accumulates per-sample losses (mean over
    each sample's elements, summed over samples); the mean is per batch.
    The sum depends on the evaluation batch size in its last bits: each
    batch adds its mean times its rows, and BLAS rounds a row differently
    in a product of another shape (a single row goes through gemv). The
    ``vq_loss_*`` figures sum the quantizer term the same way; for an
    adaptive pool that term is the selected candidates', weighted by
    their rows, not the mean over all m candidates that training
    minimizes. Every value is a Python int or float.

    The pass records no autodiff graph (``tensor._no_graph``): nothing
    here is differentiated, and a recorded graph would keep every
    activation of a batch alive, each encoder convolution's column block
    included, until the batch's loss is dropped (rates in
    ``BENCH_20.json``).
    """
    if batch_size < 1:
        raise ContractError(f"evaluation batch size must be at least 1, got {batch_size}")
    config = state.config
    arr = np.asarray(data, dtype=config.dtype)
    if arr.shape[0] == 0:
        raise ContractError("cannot evaluate on an empty split")
    pool = state.quantizer if isinstance(state.quantizer, CodebookPool) else None
    recon_sum = 0.0
    quant_sum = 0.0
    n_batches = 0
    with _no_graph():
        for start in range(0, arr.shape[0], batch_size):
            batch = arr[start : start + batch_size]
            t = _as_input(batch, config)
            z_e = encode(t, state)
            q = (quantizer_output(z_e, state) if pool is None
                 else selected_forward(z_e, pool, alpha=config.alpha, beta=config.beta))
            _, parts, _ = _loss(t, q, state)
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
