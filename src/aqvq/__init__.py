"""Vector quantization for autoencoders, with fixed and adaptive codebooks.

The package splits into a small autodiff engine (``tensor``), the
fixed-codebook quantizer (``vq``), adaptive multi-codebook selection
(``adaptive``), the trainable model (``model``), diagnostics and the
capacity trade-off (``analysis``), experiment protocols
(``experiments``), and data/persistence/CLI plumbing (``data``,
``persist``, ``cli``).
"""

from .adaptive import (
    CodebookPool,
    adaptive_forward,
    attention_logits,
    enumerate_structures,
    gumbel_softmax,
    selected_forward,
    temperature,
    usage_histogram,
)
from .analysis import (
    AnalyticModel,
    FitResult,
    analytic_loss,
    fit_analytic,
    gradient_gap,
    optimal_n,
)
from .data import Dataset, DatasetSource, load_idx, make_dataset, synth_dataset
from .experiments import (
    AblationGrid,
    ablation_cells,
    run_trials,
    sweep_cells,
    train_run,
)
from .model import (
    ModelConfig,
    TrainState,
    decode,
    encode,
    evaluate,
    forward_loss,
    init_state,
    quantizer_output,
    train_step,
)
from .persist import RunReport, load_checkpoint, save_checkpoint
from .tensor import Graph, Tensor, backward, finite_difference_grad, straight_through
from .vq import (
    Codebook,
    CodebookSpec,
    QuantizerLayer,
    QuantResult,
    ema_update,
    nearest_indices,
    quantize,
)

__version__ = "0.1.0"
