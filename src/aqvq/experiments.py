"""Experiment protocols: fixed-structure sweeps, adaptive runs, ablations.

Every trial in a sweep trains from the same seed with the same data
order, so structures compare under identical budgets. Numeric failures
in one trial are recorded and the sweep continues. Each result row
carries the hash of its fully resolved configuration.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

import numpy as np

from .adaptive import enumerate_structures, temperature
from .analysis import GapTrace, gradient_gap
from .data import Dataset
from .errors import ConfigError, NumericError
from .model import ModelConfig, TrainState, evaluate, init_state, rng_streams, train_step
from .persist import RunReport, config_hash
from .vq import CodebookSpec

__all__ = [
    "SweepResult",
    "AblationGrid",
    "train_run",
    "run_fixed_sweep",
    "run_adaptive",
    "ablation_cells",
    "run_ablation",
]


@dataclass
class SweepResult:
    """Outcome of one fixed-structure trial inside a sweep."""

    spec: CodebookSpec
    final_val_recon_sum: float | None
    final_val_recon_mean: float | None
    gap_trace: list
    quant_loss_trace: list
    config_hash: str
    error: str | None = None


@dataclass(frozen=True)
class AblationGrid:
    """Knob values for the one-change-at-a-time ablation table."""

    capacities: tuple = (4096, 8192, 16384, 32768, 65536)
    use_ema: tuple = (True, False)
    alphas: tuple = (0.25, 0.5, 0.75, 1.0, 5.0, 10.0)
    betas: tuple = (0.01, 0.2, 1.0, 5.0)


def _batches(train: np.ndarray, batch_size: int, steps: int, rng: np.random.Generator):
    """Yield ``steps`` shuffled full batches, reshuffling every epoch."""
    n = train.shape[0]
    batch_size = min(batch_size, n)
    produced = 0
    while produced < steps:
        order = rng.permutation(n)
        for start in range(0, n - batch_size + 1, batch_size):
            if produced == steps:
                return
            yield train[order[start : start + batch_size]]
            produced += 1


def train_run(config: ModelConfig, dataset: Dataset, steps: int,
              record_every: int = 1, gap_every: int = 0, probe_size: int = 64,
              eval_batch_size: int = 256, resolved_config: dict | None = None,
              state: TrainState | None = None):
    """Train one model for ``steps`` batches; returns (state, RunReport).

    The selection temperature counts down linearly over the budget.
    Every ``record_every`` steps the training metrics are recorded;
    every ``gap_every`` steps (when nonzero) the gradient gap and
    quantization loss are probed on a fixed validation batch. Passing
    an existing ``state`` continues training it (with fresh data and
    noise streams) instead of initializing a new model.
    """
    if steps < 1:
        raise ConfigError(f"training budget must be at least 1 step, got {steps}")
    streams = rng_streams(config.seed)
    if state is None:
        state = init_state(config, rng=streams["init"])
    probe = dataset.val[: min(probe_size, dataset.val.shape[0])]
    report = RunReport()
    started = time.perf_counter()
    for index, batch in enumerate(_batches(dataset.train, config.batch_size, steps,
                                           streams["data"])):
        tau = temperature(steps, index, "training")
        metrics = train_step(batch, state, tau=tau, rng=streams["gumbel"])
        if record_every and (index + 1) % record_every == 0:
            gap = None
            if gap_every and (index + 1) % gap_every == 0:
                gap = gradient_gap(probe, state)
            report.add_record(
                step=metrics["step"],
                recon=metrics["recon"],
                vq=metrics["vq"],
                gap=gap,
                temperature=metrics.get("temperature"),
                usage=metrics.get("counts"),
            )
    final = evaluate(dataset.val, state, batch_size=eval_batch_size)
    report.set_summary(
        final_val_recon_sum=final["recon_loss_sum"],
        final_val_recon_mean=final["recon_loss_mean"],
        wall_time=time.perf_counter() - started,
        config_hash=config_hash(resolved_config if resolved_config is not None
                                else {"model": config.to_dict()}),
        steps=steps,
    )
    return state, report


def _trial_config(base: ModelConfig | None, **overrides) -> ModelConfig:
    base = base if base is not None else ModelConfig()
    return replace(base, **overrides)


def run_fixed_sweep(dataset: Dataset, w: int, budget: int, seed: int,
                    base: ModelConfig | None = None, gap_every: int = 50,
                    record_every: int = 1) -> list[SweepResult]:
    """Train one fixed-codebook model per structure of capacity ``w``.

    All trials share the seed, data order, and budget; per-trial numeric
    failures are recorded in the result row and the sweep continues.
    """
    results = []
    for spec in enumerate_structures(w):
        config = _trial_config(base, quantizer="fixed", codebook_n=spec.n,
                               codebook_d=spec.d, seed=seed)
        chash = config_hash({"model": config.to_dict()})
        try:
            _, report = train_run(config, dataset, budget, record_every=record_every,
                                  gap_every=gap_every)
        except NumericError as err:
            results.append(SweepResult(spec=spec, final_val_recon_sum=None,
                                       final_val_recon_mean=None, gap_trace=[],
                                       quant_loss_trace=[], config_hash=chash,
                                       error=str(err)))
            continue
        gap_trace = [
            GapTrace(step=r["step"], gap=r["gap"], quant_loss=r["vq"], codebook=spec.label)
            for r in report.records if r["gap"] is not None
        ]
        quant_trace = [(r["step"], r["vq"]) for r in report.records]
        results.append(SweepResult(
            spec=spec,
            final_val_recon_sum=report.summary["final_val_recon_sum"],
            final_val_recon_mean=report.summary["final_val_recon_mean"],
            gap_trace=gap_trace,
            quant_loss_trace=quant_trace,
            config_hash=chash,
            error=None,
        ))
    return results


def run_adaptive(dataset: Dataset, w: int, budget: int, seed: int,
                 base: ModelConfig | None = None, gap_every: int = 50,
                 record_every: int = 1) -> RunReport:
    """Train the adaptive model over the full structure pool of capacity ``w``."""
    config = _trial_config(base, quantizer="adaptive", capacity=w, seed=seed)
    _, report = train_run(config, dataset, budget, record_every=record_every,
                          gap_every=gap_every)
    return report


def ablation_cells(grid: AblationGrid, base: ModelConfig) -> list:
    """(name, config) cells: the base plus one knob changed at a time."""
    cells = [("base", base)]
    cells += [(f"W={w}", replace(base, capacity=int(w))) for w in grid.capacities]
    cells += [(f"ema={v}", replace(base, use_ema=bool(v))) for v in grid.use_ema]
    cells += [(f"alpha={a}", replace(base, alpha=float(a))) for a in grid.alphas]
    cells += [(f"beta={b}", replace(base, beta=float(b))) for b in grid.betas]
    return cells


def run_ablation(dataset: Dataset, grid: AblationGrid, budget: int, seed: int,
                 base: ModelConfig | None = None) -> list[dict]:
    """One run per ablation cell; returns table rows keyed by cell name."""
    base = _trial_config(base, quantizer="adaptive", seed=seed)
    rows = []
    for name, config in ablation_cells(grid, base):
        chash = config_hash({"model": config.to_dict()})
        row = {"cell": name, "config_hash": chash, "seed": seed,
               "final_val_recon_sum": None, "final_val_recon_mean": None,
               "wall_time": None, "error": None}
        try:
            _, report = train_run(config, dataset, budget, record_every=0, gap_every=0)
            row["final_val_recon_sum"] = report.summary["final_val_recon_sum"]
            row["final_val_recon_mean"] = report.summary["final_val_recon_mean"]
            row["wall_time"] = report.summary["wall_time"]
        except NumericError as err:
            row["error"] = str(err)
        rows.append(row)
    return rows
