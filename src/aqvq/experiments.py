"""Experiment protocols: one training run, and trials over a list of cells.

A multi-run experiment is a list of ``(label, ModelConfig)`` cells, from
``sweep_cells`` or ``ablation_cells``; ``run_trials`` trains them all
with one budget and one set of training arguments. Cells that share a
seed share the data order. A numeric failure is recorded in its trial's
row and the other trials still run. Each row carries the hash of its
cell's model config alone, not of a full run config.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

import numpy as np

from .adaptive import enumerate_structures, temperature
from .analysis import gradient_gap
from .data import Dataset
from .errors import ConfigError, NumericError
from .model import ModelConfig, TrainState, evaluate, init_state, rng_streams, train_step
from .persist import RunReport, config_hash

__all__ = [
    "AblationGrid",
    "train_run",
    "sweep_cells",
    "ablation_cells",
    "run_trials",
]


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
    if steps < 1 or eval_batch_size < 1:
        raise ConfigError(f"training budget and evaluation batch size must be at least 1, "
                          f"got {steps} and {eval_batch_size}")
    if gap_every > 0 and probe_size < 1:
        raise ConfigError(f"probing the gradient gap needs probe_size of at least 1, "
                          f"got {probe_size}")
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


def sweep_cells(w: int, base: ModelConfig) -> list:
    """(label, config) cells: one fixed-codebook model per structure of capacity ``w``."""
    return [(spec.label, replace(base, quantizer="fixed", codebook_n=spec.n, codebook_d=spec.d))
            for spec in enumerate_structures(w)]


def ablation_cells(grid: AblationGrid, base: ModelConfig) -> list:
    """(label, config) cells: the base plus one knob changed at a time."""
    cells = [("base", base)]
    cells += [(f"W={w}", replace(base, capacity=int(w))) for w in grid.capacities]
    cells += [(f"ema={v}", replace(base, use_ema=bool(v))) for v in grid.use_ema]
    cells += [(f"alpha={a}", replace(base, alpha=float(a))) for a in grid.alphas]
    cells += [(f"beta={b}", replace(base, beta=float(b))) for b in grid.betas]
    return cells


def run_trials(dataset: Dataset, cells, steps: int, **train) -> list[dict]:
    """One row per (label, config) cell, trained by ``train_run(config,
    dataset, steps, **train)``: the label as ``cell``, the model config's
    hash, seed, final validation sum and mean, wall time, ``error`` (the
    NumericError that ended the trial, else None), the report records
    (empty on failure) and the ``config``."""
    rows = []
    for label, config in cells:
        row = {"cell": label, "config_hash": config_hash({"model": config.to_dict()}),
               "seed": config.seed, "final_val_recon_sum": None,
               "final_val_recon_mean": None, "wall_time": None, "error": None,
               "records": [], "config": config}
        try:
            _, report = train_run(config, dataset, steps, **train)
        except NumericError as err:
            row["error"] = str(err)
        else:
            row.update({key: report.summary[key] for key in
                        ("final_val_recon_sum", "final_val_recon_mean", "wall_time")},
                       records=report.records)
        rows.append(row)
    return rows
