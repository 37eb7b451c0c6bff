"""Command-line surface: training, sweeps, ablations, analysis, reports.

Every completed run writes its fully resolved configuration next to its
outputs, and a run that fails writes none; rerunning from that file
reproduces the results bit for bit. The
``AQVQ_SEED`` environment variable overrides the configured seed.
``adaptive`` is ``train`` with the quantizer set to an adaptive pool of
the given capacity.

Exit codes: 0 success, 1 configuration problem, 2 runtime or numeric
failure (an allocation that fails is one).
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .analysis import fit_analytic, gradient_gap, optimal_n
from .data import DatasetSource, make_dataset
from .errors import (
    ConfigError,
    ContractError,
    DimensionError,
    DomainError,
    FitError,
    FormatError,
    NumericError,
    check_config,
)
from .experiments import AblationGrid, ablation_cells, run_trials, sweep_cells, train_run
from .model import ModelConfig
from .persist import (
    TRAIN_DEFAULTS,
    RunReport,
    read_checkpoint,
    read_json,
    resolve_run_config,
    save_checkpoint,
    write_csv,
    write_json,
)

__all__ = ["cli_main", "main"]

SEED_ENV_VAR = "AQVQ_SEED"


def _is_finite(value) -> bool:
    """A JSON number that a float holds finitely: not a bool, NaN or inf."""
    try:
        return not isinstance(value, bool) and math.isfinite(value)
    except (TypeError, OverflowError):  # not a number, or an int too large for a float
        return False


def _read_sweep_pairs(path: str) -> list:
    """(n, final_val_recon_sum) pairs of a sweep report; failed rows are skipped."""
    rows = read_json(path, "sweep report")
    if not isinstance(rows, list) or not all(
            isinstance(r, dict) and _is_finite(r.get("n"))
            and (r.get("final_val_recon_sum") is None or _is_finite(r["final_val_recon_sum"]))
            for r in rows):
        raise ConfigError(f"sweep report {path} must be a list of objects with a finite "
                          "numeric \"n\" and a finite or null \"final_val_recon_sum\"")
    return [(r["n"], r["final_val_recon_sum"]) for r in rows
            if r.get("final_val_recon_sum") is not None]


def _prepare(args):
    """Resolve the run config, build the model config and dataset, and
    create the output directory; the commands write the resolved config
    there together with their other outputs, after training, so a run
    that fails leaves no file behind. ``adaptive`` sets the quantizer to
    a pool of ``--capacity``; ``AQVQ_SEED`` overrides both seeds."""
    resolved = resolve_run_config({} if args.config is None
                                  else read_json(args.config, "config file"))
    if args.command == "adaptive":
        resolved["model"].update(quantizer="adaptive", capacity=args.capacity)
    seed = os.environ.get(SEED_ENV_VAR)
    if seed is not None:
        try:
            resolved["model"]["seed"] = resolved["dataset"]["seed"] = int(seed)
        except ValueError as err:
            raise ConfigError(f"{SEED_ENV_VAR} must be an integer, got {seed!r}") from err
    model = ModelConfig.from_dict(resolved["model"])
    dataset = make_dataset(DatasetSource.from_dict(resolved["dataset"]))
    if dataset.sample_shape != model.input_shape:
        raise ConfigError(f"model input_shape {list(model.input_shape)} does not match "
                          f"dataset samples shaped {list(dataset.sample_shape)}")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return resolved, out, model, dataset


def _cmd_train(args) -> int:
    resolved, out, config, dataset = _prepare(args)
    train = resolved["train"]
    state = None
    steps = train["steps"]
    if args.resume is not None:
        state, source = read_checkpoint(args.resume)
        if state.config != config:
            raise ConfigError(
                f"checkpoint {args.resume} was trained with a different model config"
            )
        if source is not None and source != DatasetSource.from_dict(resolved["dataset"]):
            raise ConfigError(
                f"checkpoint {args.resume} was trained on a different dataset recipe"
            )
        steps = train["steps"] - state.step
        print(f"resumed at step {state.step}; {max(steps, 0)} steps remaining")
    if state is None or steps >= 1:
        state, report = train_run(config, dataset, **{**train, "steps": steps},
                                  resolved_config=resolved, state=state)
        report.to_json(out / "report.json")
        summary = report.summary
        print(f"trained to step {state.step}; "
              f"final validation recon sum {summary['final_val_recon_sum']:.6f} "
              f"(config {summary['config_hash'][:12]})")
    write_json(out / "resolved_config.json", resolved, sort_keys=True)
    save_checkpoint(state, out / "checkpoint.json",
                    dataset=DatasetSource.from_dict(resolved["dataset"]))
    return 0


def _run_cells(args, name: str, make_cells, row, columns) -> list:
    """Train the cells ``make_cells(model config)`` with the config's train
    section; write ``row(trial)`` of each to <name>.json and its ``columns``
    to <name>.csv."""
    resolved, out, config, dataset = _prepare(args)
    rows = [row(t) for t in run_trials(dataset, make_cells(config), **resolved["train"])]
    write_json(out / "resolved_config.json", resolved, sort_keys=True)
    write_json(out / f"{name}.json", rows)
    write_csv(out / f"{name}.csv", columns, rows)
    return rows


SWEEP_COLUMNS = ["n", "d", "final_val_recon_sum", "final_val_recon_mean", "config_hash", "error"]
ABLATION_KEYS = ["cell", "config_hash", "seed", "final_val_recon_sum", "final_val_recon_mean",
                 "wall_time", "error"]


def _cmd_sweep(args) -> int:
    rows = _run_cells(args, "sweep", lambda base: sweep_cells(args.capacity, base),
                      lambda t: {"n": t["config"].codebook_n, "d": t["config"].codebook_d,
                                 **{k: t[k] for k in SWEEP_COLUMNS[2:]}},
                      SWEEP_COLUMNS)
    for r in rows:
        status = f"recon_sum={r['final_val_recon_sum']:.6f}" if r["error"] is None else f"FAILED: {r['error']}"
        print(f"[{r['n']},{r['d']}] {status}")
    return 0


def _cmd_ablate(args) -> int:
    spec = {} if args.grid is None else read_json(args.grid, "grid file")
    grid = AblationGrid(**{k: tuple(v) for k, v in
                           check_config("grid", spec, AblationGrid).items()})

    def cells(base):
        return [cell for seed in args.seeds or [base.seed]
                for cell in ablation_cells(grid, replace(base, quantizer="adaptive", seed=seed))]

    rows = _run_cells(args, "ablation", cells, lambda t: {k: t[k] for k in ABLATION_KEYS},
                      ["cell", "seed", "final_val_recon_sum", "final_val_recon_mean",
                       "config_hash", "error"])
    print(f"wrote {len(rows)} ablation rows to {Path(args.out) / 'ablation.csv'}")
    return 0


def _cmd_analyze(args) -> int:
    if args.gradient_gap:
        if args.checkpoint is None:
            raise ConfigError("analyze --gradient-gap needs --checkpoint")
        state, source = read_checkpoint(args.checkpoint)
        if source is None:
            raise ConfigError("checkpoint carries no dataset recipe to draw a probe batch from")
        probe = make_dataset(source).val[:TRAIN_DEFAULTS["probe_size"]]
        gap = gradient_gap(probe, state)
        print(f"gradient gap on {probe.shape[0]} validation samples: {gap:.10g}")
        return 0
    if args.fit_analytic is not None:
        result = fit_analytic(_read_sweep_pairs(args.fit_analytic))
        model = result.model
        print(f"fitted V={model.var_v:.6g} a={model.dim_const_a:.6g} "
              f"residual={result.residual:.6g} optimal_n={optimal_n(model):.6g}")
        return 0
    raise ConfigError("analyze needs --gradient-gap or --fit-analytic REPORT")


def _cmd_report(args) -> int:
    run_dir = Path(args.run)
    report = RunReport.from_json(run_dir / "report.json")
    if args.format == "csv":
        target = run_dir / "report.csv"
        report.to_csv(target)
    else:
        target = run_dir / "report_export.json"
        report.to_json(target)
    print(f"wrote {target}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aqvq",
        description="Vector-quantized autoencoders with fixed and adaptive codebooks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    train = sub.add_parser("train", help="train one model from a config file")
    train.add_argument("--config", required=True, help="run config JSON path")
    train.add_argument("--out", required=True, help="output directory")
    train.add_argument("--resume", default=None, help="checkpoint to resume from")
    train.set_defaults(func=_cmd_train)

    sweep = sub.add_parser("sweep", help="train every fixed structure of one capacity")
    sweep.add_argument("--capacity", type=int, required=True, help="codebook capacity n*d")
    sweep.add_argument("--config", default=None, help="run config JSON path")
    sweep.add_argument("--out", required=True)
    sweep.set_defaults(func=_cmd_sweep)

    adaptive = sub.add_parser("adaptive", help="train the adaptive multi-codebook model")
    adaptive.add_argument("--capacity", type=int, required=True)
    adaptive.add_argument("--config", default=None)
    adaptive.add_argument("--out", required=True)
    adaptive.set_defaults(func=_cmd_train, resume=None)

    ablate = sub.add_parser("ablate", help="run the one-knob-at-a-time ablation table")
    ablate.add_argument("--grid", default=None, help="JSON file with grid values")
    ablate.add_argument("--config", default=None)
    ablate.add_argument("--out", required=True)
    ablate.add_argument("--seeds", type=int, nargs="*", default=None)
    ablate.set_defaults(func=_cmd_ablate)

    analyze = sub.add_parser("analyze", help="diagnostics on checkpoints and sweep reports")
    analyze.add_argument("--checkpoint", default=None)
    analyze.add_argument("--gradient-gap", action="store_true")
    analyze.add_argument("--fit-analytic", default=None, metavar="REPORT")
    analyze.set_defaults(func=_cmd_analyze)

    report = sub.add_parser("report", help="export a run report")
    report.add_argument("--run", required=True, help="run directory")
    report.add_argument("--format", choices=("csv", "json"), default="csv")
    report.set_defaults(func=_cmd_report)

    return parser


def _one_line(err: Exception) -> str:
    """The message of ``err`` (its type's name if it has none), with any
    line break that a path or key from the input put in it written as an
    escape, so it prints as one line."""
    message = str(err) or type(err).__name__
    return message if len(message.splitlines()) <= 1 else repr(message)[1:-1]


def cli_main(argv=None) -> int:
    """Entry point; returns the process exit code instead of raising."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse already printed usage; fold argument errors into exit 1
        return 0 if exc.code in (0, None) else 1
    try:
        # overflow and invalid values surface as one NumericError from the
        # finiteness checks, not as numpy warnings on stderr
        with np.errstate(all="ignore"):
            return args.func(args)
    except (ConfigError, DomainError, FormatError, FitError) as err:
        print(f"error: {_one_line(err)}", file=sys.stderr)
        return 1
    except (NumericError, ContractError, DimensionError, OSError, MemoryError) as err:
        print(f"runtime error: {_one_line(err)}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
