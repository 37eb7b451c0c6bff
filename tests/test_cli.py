"""Command-line surface: subcommands, exit codes, seed override, and
bit-exact reproduction from the resolved config."""

import io
import json
import os
import re
import struct
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from helpers import DAMAGE, damaged_checkpoints, report_record, stored_values
from aqvq.cli import cli_main
from aqvq.data import DatasetSource
from aqvq.errors import ConfigError
from aqvq.experiments import AblationGrid
from aqvq.model import ModelConfig
from aqvq.persist import config_hash

RNG = np.random.default_rng
SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture
def run_config(tmp_path):
    config = {
        "model": {"input_shape": [8], "num_hiddens": 8, "quantizer": "fixed",
                  "codebook_n": 8, "codebook_d": 2, "capacity": 8,
                  "batch_size": 32, "learning_rate": 1e-3, "seed": 3},
        "dataset": {"kind": "synthetic_gaussian_mixture", "clusters": 4, "dims": 8,
                    "samples": 128, "noise_sigma": 0.05, "seed": 3},
        "train": {"steps": 12, "gap_every": 6},
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    return path


class TestTrain:
    def test_writes_outputs(self, tmp_path, run_config, capsys):
        out = tmp_path / "run"
        assert cli_main(["train", "--config", str(run_config), "--out", str(out)]) == 0
        assert (out / "checkpoint.json").exists()
        assert (out / "report.json").exists()
        assert (out / "resolved_config.json").exists()
        assert "final validation recon sum" in capsys.readouterr().out

    def test_rerun_from_resolved_config_is_bit_exact(self, tmp_path, run_config):
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert cli_main(["train", "--config", str(run_config), "--out", str(out1)]) == 0
        resolved = out1 / "resolved_config.json"
        assert cli_main(["train", "--config", str(resolved), "--out", str(out2)]) == 0
        assert (out1 / "checkpoint.json").read_bytes() == (out2 / "checkpoint.json").read_bytes()
        first = json.loads((out1 / "report.json").read_text())
        second = json.loads((out2 / "report.json").read_text())
        assert first["records"] == second["records"]
        first["summary"].pop("wall_time")
        second["summary"].pop("wall_time")
        assert first["summary"] == second["summary"]

    def test_adaptive_rerun_from_resolved_config_is_bit_exact(self, tmp_path, run_config):
        out1, out2 = tmp_path / "a1", tmp_path / "a2"
        assert cli_main(["adaptive", "--capacity", "16", "--config", str(run_config),
                         "--out", str(out1)]) == 0
        resolved = json.loads((out1 / "resolved_config.json").read_text())
        assert resolved["model"]["quantizer"] == "adaptive"
        assert resolved["model"]["capacity"] == 16
        assert cli_main(["train", "--config", str(out1 / "resolved_config.json"),
                         "--out", str(out2)]) == 0
        assert (out1 / "checkpoint.json").read_bytes() == (out2 / "checkpoint.json").read_bytes()
        first = json.loads((out1 / "report.json").read_text())
        second = json.loads((out2 / "report.json").read_text())
        assert first["summary"]["config_hash"] == second["summary"]["config_hash"]

    def test_missing_config_names_path(self, tmp_path, capsys):
        missing = tmp_path / "nope.json"
        rc = cli_main(["train", "--config", str(missing), "--out", str(tmp_path / "o")])
        assert rc == 1
        assert str(missing) in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["report", "train"])
    def test_directory_input_exits_one(self, tmp_path, capsys, command):
        # a permission-denied input takes the same path but cannot be
        # made unreadable to a process running as root, so it is not tested
        (tmp_path / "report.json").mkdir()
        argv = {"report": ["report", "--run", str(tmp_path)],
                "train": ["train", "--config", str(tmp_path), "--out", str(tmp_path / "o")]}
        assert cli_main(argv[command]) == 1
        err = capsys.readouterr().err
        kind = {"report": "run report", "train": "config file"}[command]
        assert err.startswith(f"error: cannot read {kind} ") and "Is a directory" in err
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("name", ["a\nb.json", "a\rb.json", "a\u2028b.json"],
                             ids=["newline", "carriage-return", "line-separator"])
    def test_line_break_in_message_is_escaped(self, tmp_path, capsys, name):
        missing = tmp_path / name
        assert cli_main(["train", "--config", str(missing), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert repr(str(missing))[1:-1] in err

    def test_resume_continues_to_budget(self, tmp_path, run_config):
        out1 = tmp_path / "first"
        assert cli_main(["train", "--config", str(run_config), "--out", str(out1)]) == 0
        longer = json.loads(run_config.read_text())
        longer["train"]["steps"] = 20
        cfg2 = tmp_path / "longer.json"
        cfg2.write_text(json.dumps(longer))
        out2 = tmp_path / "second"
        rc = cli_main(["train", "--config", str(cfg2), "--out", str(out2),
                       "--resume", str(out1 / "checkpoint.json")])
        assert rc == 0
        doc = json.loads((out2 / "checkpoint.json").read_text())
        assert doc["step"] == 20

    @pytest.mark.parametrize("budget", [12, 8], ids=["at-budget", "past-budget"])
    def test_resume_with_no_steps_left_exits_one(self, tmp_path, run_config, capsys, budget):
        first = tmp_path / "first"  # trained to step 12
        assert cli_main(["train", "--config", str(run_config), "--out", str(first)]) == 0
        raw = json.loads(run_config.read_text())
        raw["train"]["steps"] = budget
        run_config.write_text(json.dumps(raw))
        out = tmp_path / "second"
        capsys.readouterr()
        assert cli_main(["train", "--config", str(run_config), "--out", str(out),
                         "--resume", str(first / "checkpoint.json")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.strip().splitlines()) == 1
        assert "step 12" in err and f"budget of {budget} steps" in err
        assert list(out.glob("*")) == []

    def test_resume_rejects_mismatched_model(self, tmp_path, run_config):
        out1 = tmp_path / "first"
        assert cli_main(["train", "--config", str(run_config), "--out", str(out1)]) == 0
        other = json.loads(run_config.read_text())
        other["model"]["num_hiddens"] = 4
        cfg2 = tmp_path / "other.json"
        cfg2.write_text(json.dumps(other))
        rc = cli_main(["train", "--config", str(cfg2), "--out", str(tmp_path / "x"),
                       "--resume", str(out1 / "checkpoint.json")])
        assert rc == 1

    def test_resume_rejects_other_dataset_recipe(self, tmp_path, run_config, capsys):
        # four steps on one mixture may not go on for four more on another
        raw = json.loads(run_config.read_text())
        raw["train"]["steps"] = 4
        run_config.write_text(json.dumps(raw))
        first = tmp_path / "first"
        assert cli_main(["train", "--config", str(run_config), "--out", str(first)]) == 0
        raw["dataset"].update(seed=5, clusters=7)
        raw["train"]["steps"] = 8
        other = tmp_path / "other.json"
        other.write_text(json.dumps(raw))
        checkpoint, out = first / "checkpoint.json", tmp_path / "out"
        capsys.readouterr()
        assert cli_main(["train", "--config", str(other), "--out", str(out),
                         "--resume", str(checkpoint)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.strip().splitlines()) == 1
        assert str(checkpoint) in err and "dataset recipe" in err
        assert list(out.glob("*")) == []

    def test_resume_from_checkpoint_without_recipe(self, tmp_path, run_config):
        first = tmp_path / "first"
        assert cli_main(["train", "--config", str(run_config), "--out", str(first)]) == 0
        doc = json.loads((first / "checkpoint.json").read_text())
        doc["config"]["dataset"] = None
        checkpoint = tmp_path / "no_recipe.json"
        checkpoint.write_text(json.dumps(doc))
        longer = json.loads(run_config.read_text())
        longer["train"]["steps"] = 20
        run_config.write_text(json.dumps(longer))
        out = tmp_path / "second"
        assert cli_main(["train", "--config", str(run_config), "--out", str(out),
                         "--resume", str(checkpoint)]) == 0
        assert json.loads((out / "checkpoint.json").read_text())["step"] == 20

    def test_config_that_is_not_text(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_bytes(b"\xff\xfe\x00")
        assert cli_main(["train", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.strip().splitlines()) == 1

    def test_seed_env_override(self, tmp_path, run_config, monkeypatch):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        monkeypatch.setenv("AQVQ_SEED", "77")
        assert cli_main(["train", "--config", str(run_config), "--out", str(out1)]) == 0
        resolved = json.loads((out1 / "resolved_config.json").read_text())
        assert resolved["model"]["seed"] == 77
        assert resolved["dataset"]["seed"] == 77
        monkeypatch.delenv("AQVQ_SEED")
        assert cli_main(["train", "--config", str(run_config), "--out", str(out2)]) == 0
        assert json.loads((out2 / "resolved_config.json").read_text())["model"]["seed"] == 3

    def test_invalid_seed_env(self, tmp_path, run_config, monkeypatch, capsys):
        monkeypatch.setenv("AQVQ_SEED", "lots")
        rc = cli_main(["train", "--config", str(run_config), "--out", str(tmp_path / "o")])
        assert rc == 1
        assert "AQVQ_SEED" in capsys.readouterr().err
        monkeypatch.setenv("AQVQ_SEED", "-5")
        rc = cli_main(["train", "--config", str(run_config), "--out", str(tmp_path / "o")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.strip().splitlines()) == 1
        assert "seed" in err and "-5" in err

    def test_numeric_blowup_exits_two(self, tmp_path, run_config, capsys):
        raw = json.loads(run_config.read_text())
        raw["model"]["learning_rate"] = 1e30
        bad = tmp_path / "explode.json"
        bad.write_text(json.dumps(raw))
        rc = cli_main(["train", "--config", str(bad), "--out", str(tmp_path / "o")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("runtime error: ") and len(err.strip().splitlines()) == 1
        assert list((tmp_path / "o").glob("*")) == []

    def test_gradient_gap_needs_a_probe(self, tmp_path, run_config, capsys):
        raw = json.loads(run_config.read_text())
        raw["train"]["probe_size"] = 0
        bad = tmp_path / "no_probe.json"
        bad.write_text(json.dumps(raw))
        assert cli_main(["train", "--config", str(bad), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "probe_size" in err


class TestRejectedRun:
    """A config problem found before training exits 1 with one error line
    and leaves no resolved config behind."""

    @pytest.mark.parametrize("seed,model,dataset", [
        ("-5", {}, {}),
        (None, {"codebook_n": 2, "codebook_d": 4}, {}),
        (None, {"quantizer": "adaptive", "capacity": 48}, {}),
        (None, {"quantizer": "adaptive", "num_heads": 3, "num_hiddens": 16}, {}),
        (None, {"laplace_eps": 0.0}, {}),
        (None, {"input_shape": [4]}, {}),
        (None, {}, {"kind": "idx_images", "images_path": "missing.idx"}),
        (None, {"learning_rate": float("nan")}, {}),
        (None, {"alpha": float("nan")}, {}),
        (None, {"beta": float("nan")}, {}),
        (None, {"laplace_eps": float("nan")}, {}),
        (None, {"learning_rate": float("inf")}, {}),
        (None, {}, {"noise_sigma": float("nan")}),
    ], ids=["seed-env-negative", "codebook-n-below-d", "capacity-not-power-of-two",
            "heads-not-dividing-hiddens", "laplace-eps-zero", "input-shape-not-dataset",
            "idx-images-missing", "learning-rate-nan", "alpha-nan", "beta-nan",
            "laplace-eps-nan", "learning-rate-inf", "noise-sigma-nan"])
    def test_exits_one_without_resolved_config(self, tmp_path, run_config, monkeypatch,
                                               capsys, seed, model, dataset):
        if seed is not None:
            monkeypatch.setenv("AQVQ_SEED", seed)
        raw = json.loads(run_config.read_text())
        raw["model"].update(model)
        raw["dataset"].update(dataset)
        if "images_path" in dataset:
            raw["dataset"]["images_path"] = str(tmp_path / dataset["images_path"])
        path = tmp_path / "rejected.json"
        path.write_text(json.dumps(raw))
        out = tmp_path / "out"
        assert cli_main(["train", "--config", str(path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.strip().splitlines()) == 1
        assert not (out / "resolved_config.json").exists()

    @pytest.mark.parametrize("case", ["resume-other-model", "resume-missing-checkpoint",
                                      "ablate-capacity-48", "train-steps-zero",
                                      "sweep-steps-zero", "idx-zero-images", "idx-one-image"])
    def test_rejected_after_prepare_leaves_no_file(self, tmp_path, run_config, capsys, case):
        raw = json.loads(run_config.read_text())
        command = ["train"]
        if case.startswith("idx-"):
            count = 0 if case == "idx-zero-images" else 1
            images = tmp_path / "images.idx"
            # ``count`` samples of 8 values, the run config's dense input
            images.write_bytes(struct.pack(">4B2I", 0, 0, 0x08, 2, count, 8) + bytes(8 * count))
            raw["dataset"] = {"kind": "idx_images", "images_path": str(images)}
        elif case == "resume-other-model":
            first = tmp_path / "first"
            assert cli_main(["train", "--config", str(run_config), "--out", str(first)]) == 0
            raw["model"]["num_hiddens"] = 4
            command += ["--resume", str(first / "checkpoint.json")]
        elif case == "resume-missing-checkpoint":
            command += ["--resume", str(tmp_path / "missing.json")]
        elif case == "ablate-capacity-48":
            grid = tmp_path / "grid.json"
            grid.write_text(json.dumps({"capacities": [48]}))
            command = ["ablate", "--grid", str(grid)]
        else:
            raw["train"]["steps"] = 0
            if case == "sweep-steps-zero":
                command = ["sweep", "--capacity", "8"]
        path = tmp_path / "rejected.json"
        path.write_text(json.dumps(raw))
        out = tmp_path / "out"
        capsys.readouterr()
        assert cli_main(command + ["--config", str(path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.strip().splitlines()) == 1
        assert list(out.glob("*")) == []


HUGE = 2**62  # a size whose float64 array holds more bytes than numpy can address


class TestUnaddressableSize:
    """A config size that shapes an array numpy cannot address exits 1 with
    one error line naming it, before anything is allocated or written; an
    allocation that fails exits 2. No test allocates an array this host
    could not hold."""

    @pytest.mark.parametrize("section,field,extra", [
        ("dataset", "samples", {}),
        ("dataset", "clusters", {}),
        ("dataset", "dims", {}),
        ("model", "codebook_n", {}),
        ("model", "capacity", {"quantizer": "adaptive"}),
        ("model", "num_hiddens", {}),
    ])
    def test_config_exits_one(self, tmp_path, run_config, capsys, section, field, extra):
        raw = json.loads(run_config.read_text())
        raw[section].update({field: HUGE, **extra})
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(raw))
        out = tmp_path / "out"
        assert cli_main(["train", "--config", str(path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.strip().splitlines()) == 1
        assert field in err and "Traceback" not in err
        assert list(out.glob("*")) == []

    def test_checkpoint_config_exits_one(self, tmp_path, run_config, capsys):
        first = tmp_path / "first"
        assert cli_main(["train", "--config", str(run_config), "--out", str(first)]) == 0
        doc = json.loads((first / "checkpoint.json").read_text())
        doc["config"]["model"]["codebook_n"] = HUGE
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "out"
        capsys.readouterr()
        assert cli_main(["train", "--config", str(run_config), "--resume", str(path),
                         "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.strip().splitlines()) == 1
        assert "codebook_n" in err and "Traceback" not in err
        assert list(out.glob("*")) == []

    def test_failed_allocation_exits_two(self, tmp_path, run_config, capsys, monkeypatch):
        from aqvq import experiments

        def init_state(config):
            raise MemoryError()  # what a failed allocation raises, often with no message

        monkeypatch.setattr(experiments, "init_state", init_state)
        out = tmp_path / "out"
        assert cli_main(["train", "--config", str(run_config), "--out", str(out)]) == 2
        assert capsys.readouterr().err == "runtime error: MemoryError\n"
        assert list(out.glob("*")) == []


class TestSweepAndAdaptive:
    def test_sweep_row_count_matches_enumeration(self, tmp_path, run_config):
        out = tmp_path / "sweep"
        rc = cli_main(["sweep", "--capacity", "16", "--config", str(run_config),
                       "--out", str(out)])
        assert rc == 0
        rows = json.loads((out / "sweep.json").read_text())
        assert [(r["n"], r["d"]) for r in rows] == [(8, 2), (16, 1)]
        header = (out / "sweep.csv").read_text().splitlines()[0]
        assert header.startswith("n,d,final_val_recon_sum")

    def test_adaptive_writes_report_with_usage(self, tmp_path, run_config):
        out = tmp_path / "adaptive"
        rc = cli_main(["adaptive", "--capacity", "16", "--config", str(run_config),
                       "--out", str(out)])
        assert rc == 0
        report = json.loads((out / "report.json").read_text())
        assert report["records"][0]["usage"] is not None

    def test_capacity_must_be_power_of_two(self, tmp_path, run_config):
        rc = cli_main(["sweep", "--capacity", "12", "--config", str(run_config),
                       "--out", str(tmp_path / "s")])
        assert rc == 1


class TestTrainSection:
    def test_sweep_and_ablate_run_trials_like_train(self, tmp_path, run_config):
        raw = json.loads(run_config.read_text())
        raw["train"] = {"steps": 12, "record_every": 3, "gap_every": 6, "probe_size": 5,
                        "eval_batch_size": 7}
        means = {}
        for quantizer in ("fixed", "adaptive"):
            raw["model"]["quantizer"] = quantizer
            config = tmp_path / f"{quantizer}.json"
            config.write_text(json.dumps(raw))
            out = tmp_path / quantizer
            assert cli_main(["train", "--config", str(config), "--out", str(out)]) == 0
            report = json.loads((out / "report.json").read_text())
            means[quantizer] = report["summary"]["final_val_recon_mean"]
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"capacities": [], "use_ema": [], "alphas": [],
                                    "betas": []}))
        assert cli_main(["sweep", "--capacity", "16", "--config", str(config),
                         "--out", str(tmp_path / "sweep")]) == 0
        assert cli_main(["ablate", "--grid", str(grid), "--config", str(config),
                         "--out", str(tmp_path / "ablate")]) == 0
        sweep = json.loads((tmp_path / "sweep" / "sweep.json").read_text())
        ablation = json.loads((tmp_path / "ablate" / "ablation.json").read_text())
        assert [r["final_val_recon_mean"] for r in sweep if r["n"] == 8] == [means["fixed"]]
        assert [r["final_val_recon_mean"] for r in ablation] == [means["adaptive"]]


class TestAblate:
    def test_grid_file_drives_cells(self, tmp_path, run_config):
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"capacities": [16], "use_ema": [False],
                                    "alphas": [], "betas": []}))
        out = tmp_path / "ablation"
        rc = cli_main(["ablate", "--grid", str(grid), "--config", str(run_config),
                       "--out", str(out)])
        assert rc == 0
        rows = json.loads((out / "ablation.json").read_text())
        assert {r["cell"] for r in rows} == {"base", "W=16", "ema=False"}
        header = (out / "ablation.csv").read_text().splitlines()[0]
        assert header == "cell,seed,final_val_recon_sum,final_val_recon_mean,config_hash,error"

    def test_multi_seed_flag(self, tmp_path, run_config):
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"capacities": [], "use_ema": [],
                                    "alphas": [], "betas": []}))
        out = tmp_path / "ablation"
        rc = cli_main(["ablate", "--grid", str(grid), "--config", str(run_config),
                       "--out", str(out), "--seeds", "1", "2"])
        assert rc == 0
        rows = json.loads((out / "ablation.json").read_text())
        assert [r["seed"] for r in rows] == [1, 2]

    def test_malformed_grid_json(self, tmp_path, run_config, capsys):
        grid = tmp_path / "grid.json"
        grid.write_text('{"capacities": [16,')
        rc = cli_main(["ablate", "--grid", str(grid), "--config", str(run_config),
                       "--out", str(tmp_path / "o")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "malformed JSON" in err
        assert len(err.strip().splitlines()) == 1

    def test_unknown_grid_key(self, tmp_path, run_config):
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"gammas": [0.5]}))
        rc = cli_main(["ablate", "--grid", str(grid), "--config", str(run_config),
                       "--out", str(tmp_path / "o")])
        assert rc == 1


class TestAnalyzeAndReport:
    def test_gradient_gap_from_checkpoint(self, tmp_path, run_config, capsys):
        out = tmp_path / "run"
        cli_main(["train", "--config", str(run_config), "--out", str(out)])
        rc = cli_main(["analyze", "--checkpoint", str(out / "checkpoint.json"),
                       "--gradient-gap"])
        assert rc == 0
        assert "gradient gap" in capsys.readouterr().out

    def test_fit_analytic_from_sweep(self, tmp_path, capsys):
        rows = [{"n": n, "d": 64 // n, "final_val_recon_sum": 4.0 / n + 0.1 * n}
                for n in (2, 4, 8, 16)]
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(rows))
        rc = cli_main(["analyze", "--fit-analytic", str(path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "optimal_n" in out

    def test_fit_analytic_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "sweep.json"
        path.write_text("[{\"n\": 2,")
        assert cli_main(["analyze", "--fit-analytic", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "malformed JSON" in err
        assert len(err.strip().splitlines()) == 1

    def test_fit_analytic_nonpositive_size(self, tmp_path, capsys):
        rows = [{"n": n, "d": 1, "final_val_recon_sum": 1.0 + abs(n)}
                for n in (0, 2, 4, 8)]
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(rows))
        assert cli_main(["analyze", "--fit-analytic", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "positive" in err
        assert len(err.strip().splitlines()) == 1

    def test_analyze_needs_a_task(self, capsys):
        assert cli_main(["analyze"]) == 1

    @pytest.mark.parametrize("case,message", [
        ("both-analyses", "not both"),
        ("gap-without-checkpoint", "needs --checkpoint"),
        ("checkpoint-without-recipe", "no dataset recipe"),
    ])
    def test_analyze_error_exits_one_with_one_line(self, tmp_path, run_config, capsys, case,
                                                   message):
        run = tmp_path / "run"
        assert cli_main(["train", "--config", str(run_config), "--out", str(run)]) == 0
        checkpoint = run / "checkpoint.json"
        argv = ["analyze", "--gradient-gap", "--checkpoint", str(checkpoint)]
        if case == "both-analyses":
            sweep = tmp_path / "sweep.json"
            sweep.write_text(json.dumps([{"n": n, "final_val_recon_sum": 4.0 / n + 0.1 * n}
                                         for n in (2, 4, 8, 16)]))
            argv += ["--fit-analytic", str(sweep)]
        elif case == "gap-without-checkpoint":
            argv = argv[:2]
        else:
            doc = json.loads(checkpoint.read_text())
            doc["config"]["dataset"] = None
            checkpoint.write_text(json.dumps(doc))
        capsys.readouterr()
        assert cli_main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.strip().splitlines()) == 1
        assert message in err

    def test_report_csv_matches_json(self, tmp_path, run_config):
        out = tmp_path / "run"
        cli_main(["train", "--config", str(run_config), "--out", str(out)])
        assert cli_main(["report", "--run", str(out), "--format", "csv"]) == 0
        csv_lines = (out / "report.csv").read_text().splitlines()
        records = json.loads((out / "report.json").read_text())["records"]
        assert len(csv_lines) == len(records) + 1
        header = csv_lines[0].split(",")
        first = dict(zip(header, csv_lines[1].split(",")))
        assert float(first["recon"]) == records[0]["recon"]

    def test_report_json_format(self, tmp_path, run_config):
        out = tmp_path / "run"
        cli_main(["train", "--config", str(run_config), "--out", str(out)])
        assert cli_main(["report", "--run", str(out), "--format", "json"]) == 0
        assert (out / "report_export.json").exists()

    def test_report_without_run_dir(self, tmp_path):
        assert cli_main(["report", "--run", str(tmp_path / "missing")]) == 1


def _report(*records):
    return {"records": list(records), "summary": {}}


class TestWrongShapeInput:
    """Well-formed JSON of the wrong shape exits 1 with one error line."""

    @pytest.mark.parametrize("command,document", [
        ("ablate --grid", {"capacities": 16}),
        ("ablate --grid", [16]),
        ("analyze --fit-analytic", [1, 2, 3]),
        ("analyze --fit-analytic", {"n": 2}),
        ("report --run", []),
        ("report --run", {"records": [{"step": 1}], "summary": {}}),
        ("report --run", _report(report_record(1, usage=[1, 2]), report_record(2, usage=[3]))),
        ("report --run", _report(report_record(2), report_record(1))),
        ("report --run", _report(report_record(1, lr=0.1))),
        ("report --run", _report(report_record(1, usage=[[1]]))),
        ("analyze --fit-analytic", [{"n": n, "final_val_recon_sum": 1.0} for n in
                                    (2, 4, float("inf"))]),
        ("analyze --fit-analytic", [{"n": n, "final_val_recon_sum": s} for n, s in
                                    ((2, 1.0), (4, float("nan")), (8, 1.0))]),
        ("train --config", {"model": 5}),
        ("train --config", {"model": {"input_shape": 8}}),
        ("train --config", {"train": {"steps": "x"}}),
        ("train --config", {"dataset": {"samples": "x"}}),
        ("train --config", {"model": {"seed": -1}}),
        ("train --config", {"dataset": {"seed": -1}}),
        ("train --config", {"model": {"num_heads": 0}}),
        ("train --config", {"model": {"num_heads": -2}}),
        ("train --config", {"model": {"learning_rate": -1e-3}}),
    ], ids=["grid-int", "grid-list", "sweep-ints", "sweep-object", "report-list",
            "report-record-keys", "report-mixed-usage-widths", "report-steps-decreasing",
            "report-unknown-record-key", "report-nested-usage", "sweep-infinite-n",
            "sweep-nan-sum", "model-int", "input-shape-int", "steps-str", "samples-str",
            "model-seed-negative", "dataset-seed-negative", "heads-zero", "heads-negative",
            "learning-rate-negative"])
    def test_exits_one_with_one_line(self, tmp_path, run_config, capsys, command, document):
        path = tmp_path / ("report.json" if command == "report --run" else "input.json")
        path.write_text(json.dumps(document))
        argv = {
            "ablate --grid": ["ablate", "--grid", str(path), "--config", str(run_config),
                              "--out", str(tmp_path / "out")],
            "analyze --fit-analytic": ["analyze", "--fit-analytic", str(path)],
            "report --run": ["report", "--run", str(tmp_path)],
            "train --config": ["train", "--config", str(path), "--out", str(tmp_path / "out")],
        }[command]
        assert cli_main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert len(err.strip().splitlines()) == 1


def _float_keys(cls) -> list:
    """The fields of the config dataclass ``cls`` whose defaults are floats
    or tuples of floats."""
    return [f.name for f in fields(cls)
            if isinstance(f.default[0] if isinstance(f.default, tuple) else f.default, float)]


FLOAT_KEYS = ([("model", key) for key in _float_keys(ModelConfig)]
              + [("dataset", key) for key in _float_keys(DatasetSource)]
              + [("grid", key) for key in _float_keys(AblationGrid)]
              + [("checkpoint", "alpha")])


class TestFloatTooLarge:
    """A float config value given as an integer that no float can hold
    exits 1 with one error line naming it, and writes nothing."""

    @pytest.mark.parametrize("section,key", FLOAT_KEYS,
                             ids=[f"{section}-{key}" for section, key in FLOAT_KEYS])
    def test_exits_one_with_one_line(self, tmp_path, run_config, capsys, section, key):
        huge = 10**400
        path, out = tmp_path / "input.json", tmp_path / "out"
        if section == "grid":
            document = {key: [huge]}
            argv = ["ablate", "--grid", path, "--config", run_config, "--out", out]
        elif section == "checkpoint":
            run = tmp_path / "run"
            assert cli_main(["train", "--config", str(run_config), "--out", str(run)]) == 0
            document = json.loads((run / "checkpoint.json").read_text())
            document["config"]["model"][key] = huge
            argv = ["analyze", "--checkpoint", path, "--gradient-gap"]
        else:
            document = json.loads(run_config.read_text())
            document[section][key] = huge
            argv = ["train", "--config", path, "--out", out]
        path.write_text(json.dumps(document))
        capsys.readouterr()
        assert cli_main([str(arg) for arg in argv]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.strip().splitlines()) == 1
        assert key in err and list(out.glob("*")) == []


FLOAT_FIELDS = [(cls, f.name) for cls in (ModelConfig, DatasetSource) for f in fields(cls)
                if isinstance(f.default, float)]


class TestOneNumberRule:
    """A model or dataset key whose default is a float takes a number,
    not a bool, that a float holds finitely, and reads an integer as the
    float it equals."""

    @pytest.mark.parametrize("cls,key", FLOAT_FIELDS, ids=[key for _, key in FLOAT_FIELDS])
    def test_from_dict_reads_an_integer_as_a_float(self, cls, key):
        try:
            config = cls.from_dict({key: 10**20})
        except ConfigError:
            pass
        else:
            assert type(getattr(config, key)) is float
        with pytest.raises(ConfigError, match=key):
            cls.from_dict({key: 10**400})

    @pytest.mark.parametrize("cls,key", FLOAT_FIELDS, ids=[key for _, key in FLOAT_FIELDS])
    def test_integer_and_float_give_one_run(self, tmp_path, run_config, cls, key):
        try:
            cls.from_dict({key: 1})
        except ConfigError:
            valid = False
        else:
            valid = True
        raw = json.loads(run_config.read_text())
        raw["train"]["steps"] = 1
        runs = []
        for value in (1, 1.0):
            raw["model" if cls is ModelConfig else "dataset"][key] = value
            path, out = tmp_path / f"{value!r}.json", tmp_path / repr(value)
            path.write_text(json.dumps(raw))
            assert cli_main(["train", "--config", str(path), "--out", str(out)]) == (
                0 if valid else 1)
            runs.append(out)
        if valid:
            resolved = [(out / "resolved_config.json").read_bytes() for out in runs]
            hashes = {json.loads((out / "report.json").read_text())["summary"]["config_hash"]
                      for out in runs}
            assert resolved[0] == resolved[1]
            assert hashes == {config_hash(json.loads(resolved[0]))}

    @pytest.mark.parametrize("section,key", [("model", "alpha"), ("dataset", "noise_sigma")])
    def test_train_with_a_large_integer_ends_cleanly(self, tmp_path, run_config, section, key):
        raw = json.loads(run_config.read_text())
        raw[section][key] = 10**20
        path = tmp_path / "large.json"
        path.write_text(json.dumps(raw))
        result = _run_module("train", "--config", path, "--out", tmp_path / "out")
        assert result.returncode in (0, 1, 2)
        assert len(result.stderr.strip().splitlines()) <= 1
        assert "Traceback" not in result.stderr


class TestArgumentErrors:
    def test_unknown_flag_exits_one(self, capsys):
        assert cli_main(["train", "--bogus"]) == 1
        assert "usage" in capsys.readouterr().err

    def test_unknown_command_exits_one(self):
        assert cli_main(["frobnicate"]) == 1

    def test_help_exits_zero(self, capsys):
        assert cli_main(["--help"]) == 0
        assert "aqvq" in capsys.readouterr().out


def _run_module(*args):
    """Run ``python -m aqvq.cli`` with ``args`` in a child process."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    return subprocess.run([sys.executable, "-m", "aqvq.cli", *map(str, args)], env=env,
                          capture_output=True, text=True, timeout=120)


class TestModuleRun:
    """``python -m aqvq.cli`` runs the same command line as the ``aqvq`` script."""

    def test_help_exits_zero(self):
        result = _run_module("--help")
        assert result.returncode == 0
        assert result.stdout.startswith("usage: aqvq")

    def test_missing_config_exits_one(self, tmp_path):
        result = _run_module("train", "--config", tmp_path / "missing.json",
                             "--out", tmp_path / "out")
        assert result.returncode == 1
        assert result.stderr.startswith("error: ")
        assert len(result.stderr.strip().splitlines()) == 1


class TestUnparsableJson:
    """JSON that Python cannot parse into values, an integer past its
    digit limit or nesting past its recursion limit, exits 1 with one
    error line naming the file from every command that reads JSON, and
    the command writes nothing. Run in a child process, where an
    uncaught exception would also exit 1, but with a traceback."""

    @pytest.mark.parametrize("text", ['{"model": {"seed": ' + "9" * 5000 + "}}",
                                      "[" * 100_000 + "]" * 100_000],
                             ids=["long-integer", "deep-nesting"])
    @pytest.mark.parametrize("command", ["train --config", "sweep --config", "ablate --grid",
                                         "analyze --fit-analytic", "report --run",
                                         "train --resume"])
    def test_exits_one_with_one_line(self, tmp_path, run_config, command, text):
        path = tmp_path / "report.json"  # the name ``report --run`` reads
        path.write_text(text)
        out = tmp_path / "out"
        argv = {
            "train --config": ["train", "--config", path, "--out", out],
            "sweep --config": ["sweep", "--capacity", 8, "--config", path, "--out", out],
            "ablate --grid": ["ablate", "--grid", path, "--config", run_config,
                              "--out", out],
            "analyze --fit-analytic": ["analyze", "--fit-analytic", path],
            "report --run": ["report", "--run", tmp_path],
            "train --resume": ["train", "--config", run_config, "--resume", path,
                               "--out", out],
        }[command]
        result = _run_module(*argv)
        assert result.returncode == 1
        assert result.stderr.startswith(f"error: {path}: ")
        assert "Traceback" not in result.stderr
        assert len(result.stderr.strip().splitlines()) == 1
        assert list(out.glob("*")) == []
        assert sorted(p.name for p in tmp_path.glob("*.*")) == ["config.json", "report.json"]


def _repeat(doc, key) -> str:
    """The JSON text of ``doc`` with the first ``key`` in it given twice, in one object."""
    text = json.dumps(doc)
    first = text.index(f'"{key}": ')
    return f'{text[:first]}"{key}": null, {text[first:]}'


class TestRepeatedKey:
    """Every JSON input has one policy: a key given twice in one object exits
    1 with one error line naming the key, and the command writes nothing."""

    @pytest.mark.parametrize("command", ["train --config", "ablate --grid",
                                         "analyze --fit-analytic", "report --run",
                                         "train --resume"])
    def test_exits_one_naming_the_key(self, tmp_path, run_config, capsys, command):
        raw = json.loads(run_config.read_text())
        raw["train"]["steps"] = 2
        run_config.write_text(json.dumps(raw))
        path = tmp_path / "report.json"  # the name ``report --run`` reads
        out = tmp_path / "out"
        key, text = {
            "train --config": lambda: ("steps", _repeat(raw, "steps")),
            "ablate --grid": lambda: ("capacities", _repeat({"capacities": [8]}, "capacities")),
            "analyze --fit-analytic": lambda: ("n", _repeat(
                [{"n": n, "final_val_recon_sum": 1.0 / n + n} for n in (2, 4, 8)], "n")),
            "report --run": lambda: ("summary", _repeat(
                {"records": [report_record(1)], "summary": {}}, "summary")),
            "train --resume": lambda: ("step", self._checkpoint_text(tmp_path, run_config)),
        }[command]()
        path.write_text(text)
        argv = {
            "train --config": ["train", "--config", path, "--out", out],
            "ablate --grid": ["ablate", "--grid", path, "--config", run_config, "--out", out],
            "analyze --fit-analytic": ["analyze", "--fit-analytic", path],
            "report --run": ["report", "--run", tmp_path],
            "train --resume": ["train", "--config", run_config, "--resume", path,
                               "--out", out],
        }[command]
        capsys.readouterr()
        assert cli_main([str(a) for a in argv]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: ") and len(err.strip().splitlines()) == 1
        assert f"key {key!r} repeats" in err and "Traceback" not in err
        assert list(out.glob("*")) == []
        assert not (tmp_path / "report.csv").exists()

    @staticmethod
    def _checkpoint_text(tmp_path, run_config) -> str:
        """A trained run's checkpoint with its top-level "step" given twice."""
        assert cli_main(["train", "--config", str(run_config),
                         "--out", str(tmp_path / "first")]) == 0
        text = (tmp_path / "first" / "checkpoint.json").read_text()
        return text.replace('"step": ', '"step": 0, "step": ', 1)


def _set(path, value):
    """Edit for a checkpoint document: set the entry at ``path`` (keys and
    indices; the empty string stands for the first key) to ``value``."""
    def edit(doc):
        node = doc
        for key in path[:-1]:
            node = node[next(iter(node)) if key == "" else key]
        node[next(iter(node)) if path[-1] == "" else path[-1]] = value
    return edit


def _payload(edit):
    """Edit for a checkpoint document: replace its hex payload by
    ``edit(payload)``."""
    def apply(doc):
        doc["payload"] = edit(doc["payload"])
    return apply


def _bad_character(payload):
    # inserted, not substituted: a decoder that skips it reads the arrays intact
    return payload[:4] + "*" + payload[4:]


def _one_value_short(payload):
    return payload[:-16]  # the last array holds float64 values


class TestMalformedCheckpoint:
    """A checkpoint field of the wrong type or value exits 1 with one error line."""

    @pytest.mark.parametrize("edit", [
        _set(["config", "model", "gamma"], "x"),
        _set(["config", "model", "laplace_eps"], [1]),
        _set(["step"], "x"),
        _set(["arrays"], 5),
        _set(["arrays", "codebooks[0].ema_cluster_size"], "x"),
        _set(["arrays", "", "shape"], "x"),
        _set(["payload"], 5),
        _payload(_bad_character),
        _payload(_one_value_short),
        _payload(lambda payload: [payload]),
        _set(["config"], 7),
        _set(["adam_t"], 1.5),
        _set(["step"], -100),
        _set(["adam_t"], -1),
        _set(["arrays", "", "payload"], "00"),
        _set(["adam_t"], 10**400),
        _set(["step"], 2**63),
    ], ids=["gamma-str", "laplace-eps-list", "step-str", "arrays-int", "codebook-str",
            "shape-str", "payload-int", "payload-bad-char",
            "payload-one-value-short", "payload-list", "config-int", "adam-t-float",
            "step-negative", "adam-t-negative", "payload-inside-arrays", "adam-t-huge",
            "step-huge"])
    def test_exits_one_with_one_line(self, tmp_path, run_config, capsys, edit):
        out = tmp_path / "run"
        assert cli_main(["train", "--config", str(run_config), "--out", str(out)]) == 0
        doc = json.loads((out / "checkpoint.json").read_text())
        edit(doc)
        path = tmp_path / "edited.json"
        path.write_text(json.dumps(doc))
        capsys.readouterr()
        assert cli_main(["analyze", "--checkpoint", str(path), "--gradient-gap"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("case", DAMAGE)
    def test_damaged_payload_exits_one_naming_the_damage(self, tmp_path, run_config, capsys,
                                                         case):
        out = tmp_path / "run"
        assert cli_main(["train", "--config", str(run_config), "--out", str(out)]) == 0
        text, message = damaged_checkpoints((out / "checkpoint.json").read_bytes())[case]
        path = tmp_path / "damaged.json"
        path.write_bytes(text)
        capsys.readouterr()
        assert cli_main(["analyze", "--checkpoint", str(path), "--gradient-gap"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: ") and len(err.strip().splitlines()) == 1
        assert re.search(message, err)

    @pytest.mark.parametrize("escape", [False, True], ids=["plain", "escaped"])
    def test_duplicate_array_key_exits_one(self, tmp_path, run_config, capsys, escape):
        """A stored array given twice is rejected, also when the copy's name
        is written with a JSON escape."""
        out = tmp_path / "run"
        assert cli_main(["train", "--config", str(run_config), "--out", str(out)]) == 0
        doc = json.loads((out / "checkpoint.json").read_text())
        name, entry = list(doc["arrays"].items())[-1]
        key = ("\\u%04x" % ord(name[0]) if escape else name[0]) + name[1:]
        text = json.dumps(doc).replace('"arrays": {',
                                       f'"arrays": {{"{key}": {json.dumps(entry)}, ')
        path = tmp_path / "duplicate.json"
        path.write_text(text)
        capsys.readouterr()
        assert cli_main(["analyze", "--checkpoint", str(path), "--gradient-gap"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.strip().splitlines()) == 1
        assert "repeats" in err

    def test_unknown_config_key_exits_one_naming_it(self, tmp_path, run_config, capsys):
        first = tmp_path / "first"
        assert cli_main(["train", "--config", str(run_config), "--out", str(first)]) == 0
        doc = json.loads((first / "checkpoint.json").read_text())
        doc["config"]["surprise"] = {"x": 1}
        path, out = tmp_path / "surprise.json", tmp_path / "out"
        path.write_text(json.dumps(doc))
        capsys.readouterr()
        assert cli_main(["train", "--config", str(run_config), "--out", str(out),
                         "--resume", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: ") and len(err.strip().splitlines()) == 1
        assert "surprise" in err and list(out.glob("*")) == []

    def test_version_one_file_is_rejected(self, tmp_path, run_config, capsys):
        """Files of formats 1 to 4 are rejected by their version number."""
        out = tmp_path / "run"
        assert cli_main(["train", "--config", str(run_config), "--out", str(out)]) == 0
        current = json.loads((out / "checkpoint.json").read_text())
        values = stored_values(current)
        # format 4 stored one pair of moment entries a parameter, in parameter
        # order, so its payload is the same hex
        params = {name[len("params["):-1]: entry for name, entry in current["arrays"].items()
                  if name.startswith("params[")}
        version4 = {**current, "format_version": 4, "arrays": {
            **{name: entry for name, entry in current["arrays"].items()
               if not name.startswith("adam_")},
            **{f"{moment}[{name}]": entry for moment in ("adam_m", "adam_v")
               for name, entry in params.items()}}}
        version3 = json.loads(damaged_checkpoints((out / "checkpoint.json").read_bytes())
                              ["format-3"][0])  # base64 of each array's bytes
        version2 = {**version3, "format_version": 2, "arrays": {
            name: {"shape": entry["shape"], "dtype": entry["dtype"],  # one hex string a value
                   "hex": [float(v).hex() for v in values[name]]}
            for name, entry in current["arrays"].items()}}
        version1 = {**version3, "format_version": 1}
        version1["params"] = version1.pop("arrays")  # version 1 kept its arrays in separate tables
        for version, doc in [(1, version1), (2, version2), (3, version3), (4, version4)]:
            path = tmp_path / f"version{version}.json"
            path.write_text(json.dumps(doc))
            capsys.readouterr()
            assert cli_main(["analyze", "--checkpoint", str(path), "--gradient-gap"]) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: ") and len(err.strip().splitlines()) == 1
            assert f"version {version}" in err

    def test_checkpoint_is_opened_once_and_no_byte_read_twice(self, tmp_path, run_config,
                                                              monkeypatch):
        from aqvq import data  # the module of open_input, the one way input files are opened
        out = tmp_path / "run"
        assert cli_main(["train", "--config", str(run_config), "--out", str(out)]) == 0
        path = out / "checkpoint.json"
        opened, spans = [], []

        class Recording(io.BufferedReader):
            def read(self, size=-1):
                at = self.tell()
                text = super().read(size)
                spans.append((at, at + len(text)))
                return text

        def recording_open(file, mode):
            opened.append(file)
            return Recording(io.FileIO(file, mode))

        monkeypatch.setattr(data, "open", recording_open, raising=False)
        assert cli_main(["analyze", "--checkpoint", str(path), "--gradient-gap"]) == 0
        assert opened == [str(path)]
        spans = [span for span in sorted(spans) if span[0] != span[1]]
        assert spans[0][0] == 0 and spans[-1][1] == path.stat().st_size
        assert all(end == start for (_, end), (start, _) in zip(spans, spans[1:]))


JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 3) | st.text(max_size=3)
    | st.floats(),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                max_size=3),
    max_leaves=6)


def _slots(node):
    """Every (container, key) pair of a JSON document."""
    keys = node if isinstance(node, dict) else range(len(node)) if isinstance(node, list) else ()
    for key in keys:
        yield node, key
        yield from _slots(node[key])


def _mutate(data, doc):
    """Draw one edit of ``doc``: a whole new document, or one value replaced,
    deleted, or given an unknown sibling key."""
    slots = list(_slots(doc))
    pick = data.draw(st.integers(0, len(slots)))
    if pick == len(slots):
        return data.draw(JSON)
    node, key = slots[pick]
    action = data.draw(st.sampled_from(["set", "delete", "add"]))
    if action == "set":
        node[key] = data.draw(JSON)
    elif action == "delete":
        del node[key]
    elif isinstance(node, dict):
        node[data.draw(st.text(max_size=3)) + "?"] = data.draw(JSON)
    return doc


class TestFuzzedInput:
    """Any edit of a config, grid, sweep report, run report or checkpoint
    ends in an exit code with at most one line on stderr, never a traceback."""

    @pytest.fixture(scope="class")
    def documents(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("fuzz")
        config = {"model": {"input_shape": [4], "num_hiddens": 4, "codebook_n": 4,
                            "codebook_d": 2, "capacity": 8, "batch_size": 8},
                  "dataset": {"clusters": 2, "dims": 4, "samples": 32},
                  "train": {"steps": 2, "gap_every": 1}}
        (root / "config.json").write_text(json.dumps(config))
        assert cli_main(["train", "--config", str(root / "config.json"),
                         "--out", str(root / "run")]) == 0
        return root, {
            "config": json.loads((root / "run" / "resolved_config.json").read_text()),
            "grid": {"capacities": [8], "use_ema": [False], "alphas": [0.5], "betas": [2.0]},
            "sweep": [{"n": n, "d": 8 // n, "final_val_recon_sum": 1.0 / n + n}
                      for n in (2, 4, 8)],
            "report": json.loads((root / "run" / "report.json").read_text()),
            "checkpoint": json.loads((root / "run" / "checkpoint.json").read_text()),
        }

    @settings(deadline=None, max_examples=150,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_no_traceback(self, documents, data, capsys):
        root, originals = documents
        kind = data.draw(st.sampled_from(sorted(originals)))
        doc = _mutate(data, json.loads(json.dumps(originals[kind])))
        path = root / ("report.json" if kind == "report" else f"input_{kind}.json")
        path.write_text(json.dumps(doc))
        out = str(root / "out")
        argv = {
            "config": ["train", "--config", str(path), "--out", out],
            "grid": ["ablate", "--grid", str(path), "--config", str(root / "config.json"),
                     "--out", out],
            "sweep": ["analyze", "--fit-analytic", str(path)],
            "report": ["report", "--run", str(root)],
            "checkpoint": ["analyze", "--checkpoint", str(path), "--gradient-gap"],
        }[kind]
        capsys.readouterr()
        rc = cli_main(argv)
        err = capsys.readouterr().err
        assert rc in (0, 1, 2)
        if rc != 0:
            assert len(err.strip().splitlines()) == 1, err
