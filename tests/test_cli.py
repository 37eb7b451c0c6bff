"""Command-line surface: subcommands, exit codes, seed override, and
bit-exact reproduction from the resolved config."""

import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from aqvq.cli import cli_main

RNG = np.random.default_rng


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

    def test_numeric_blowup_exits_two(self, tmp_path, run_config, capsys):
        raw = json.loads(run_config.read_text())
        raw["model"]["learning_rate"] = 1e30
        bad = tmp_path / "explode.json"
        bad.write_text(json.dumps(raw))
        rc = cli_main(["train", "--config", str(bad), "--out", str(tmp_path / "o")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("runtime error: ") and len(err.strip().splitlines()) == 1

    def test_gradient_gap_needs_a_probe(self, tmp_path, run_config, capsys):
        raw = json.loads(run_config.read_text())
        raw["train"]["probe_size"] = 0
        bad = tmp_path / "no_probe.json"
        bad.write_text(json.dumps(raw))
        assert cli_main(["train", "--config", str(bad), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "probe_size" in err


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


class TestWrongShapeInput:
    """Well-formed JSON of the wrong shape exits 1 with one error line."""

    @pytest.mark.parametrize("command,document", [
        ("ablate --grid", {"capacities": 16}),
        ("ablate --grid", [16]),
        ("analyze --fit-analytic", [1, 2, 3]),
        ("analyze --fit-analytic", {"n": 2}),
        ("report --run", []),
        ("report --run", {"records": [{"step": 1}], "summary": {}}),
        ("train --config", {"model": 5}),
        ("train --config", {"model": {"input_shape": 8}}),
        ("train --config", {"train": {"steps": "x"}}),
        ("train --config", {"dataset": {"samples": "x"}}),
    ], ids=["grid-int", "grid-list", "sweep-ints", "sweep-object", "report-list",
            "report-record-keys", "model-int", "input-shape-int", "steps-str", "samples-str"])
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


class TestArgumentErrors:
    def test_unknown_flag_exits_one(self, capsys):
        assert cli_main(["train", "--bogus"]) == 1
        assert "usage" in capsys.readouterr().err

    def test_unknown_command_exits_one(self):
        assert cli_main(["frobnicate"]) == 1

    def test_help_exits_zero(self, capsys):
        assert cli_main(["--help"]) == 0
        assert "aqvq" in capsys.readouterr().out


def _set(path, value):
    """Edit for a checkpoint document: set the entry at ``path`` (keys and
    indices; the empty string stands for the first key) to ``value``."""
    def edit(doc):
        node = doc
        for key in path[:-1]:
            node = node[next(iter(node)) if key == "" else key]
        node[next(iter(node)) if path[-1] == "" else path[-1]] = value
    return edit


class TestMalformedCheckpoint:
    """A checkpoint field of the wrong type or value exits 1 with one error line."""

    @pytest.mark.parametrize("edit", [
        _set(["codebooks", 0, "gamma"], "x"),
        _set(["codebooks", 0, "laplace_eps"], [1]),
        _set(["step"], "x"),
        _set(["codebooks"], 5),
        _set(["codebooks", 0], "x"),
        _set(["params", "", "hex", 0], 5),
        _set(["config"], 7),
        _set(["adam_t"], 1.5),
    ], ids=["gamma-str", "laplace-eps-list", "step-str", "codebooks-int", "codebook-str",
            "hex-int", "config-int", "adam-t-float"])
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

    def test_stored_gamma_must_match_the_config(self, tmp_path, run_config, capsys):
        out = tmp_path / "run"
        assert cli_main(["train", "--config", str(run_config), "--out", str(out)]) == 0
        doc = json.loads((out / "checkpoint.json").read_text())
        doc["codebooks"][0]["gamma"] = 0.5
        path = tmp_path / "edited.json"
        path.write_text(json.dumps(doc))
        capsys.readouterr()
        assert cli_main(["analyze", "--checkpoint", str(path), "--gradient-gap"]) == 1
        assert "gamma" in capsys.readouterr().err

    def test_checkpoint_is_read_once(self, tmp_path, run_config, monkeypatch):
        from aqvq import persist
        out = tmp_path / "run"
        assert cli_main(["train", "--config", str(run_config), "--out", str(out)]) == 0
        reads = []
        real = persist.read_json
        monkeypatch.setattr(persist, "read_json", lambda *a: reads.append(a) or real(*a))
        assert cli_main(["analyze", "--checkpoint", str(out / "checkpoint.json"),
                         "--gradient-gap"]) == 0
        assert len(reads) == 1


JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 3) | st.text(max_size=3)
    | st.floats(allow_nan=False, allow_infinity=False),
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
