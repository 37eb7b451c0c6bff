"""Experiment harness: budgets, data-order fairness, reproducibility,
sweep and ablation cells run as trials, and failure recording."""

import inspect
from dataclasses import replace

import numpy as np
import pytest

from aqvq.data import DatasetSource, synth_dataset
from aqvq.errors import ConfigError, NumericError
from aqvq.experiments import (
    AblationGrid,
    _batches,
    ablation_cells,
    run_trials,
    sweep_cells,
    train_run,
)
from aqvq.model import ModelConfig, evaluate
from aqvq.persist import TRAIN_DEFAULTS
from aqvq.vq import CodebookSpec

RNG = np.random.default_rng


@pytest.fixture(scope="module")
def dataset():
    return synth_dataset(DatasetSource(clusters=4, dims=8, samples=256,
                                       noise_sigma=0.05, seed=11))


def small_config(**kw):
    base = dict(input_shape=(8,), num_hiddens=8, quantizer="fixed",
                codebook_n=8, codebook_d=2, capacity=8, batch_size=32,
                learning_rate=1e-3, seed=0)
    base.update(kw)
    return ModelConfig(**base)


class TestBatches:
    def test_budget_respected(self):
        data = RNG(0).normal(size=(50, 3))
        batches = list(_batches(data, 16, 7, RNG(1)))
        assert len(batches) == 7
        assert all(b.shape == (16, 3) for b in batches)

    def test_same_seed_same_order(self):
        data = RNG(0).normal(size=(40, 2))
        a = list(_batches(data, 8, 10, RNG(5)))
        b = list(_batches(data, 8, 10, RNG(5)))
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)

    def test_batch_size_capped_at_dataset(self):
        data = RNG(0).normal(size=(10, 2))
        batches = list(_batches(data, 64, 3, RNG(2)))
        assert all(b.shape[0] == 10 for b in batches)


class TestTrainRun:
    def test_records_and_summary(self, dataset):
        _, report = train_run(small_config(), dataset, steps=20, record_every=5,
                              gap_every=10)
        assert [r["step"] for r in report.records] == [5, 10, 15, 20]
        gaps = [r["gap"] for r in report.records]
        assert gaps[0] is None and gaps[1] is not None
        assert report.summary["wall_time"] > 0
        assert report.summary["steps"] == 20
        assert len(report.summary["config_hash"]) == 64

    @pytest.mark.parametrize("record_every,gap_every,steps,gap_steps", [
        (2, 5, 20, [5, 10, 15, 20]),
        (0, 5, 10, [5, 10]),
    ], ids=["intervals-coprime", "records-off"])
    def test_probe_lands_every_gap_every_steps(self, dataset, record_every, gap_every,
                                               steps, gap_steps):
        _, report = train_run(small_config(), dataset, steps=steps,
                              record_every=record_every, gap_every=gap_every)
        recorded = sorted({s for s in range(1, steps + 1)
                           if (record_every and s % record_every == 0) or s in gap_steps})
        assert [r["step"] for r in report.records] == recorded
        assert [r["step"] for r in report.records if r["gap"] is not None] == gap_steps

    def test_budget_validated(self, dataset):
        with pytest.raises(ConfigError):
            train_run(small_config(), dataset, steps=0)

    @pytest.mark.parametrize("knob", ["record_every", "gap_every"])
    def test_negative_intervals_rejected(self, dataset, knob):
        with pytest.raises(ConfigError) as err:
            train_run(small_config(), dataset, steps=2, **{knob: -1})
        assert knob in str(err.value)

    def test_bit_identical_reruns(self, dataset):
        cfg = small_config(quantizer="adaptive")
        _, a = train_run(cfg, dataset, steps=15)
        _, b = train_run(cfg, dataset, steps=15)
        assert a.records == b.records
        assert a.summary["final_val_recon_sum"] == b.summary["final_val_recon_sum"]

    def test_adaptive_records_carry_usage_and_temperature(self, dataset):
        _, report = train_run(small_config(quantizer="adaptive"), dataset, steps=6)
        rec = report.records[0]
        assert rec["usage"] is not None and sum(rec["usage"]) > 0
        assert rec["temperature"] == 7.0  # countdown start: (steps - 0) + 1 at step index 0

    def test_train_section_keys_are_keyword_arguments(self):
        # the CLI passes a config's train section to train_run as keywords,
        # and a keyword left out takes the config's default
        defaults = {key: parameter.default for key, parameter in
                    inspect.signature(train_run).parameters.items() if key in TRAIN_DEFAULTS}
        assert defaults == {**TRAIN_DEFAULTS, "steps": inspect.Parameter.empty}
        batch_size = inspect.signature(evaluate).parameters["batch_size"].default
        assert batch_size == TRAIN_DEFAULTS["eval_batch_size"]


def structure(row):
    return row["config"].codebook_n, row["config"].codebook_d


class TestFixedSweep:
    def test_one_trial_per_structure(self, dataset):
        rows = run_trials(dataset, sweep_cells(16, small_config()), 10, gap_every=5)
        assert [structure(r) for r in rows] == [(8, 2), (16, 1)]
        for r in rows:
            assert r["error"] is None
            assert r["final_val_recon_sum"] is not None
            assert len([rec for rec in r["records"] if rec["gap"] is not None]) == 2
            assert len(r["records"]) == 10
            assert r["cell"] == CodebookSpec(*structure(r)).label

    def test_degenerate_capacity_single_trial(self, dataset):
        rows = run_trials(dataset, sweep_cells(2, small_config()), 5)
        assert len(rows) == 1 and structure(rows[0])[0] == 2

    def test_distinct_config_hashes(self, dataset):
        rows = run_trials(dataset, sweep_cells(16, small_config()), 5)
        hashes = {r["config_hash"] for r in rows}
        assert len(hashes) == len(rows)

    def test_numeric_failure_recorded_and_sweep_continues(self, dataset):
        exploding = small_config(learning_rate=1e30)
        with np.errstate(over="ignore", invalid="ignore"):
            rows = run_trials(dataset, sweep_cells(16, exploding), 20)
        assert len(rows) == 2
        assert all(r["error"] is not None for r in rows)
        assert all(r["final_val_recon_sum"] is None for r in rows)
        assert all(r["records"] == [] for r in rows)


class TestAdaptiveRun:
    def test_single_structure_pool_matches_fixed(self, dataset):
        # capacity 2 admits only [2,1]; the adaptive model must track the
        # fixed model's metrics exactly (selection is forced, scores are 1)
        base = small_config(codebook_n=2, codebook_d=1, seed=3)
        fixed = run_trials(dataset, sweep_cells(2, base), 25)[0]
        _, report = train_run(replace(base, quantizer="adaptive", capacity=2), dataset, 25)
        assert report.summary["final_val_recon_sum"] == pytest.approx(
            fixed["final_val_recon_sum"], abs=1e-12)

    def test_usage_histogram_rows_normalized(self, dataset):
        config = small_config(quantizer="adaptive", capacity=16, seed=1)
        _, report = train_run(config, dataset, 12)
        from aqvq.adaptive import usage_histogram
        counts = [r["usage"] for r in report.records]
        for row in usage_histogram(counts, window=4):
            assert abs(row.sum() - 1.0) <= 1e-9


class TestAblation:
    def test_cells_cover_grid_one_knob_at_a_time(self):
        base = small_config(quantizer="adaptive")
        grid = AblationGrid(capacities=(8, 16), use_ema=(True, False),
                            alphas=(0.25, 0.5), betas=(1.0,))
        cells = dict(ablation_cells(grid, base))
        assert set(cells) == {"base", "W=8", "W=16", "ema=True", "ema=False",
                              "alpha=0.25", "alpha=0.5", "beta=1.0"}
        assert cells["alpha=0.25"] == base  # the base alpha reproduces the base cell
        assert cells["W=16"].capacity == 16
        assert cells["ema=False"].use_ema is False

    def test_base_alpha_cell_bit_identical_to_base(self, dataset):
        base = small_config(quantizer="adaptive")
        grid = AblationGrid(capacities=(), use_ema=(), alphas=(0.25,), betas=())
        rows = run_trials(dataset, ablation_cells(grid, replace(base, seed=4)), 10)
        by_cell = {r["cell"]: r for r in rows}
        assert by_cell["alpha=0.25"]["final_val_recon_sum"] == \
            by_cell["base"]["final_val_recon_sum"]
        assert by_cell["alpha=0.25"]["config_hash"] == by_cell["base"]["config_hash"]

    def test_capacity_cell_runs_with_enumerated_pool(self, dataset):
        base = small_config(quantizer="adaptive")
        grid = AblationGrid(capacities=(16,), use_ema=(False,), alphas=(), betas=())
        rows = run_trials(dataset, ablation_cells(grid, replace(base, seed=5)), 8)
        cells = {r["cell"] for r in rows}
        assert cells == {"base", "W=16", "ema=False"}
        assert all(r["error"] is None for r in rows)
        assert all(r["final_val_recon_sum"] is not None for r in rows)

    def test_rows_carry_seed_and_hash(self, dataset):
        base = small_config(quantizer="adaptive")
        grid = AblationGrid(capacities=(), use_ema=(), alphas=(), betas=(0.2,))
        rows = run_trials(dataset, ablation_cells(grid, replace(base, seed=6)), 5)
        for row in rows:
            assert row["seed"] == 6
            assert len(row["config_hash"]) == 64
