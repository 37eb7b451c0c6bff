"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s``. The trend criteria
(8-10) train full desk-scale models; everything is seeded, so results
are reproducible bit for bit on one platform.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from helpers import (
    HandAutoencoder,
    adaptive_surrogate,
    brute_force_nearest,
    fixed_surrogate,
)
from aqvq.adaptive import gumbel_softmax, temperature
from aqvq.analysis import AnalyticModel, analytic_loss, fit_analytic, gradient_gap, optimal_n
from aqvq.data import DatasetSource, synth_dataset
from aqvq.experiments import run_trials, sweep_cells, train_run
from aqvq.model import ModelConfig, encode, evaluate, init_state, train_step
from aqvq.persist import load_checkpoint, save_checkpoint
from aqvq.tensor import (
    Tensor,
    add,
    backward,
    finite_difference_grad,
    mse,
    relative_error,
)
from aqvq.vq import Codebook, ema_update, nearest_indices

RNG = np.random.default_rng

BUDGET = 2000
CAPACITY = 64
SWEEP_SEED = 0
ADAPTIVE_SEEDS = (0, 1, 2)


def report_pass(number, message):
    print(f"\n[criterion {number:02d}] PASS: {message}")


@pytest.fixture(scope="module")
def cluster4():
    """The seeded 4-cluster mixture used by the sweep and adaptive criteria."""
    return synth_dataset(DatasetSource(
        kind="synthetic_gaussian_mixture", clusters=4, dims=8, samples=1024,
        noise_sigma=0.05, spread=1.0, seed=11))


@pytest.fixture(scope="module")
def base_config():
    return ModelConfig(input_shape=(8,), num_hiddens=16, learning_rate=1e-4,
                       quantizer="fixed", seed=SWEEP_SEED)


@pytest.fixture(scope="module")
def sweep(cluster4, base_config):
    started = time.perf_counter()
    rows = run_trials(cluster4, sweep_cells(CAPACITY, base_config), BUDGET, record_every=0)
    return rows, time.perf_counter() - started


@pytest.fixture(scope="module")
def adaptive_runs(cluster4, base_config):
    started = time.perf_counter()
    values = []
    for seed in ADAPTIVE_SEEDS:
        config = replace(base_config, quantizer="adaptive", capacity=CAPACITY, seed=seed)
        _, report = train_run(config, cluster4, BUDGET, record_every=0)
        values.append(report.summary["final_val_recon_sum"])
    return values, time.perf_counter() - started


class TestCriterion1GradientOracle:
    def _check_params(self, loss_builder, fd_builder, params, tol=1e-4, step=1e-6):
        for p in params.values():
            p.grad = None
        backward(loss_builder())
        worst = 0.0
        for p in params.values():
            fd = finite_difference_grad(lambda _: fd_builder(), p, step=step)
            grad = p.grad if p.grad is not None else np.zeros_like(p.data)
            worst = max(worst, relative_error(grad, fd.data))
            p.grad = None
        assert worst < tol, f"gradient oracle violated: rel err {worst}"
        return worst

    def test_gradient_oracle(self):
        started = time.perf_counter()

        # every differentiable op, randomized small inputs
        from aqvq.tensor import (affine, bmm, concat, conv2d_3x3, gather_rows,
                                 matmul, mul_scalar, relu, reshape, softmax,
                                 transpose)
        rng = RNG(100)
        checks = []
        a = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        b = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        checks.append(({"a": a, "b": b},
                       lambda: mse(add(mul_scalar(a, 1.3), b), Tensor(np.ones((4, 3))))))
        w = Tensor(rng.normal(size=(3, 5)), requires_grad=True)
        bias = Tensor(rng.normal(size=5), requires_grad=True)
        affine_in = Tensor(rng.normal(size=(4, 3)))
        checks.append(({"w": w, "bias": bias},
                       lambda: mse(relu(affine(affine_in, w, bias)),
                                   Tensor(np.zeros((4, 5))))))
        m1 = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        m2 = Tensor(rng.normal(size=(3, 5)), requires_grad=True)
        checks.append(({"m1": m1, "m2": m2},
                       lambda: mse(matmul(transpose(m1), m2), Tensor(np.zeros((4, 5))))))
        c1 = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
        c2 = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
        checks.append(({"c1": c1, "c2": c2},
                       lambda: mse(reshape(concat([c1, c2], axis=1), (3, 4)),
                                   Tensor(np.zeros((3, 4))))))
        bm1 = Tensor(rng.normal(size=(3, 1, 4)), requires_grad=True)
        bm2 = Tensor(rng.normal(size=(3, 4, 2)), requires_grad=True)
        checks.append(({"bm1": bm1, "bm2": bm2},
                       lambda: mse(bmm(bm1, bm2), Tensor(np.zeros((3, 1, 2))))))
        sl = Tensor(rng.normal(size=(5, 3)), requires_grad=True)
        checks.append(({"sl": sl},
                       lambda: mse(softmax(sl), Tensor(np.full((5, 3), 0.3)))))
        tbl = Tensor(rng.normal(size=(5, 3)), requires_grad=True)
        checks.append(({"tbl": tbl},
                       lambda: mse(gather_rows(tbl, np.array([0, 1, 1, 4])),
                                   Tensor(np.zeros((4, 3))))))
        cw = Tensor(0.4 * rng.normal(size=(3, 2, 3, 3)), requires_grad=True)
        cb = Tensor(rng.normal(size=3), requires_grad=True)
        cx = Tensor(rng.normal(size=(2, 2, 4, 4)), requires_grad=True)
        checks.append(({"cw": cw, "cb": cb, "cx": cx},
                       lambda: mse(conv2d_3x3(cx, cw, cb, "down"),
                                   Tensor(np.zeros((2, 3, 2, 2))))))
        ux = Tensor(rng.normal(size=(1, 2, 3, 3)), requires_grad=True)
        uw = Tensor(0.4 * rng.normal(size=(3, 2, 3, 3)), requires_grad=True)
        ub = Tensor(rng.normal(size=3), requires_grad=True)
        checks.append(({"uw": uw, "ub": ub, "ux": ux},
                       lambda: mse(conv2d_3x3(ux, uw, ub, "up"),
                                   Tensor(np.zeros((1, 3, 6, 6))))))
        for params, build in checks:
            self._check_params(build, build, params)

        # full fixed-mode loss on a toy model (182 parameters)
        fixed_cfg = ModelConfig(input_shape=(4,), num_hiddens=6, quantizer="fixed",
                                codebook_n=4, codebook_d=2, use_ema=False, seed=7)
        fixed_state = init_state(fixed_cfg)
        n_params = sum(p.data.size for p in fixed_state.params.values())
        assert n_params <= 200
        x = RNG(101).normal(size=(4, 4))
        actual, surrogate = fixed_surrogate(fixed_state, x)
        assert abs(actual().item() - surrogate().item()) < 1e-12
        self._check_params(actual, surrogate, fixed_state.params)

        # full adaptive-mode loss on a two-codebook toy (196 parameters):
        # hard selection against the frozen-selection surrogate, and the
        # soft relaxation directly against finite differences
        adaptive_cfg = ModelConfig(input_shape=(3,), num_hiddens=4,
                                   quantizer="adaptive", capacity=8, num_heads=1,
                                   use_ema=False, seed=8)
        adaptive_state = init_state(adaptive_cfg)
        n_params = sum(p.data.size for p in adaptive_state.params.values())
        assert n_params <= 200
        xa = RNG(102).normal(size=(4, 3))
        actual, surrogate = adaptive_surrogate(adaptive_state, xa, tau=1.0, hard=True)
        self._check_params(actual, surrogate, adaptive_state.params)

        soft_actual, soft_surrogate = adaptive_surrogate(adaptive_state, xa,
                                                         tau=1.0, hard=False)
        assert abs(soft_actual().item() - soft_surrogate().item()) < 1e-12
        self._check_params(soft_actual, soft_surrogate, adaptive_state.params)

        elapsed = time.perf_counter() - started
        assert elapsed < 60.0
        report_pass(1, f"backward matches central differences (rel err < 1e-4) "
                       f"for all ops and both full losses in {elapsed:.1f}s")


class TestCriterion2QuantizerExactness:
    def test_quantizer_exactness(self):
        started = time.perf_counter()
        rng = RNG(200)
        for _ in range(1000):
            n = int(rng.integers(1, 65))
            d = int(rng.integers(1, 17))
            t = int(rng.integers(1, 5))
            emb = rng.normal(size=(n, d))
            z = rng.normal(size=(t, d))
            cb = Codebook(emb)
            idx = nearest_indices(z, cb)
            np.testing.assert_array_equal(idx, brute_force_nearest(z, emb))
            from aqvq.vq import quantize
            out = quantize(Tensor(z), cb)
            [(_, _, indices)] = out.assignments
            assert np.array_equal(out.z_q.data, emb[indices])
        elapsed = time.perf_counter() - started
        assert elapsed < 10.0
        report_pass(2, f"1000 random instances match the brute-force scan; "
                       f"rows bit-identical ({elapsed:.1f}s)")


class TestCriterion3SteIdentity:
    def test_ste_identity(self):
        # gradient gap exactly zero when quantization is lossless
        cfg = ModelConfig(input_shape=(6,), num_hiddens=4, quantizer="fixed",
                          codebook_n=5, codebook_d=4, seed=31)
        state = init_state(cfg)
        layer = state.quantizer
        layer.w_in.data[:] = np.eye(4)
        layer.b_in.data[:] = 0.0
        layer.w_out.data[:] = np.eye(4)
        layer.b_out.data[:] = 0.0
        x = RNG(300).normal(size=(5, 6))
        layer.codebook.embeddings.data[:5] = layer.project_in(encode(x, state)).data
        assert gradient_gap(x, state) == 0.0

        none_state = init_state(replace(cfg, quantizer="none"))
        assert gradient_gap(x, none_state) == 0.0

        # quantizer-free loss path equals an independently coded autoencoder
        plain_cfg = ModelConfig(input_shape=(6,), num_hiddens=8, quantizer="none",
                                learning_rate=1e-3, seed=32)
        plain = init_state(plain_cfg)
        oracle = HandAutoencoder({
            "w1": plain.params["enc.w1"].data, "b1": plain.params["enc.b1"].data,
            "w2": plain.params["enc.w2"].data, "b2": plain.params["enc.b2"].data,
            "w3": plain.params["dec.w1"].data, "b3": plain.params["dec.b1"].data,
            "w4": plain.params["dec.w2"].data, "b4": plain.params["dec.b2"].data,
        })
        rng = RNG(301)
        batches = [rng.normal(size=(8, 6)) for _ in range(80)]
        oracle_losses = oracle.train(batches, lr=1e-3)
        package_losses = [train_step(b, plain)["loss"] for b in batches]
        worst = max(abs(a - b) for a, b in zip(package_losses, oracle_losses))
        assert worst <= 1e-10
        report_pass(3, f"lossless quantization gives gap 0 exactly; quantizer-free "
                       f"loss path within {worst:.2e} of the independent autoencoder")


class TestCriterion4LinearDecoderGap:
    def test_linear_decoder_gap(self):
        cfg = ModelConfig(input_shape=(6,), num_hiddens=4, quantizer="fixed",
                          codebook_n=8, codebook_d=4, seed=41)
        state = init_state(cfg)
        layer = state.quantizer
        layer.w_in.data[:] = np.eye(4)
        layer.b_in.data[:] = 0.0
        layer.w_out.data[:] = np.eye(4)
        layer.b_out.data[:] = 0.0
        state.params["dec.b1"].data[:] = 10.0  # relu open: decoder affine here
        a = state.params["dec.w1"].data @ state.params["dec.w2"].data
        x = 0.1 * RNG(400).normal(size=(7, 6))
        z_e = encode(x, state).data
        emb = layer.codebook.embeddings.data
        idx = np.argmin(((z_e[:, None, :] - emb[None]) ** 2).sum(-1), axis=1)
        z_q = emb[idx]
        expected = np.linalg.norm((2.0 / x.size) * (z_e - z_q) @ (a @ a.T))
        gap = gradient_gap(x, state)
        assert abs(gap - expected) < 1e-8
        report_pass(4, f"affine-decoder gap matches (2/n)||A^T A (z_e - z_q)|| "
                       f"to {abs(gap - expected):.2e}")


class TestCriterion5GumbelCorrectness:
    def test_gumbel_correctness(self):
        rng = RNG(500)
        draws = 100_000
        logits = Tensor(np.tile(np.log([1.0, 3.0]), (draws, 1)))
        hard = gumbel_softmax(logits, tau=1.0, hard=True, rng=rng)
        freq = hard.data[:, 1].mean()
        se = np.sqrt(0.75 * 0.25 / draws)
        assert abs(freq - 0.75) <= 3 * se

        test_logits = rng.normal(size=(200, 6))
        noise_off = gumbel_softmax(Tensor(test_logits), tau=0.9, hard=True, rng=None)
        np.testing.assert_array_equal(noise_off.data.argmax(axis=1),
                                      test_logits.argmax(axis=1))
        assert set(np.unique(noise_off.data)) <= {0.0, 1.0}
        report_pass(5, f"selection frequency {freq:.4f} within 3 standard errors of "
                       f"0.75; noise-off hard mode equals argmax")


class TestCriterion6EmaConvergence:
    def test_ema_convergence(self):
        rng = RNG(600)
        cb = Codebook(rng.normal(size=(4, 3)))
        z = rng.normal(size=(32, 3))
        idx = np.repeat(np.arange(4), 8)
        means = np.stack([z[idx == j].mean(axis=0) for j in range(4)])
        steps = 0
        for steps in range(1, 5001):
            ema_update(cb, z, idx, gamma=0.99, laplace_eps=1e-5)
            if np.abs(cb.embeddings.data - means).max() < 1e-6:
                break
        err = np.abs(cb.embeddings.data - means).max()
        assert err < 1e-6 and steps <= 5000
        report_pass(6, f"codewords within {err:.2e} of cluster means after {steps} "
                       f"updates at decay 0.99")


class TestCriterion7AnalyticModel:
    def test_analytic_model(self):
        model = AnalyticModel(var_v=4.0, dim_const_a=1.0)
        assert optimal_n(model) == 2.0

        n_star = optimal_n(model)
        h = 1e-4
        derivative = (analytic_loss(n_star + h, model)
                      - analytic_loss(n_star - h, model)) / (2 * h)
        assert abs(derivative) < 1e-6

        pairs = [(n, analytic_loss(n, model)) for n in (1.0, 2.0, 4.0)]
        fit = fit_analytic(pairs)
        assert abs(fit.model.var_v - 4.0) < 1e-8
        assert abs(fit.model.dim_const_a - 1.0) < 1e-8
        report_pass(7, f"optimal size exactly 2; stationarity {abs(derivative):.2e}; "
                       f"fit round-trip within 1e-8")


class TestCriterion8SweepTrend:
    def test_sweep_trend(self, sweep):
        results, elapsed = sweep
        assert elapsed < 300.0
        by_spec = {(r["config"].codebook_n, r["config"].codebook_d): r["final_val_recon_sum"]
                   for r in results}
        assert set(by_spec) == {(16, 4), (32, 2), (64, 1)}
        assert all(v is not None for v in by_spec.values())
        extreme = by_spec[(64, 1)]
        best_interior = min(by_spec[(16, 4)], by_spec[(32, 2)])
        assert extreme >= best_interior
        report_pass(8, f"[64,1] recon {extreme:.3f} >= best interior "
                       f"{best_interior:.3f} (U-shape trend, {elapsed:.0f}s)")


class TestCriterion9AdaptiveAdvantage:
    def test_adaptive_advantage(self, sweep, adaptive_runs):
        results, sweep_time = sweep
        values, adaptive_time = adaptive_runs
        assert sweep_time + adaptive_time < 600.0
        best_fixed = min(r["final_val_recon_sum"] for r in results)
        median_adaptive = float(np.median(values))
        assert median_adaptive <= 1.05 * best_fixed
        report_pass(9, f"adaptive median {median_adaptive:.3f} <= 1.05 x best fixed "
                       f"{best_fixed:.3f} over seeds {ADAPTIVE_SEEDS} "
                       f"({sweep_time + adaptive_time:.0f}s)")


class TestCriterion10AblationDirection:
    def test_ema_ablation_direction(self):
        # a capacity-limited mixture where codebook quality is the bottleneck
        dataset = synth_dataset(DatasetSource(
            kind="synthetic_gaussian_mixture", clusters=16, dims=16, samples=1024,
            noise_sigma=0.05, spread=1.0, seed=11))
        base = ModelConfig(input_shape=(16,), num_hiddens=32, learning_rate=1e-4,
                           quantizer="adaptive", capacity=CAPACITY)
        with_ema, without_ema = [], []
        for seed in ADAPTIVE_SEEDS:
            for flag, acc in ((True, with_ema), (False, without_ema)):
                cfg = replace(base, use_ema=flag, seed=seed)
                _, report = train_run(cfg, dataset, BUDGET, record_every=0)
                acc.append(report.summary["final_val_recon_sum"])
        med_with = float(np.median(with_ema))
        med_without = float(np.median(without_ema))
        assert med_without >= med_with
        report_pass(10, f"without-EMA median {med_without:.3f} >= EMA median "
                        f"{med_with:.3f} over seeds {ADAPTIVE_SEEDS}")


class TestCriterion11TemperatureSchedule:
    def test_temperature_schedule(self):
        iterations = 5000
        assert temperature(iterations, 0, "training") == iterations + 1
        assert temperature(iterations, iterations, "training") == 1.0
        assert temperature(iterations, 123, "validation") == 1.0
        assert temperature(0, 0, "training") == 1.0
        report_pass(11, "training schedule starts at iterations + 1, ends at 1; "
                        "validation pinned to 1")


class TestCriterion12Persistence:
    def test_persistence(self, tmp_path):
        cfg = ModelConfig(input_shape=(8,), num_hiddens=8, quantizer="adaptive",
                          capacity=16, learning_rate=1e-3, seed=120)
        state = init_state(cfg)
        rng = RNG(121)
        for _ in range(10):
            train_step(rng.normal(size=(16, 8)), state, rng=rng)
        probe = rng.normal(size=(40, 8))
        before = evaluate(probe, state)

        first = tmp_path / "first.json"
        second = tmp_path / "second.json"
        save_checkpoint(state, first)
        loaded = load_checkpoint(first)
        after = evaluate(probe, loaded)
        assert before == after

        save_checkpoint(loaded, second)
        assert first.read_bytes() == second.read_bytes()
        report_pass(12, "evaluate identical after reload; double save byte-identical")
