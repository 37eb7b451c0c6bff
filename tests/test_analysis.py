"""Diagnostics: gradient gap (zero case, affine closed form) and the
capacity model (loss, optimum, least-squares fit)."""

import contextlib

import numpy as np
import pytest

import aqvq.analysis
from aqvq.analysis import (
    AnalyticModel,
    analytic_loss,
    fit_analytic,
    gradient_gap,
    optimal_n,
)
from aqvq.errors import DomainError, FitError
from aqvq.model import ModelConfig, encode, init_state

RNG = np.random.default_rng


def open_relu_decoder(state, bias=10.0):
    """Push the decoder's hidden bias up so relu acts as identity and the
    decoder is affine on the probed region: x_hat = z @ W1 @ W2 + const."""
    state.params["dec.b1"].data[:] = bias
    return state.params["dec.w1"].data @ state.params["dec.w2"].data


class TestGradientGapZeroCases:
    def test_no_quantizer_gap_exactly_zero(self):
        cfg = ModelConfig(input_shape=(6,), num_hiddens=8, quantizer="none", seed=0)
        state = init_state(cfg)
        assert gradient_gap(RNG(0).normal(size=(5, 6)), state) == 0.0

    def test_exact_codebook_gap_exactly_zero(self):
        # codewords copied bit-for-bit from the projected encoder outputs
        cfg = ModelConfig(input_shape=(6,), num_hiddens=4, quantizer="fixed",
                          codebook_n=5, codebook_d=4, seed=1)
        state = init_state(cfg)
        layer = state.quantizer
        layer.w_in.data[:] = np.eye(4)
        layer.b_in.data[:] = 0.0
        layer.w_out.data[:] = np.eye(4)
        layer.b_out.data[:] = 0.0
        x = RNG(1).normal(size=(5, 6))
        z_d = layer.project_in(encode(x, state))
        layer.codebook.embeddings.data[:5] = z_d.data
        assert gradient_gap(x, state) == 0.0

    def test_parameters_untouched(self):
        cfg = ModelConfig(input_shape=(6,), num_hiddens=8, quantizer="fixed",
                          codebook_n=8, codebook_d=2, seed=2)
        state = init_state(cfg)
        before = {k: v.data.copy() for k, v in state.params.items()}
        gradient_gap(RNG(2).normal(size=(4, 6)), state)
        for k, v in state.params.items():
            np.testing.assert_array_equal(v.data, before[k])
        assert all(p.grad is None for p in state.params.values())


class TestGradientGapAffineDecoder:
    def _affine_state(self, seed=3):
        cfg = ModelConfig(input_shape=(6,), num_hiddens=4, quantizer="fixed",
                          codebook_n=8, codebook_d=4, seed=seed)
        state = init_state(cfg)
        layer = state.quantizer
        layer.w_in.data[:] = np.eye(4)
        layer.b_in.data[:] = 0.0
        layer.w_out.data[:] = np.eye(4)
        layer.b_out.data[:] = 0.0
        return state

    def test_matches_closed_form(self):
        state = self._affine_state()
        a = open_relu_decoder(state)  # H x M effective linear map
        x = 0.1 * RNG(3).normal(size=(7, 6))
        z_e = encode(x, state).data
        idx = np.argmin(
            ((z_e[:, None, :] - state.quantizer.codebook.embeddings.data[None]) ** 2).sum(-1),
            axis=1)
        z_q = state.quantizer.codebook.embeddings.data[idx]
        n_elems = x.size
        expected = np.linalg.norm((2.0 / n_elems) * (z_e - z_q) @ (a @ a.T))
        assert abs(gradient_gap(x, state) - expected) < 1e-8

    def test_invariant_to_constant_target_shift(self):
        state = self._affine_state(seed=4)
        open_relu_decoder(state)
        x = 0.1 * RNG(4).normal(size=(6, 6))
        base = gradient_gap(x, state, target=x)
        shifted = gradient_gap(x, state, target=x + 0.37)
        assert abs(base - shifted) < 1e-12

    def test_gap_nonnegative(self):
        cfg = ModelConfig(input_shape=(6,), num_hiddens=8, quantizer="adaptive",
                          capacity=8, seed=5)
        state = init_state(cfg)
        assert gradient_gap(RNG(5).normal(size=(4, 6)), state) >= 0.0


class TestGradientGapUnrecordedEncode:
    """``gradient_gap`` encodes without recording a graph; the gap must be
    the same to the bit as with the encoder's graph recorded."""

    @pytest.mark.parametrize("kw,shape", [
        pytest.param(dict(encoder_arch="small_conv", input_shape=(1, 8, 8),
                          quantizer="adaptive", capacity=16), (5, 1, 8, 8), id="conv-adaptive"),
        pytest.param(dict(input_shape=(6,), quantizer="fixed", codebook_n=8, codebook_d=2),
                     (7, 6), id="dense-fixed")])
    def test_gap_bits(self, monkeypatch, kw, shape):
        state = init_state(ModelConfig(num_hiddens=8, seed=3, **kw))
        x = RNG(21).normal(size=shape)
        gap = gradient_gap(x, state)
        monkeypatch.setattr(aqvq.analysis, "_no_graph", contextlib.nullcontext)
        assert gap.hex() == gradient_gap(x, state).hex()


class TestAnalyticModel:
    def test_loss_substitution(self):
        model = AnalyticModel(var_v=4.0, dim_const_a=1.0)
        assert analytic_loss(2.0, model) == 4.0
        assert analytic_loss(1.0, model) == 5.0
        assert analytic_loss(4.0, model) == 5.0

    def test_positive_domain(self):
        model = AnalyticModel(4.0, 1.0)
        with pytest.raises(DomainError):
            analytic_loss(0.0, model)
        with pytest.raises(DomainError):
            analytic_loss(-2.0, model)

    def test_fields_strictly_positive(self):
        with pytest.raises(DomainError):
            AnalyticModel(0.0, 1.0)

    @pytest.mark.parametrize("var_v,dim_const_a", [(float("nan"), 1.0), (1.0, float("nan")),
                                                   (float("inf"), 1.0)],
                             ids=["nan-variance", "nan-penalty", "infinite-variance"])
    def test_fields_finite(self, var_v, dim_const_a):
        with pytest.raises(DomainError):
            AnalyticModel(var_v, dim_const_a)

    def test_optimal_n_substitution(self):
        model = AnalyticModel(4.0, 1.0)
        assert optimal_n(model) == 2.0

    def test_optimal_scales_with_sqrt_variance(self):
        base = AnalyticModel(4.0, 1.0)
        scaled = AnalyticModel(16.0, 1.0)
        assert optimal_n(scaled) == 2.0 * optimal_n(base)

    def test_stationary_at_optimum(self):
        model = AnalyticModel(var_v=3.7, dim_const_a=0.6 * 2.0 / 5.0)
        n_star = optimal_n(model)
        h = 1e-4
        derivative = (analytic_loss(n_star + h, model) - analytic_loss(n_star - h, model)) / (2 * h)
        assert abs(derivative) < 1e-6

    def test_convex_with_unique_minimum(self):
        model = AnalyticModel(var_v=4.0, dim_const_a=0.25)
        n_star = optimal_n(model)
        grid = np.concatenate([np.linspace(0.1, n_star, 200),
                               np.linspace(n_star, 8 * n_star, 200)])
        values = np.array([analytic_loss(n, model) for n in grid])
        best = analytic_loss(n_star, model)
        assert (values >= best - 1e-12).all()
        # midpoint convexity on the grid
        for a, b in zip(grid[:-2:2], grid[2::2]):
            mid = (a + b) / 2
            assert analytic_loss(mid, model) <= (analytic_loss(a, model)
                                                 + analytic_loss(b, model)) / 2 + 1e-12

    def test_loss_at_optimum_beats_neighbours(self):
        model = AnalyticModel(var_v=2.5, dim_const_a=0.4 * 1.3 / 2.0)
        n_star = optimal_n(model)
        best = analytic_loss(n_star, model)
        assert best <= analytic_loss(n_star / 2, model)
        assert best <= analytic_loss(2 * n_star, model)


class TestFitAnalytic:
    def test_exact_round_trip(self):
        truth = AnalyticModel(var_v=4.0, dim_const_a=1.0)
        pairs = [(n, analytic_loss(n, truth)) for n in (1.0, 2.0, 4.0)]
        result = fit_analytic(pairs)
        assert abs(result.model.var_v - 4.0) < 1e-8
        assert abs(result.model.dim_const_a - 1.0) < 1e-8
        assert result.residual < 1e-10

    def test_constant_data_reports_large_residual(self):
        result = fit_analytic([(1.0, 3.0), (2.0, 3.0), (4.0, 3.0), (8.0, 3.0)])
        assert result.residual > 0.1  # nowhere near the exact-fit scale

    def test_noise_perturbs_fit_proportionally(self):
        truth = AnalyticModel(var_v=4.0, dim_const_a=1.0)
        sizes = (1.0, 2.0, 4.0, 8.0)
        rng = RNG(6)
        sigma = 1e-3
        pairs = [(n, analytic_loss(n, truth) + sigma * rng.normal()) for n in sizes]
        result = fit_analytic(pairs)
        assert abs(result.model.var_v - 4.0) < 20 * sigma
        assert abs(result.model.dim_const_a - 1.0) < 20 * sigma

    def test_needs_three_distinct_sizes(self):
        with pytest.raises(FitError):
            fit_analytic([(2.0, 1.0), (2.0, 1.1), (2.0, 0.9)])
        with pytest.raises(FitError):
            fit_analytic([(1.0, 5.0), (2.0, 4.0)])

    def test_positive_sizes_required(self):
        with pytest.raises(DomainError):
            fit_analytic([(-1.0, 5.0), (2.0, 4.0), (4.0, 5.0)])

    @pytest.mark.parametrize("pairs", [
        [(2, 1.0), (4, 1.0), (np.inf, 1.0)],
        [(2, 1.0), (4, 1.0), (8, 1.0), (np.nan, 1.0)],
        [(2, 1.0), (4, np.nan), (8, 1.0)],
        [(2, 1.0), (4, -np.inf), (8, 1.0)],
    ], ids=["size-inf", "size-nan", "loss-nan", "loss-minus-inf"])
    def test_finite_pairs_required(self, pairs, capfd):
        # refused before the least-squares solve, which prints LAPACK
        # warnings on such input
        with pytest.raises(DomainError, match="sizes and losses must be finite"):
            fit_analytic(pairs)
        assert capfd.readouterr() == ("", "")
