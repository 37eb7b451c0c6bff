"""Adaptive pool: structure enumeration, attention scoring,
Gumbel-Softmax selection, temperature schedule, combination, usage."""

import numpy as np
import pytest

import aqvq.adaptive
from aqvq.adaptive import (
    CodebookPool,
    adaptive_forward,
    attention_logits,
    enumerate_structures,
    gumbel_softmax,
    selected_forward,
    temperature,
    usage_histogram,
)
from aqvq.errors import ConfigError, ContractError, DimensionError
from aqvq.tensor import Tensor, add, backward, mse
from aqvq.vq import QuantizerLayer, quantize

RNG = np.random.default_rng


class TestEnumerateStructures:
    def test_full_capacity_row_set(self):
        specs = [(s.n, s.d) for s in enumerate_structures(65536)]
        assert specs == [(512, 128), (1024, 64), (2048, 32), (4096, 16),
                         (8192, 8), (16384, 4), (32768, 2), (65536, 1)]

    def test_small_capacities(self):
        assert [(s.n, s.d) for s in enumerate_structures(16)] == [(8, 2), (16, 1)]
        assert [(s.n, s.d) for s in enumerate_structures(2)] == [(2, 1)]

    def test_non_power_of_two_rejected(self):
        for bad in (0, 3, 6, 100):
            with pytest.raises(ConfigError):
                enumerate_structures(bad)

    def test_structure_properties(self):
        for w in (4, 64, 1024, 65536):
            specs = enumerate_structures(w)
            ns = [s.n for s in specs]
            assert ns == sorted(ns)
            for s in specs:
                assert s.n * s.d == w
                assert s.n > s.d
                assert s.n & (s.n - 1) == 0


def _pool(w, hiddens, rng, **kw):
    return CodebookPool(enumerate_structures(w), hiddens, rng, **kw)


class TestAttentionLogits:
    def test_identity_projection_reduces_to_scaled_dot(self):
        pool = _pool(8, 2, RNG(0), num_heads=1, scores_qk_only=True)
        for w in (pool.wq, pool.wk, pool.wv):
            w[0].data[:] = np.eye(2)
        pool.keys.data[:] = [[1.0, 0.0], [0.0, 1.0]]
        logits = attention_logits(Tensor([[1.0, 0.0]]), pool)
        np.testing.assert_allclose(logits.data, [[1.0 / np.sqrt(2.0), 0.0]])

    def test_equal_keys_give_equal_logits(self):
        pool = _pool(8, 4, RNG(1), num_heads=2, scores_qk_only=True)
        pool.keys.data[:] = 0.7
        logits = attention_logits(Tensor(RNG(2).normal(size=(5, 4))), pool)
        np.testing.assert_allclose(logits.data[:, 0], logits.data[:, 1])

    def test_query_scaling_preserves_argmax(self):
        rng = RNG(3)
        pool = _pool(8, 4, rng, num_heads=1, scores_qk_only=True)
        q = rng.normal(size=(7, 4))
        base = attention_logits(Tensor(q), pool).data.argmax(axis=1)
        scaled = attention_logits(Tensor(3.5 * q), pool).data.argmax(axis=1)
        np.testing.assert_array_equal(base, scaled)

    def test_default_route_shapes_and_gradients(self):
        rng = RNG(4)
        pool = _pool(16, 4, rng, num_heads=2)
        q = Tensor(rng.normal(size=(6, 4)), requires_grad=True)
        logits = attention_logits(q, pool)
        assert logits.data.shape == (6, pool.m)
        backward(mse(logits, Tensor(np.zeros((6, pool.m)))))
        for p in (pool.keys, pool.values, pool.w_out, pool.wq[0], pool.wk[1], pool.wv[0]):
            assert p.grad is not None

    def test_width_mismatch(self):
        pool = _pool(8, 4, RNG(5))
        with pytest.raises(DimensionError):
            attention_logits(Tensor(np.zeros((2, 3))), pool)

    def test_heads_must_divide_width(self):
        with pytest.raises(ConfigError):
            _pool(8, 5, RNG(6), num_heads=2)

    @pytest.mark.parametrize("num_heads", [0, -2])
    def test_heads_must_be_positive(self, num_heads):
        with pytest.raises(ConfigError, match="at least 1"):
            _pool(8, 4, RNG(6), num_heads=num_heads)

    def test_empty_pool_rejected(self):
        with pytest.raises(ConfigError, match="at least one structure"):
            CodebookPool([], 4, RNG(6))


class TestGumbelSoftmax:
    def test_symmetric_logits_noise_off(self):
        out = gumbel_softmax(Tensor([[0.0, 0.0]]), tau=1.0, hard=False, rng=None)
        np.testing.assert_array_equal(out.data, [[0.5, 0.5]])

    def test_hard_argmax_noise_off(self):
        out = gumbel_softmax(Tensor([[2.0, 0.0, 0.0]]), tau=1.0, hard=True, rng=None)
        np.testing.assert_array_equal(out.data, [[1.0, 0.0, 0.0]])

    def test_hard_rows_exactly_one_hot(self):
        rng = RNG(0)
        logits = Tensor(rng.normal(size=(64, 5)))
        out = gumbel_softmax(logits, tau=0.7, hard=True, rng=rng)
        assert set(np.unique(out.data)) <= {0.0, 1.0}
        np.testing.assert_array_equal(out.data.sum(axis=1), np.ones(64))

    def test_sampling_frequencies_match_categorical(self):
        # Gumbel-max over logits (log 1, log 3) draws index 1 w.p. 0.75
        rng = RNG(12345)
        draws = 100_000
        logits = Tensor(np.tile(np.log([1.0, 3.0]), (draws, 1)))
        out = gumbel_softmax(logits, tau=1.0, hard=True, rng=rng)
        freq = out.data[:, 1].mean()
        se = np.sqrt(0.75 * 0.25 / draws)
        assert abs(freq - 0.75) <= 3 * se

    def test_temperature_must_be_positive(self):
        with pytest.raises(ConfigError):
            gumbel_softmax(Tensor([[0.0, 1.0]]), tau=0.0)

    def test_soft_gradients_flow(self):
        logits = Tensor([[0.3, -0.2, 0.1]], requires_grad=True)
        out = gumbel_softmax(logits, tau=2.0, hard=True, rng=None)
        backward(mse(out, Tensor([[0.0, 1.0, 0.0]])))
        assert logits.grad is not None
        assert np.any(logits.grad != 0.0)


class TestTemperatureSchedule:
    def test_training_schedule(self):
        assert temperature(100, 0, "training") == 101.0
        assert temperature(100, 100, "training") == 1.0
        assert temperature(7, 3, "training") == 5.0

    def test_validation_always_one(self):
        for batch in (0, 5, 10**6):
            assert temperature(100, batch, "validation") == 1.0

    def test_beyond_schedule_clamps_with_warning(self):
        with pytest.warns(UserWarning):
            assert temperature(10, 11, "training") == 1.0

    def test_never_below_one(self):
        for i in range(0, 50, 7):
            assert temperature(49, i, "training") >= 1.0

    def test_negative_batch_rejected(self):
        with pytest.raises(ContractError):
            temperature(10, -1, "training")

    def test_unknown_mode_rejected(self):
        with pytest.raises(ConfigError):
            temperature(10, 1, "test")


class TestAdaptiveQuantize:
    def test_single_codebook_pool_degenerates_to_fixed(self):
        rng = RNG(7)
        pool = _pool(2, 4, rng)  # one structure: [2,1]
        assert pool.m == 1
        z = Tensor(rng.normal(size=(5, 4)))
        result = adaptive_forward(z, pool, tau=1.0, rng=None)

        layer = pool.quantizers[0]
        z_d = layer.project_in(z)
        out = quantize(z_d, layer.codebook, alpha=0.25, beta=1.0)
        fixed_rows = layer.project_out(out.z_q)
        np.testing.assert_array_equal(result.z_q.data, fixed_rows.data)
        assert result.loss.item() == out.loss.item()
        assert result.counts.tolist() == [5]

    def test_one_hot_reproduces_selected_candidate(self):
        rng = RNG(8)
        pool = _pool(16, 4, rng)
        z = Tensor(rng.normal(size=(9, 4)))
        result = adaptive_forward(z, pool, tau=0.5, rng=RNG(99), hard=True)
        candidates = []
        for layer in pool.quantizers:
            z_d = layer.project_in(z)
            out = quantize(z_d, layer.codebook)
            candidates.append(layer.project_out(out.z_q).data)
        chosen = result.z_q.data
        for t in range(9):
            winners = [i for i in range(pool.m)
                       if np.array_equal(chosen[t], candidates[i][t])]
            assert winners, f"row {t} does not match any candidate bit-exactly"

    def test_extra_loss_is_mean_of_candidate_losses(self):
        rng = RNG(9)
        pool = _pool(8, 4, rng)
        z = Tensor(rng.normal(size=(6, 4)))
        extra = adaptive_forward(z, pool, tau=1.0, rng=None).loss
        per = []
        for layer in pool.quantizers:
            out = quantize(layer.project_in(z), layer.codebook, alpha=0.25, beta=1.0)
            per.append(out.loss.item())
        assert abs(extra.item() - float(np.mean(per))) < 1e-12

    def test_extra_loss_invariant_to_selection(self):
        rng = RNG(10)
        pool = _pool(8, 4, rng)
        z = Tensor(rng.normal(size=(40, 4)))
        res_a = adaptive_forward(z, pool, tau=1.0, rng=RNG(1))
        res_b = adaptive_forward(z, pool, tau=1.0, rng=RNG(2))
        assert res_a.counts.tolist() != res_b.counts.tolist()  # selections differ
        assert res_a.loss.item() == res_b.loss.item()

    def test_noise_off_equals_logit_argmax(self):
        rng = RNG(11)
        pool = _pool(16, 4, rng)
        z = Tensor(rng.normal(size=(12, 4)))
        logits = attention_logits(z, pool).data
        for tau in (0.05, 1.0):
            result = adaptive_forward(z, pool, tau=tau, rng=None, hard=True)
            scores = np.zeros((12, pool.m))
            scores[np.arange(12), logits.argmax(axis=1)] = 1.0
            sel = np.bincount(logits.argmax(axis=1), minlength=pool.m)
            np.testing.assert_array_equal(result.counts, sel)

    def test_gradients_reach_all_quantizers_and_keys(self):
        rng = RNG(12)
        pool = _pool(8, 4, rng, trainable_codebooks=True)
        z = Tensor(rng.normal(size=(6, 4)), requires_grad=True)
        result = adaptive_forward(z, pool, tau=1.0, rng=RNG(0))
        backward(add(mse(result.z_q, Tensor(np.zeros((6, 4)))), result.loss))
        for layer in pool.quantizers:
            assert layer.w_in.grad is not None
            assert layer.codebook.embeddings.grad is not None
        assert pool.keys.grad is not None
        assert z.grad is not None

    def test_counts_sum_to_positions(self):
        rng = RNG(13)
        pool = _pool(16, 4, rng)
        z = Tensor(rng.normal(size=(23, 4)))
        result = adaptive_forward(z, pool, tau=3.0, rng=rng)
        assert result.counts.sum() == 23

    def test_empty_rows_rejected(self):
        pool = _pool(8, 4, RNG(14))
        with pytest.raises(ContractError):
            adaptive_forward(Tensor(np.zeros((0, 4))), pool, tau=1.0)


def _force_picks(monkeypatch, picks, m):
    """Make every pool pick codebook ``picks[t]`` for row t."""
    logits = np.zeros((len(picks), m))
    logits[np.arange(len(picks)), picks] = 10.0
    monkeypatch.setattr(aqvq.adaptive, "attention_logits", lambda q, pool: Tensor(logits))


class TestSelectedForward:
    def test_rows_match_adaptive_forward(self, monkeypatch):
        rng = RNG(15)
        pool = _pool(64, 16, rng)  # [16,4], [32,2], [64,1]
        z = Tensor(rng.normal(size=(9, 16)))
        _force_picks(monkeypatch, [2, 0, 0, 1, 0, 2, 2, 0, 0], pool.m)
        result = selected_forward(z, pool)
        reference = adaptive_forward(z, pool, tau=1.0, rng=None)
        np.testing.assert_array_equal(result.z_q.data, reference.z_q.data)
        assert result.counts.tolist() == reference.counts.tolist() == [5, 1, 3]

    def test_lone_row_picks_as_in_the_batch(self, monkeypatch):
        # codewords one ulp apart: BLAS scores a row searched alone with
        # another kernel than a batch, which can order such codewords
        # differently, so a lone row must still get the batch's pick
        for seed in range(30):
            rng = RNG(seed)
            dtype = np.float32 if seed % 2 else np.float64
            pool = _pool(64, 4, rng, dtype=dtype)  # [16,4] first
            layer = pool.quantizers[0]
            layer.w_in.data[:] = np.eye(4)
            codes = np.repeat(rng.normal(size=(4, 4)), 4, axis=0).astype(dtype)
            for j in range(4, 16):
                codes[j, j % 4] = np.nextafter(codes[j, j % 4], dtype(np.inf if j % 3 else -np.inf))
            layer.codebook.embeddings.data[:] = codes
            z = Tensor(rng.normal(size=(8, 4)).astype(dtype))
            for lone in range(8):
                _force_picks(monkeypatch, [int(t == lone) ^ 1 for t in range(8)], pool.m)
                np.testing.assert_array_equal(selected_forward(z, pool).z_q.data,
                                              adaptive_forward(z, pool, tau=1.0).z_q.data)

    def test_loss_is_selected_terms_weighted_by_rows(self, monkeypatch):
        rng = RNG(16)
        pool = _pool(64, 16, rng)
        z = Tensor(rng.normal(size=(8, 16)))
        picks = np.array([1, 1, 0, 2, 2, 2, 0, 1])
        _force_picks(monkeypatch, picks, pool.m)
        want = 0.0
        for i, layer in enumerate(pool.quantizers):
            rows = Tensor(layer.project_in(z).data[picks == i])
            want += quantize(rows, layer.codebook, alpha=0.5, beta=2.0).loss.item() * (
                rows.data.shape[0] / 8)
        got = selected_forward(z, pool, alpha=0.5, beta=2.0).loss.item()
        assert got == pytest.approx(want, rel=1e-12)

    def test_single_codebook_pool_matches_adaptive_forward(self):
        rng = RNG(17)
        pool = _pool(2, 4, rng)
        z = Tensor(rng.normal(size=(5, 4)))
        result = selected_forward(z, pool)
        reference = adaptive_forward(z, pool, tau=1.0)
        np.testing.assert_array_equal(result.z_q.data, reference.z_q.data)
        assert result.loss.item() == reference.loss.item()
        assert result.counts.tolist() == [5]

    def test_empty_rows_rejected(self):
        pool = _pool(8, 4, RNG(18))
        with pytest.raises(ContractError):
            selected_forward(Tensor(np.zeros((0, 4))), pool)


class TestUsageHistogram:
    def test_counting(self):
        np.testing.assert_allclose(usage_histogram([np.array([2, 1])], window=1)[0],
                                   [2 / 3, 1 / 3])

    def test_degenerate_single_codebook_usage(self):
        counts = [np.array([4, 0, 0]) for _ in range(6)]
        for row in usage_histogram(counts, window=2):
            np.testing.assert_allclose(row, [1.0, 0.0, 0.0])

    def test_rows_normalized(self):
        rng = RNG(15)
        counts = [rng.integers(0, 9, size=4) + 1 for _ in range(25)]
        for row in usage_histogram(counts, window=7):
            assert abs(row.sum() - 1.0) <= 1e-9

    def test_uniform_selection_frequencies(self):
        rng = RNG(16)
        m, positions = 4, 10_000
        picks = rng.integers(0, m, size=positions)
        counts = np.bincount(picks, minlength=m)
        freqs = usage_histogram([counts], window=1)[0]
        se = np.sqrt((1 / m) * (1 - 1 / m) / positions)
        assert np.all(np.abs(freqs - 1 / m) <= 3 * se)

    def test_empty_records(self):
        assert usage_histogram([], window=5) == []

    def test_window_validated(self):
        with pytest.raises(ContractError):
            usage_histogram([], window=0)
