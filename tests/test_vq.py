"""Fixed-codebook quantization: assignment, losses, straight-through,
EMA updates, and the projection maps."""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    brute_force_nearest,
    dense_scan_nearest,
    reference_ema_update,
    reference_vq_loss,
)
from aqvq import vq
from aqvq.errors import ConfigError, ContractError, DimensionError, NumericError
from aqvq.tensor import (
    Tensor,
    backward,
    finite_difference_grad,
    matmul,
    mse,
    mul_scalar,
    relative_error,
    straight_through,
)
from aqvq.vq import (
    Codebook,
    CodebookSpec,
    QuantizerLayer,
    ema_update,
    nearest_indices,
    quantize,
)

RNG = np.random.default_rng


class TestCodebookSpec:
    def test_capacity_and_label(self):
        spec = CodebookSpec(16, 4)
        assert spec.capacity == 64
        assert spec.label == "[16,4]"

    def test_size_must_exceed_dimension(self):
        with pytest.raises(ConfigError):
            CodebookSpec(4, 4)
        with pytest.raises(ConfigError):
            CodebookSpec(2, 8)

    def test_positive_sizes(self):
        with pytest.raises(ConfigError):
            CodebookSpec(0, 1)


def assert_brute_force_picks(z, emb, got, rtol=1e-9):
    """Each pick is the brute-force pick, or scores within ``rtol`` of it
    without an exact tie, which must go to the lowest index."""
    want = brute_force_nearest(z, emb)
    emb = emb.astype(np.float64)
    for row, pick, best in zip(z, got, want):
        if pick == best:
            continue
        d_pick = float(np.dot(row - emb[pick], row - emb[pick]))
        d_best = float(np.dot(row - emb[best], row - emb[best]))
        assert d_pick != d_best, "an exact tie must go to the lowest index"
        assert d_pick - d_best <= rtol * (row @ row + emb[pick] @ emb[pick])


class TestNearestIndices:
    def test_worked_example(self):
        cb = Codebook([[0.0, 0.0], [1.0, 1.0]])
        idx = nearest_indices(np.array([[0.9, 0.8]]), cb)
        # squared distances 1.45 vs 0.05
        assert idx.tolist() == [1]

    def test_exact_codeword_hits_itself(self):
        cb = Codebook([[0.3, -0.4], [2.0, 2.0]])
        idx = nearest_indices(np.array([[0.3, -0.4]]), cb)
        assert idx.tolist() == [0]

    def test_tie_breaks_to_lowest_index(self):
        cb = Codebook([[0.0, 0.0], [1.0, 1.0]])
        idx = nearest_indices(np.array([[0.5, 0.5]]), cb)
        assert idx.tolist() == [0]

    def test_dimension_mismatch(self):
        cb = Codebook(np.zeros((4, 3)))
        with pytest.raises(DimensionError):
            nearest_indices(np.zeros((2, 2)), cb)

    def test_matches_brute_force_scan(self):
        rng = RNG(42)
        for _ in range(200):
            n = int(rng.integers(1, 65))
            d = int(rng.integers(1, 17))
            t = int(rng.integers(1, 9))
            emb = rng.normal(size=(n, d))
            z = rng.normal(size=(t, d))
            cb = Codebook(emb)
            np.testing.assert_array_equal(nearest_indices(z, cb),
                                          brute_force_nearest(z, emb))

    def test_chunked_path_matches(self):
        # several tiles of codewords, the last one ragged
        rng = RNG(3)
        for t, n, d in [(2000, 4100, 2), (300, 1000, 1), (64, 5000, 3)]:
            emb = rng.normal(size=(n, d))
            z = rng.normal(size=(t, d))
            idx = nearest_indices(z, Codebook(emb))
            direct = np.argmin(((z[:, None, :] - emb[None, :, :]) ** 2).sum(axis=2), axis=1)
            np.testing.assert_array_equal(idx, direct)
        # a 1-D codebook the sorted search declines (a score could overflow),
        # though every dense score stays finite: the tiled scan takes it
        emb = rng.uniform(-4e153, 4e153, size=(3000, 1))
        z = rng.uniform(-4e153, 4e153, size=(64, 1))
        assert vq._nearest_sorted(z[:, 0], emb[:, 0]) is None
        idx = nearest_indices(z, Codebook(emb))
        np.testing.assert_array_equal(idx, dense_scan_nearest(z, emb))
        np.testing.assert_array_equal(idx, brute_force_nearest(z, emb))

    def test_duplicate_codewords_go_to_lowest_index(self):
        # bit-identical codewords must get bit-identical distances; with N
        # not a multiple of 8, a partial BLAS panel rounds z.e differently
        rng = RNG(0)
        for d in (1, 2, 3, 5, 16, 128):
            for _ in range(60):
                n = int(rng.integers(d + 1, 400))
                n += n % 8 == 0
                t = int(rng.integers(1, 301))
                emb = rng.normal(size=(n, d))
                copies = n // 4 + 1
                emb[rng.integers(0, n, size=copies)] = emb[rng.integers(0, n, size=copies)]
                got = nearest_indices(rng.normal(size=(t, d)), Codebook(emb))
                _, first, inverse = np.unique(emb, axis=0, return_index=True,
                                              return_inverse=True)
                lowest = first[inverse.ravel()]
                np.testing.assert_array_equal(lowest[got], got)

    def test_empty_codebook_rejected(self):
        with pytest.raises(ContractError):
            nearest_indices(np.zeros((2, 2)), Codebook(np.zeros((0, 2))))

    @settings(deadline=None, max_examples=200)
    @given(data=st.data())
    def test_property_matches_brute_force(self, data):
        # dyadic values keep both distance formulas exact, so their ties
        # agree; a small tile budget makes several tiles and a ragged last
        n = data.draw(st.integers(1, 40), label="n")
        d = data.draw(st.integers(1, 6), label="d")
        t = data.draw(st.integers(1, 12), label="t")
        values = st.integers(-8, 8).map(lambda k: k / 4.0)
        if data.draw(st.booleans(), label="dyadic"):
            emb = np.array(data.draw(st.lists(values, min_size=n * d, max_size=n * d)))
            z = np.array(data.draw(st.lists(values, min_size=t * d, max_size=t * d)))
        else:
            rng = RNG(data.draw(st.integers(0, 2**32 - 1), label="seed"))
            emb, z = rng.normal(size=n * d), rng.normal(size=t * d)
        emb, z = emb.reshape(n, d), z.reshape(t, d)
        for src, dst in data.draw(st.lists(st.tuples(st.integers(0, n - 1),
                                                     st.integers(0, n - 1)), max_size=4)):
            emb[dst] = emb[src]
        tile = data.draw(st.sampled_from([8, 64, 256, 1 << 16]), label="tile_elements")
        with mock.patch.object(vq, "TILE_ELEMENTS", tile):
            got = nearest_indices(z, Codebook(emb))
        want = brute_force_nearest(z, emb)
        for row, pick, best in zip(z, got, want):
            if pick == best:
                continue
            d_pick = float(np.dot(row - emb[pick], row - emb[pick]))
            d_best = float(np.dot(row - emb[best], row - emb[best]))
            assert d_pick != d_best, "an exact tie must go to the lowest index"
            assert d_pick - d_best <= 1e-9 * (row @ row + emb[pick] @ emb[pick])

    @pytest.mark.parametrize("d", [2, 3, 8])
    def test_last_tile_with_one_codeword(self, d):
        # 64 rows make 1024-wide tiles, so codeword 2048 is alone in the
        # third tile with 1023 pads; rows sit on it and on a duplicated pair
        rng = RNG(d)
        n = 2 * 1024 + 1
        emb = rng.normal(size=(n, d))
        emb[-1] = 3.0
        emb[1500] = emb[7]
        z = rng.normal(size=(64, d))
        z[:4] = emb[-1] + rng.normal(size=(4, d)) * 1e-3
        z[4:8] = emb[1500]
        got = nearest_indices(z, Codebook(emb))
        assert (got[:4] == n - 1).all() and (got[4:8] == 7).all()
        assert_brute_force_picks(z, emb, got)

    def test_float32_codebook_with_float64_rows(self):
        # the search takes float64 rows in a float32 codebook's dtype, so it
        # picks what the rows rounded to float32 pick
        rng = RNG(5)
        for t, n, d in [(64, 3000, 2), (7, 100, 4), (256, 2000, 8)]:
            emb = rng.normal(size=(n, d)).astype(np.float32)
            emb[n - 1] = emb[0]
            z = rng.normal(size=(t, d))
            z[0] = emb[0]
            got = nearest_indices(z, Codebook(emb))
            assert got[0] == 0
            np.testing.assert_array_equal(got, nearest_indices(z.astype(np.float32), Codebook(emb)))
            assert_brute_force_picks(z, emb, got, rtol=2 * d * np.finfo(np.float32).eps)

    @pytest.mark.parametrize("d", [2, 5])
    def test_large_finite_scores_never_pick_a_pad(self, d):
        # every real score is near 1e306, far above a zero pad's, and
        # finite, so only the +inf in the pads' |e|^2 keeps them out
        rng = RNG(11)
        n = 2 * 1024 + 3
        emb = rng.uniform(1.0, 2.0, size=(n, d)) * 1e153 / np.sqrt(d)
        z = rng.normal(size=(64, d))
        got = nearest_indices(z, Codebook(emb))
        assert (got < n).all()
        np.testing.assert_array_equal(got, brute_force_nearest(z, emb))

    def test_search_allocates_about_augmented_codebook_and_one_tile(self):
        # the augmented (D+1) x N codebook is 1.5 codebooks at D == 2
        rng = RNG(8)
        cb = Codebook(rng.normal(size=(32768, 2)))
        rows = rng.normal(size=(64, 2))
        tracemalloc.start()
        try:
            nearest_indices(rows, cb)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * cb.embeddings.data.nbytes + vq.TILE_ELEMENTS * 8

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("n, d", [(5, 2), (40, 1)])
    def test_non_finite_rows_rejected(self, bad, n, d):
        # (40, 1) with an 8-element tile takes the sorted path
        rows = RNG(0).normal(size=(3, d))
        rows[1, 0] = bad
        with mock.patch.object(vq, "TILE_ELEMENTS", 8):
            with pytest.raises(NumericError, match="nearest_indices"):
                nearest_indices(rows, Codebook(RNG(1).normal(size=(n, d))))

    def test_rows_beyond_the_codebook_dtype_rejected(self):
        # rows are taken in the codebook's dtype, where 1e39 is inf
        rows, cb = np.array([[1e39, 0.0]]), Codebook(np.zeros((4, 2), np.float32))
        with pytest.raises(NumericError, match="nearest_indices"):
            nearest_indices(rows, cb)
        with pytest.raises(NumericError, match="ema_update"):
            ema_update(cb, rows, [0], gamma=0.99, laplace_eps=1e-5)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_sorted_path_leaves_non_finite_codebook_to_dense_scan(self, bad):
        codes = RNG(2).normal(size=40)
        codes[7] = bad
        assert vq._nearest_sorted(RNG(3).normal(size=4), codes) is None

    def test_sorted_path_overflow_guard_is_silent_in_float32(self):
        # |z| + |e| near 1e19 squares past float32's largest value: the guard
        # hands the search to the dense scan without an overflow warning
        rng = RNG(4)
        codes = rng.normal(size=(3000, 1)).astype(np.float32)
        rows = rng.normal(size=(64, 1)).astype(np.float32)
        rows[[3, 40]] = [[1e19], [-1e19]]
        assert vq._nearest_sorted(rows[:, 0], codes[:, 0]) is None
        np.testing.assert_array_equal(nearest_indices(rows, Codebook(codes)),
                                      dense_scan_nearest(rows, codes))

    @settings(deadline=None, max_examples=300)
    @given(data=st.data())
    def test_property_sorted_path_matches_dense_scan(self, data):
        # a 1-D codebook over several tiles takes the sorted path, whose
        # picks must equal the dense expression's, rounding and ties included
        kind = data.draw(st.sampled_from(["float64", "float32", "float64 rows, float32 codebook"]),
                         label="dtypes")
        code_dtype = np.float64 if kind == "float64" else np.float32
        scale = data.draw(st.sampled_from([1.0, 2.0**-20, 2.0**20, 1e-22]), label="scale")
        rng = RNG(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        n = data.draw(st.integers(9, 200), label="n")
        codes = (rng.normal(size=n) * scale).astype(code_dtype)
        # runs of np.nextafter neighbours and exact duplicates
        for _ in range(data.draw(st.integers(0, 3), label="runs")):
            start = int(rng.integers(0, n))
            for j in range(start + 1, min(n, start + int(rng.integers(2, 60)))):
                step = data.draw(st.sampled_from([0, 1, 1, 3]), label="ulps")
                codes[j] = codes[j - 1]
                for _ in range(step):
                    codes[j] = np.nextafter(codes[j], code_dtype(np.inf))
        rng.shuffle(codes)
        wide = codes.astype(np.float64)
        ordered = np.sort(wide)
        pairs = rng.integers(0, n - 1, size=4)
        rows = np.concatenate([
            wide[rng.integers(0, n, size=4)],                   # equal to a codeword
            (ordered[pairs] + ordered[pairs + 1]) / 2,          # midpoints
            [ordered[0] - scale, ordered[-1] + scale],          # beyond both ends
            rng.normal(size=data.draw(st.integers(0, 6), label="extra")) * scale,
        ])[:, None]
        if kind == "float32":
            rows = Tensor(rows.astype(np.float32))
            want = dense_scan_nearest(rows.data, codes[:, None])
        elif kind == "float64 rows, float32 codebook":
            # the search takes the rows in the codebook's dtype
            want = dense_scan_nearest(rows.astype(np.float32), codes[:, None])
        else:
            want = dense_scan_nearest(rows, codes[:, None])
        search, sorted_picks = vq._nearest_sorted, []

        def spy(*args):
            sorted_picks.append(search(*args))
            return sorted_picks[-1]

        with mock.patch.object(vq, "TILE_ELEMENTS", 8), \
                mock.patch.object(vq, "_nearest_sorted", spy):
            got = nearest_indices(rows, Codebook(codes[:, None]))
        assert len(sorted_picks) == 1 and sorted_picks[0] is not None
        np.testing.assert_array_equal(got, want)


    @settings(deadline=None, max_examples=200)
    @given(data=st.data())
    def test_property_sorted_picks_do_not_depend_on_the_stored_order(self, data):
        # the first search leaves its sort order on the codebook; the
        # codewords then move in place and the next search starts from that
        # stale order, yet must pick what the dense scan and a fresh
        # codebook pick
        dtype = data.draw(st.sampled_from([np.float64, np.float32]), label="dtype")
        move = data.draw(st.sampled_from(["ema", "shuffle", "reverse", "ties"]), label="move")
        rng = RNG(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        n = data.draw(st.integers(9, 200), label="n")
        cb = Codebook(rng.normal(size=(n, 1)).astype(dtype))
        rows = rng.normal(size=(data.draw(st.integers(1, 8), label="t"), 1)).astype(dtype)
        seen, sort_order = [], vq._sort_order

        def spy(*args):
            seen.append(args[1])
            return sort_order(*args)

        with mock.patch.object(vq, "TILE_ELEMENTS", 8), \
                mock.patch.object(vq, "_sort_order", spy):
            nearest_indices(rows, cb)
            stale = cb.sort_order
            codes = cb.embeddings.data[:, 0]  # moved in place, as ema_update does
            if move == "ema":
                codes *= (1 + rng.uniform(-1e-6, 1e-6, size=n)).astype(dtype)
            elif move == "shuffle":
                rng.shuffle(codes)
            elif move == "reverse":
                codes[:] = codes[::-1].copy()
            else:  # runs of exact duplicates and np.nextafter neighbours
                for _ in range(data.draw(st.integers(1, 3), label="runs")):
                    start = int(rng.integers(0, n))
                    for j in range(start + 1, min(n, start + int(rng.integers(2, 40)))):
                        codes[j] = codes[j - 1]
                        for _ in range(data.draw(st.sampled_from([0, 1, 3]), label="ulps")):
                            codes[j] = np.nextafter(codes[j], dtype(np.inf))
            ordered = np.sort(codes)
            pairs = rng.integers(0, n - 1, size=4)
            rows = np.concatenate([
                codes[rng.integers(0, n, size=4)],               # equal to a codeword
                (ordered[pairs] + ordered[pairs + 1]) / 2,       # midpoints
                rng.normal(size=4).astype(dtype),
            ])[:, None]
            got = nearest_indices(rows, cb)
            fresh = nearest_indices(rows, Codebook(cb.embeddings.data))
        assert seen[0] is None and seen[1] is stale is cb.sort_order
        assert np.array_equal(np.sort(cb.sort_order), np.arange(n))
        want = dense_scan_nearest(rows, cb.embeddings.data)
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(fresh, want)

    def test_sorted_search_allocates_about_two_codebooks(self):
        # the order and the sorted codewords, also when the search starts
        # from the order an earlier search left on the codebook
        rng = RNG(9)
        cb = Codebook(rng.normal(size=(65536, 1)))
        rows = rng.normal(size=(64, 1))
        for _ in range(2):
            tracemalloc.start()
            try:
                nearest_indices(rows, cb)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert cb.sort_order is not None
            assert peak < 2.5 * cb.embeddings.data.nbytes
            cb.embeddings.data *= 1 + rng.uniform(-1e-6, 1e-6, size=(65536, 1))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("d", [2, 3, 4, 8, 16])
    def test_augmented_codebook(self, d, dtype):
        # 131 codewords in 64-wide tiles: three tiles, 61 pad columns. The
        # array is not zero-filled, so a freed block of NaN of its size is
        # left for it to reuse, and every pad must still be 0 with +inf
        rng = RNG(d)
        n, padded = 131, 192
        emb = rng.normal(size=(n, d)).astype(dtype)
        garbage = np.full((d + 1, padded), np.nan, dtype=dtype)
        del garbage
        codes = vq._augmented(emb, padded)
        assert codes.shape == (d + 1, padded) and codes.dtype == dtype
        assert codes[:d, :n].tobytes() == np.ascontiguousarray(emb.T).tobytes()
        want = (emb * emb).sum(axis=1)
        if d <= 4:
            assert codes[d, :n].tobytes() == want.tobytes()
        else:
            np.testing.assert_allclose(codes[d, :n], want, rtol=d * np.finfo(dtype).eps, atol=0)
        pads = codes[:d, n:]
        assert (pads == 0).all() and not np.signbit(pads).any()
        assert (codes[d, n:] == np.inf).all()


class TestQuantize:
    def test_worked_loss_example(self):
        cb = Codebook([[1.0, 1.0], [5.0, 5.0]])
        z = Tensor([[0.9, 0.8]], requires_grad=True)
        out = quantize(z, cb, alpha=0.25, beta=1.0)
        assert out.counts is None
        [(codebook, rows, indices)] = out.assignments
        assert codebook is cb
        assert np.array_equal(rows, z.data)
        assert indices.tolist() == [0]
        # both terms are mean((z - e)^2) = (0.01 + 0.04) / 2 = 0.025
        np.testing.assert_allclose(out.loss.item(), 1.0 * (0.025 + 0.25 * 0.025))

    def test_zero_residual_zero_losses(self):
        cb = Codebook([[0.5, -0.5], [3.0, 3.0]])
        out = quantize(Tensor([[0.5, -0.5]]), cb)
        assert out.loss.item() == 0.0

    def test_beta_zero_kills_vq_loss(self):
        cb = Codebook([[1.0, 1.0], [5.0, 5.0]])
        out = quantize(Tensor([[0.9, 0.8]]), cb, beta=0.0)
        assert out.loss.item() == 0.0
        assert quantize(Tensor([[0.9, 0.8]]), cb, beta=1.0).loss.item() > 0.0

    def test_rows_bit_identical_to_codewords(self):
        rng = RNG(7)
        emb = rng.normal(size=(12, 5))
        cb = Codebook(emb)
        z = Tensor(rng.normal(size=(30, 5)))
        out = quantize(z, cb)
        [(_, _, indices)] = out.assignments
        assert np.array_equal(out.z_q.data, emb[indices])

    def test_empty_batch_rejected(self):
        cb = Codebook(np.zeros((2, 2)))
        with pytest.raises(ContractError):
            quantize(Tensor(np.zeros((0, 2))), cb)

    def test_negative_weights_rejected(self):
        cb = Codebook(np.zeros((2, 2)))
        with pytest.raises(ConfigError):
            quantize(Tensor([[1.0, 1.0]]), cb, alpha=-0.1)

    def test_loss_decomposition_identity(self):
        rng = RNG(8)
        cb = Codebook(rng.normal(size=(9, 4)))
        for alpha, beta in [(0.25, 1.0), (0.5, 0.2), (10.0, 5.0)]:
            z = rng.normal(size=(11, 4))
            out = quantize(Tensor(z), cb, alpha=alpha, beta=beta)
            [(_, _, indices)] = out.assignments
            expected = beta * (1.0 + alpha) * np.mean((z - cb.embeddings.data[indices]) ** 2)
            assert abs(out.loss.item() - expected) < 1e-12

    def test_codebook_gradient_via_codebook_loss(self):
        # trainable codebook: gradient reaches only the selected rows
        rng = RNG(9)
        emb = rng.normal(size=(4, 2))
        cb = Codebook(emb, trainable=True)
        z = Tensor(rng.normal(size=(6, 2)))
        out = quantize(z, cb)
        backward(out.loss)
        grad = cb.embeddings.grad
        assert grad is not None
        [(_, _, indices)] = out.assignments
        unselected = sorted(set(range(4)) - set(indices.tolist()))
        for j in unselected:
            np.testing.assert_array_equal(grad[j], 0.0)

    @settings(deadline=None, max_examples=200)
    @given(data=st.data())
    def test_property_matches_separate_terms(self, data):
        # value and both gradients bit-equal to the two mse terms as nodes
        dtype = data.draw(st.sampled_from([np.float64, np.float32]), label="dtype")
        weight = st.sampled_from([0.0, 0.2, 0.25, 1.0, 5.0]) | st.floats(0.0, 10.0)
        alpha = data.draw(weight, label="alpha")
        beta = data.draw(weight, label="beta")
        n = data.draw(st.integers(1, 6), label="n")
        d = data.draw(st.integers(1, 4), label="d")
        t = data.draw(st.integers(1, 12), label="t")
        trainable = data.draw(st.booleans(), label="trainable")
        # the 1/m an adaptive pool applies, and other upstream scales
        scale = data.draw(st.sampled_from([1.0, 1.0 / 3.0, 0.125, 2.5]), label="scale")
        rng = RNG(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        emb = rng.normal(size=(n, d)).astype(dtype)
        rows = rng.normal(size=(t, d)).astype(dtype)
        for src, dst in data.draw(st.lists(st.tuples(st.integers(0, t - 1),
                                                     st.integers(0, t - 1)), max_size=4)):
            rows[dst] = rows[src]

        def run(build):
            cb = Codebook(emb, trainable=trainable)
            z = Tensor(rows.copy(), requires_grad=True)
            loss = build(z, cb)
            backward(mul_scalar(loss, scale))
            return loss, z, cb

        loss, z, cb = run(lambda z, cb: quantize(z, cb, alpha=alpha, beta=beta).loss)
        ref, z_ref, cb_ref = run(lambda z, cb: reference_vq_loss(z, cb, alpha, beta))
        assert loss.data.dtype == ref.data.dtype == dtype
        assert np.array_equal(loss.data, ref.data)
        assert np.array_equal(z.grad, z_ref.grad)
        if trainable:
            assert np.array_equal(cb.embeddings.grad, cb_ref.embeddings.grad)
        else:
            assert cb.embeddings.grad is None and cb_ref.embeddings.grad is None


class TestStraightThroughOp:
    def test_ste_definition(self):
        z_e = Tensor([0.2], requires_grad=True)
        out = straight_through(z_e, Tensor([1.0]))
        assert out.data.tolist() == [1.0]
        from aqvq.tensor import mul_scalar, reshape
        backward(mul_scalar(reshape(out, ()), 3.0))
        np.testing.assert_allclose(z_e.grad, [3.0])

    def test_identity_when_equal(self):
        rng = RNG(1)
        vals = rng.normal(size=(4, 3))
        z_e = Tensor(vals.copy(), requires_grad=True)
        out = straight_through(z_e, Tensor(vals.copy()))
        assert np.array_equal(out.data, z_e.data)

    def test_grad_matches_fd_with_frozen_quantized(self):
        # finite differences of the loss treating z_q as z_e + constant
        rng = RNG(2)
        z_e = Tensor(rng.normal(size=(5, 3)), requires_grad=True)
        residual = rng.normal(size=(5, 3)) * 0.1
        target = Tensor(rng.normal(size=(5, 3)))

        def actual():
            return mse(straight_through(z_e, Tensor(z_e.data + residual)), target)

        def surrogate(_):
            from aqvq.tensor import add
            return mse(add(z_e, Tensor(residual)), target)

        backward(actual())
        fd = finite_difference_grad(surrogate, z_e, step=1e-6)
        assert relative_error(z_e.grad, fd.data) < 1e-6


class TestQuantizerTransparency:
    def test_exact_codebook_matches_quantizer_free_network(self):
        # z_q == z_e: losses and every gradient equal the no-quantizer path
        rng = RNG(11)
        rows = rng.normal(size=(6, 4))
        cb = Codebook(rows.copy())
        a_data = rng.normal(size=(4, 3))
        target = Tensor(rng.normal(size=(6, 3)))

        z1 = Tensor(rows.copy(), requires_grad=True)
        out = quantize(z1, cb)
        assert np.array_equal(out.z_q.data, z1.data)
        assert out.loss.item() == 0.0
        from aqvq.tensor import add
        loss1 = add(mse(matmul(out.z_q, Tensor(a_data)), target), out.loss)
        backward(loss1)

        z2 = Tensor(rows.copy(), requires_grad=True)
        loss2 = mse(matmul(z2, Tensor(a_data)), target)
        backward(loss2)

        assert loss1.item() == loss2.item()
        np.testing.assert_array_equal(z1.grad, z2.grad)


class TestEmaUpdate:
    def test_paper_form_single_vector(self):
        cb = Codebook([[0.0, 0.0], [5.0, 5.0]])
        ema_update(cb, np.array([[1.0, 1.0]]), np.array([0]), gamma=0.99, laplace_eps=1e-5,
                   paper_form=True)
        np.testing.assert_allclose(cb.embeddings.data[0], [0.99, 0.99])
        np.testing.assert_array_equal(cb.embeddings.data[1], [5.0, 5.0])

    def test_unassigned_row_drifts_only_by_smoothing(self):
        rng = RNG(4)
        emb = rng.normal(size=(4, 3))
        cb = Codebook(emb.copy())
        z = rng.normal(size=(9, 3))
        idx = np.array([0, 1, 2, 0, 1, 2, 0, 1, 2])  # row 3 never assigned
        ema_update(cb, z, idx, gamma=0.99, laplace_eps=1e-5)
        np.testing.assert_allclose(cb.embeddings.data[3], emb[3], rtol=1e-4)
        assert not np.array_equal(cb.embeddings.data[0], emb[0])

    def test_converges_to_cluster_means(self):
        # stationary assignments pull each codeword onto its cluster mean
        rng = RNG(5)
        cb = Codebook(rng.normal(size=(4, 3)))
        z = rng.normal(size=(32, 3))
        idx = np.repeat(np.arange(4), 8)  # uniform counts
        means = np.stack([z[idx == j].mean(axis=0) for j in range(4)])
        for _ in range(2000):
            ema_update(cb, z, idx, gamma=0.99, laplace_eps=1e-5)
        np.testing.assert_allclose(cb.embeddings.data, means, atol=1e-6)

    def test_cluster_sizes_stay_nonnegative_and_finite(self):
        rng = RNG(6)
        cb = Codebook(rng.normal(size=(3, 2)))
        for _ in range(50):
            z = rng.normal(size=(7, 2))
            idx = rng.integers(0, 3, size=7)
            ema_update(cb, z, idx, gamma=0.99, laplace_eps=1e-5)
        assert (cb.ema_cluster_size >= 0).all()
        assert np.isfinite(cb.embeddings.data).all()

    def test_index_range_checked(self):
        cb = Codebook(np.zeros((2, 2)))
        with pytest.raises(ContractError):
            ema_update(cb, np.ones((1, 2)), np.array([5]), gamma=0.99, laplace_eps=1e-5)

    @pytest.mark.parametrize("gamma, laplace_eps", [
        (0.0, 1e-5), (1.0, 1e-5), (-0.5, 1e-5), (1.5, 1e-5), (0.99, 0.0), (0.99, -1e-5),
    ])
    @pytest.mark.parametrize("paper_form", [False, True])
    def test_constants_range_checked(self, gamma, laplace_eps, paper_form):
        cb = Codebook([[0.0, 0.0], [5.0, 5.0]])
        with pytest.raises(ConfigError):
            ema_update(cb, np.ones((1, 2)), np.array([0]), gamma=gamma,
                       laplace_eps=laplace_eps, paper_form=paper_form)
        np.testing.assert_array_equal(cb.embeddings.data, [[0.0, 0.0], [5.0, 5.0]])


    @pytest.mark.parametrize("paper_form", [False, True])
    @pytest.mark.parametrize("n", [3, 40])  # fewer codewords than rows, and more
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rows_rejected(self, bad, n, paper_form):
        emb = RNG(0).normal(size=(n, 2))
        cb = Codebook(emb)
        rows = RNG(1).normal(size=(5, 2))
        rows[2, 1] = bad
        with pytest.raises(NumericError, match="ema_update"):
            ema_update(cb, rows, np.arange(5) % n, gamma=0.99, laplace_eps=1e-5,
                       paper_form=paper_form)
        np.testing.assert_array_equal(cb.embeddings.data, emb)
        np.testing.assert_array_equal(cb.ema_embed_sum, emb)
        np.testing.assert_array_equal(cb.ema_cluster_size, 1.0)

    @settings(deadline=None, max_examples=200)
    @given(data=st.data())
    def test_property_matches_whole_array_update(self, data):
        dtype = data.draw(st.sampled_from([np.float64, np.float32]), label="dtype")
        n = data.draw(st.integers(1, 200), label="n")
        d = data.draw(st.integers(1, 4), label="d")
        gamma = data.draw(st.sampled_from([0.99, 0.5]) | st.floats(0.01, 0.999), label="gamma")
        laplace_eps = data.draw(st.sampled_from([1e-5, 0.1]), label="laplace_eps")
        rng = RNG(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        emb = rng.normal(size=(n, d)).astype(dtype)
        cb, ref = Codebook(emb), Codebook(emb)
        for _ in range(data.draw(st.integers(1, 4), label="steps")):
            t = data.draw(st.integers(1, 80), label="t")
            pattern = data.draw(st.sampled_from(["random", "repeated", "single", "every"]),
                                label="pattern")
            if pattern == "random":
                idx = rng.integers(0, n, size=t)
            elif pattern == "repeated":
                idx = rng.choice(rng.integers(0, n, size=2), size=t)
            elif pattern == "single":
                idx = np.full(t, rng.integers(0, n))
            else:
                idx = np.concatenate([rng.permutation(n), rng.integers(0, n, size=t)])
            rows = rng.normal(size=(idx.size, d))
            if data.draw(st.booleans(), label="tensor_rows"):
                rows = Tensor(rows.astype(dtype))
            ema_update(cb, rows, idx, gamma, laplace_eps)
            reference_ema_update(ref, rows, idx, gamma, laplace_eps)
        for got, want in [(cb.embeddings.data, ref.embeddings.data),
                          (cb.ema_cluster_size, ref.ema_cluster_size),
                          (cb.ema_embed_sum, ref.ema_embed_sum)]:
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()

    def test_unassigned_negative_zero_sum_keeps_its_sign(self):
        # with more codewords than rows only the assigned sums gain a batch
        # share; the whole-array form adds +0.0 to the others, turning -0.0
        # into +0.0
        cb, ref = Codebook([[-0.0], [1.0], [2.0]]), Codebook([[-0.0], [1.0], [2.0]])
        ema_update(cb, np.array([[1.5]]), np.array([1]), 0.99, 1e-5)
        reference_ema_update(ref, np.array([[1.5]]), np.array([1]), 0.99, 1e-5)
        np.testing.assert_array_equal(cb.ema_embed_sum, ref.ema_embed_sum)
        assert np.signbit(cb.ema_embed_sum[0, 0]) and not np.signbit(ref.ema_embed_sum[0, 0])

    def test_large_codebook_allocates_less_than_one_codebook(self):
        rng = RNG(7)
        cb = Codebook(rng.normal(size=(4096, 16)))
        rows, idx = rng.normal(size=(64, 16)), rng.integers(0, 4096, size=64)
        tracemalloc.start()
        try:
            ema_update(cb, rows, idx, gamma=0.99, laplace_eps=1e-5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < cb.embeddings.data.nbytes


class TestProjections:
    def test_random_maps_are_not_inverses(self):
        rng = RNG(13)
        layer = QuantizerLayer(CodebookSpec(8, 4), num_hiddens=6, rng=rng)
        x = Tensor(rng.normal(size=(5, 6)))
        round_trip = layer.project_out(layer.project_in(x))
        assert not np.allclose(round_trip.data, x.data)

    def test_projection_gradients_match_fd(self):
        rng = RNG(14)
        layer = QuantizerLayer(CodebookSpec(8, 2), num_hiddens=4, rng=rng)
        x = Tensor(rng.normal(size=(6, 4)))
        target = Tensor(rng.normal(size=(6, 4)))

        def build():
            return mse(layer.project_out(layer.project_in(x)), target)

        for p in (layer.w_in, layer.b_in, layer.w_out, layer.b_out):
            p.grad = None
            backward(build())
            fd = finite_difference_grad(lambda _: build(), p, step=1e-6)
            assert relative_error(p.grad, fd.data) < 1e-5
            p.grad = None

    def test_full_layer_pipeline(self):
        rng = RNG(15)
        layer = QuantizerLayer(CodebookSpec(16, 2), num_hiddens=4, rng=rng)
        x = Tensor(rng.normal(size=(10, 4)))
        out = quantize(layer.project_in(x), layer.codebook, alpha=0.25, beta=1.0)
        rows = layer.project_out(out.z_q)
        assert rows.data.shape == (10, 4)
        assert out.z_q.data.shape == (10, 2)
        assert out.assignments[0][2].shape == (10,)
