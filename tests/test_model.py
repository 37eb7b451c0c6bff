"""Model: encoder/decoder shapes, full losses, Adam training,
evaluation purity, and equivalence with a hand-rolled autoencoder."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import aqvq.model
import aqvq.vq
from aqvq import tensor
from helpers import HandAutoencoder, fixed_surrogate, reference_adam_update
from aqvq.adaptive import selection
from aqvq.errors import ConfigError, ContractError, DimensionError, NumericError
from aqvq.model import (
    ModelConfig,
    _adam_update,
    decode,
    encode,
    evaluate,
    forward_loss,
    init_state,
    rng_streams,
    train_step,
)
from aqvq.persist import _state_arrays
from aqvq.tensor import Graph, Tensor, backward, finite_difference_grad, relative_error
from aqvq.vq import QuantResult, nearest_indices

RNG = np.random.default_rng


def dense_config(**kw):
    base = dict(encoder_arch="dense", input_shape=(6,), num_hiddens=8,
                quantizer="fixed", codebook_n=8, codebook_d=2, seed=0)
    base.update(kw)
    return ModelConfig(**base)


class TestConfig:
    def test_defaults_match_reference_settings(self):
        cfg = ModelConfig()
        assert cfg.alpha == 0.25 and cfg.beta == 1.0 and cfg.gamma == 0.99
        assert cfg.learning_rate == 1e-4 and cfg.batch_size == 64

    def test_validation(self):
        with pytest.raises(ConfigError):
            ModelConfig(encoder_arch="resnet")
        with pytest.raises(ConfigError):
            ModelConfig(gamma=1.0)
        with pytest.raises(ConfigError):
            ModelConfig(encoder_arch="small_conv", input_shape=(8,))
        with pytest.raises(ConfigError):
            ModelConfig(encoder_arch="small_conv", input_shape=(1, 5, 7))

    @pytest.mark.parametrize("entry", [8.7, 8.0, True, np.float64(8.0), "8"],
                             ids=["float", "whole-float", "bool", "numpy-float", "str"])
    def test_input_shape_entry_must_be_an_integer(self, entry):
        with pytest.raises(ConfigError, match="input_shape entries must be integers"):
            ModelConfig(input_shape=(entry,))

    def test_input_shape_takes_numpy_integers(self):
        cfg = ModelConfig(encoder_arch="small_conv", input_shape=np.array([1, 8, 8]))
        assert cfg.input_shape == (1, 8, 8) and all(type(v) is int for v in cfg.input_shape)

    def test_latent_grid_shape_arithmetic(self):
        cfg = ModelConfig(encoder_arch="small_conv", input_shape=(1, 8, 8),
                          num_hiddens=4)
        assert cfg.latent_grid == (2, 2)

    def test_round_trip_dict(self):
        cfg = dense_config(alpha=0.5, use_ema=False)
        again = ModelConfig.from_dict(cfg.to_dict())
        assert again == cfg

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError):
            ModelConfig.from_dict({"bogus": 1})


class TestEncodeDecode:
    def test_zero_weights_give_bias_broadcast(self):
        state = init_state(dense_config())
        for name in ("enc.w1", "enc.w2"):
            state.params[name].data[:] = 0.0
        state.params["enc.b2"].data[:] = np.arange(8.0)
        z = encode(RNG(0).normal(size=(5, 6)), state)
        np.testing.assert_array_equal(z.data, np.tile(np.arange(8.0), (5, 1)))

    def test_identity_maps_reconstruct_nonnegative_input(self):
        cfg = dense_config(input_shape=(8,), num_hiddens=8, quantizer="none")
        state = init_state(cfg)
        eye = np.eye(8)
        for name in ("enc.w1", "enc.w2", "dec.w1", "dec.w2"):
            state.params[name].data[:] = eye
        for name in ("enc.b1", "enc.b2", "dec.b1", "dec.b2"):
            state.params[name].data[:] = 0.0
        x = RNG(1).random(size=(4, 8))  # nonnegative, so relu passes values through
        x_hat = decode(encode(x, state), state)
        np.testing.assert_array_equal(x_hat.data, x)

    def test_conv_positions(self):
        cfg = ModelConfig(encoder_arch="small_conv", input_shape=(1, 8, 8),
                          num_hiddens=4, quantizer="none", seed=1)
        state = init_state(cfg)
        z = encode(RNG(2).random(size=(3, 1, 8, 8)), state)
        assert z.data.shape == (12, 4)  # 3 samples x 2x2 grid
        x_hat = decode(z, state)
        assert x_hat.data.shape == (3, 1, 8, 8)

    def test_input_shape_checked(self):
        state = init_state(dense_config())
        with pytest.raises(DimensionError):
            encode(np.zeros((4, 7)), state)


class TestForwardLoss:
    def test_zero_residual_loss_equals_recon(self):
        # codebook rows copied from the projected encoder outputs
        cfg = dense_config(use_ema=True)
        state = init_state(cfg)
        x = RNG(3).normal(size=(4, 6))
        z_d = state.quantizer.project_in(encode(x, state))
        state.quantizer.codebook.embeddings.data[:4] = z_d.data
        loss, parts, _ = forward_loss(x, state)
        assert parts["vq"] == 0.0
        assert loss.item() == parts["recon"]

    def test_beta_zero_loss_equals_recon(self):
        state = init_state(dense_config(beta=0.0))
        loss, parts, _ = forward_loss(RNG(4).normal(size=(4, 6)), state)
        assert parts["vq"] == 0.0
        assert loss.item() == parts["recon"]

    def test_plain_autoencoder_is_the_identity_quantizer(self):
        state = init_state(dense_config(quantizer="none"))
        x = RNG(4).normal(size=(4, 6))
        loss, parts, q = forward_loss(x, state)
        assert isinstance(q, QuantResult)
        assert q.loss.item() == parts["vq"] == 0.0 and q.assignments == [] and q.counts is None
        np.testing.assert_array_equal(q.z_q.data, encode(x, state).data)
        assert loss.item() == parts["recon"]

    def test_parts_identity(self):
        for cfg in (dense_config(), dense_config(quantizer="adaptive", capacity=8),
                    dense_config(quantizer="none")):
            state = init_state(cfg)
            loss, parts, _ = forward_loss(RNG(5).normal(size=(6, 6)), state,
                                          tau=2.0, rng=RNG(0))
            assert abs(loss.item() - sum(parts.values())) < 1e-12

    def test_full_fixed_loss_gradient_matches_frozen_residual_fd(self):
        cfg = dense_config(input_shape=(4,), num_hiddens=6, codebook_n=4,
                           codebook_d=2, use_ema=False, seed=2)
        worst = _straight_through_grad_error(init_state(cfg), RNG(6).normal(size=(4, 4)))
        assert worst < 1e-4, f"straight-through gradient off by {worst}"

    def test_conv_fixed_loss_gradient_matches_frozen_residual_fd(self):
        # non-square input with an odd-width latent grid (1 x 3)
        cfg = ModelConfig(encoder_arch="small_conv", input_shape=(1, 4, 12), num_hiddens=3,
                          quantizer="fixed", codebook_n=4, codebook_d=2, use_ema=False,
                          seed=3)
        worst = _straight_through_grad_error(init_state(cfg),
                                             RNG(7).normal(size=(2, 1, 4, 12)))
        assert worst < 1e-4, f"straight-through gradient off by {worst}"


def _straight_through_grad_error(state, x):
    """Worst relative error of backward() on the full fixed-quantizer loss
    against central differences of its frozen-residual surrogate."""
    actual, surrogate = fixed_surrogate(state, x)
    assert abs(actual().item() - surrogate().item()) < 1e-12
    state.zero_grads()
    backward(actual())
    worst = 0.0
    for p in state.params.values():
        fd = finite_difference_grad(lambda _: surrogate(), p, step=1e-6)
        grad = p.grad if p.grad is not None else np.zeros_like(p.data)
        worst = max(worst, relative_error(grad, fd.data))
    state.zero_grads()
    return worst


class TestGraphSize:
    """Nodes of one forward_loss graph: the VQ-VAE objective is one node
    per codebook."""

    @pytest.mark.parametrize("quantizer,capacity,nodes", [
        pytest.param("adaptive", 64, 85, id="adaptive-85"),
        pytest.param("adaptive", 4096, 115, id="adaptive-w4096-115"),
        pytest.param("fixed", 64, 26, id="fixed-26"),
        pytest.param("none", 64, 18, id="none-18")])
    def test_nodes_per_forward_loss(self, quantizer, capacity, nodes):
        cfg = dense_config(input_shape=(8,), num_hiddens=16, quantizer=quantizer,
                           codebook_n=16, codebook_d=4, capacity=capacity)
        x = RNG(0).normal(size=(64, 8))
        loss, _, _ = forward_loss(x, init_state(cfg), rng=RNG(1))
        assert len(Graph(loss).nodes) == nodes


class TestTrainStep:
    def test_zero_learning_rate_freezes_parameters(self):
        cfg = dense_config(learning_rate=0.0, use_ema=False)
        state = init_state(cfg)
        before = {k: v.data.copy() for k, v in state.params.items()}
        train_step(RNG(7).normal(size=(8, 6)), state)
        for k, v in state.params.items():
            np.testing.assert_array_equal(v.data, before[k])

    def test_first_adam_step_magnitude(self):
        cfg = dense_config(learning_rate=1e-3, use_ema=False)
        state = init_state(cfg)
        before = {k: v.data.copy() for k, v in state.params.items()}
        x = RNG(8).normal(size=(8, 6))
        from aqvq.tensor import backward
        loss, _, _ = forward_loss(x, state, tau=1.0, rng=None)
        state.zero_grads()
        backward(loss)
        grads = {k: (p.grad.copy() if p.grad is not None else np.zeros_like(p.data))
                 for k, p in state.params.items()}
        state.zero_grads()
        train_step(x, state)
        name = "enc.w1"
        delta = np.abs(state.params[name].data - before[name])
        sizable = np.abs(grads[name]) > 1e-6
        assert sizable.any()
        np.testing.assert_allclose(delta[sizable], 1e-3, rtol=1e-3)

    def test_ema_mode_keeps_codebook_out_of_adam(self):
        cfg = dense_config(use_ema=True)
        state = init_state(cfg)
        assert "q.codebook" not in state.params
        assert not state.quantizer.codebook.embeddings.requires_grad
        cfg2 = dense_config(use_ema=False)
        state2 = init_state(cfg2)
        assert "q.codebook" in state2.params

    def test_ema_updates_move_codebook(self):
        cfg = dense_config(use_ema=True)
        state = init_state(cfg)
        before = state.quantizer.codebook.embeddings.data.copy()
        train_step(RNG(9).normal(size=(16, 6)), state)
        assert not np.array_equal(before, state.quantizer.codebook.embeddings.data)

    def test_two_cluster_training_reduces_loss(self):
        rng = RNG(10)
        centers = np.array([[1.0] * 6, [-1.0] * 6])
        data = centers[rng.integers(0, 2, size=256)] + 0.05 * rng.normal(size=(256, 6))
        cfg = dense_config(codebook_n=4, codebook_d=2, learning_rate=1e-3)
        state = init_state(cfg)
        first = None
        for _ in range(500):
            batch = data[rng.integers(0, 256, size=32)]
            metrics = train_step(batch, state)
            if first is None:
                first = metrics["recon"]
        assert metrics["recon"] < first

    def test_metric_keys_agree_across_quantizer_kinds(self):
        x = RNG(12).normal(size=(8, 6))
        step_keys, eval_keys = {}, {}
        for kind in ("fixed", "adaptive", "none"):
            state = init_state(dense_config(quantizer=kind, capacity=8))
            step_keys[kind] = set(train_step(x, state, tau=2.0, rng=RNG(0)))
            eval_keys[kind] = set(evaluate(x, state))
        assert step_keys["adaptive"] - step_keys["fixed"] == {"counts", "temperature"}
        assert step_keys["fixed"] == step_keys["none"] == step_keys["adaptive"] - {
            "counts", "temperature"}
        assert eval_keys["fixed"] == eval_keys["adaptive"] == eval_keys["none"]
        assert {"vq_loss_sum", "vq_loss_mean"} <= eval_keys["fixed"]

    def test_step_counter_advances(self):
        state = init_state(dense_config())
        for i in range(3):
            m = train_step(RNG(11).normal(size=(4, 6)), state)
        assert m["step"] == 3 == state.step


class TestAdamArena:
    CONFIGS = {
        # qk-only scoring leaves the values and output map without gradients
        "dense adaptive": dict(quantizer="adaptive", capacity=8, use_ema=False,
                               scores_qk_only=True),
        "conv fixed": dict(encoder_arch="small_conv", input_shape=(1, 8, 8), use_ema=False),
        "dense single": dict(use_ema=False, precision="single"),
    }

    @pytest.mark.parametrize("name", CONFIGS)
    def test_update_matches_per_parameter_loop(self, name):
        cfg = dense_config(learning_rate=1e-2, **self.CONFIGS[name])
        arena, looped = init_state(cfg), init_state(cfg)
        rng = RNG(3)
        for step in range(4):
            x = rng.normal(size=(8,) + cfg.input_shape)
            for state in (arena, looped):
                loss, _, _ = forward_loss(x, state, tau=2.0, rng=RNG(step))
                state.zero_grads()
                backward(loss)
                state.params["dec.b1" if cfg.encoder_arch == "dense" else "dec.conv1.b"].grad = None
            _adam_update(arena)
            reference_adam_update(looped)
            for a, b in zip(arena.arena, looped.arena):
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), step

    @pytest.mark.parametrize("name", CONFIGS)
    def test_state_arrays_tile_the_arena(self, name):
        state = init_state(dense_config(**self.CONFIGS[name]))
        train_step(RNG(4).normal(size=(4,) + state.config.input_shape), state)
        flat, m, v = state.arena
        data = [p.data for p in state.params.values()]
        assert sum(a.size for a in data) == flat.size == m.size == v.size
        assert all(np.shares_memory(a, flat) for a in data)
        # a checkpoint stores the moments as the arena's own arrays, not copies
        stored = _state_arrays(state)
        assert stored["adam_m"] is m and stored["adam_v"] is v

    def test_overflowing_update_names_parameter(self):
        state = init_state(dense_config(learning_rate=np.finfo(np.float64).max))
        x = 100.0 * RNG(5).normal(size=(8, 6))
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
                NumericError, match=r"^step 0: non-finite values in parameter "
                                    r"'enc\.w1' after Adam update$"):
            train_step(x, state)


class TestQuantizerFreeEquivalence:
    def test_loss_path_matches_hand_autoencoder(self):
        # quantizer bypassed: the package must track an independently
        # coded autoencoder step for step
        cfg = dense_config(quantizer="none", learning_rate=1e-3, seed=5)
        state = init_state(cfg)
        weights = {
            "w1": state.params["enc.w1"].data, "b1": state.params["enc.b1"].data,
            "w2": state.params["enc.w2"].data, "b2": state.params["enc.b2"].data,
            "w3": state.params["dec.w1"].data, "b3": state.params["dec.b1"].data,
            "w4": state.params["dec.w2"].data, "b4": state.params["dec.b2"].data,
        }
        oracle = HandAutoencoder(weights)
        rng = RNG(12)
        batches = [rng.normal(size=(8, 6)) for _ in range(60)]
        oracle_losses = oracle.train(batches, lr=1e-3)
        package_losses = [train_step(b, state)["loss"] for b in batches]
        np.testing.assert_allclose(package_losses, oracle_losses, rtol=0, atol=1e-10)


class TestEvaluate:
    def test_deterministic_and_pure(self):
        cfg = dense_config(quantizer="adaptive", capacity=8)
        state = init_state(cfg)
        data = RNG(13).normal(size=(40, 6))
        before = {k: v.data.copy() for k, v in state.params.items()}
        first = evaluate(data, state, batch_size=16)
        second = evaluate(data, state, batch_size=16)
        assert first == second
        for k, v in state.params.items():
            np.testing.assert_array_equal(v.data, before[k])

    def test_perfect_reconstruction_scores_zero(self):
        cfg = dense_config(input_shape=(8,), num_hiddens=8, quantizer="none")
        state = init_state(cfg)
        eye = np.eye(8)
        for name in ("enc.w1", "enc.w2", "dec.w1", "dec.w2"):
            state.params[name].data[:] = eye
        for name in ("enc.b1", "enc.b2", "dec.b1", "dec.b2"):
            state.params[name].data[:] = 0.0
        point = RNG(14).random(size=(1, 8))
        result = evaluate(point, state)
        assert result["recon_loss_sum"] == 0.0

    def test_sum_is_mean_times_batches(self):
        state = init_state(dense_config())
        data = RNG(15).normal(size=(48, 6))
        result = evaluate(data, state, batch_size=12)
        assert result["n_batches"] == 4
        np.testing.assert_allclose(result["recon_loss_sum"],
                                   result["recon_loss_mean"] * result["n_batches"])

    def test_sum_independent_of_batch_size(self):
        state = init_state(dense_config())
        data = RNG(16).normal(size=(60, 6))
        a = evaluate(data, state, batch_size=10)["recon_loss_sum"]
        b = evaluate(data, state, batch_size=60)["recon_loss_sum"]
        np.testing.assert_allclose(a, b, rtol=1e-12)

    def test_empty_split_rejected(self):
        state = init_state(dense_config())
        with pytest.raises(ContractError):
            evaluate(np.zeros((0, 6)), state)

    @pytest.mark.parametrize("batch_size", [0, -3])
    def test_batch_size_must_be_positive(self, batch_size):
        state = init_state(dense_config())
        with pytest.raises(ContractError, match="batch size must be at least 1"):
            evaluate(RNG(17).normal(size=(4, 6)), state, batch_size=batch_size)

    @pytest.mark.parametrize("kind", ["fixed", "none"])
    def test_fixed_and_plain_sums_are_forward_loss_parts(self, kind):
        state = init_state(dense_config(quantizer=kind))
        x = RNG(19).normal(size=(10, 6))
        result = evaluate(x, state, batch_size=4)
        assert (result["recon_loss_sum"], result["vq_loss_sum"]) == _forward_loss_sums(x, state, 4)

    def test_recording_back_after_evaluate_raises(self):
        cfg = dense_config(quantizer="adaptive", capacity=8)
        state, fresh = init_state(cfg), init_state(cfg)
        data = RNG(20).normal(size=(8, 6))
        data[5, 2] = np.nan  # in the second batch
        with pytest.raises(NumericError):
            evaluate(data, state, batch_size=4)
        assert tensor._recording
        x = RNG(21).normal(size=(8, 6))
        metrics = train_step(x, state, rng=RNG(1))
        # str: "counts" is an array, and repr round-trips every float exactly
        assert str(metrics) == str(train_step(x, fresh, rng=RNG(1)))
        for ours, theirs in zip(state.arena, fresh.arena):
            assert ours.tobytes() == theirs.tobytes()

    def test_peak_memory_below_recorded_forward_pass(self):
        # a fixed quantizer evaluates through forward_loss's ops, so only
        # the recording tells the two peaks apart
        cfg = ModelConfig(encoder_arch="small_conv", input_shape=(1, 8, 8), num_hiddens=16,
                          quantizer="fixed")
        state = init_state(cfg)
        x = RNG(22).normal(size=(256, 1, 8, 8))
        peaks = []
        for run in (lambda: evaluate(x, state), lambda: forward_loss(x, state)):
            tracemalloc.start()
            try:
                run()
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[0] < 0.75 * peaks[1]

    @pytest.mark.parametrize("precision", ["double", "single"])
    @pytest.mark.parametrize("kind", ["fixed", "adaptive", "none"])
    def test_every_value_is_a_python_number(self, kind, precision):
        # the benchmark checks each value with np.isfinite and compares
        # whole results with ==, which a list or an array would break
        state = init_state(dense_config(quantizer=kind, capacity=8, precision=precision))
        result = evaluate(RNG(18).normal(size=(10, 6)), state, batch_size=4)
        assert {type(v) for v in result.values()} <= {int, float}


def _forward_loss_sums(x, state, batch_size):
    """``evaluate``'s recon and vq sums, from ``forward_loss`` at tau 1 without noise."""
    recon = vq = 0.0
    for start in range(0, x.shape[0], batch_size):
        batch = x[start : start + batch_size]
        _, parts, _ = forward_loss(batch, state, tau=1.0, rng=None)
        recon += parts["recon"] * batch.shape[0]
        vq += parts["vq"] * batch.shape[0]
    return recon, vq


def _spread_picks(state, scale):
    """Scale the pool's query maps, so that its picks vary more across rows."""
    for w in state.quantizer.wq:
        w.data *= scale


class TestSelectionFirstEvaluation:
    """``evaluate`` quantizes each row of an adaptive pool only by the
    codebook it selects, and reconstructs it as the all-candidate pass does."""

    @settings(deadline=None, max_examples=200)
    @given(data=st.data())
    def test_property_recon_matches_all_candidate_pass(self, data):
        conv = data.draw(st.booleans(), "conv")
        cfg = dense_config(
            quantizer="adaptive", capacity=data.draw(st.sampled_from([8, 64, 256]), "capacity"),
            precision=data.draw(st.sampled_from(["double", "single"]), "precision"),
            seed=data.draw(st.integers(0, 1000), "seed"),
            **(dict(encoder_arch="small_conv", input_shape=(1, 8, 8)) if conv else {}))
        state = init_state(cfg)
        _spread_picks(state, data.draw(st.sampled_from([1.0, 10.0, 100.0, 1000.0]), "scale"))
        samples = data.draw(st.integers(1, 16), "samples")
        x = RNG(data.draw(st.integers(0, 1000), "data seed")).normal(
            size=(samples,) + cfg.input_shape)
        batch_size = data.draw(st.integers(1, 16), "batch size")
        want = _forward_loss_sums(x, state, batch_size)[0]
        assert evaluate(x, state, batch_size)["recon_loss_sum"].hex() == want.hex()

    def test_searches_only_selected_codebooks(self, monkeypatch):
        state = init_state(dense_config(quantizer="adaptive", capacity=64))
        _spread_picks(state, 10.0)
        x = RNG(0).normal(size=(16, 6))
        picks = selection(encode(x, state), state.quantizer, 1.0).data.argmax(axis=1)
        selected = {id(state.codebooks[i]) for i in picks}
        assert 2 <= len(selected) < state.quantizer.m
        searched = []
        search = aqvq.vq.nearest_indices

        def spy(rows, codebook):
            searched.append(id(codebook))
            return search(rows, codebook)

        monkeypatch.setattr(aqvq.vq, "nearest_indices", spy)
        evaluate(x, state)
        assert sorted(searched) == sorted(selected)


class TestConfigFlags:
    def test_qk_only_scoring_trains(self):
        cfg = dense_config(quantizer="adaptive", capacity=8, scores_qk_only=True)
        state = init_state(cfg)
        assert state.quantizer.scores_qk_only
        metrics = train_step(RNG(20).normal(size=(8, 6)), state, tau=2.0, rng=RNG(0))
        assert np.isfinite(metrics["loss"])

    def test_paper_form_ema_through_config(self):
        cfg = dense_config(use_ema=True, ema_paper_form=True, codebook_n=4,
                           codebook_d=2)
        state = init_state(cfg)
        cb = state.quantizer.codebook
        sizes_before = cb.ema_cluster_size.copy()
        train_step(RNG(21).normal(size=(8, 6)), state)
        # the literal per-vector update never touches the EMA accumulators
        np.testing.assert_array_equal(cb.ema_cluster_size, sizes_before)


class TestPrecisionOption:
    def test_single_precision_parameters(self):
        cfg = dense_config(precision="single")
        state = init_state(cfg)
        assert all(p.data.dtype == np.float32 for p in state.params.values())
        loss, _, _ = forward_loss(np.ones((2, 6), dtype=np.float32), state)
        assert loss.data.dtype == np.float32

    CONFIGS = {
        "dense fixed": dict(use_ema=True),
        "dense adaptive": dict(quantizer="adaptive", capacity=8, use_ema=False),
        "dense adaptive ema": dict(quantizer="adaptive", capacity=8, use_ema=True),
        "conv adaptive": dict(encoder_arch="small_conv", input_shape=(1, 8, 8),
                              quantizer="adaptive", capacity=8, use_ema=True),
    }

    @pytest.mark.parametrize("name", CONFIGS)
    def test_single_precision_is_float32_end_to_end(self, name, monkeypatch):
        # float64 inputs and Gumbel noise included: every node of a step's
        # and an evaluation's graph, every gradient and every row the search
        # and the EMA see is float32
        cfg = dense_config(precision="single", **self.CONFIGS[name])
        state = init_state(cfg)
        nodes, row_dtypes = [], []
        loss = aqvq.model._loss

        def recording_loss(*args, **kwargs):
            out = loss(*args, **kwargs)
            nodes.extend(Graph(out[0]).nodes)
            return out

        def spy(module, name, rows_at):
            fn = getattr(module, name)

            def wrapper(*args, **kwargs):
                row_dtypes.append((name, args[rows_at].dtype))
                return fn(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        monkeypatch.setattr(aqvq.model, "_loss", recording_loss)
        spy(aqvq.vq, "nearest_indices", 0)
        spy(aqvq.model, "ema_update", 1)
        x = RNG(22).normal(size=(8,) + cfg.input_shape)
        train_step(x, state, tau=2.0, rng=RNG(0))
        grads = [p.grad for p in state.params.values() if p.grad is not None]
        evaluate(x, state, batch_size=4)
        assert nodes and {n.data.dtype for n in nodes} == {np.dtype(np.float32)}
        assert grads and all(g.dtype == np.float32 for g in grads)
        called = {name for name, _ in row_dtypes}
        assert called == ({"nearest_indices", "ema_update"} if cfg.use_ema else {"nearest_indices"})
        assert all(dtype == np.float32 for _, dtype in row_dtypes)

    def test_double_is_default(self):
        state = init_state(dense_config())
        assert all(p.data.dtype == np.float64 for p in state.params.values())
