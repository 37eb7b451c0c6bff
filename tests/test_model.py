"""Model: encoder/decoder shapes, full losses, Adam training,
evaluation purity, and equivalence with a hand-rolled autoencoder."""

import numpy as np
import pytest

from helpers import HandAutoencoder, fixed_surrogate
from aqvq.errors import ConfigError, ContractError, DimensionError
from aqvq.model import (
    ModelConfig,
    decode,
    encode,
    evaluate,
    forward_loss,
    init_state,
    rng_streams,
    train_step,
)
from aqvq.tensor import Tensor, backward, finite_difference_grad, relative_error
from aqvq.vq import nearest_indices

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

    def test_latent_grid_shape_arithmetic(self):
        cfg = ModelConfig(encoder_arch="small_conv", input_shape=(1, 8, 8),
                          num_hiddens=4)
        assert cfg.latent_grid == (2, 2)
        assert cfg.positions_per_sample() == 4

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
    for p in state.trainable().values():
        fd = finite_difference_grad(lambda _: surrogate(), p, step=1e-6)
        grad = p.grad if p.grad is not None else np.zeros_like(p.data)
        worst = max(worst, relative_error(grad, fd.data))
    state.zero_grads()
    return worst


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

    def test_double_is_default(self):
        state = init_state(dense_config())
        assert all(p.data.dtype == np.float64 for p in state.params.values())
