"""Autodiff engine: values, gradients against finite differences,
graph structure, and the straight-through/detach semantics."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import reference_conv2d_3x3
from aqvq import tensor
from aqvq.errors import ContractError, DimensionError, NumericError
from aqvq.tensor import (
    Graph,
    Tensor,
    add,
    affine,
    backward,
    bmm,
    concat,
    conv2d_3x3,
    detach,
    finite_difference_grad,
    gather_rows,
    matmul,
    mse,
    mul_scalar,
    relative_error,
    relu,
    reshape,
    softmax,
    straight_through,
    transpose,
    upsample2x,
)

RNG = np.random.default_rng


class TestForwardValues:
    def test_mse_direct(self):
        assert mse(Tensor([1.0, 1.0]), Tensor([0.0, 0.0])).item() == 1.0

    def test_softmax_symmetry(self):
        out = softmax(Tensor([[0.0, 0.0]]))
        np.testing.assert_array_equal(out.data, [[0.5, 0.5]])

    def test_detach_passes_values(self):
        t = Tensor([1.0, 2.0], requires_grad=True)
        d = detach(t)
        np.testing.assert_array_equal(d.data, [1.0, 2.0])
        assert not d.requires_grad

    def test_relu_clamps(self):
        out = relu(Tensor([-1.0, 0.0, 2.0]))
        np.testing.assert_array_equal(out.data, [0.0, 0.0, 2.0])

    def test_default_dtype_is_double(self):
        assert Tensor([1, 2]).dtype == np.float64

    def test_float32_preserved(self):
        assert Tensor(np.zeros(3, dtype=np.float32)).dtype == np.float32

    def test_non_finite_construction_rejected(self):
        with pytest.raises(NumericError):
            Tensor([np.inf])

    def test_non_finite_op_output_rejected(self):
        t = Tensor([1e308], requires_grad=True)
        with np.errstate(over="ignore"), pytest.raises(NumericError):
            mul_scalar(t, 10.0)


class TestBackwardBasics:
    def test_quadratic_gradient(self):
        w = Tensor([3.0], requires_grad=True)
        backward(mse(w, Tensor([0.0])))
        np.testing.assert_allclose(w.grad, [6.0])

    def test_no_grad_leaf_stays_empty(self):
        w = Tensor([3.0], requires_grad=True)
        frozen = Tensor([1.0], requires_grad=False)
        backward(mse(add(w, frozen), Tensor([0.0])))
        assert frozen.grad is None
        assert w.grad is not None

    def test_scalar_loss_required(self):
        w = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(ContractError):
            backward(add(w, 1.0))

    def test_detach_blocks_gradients(self):
        w = Tensor([2.0], requires_grad=True)
        backward(mse(detach(mul_scalar(w, 3.0)), Tensor([0.0])))
        assert w.grad is None

    def test_detach_equivalent_to_constant(self):
        # a detached branch contributes exactly like a constant of the same value
        u = Tensor([4.0], requires_grad=True)
        branch = mul_scalar(u, 2.0)

        def grads(tail):
            w = Tensor([1.5], requires_grad=True)
            backward(mse(add(w, tail), Tensor([0.0])))
            return w.grad.copy()

        np.testing.assert_array_equal(grads(detach(branch)), grads(Tensor(branch.data)))
        backward(mse(add(Tensor([1.5], requires_grad=True), detach(branch)), Tensor([0.0])))
        assert u.grad is None

    def test_gradients_accumulate_on_reuse(self):
        w = Tensor([1.0], requires_grad=True)
        backward(mse(add(w, w), Tensor([0.0])))  # d/dw (2w)^2 = 8w
        np.testing.assert_allclose(w.grad, [8.0])

    def test_backward_deterministic(self):
        rng = RNG(5)
        x = rng.normal(size=(6, 5))
        w_data = rng.normal(size=(5, 4))

        def run():
            w = Tensor(w_data.copy(), requires_grad=True)
            backward(mse(relu(matmul(Tensor(x), w)), Tensor(np.zeros((6, 4)))))
            return w.grad

        np.testing.assert_array_equal(run(), run())


class TestGraph:
    def test_topological_order(self):
        x = Tensor([[1.0, 2.0]], requires_grad=True)
        y = relu(x)
        z = mse(add(y, mul_scalar(y, 2.0)), Tensor([[0.0, 0.0]]))
        nodes = Graph(z).nodes
        position = {id(n): i for i, n in enumerate(nodes)}
        for node in nodes:
            for parent in node._parents:
                assert position[id(parent)] < position[id(node)]

    def test_each_node_visited_once(self):
        # shared subexpression appears exactly once in the graph
        x = Tensor([1.0], requires_grad=True)
        y = mul_scalar(x, 2.0)
        z = mse(add(y, y), Tensor([0.0]))
        nodes = Graph(z).nodes
        assert len(nodes) == len({id(n) for n in nodes})
        assert sum(1 for n in nodes if n is y) == 1


class TestStraightThrough:
    def test_forward_bits_and_grad_route(self):
        z_e = Tensor([0.2], requires_grad=True)
        z_q = Tensor([1.0])
        out = straight_through(z_e, z_q)
        np.testing.assert_array_equal(out.data, [1.0])
        backward(mul_scalar(reshape(out, ()), 3.0))
        np.testing.assert_allclose(z_e.grad, [3.0])

    def test_value_side_gets_no_gradient(self):
        z_e = Tensor([0.2], requires_grad=True)
        z_q = Tensor([1.0], requires_grad=True)
        backward(mse(straight_through(z_e, z_q), Tensor([0.0])))
        assert z_q.grad is None

    def test_bit_identical_forward(self):
        rng = RNG(0)
        vals = rng.normal(size=(17, 3))
        out = straight_through(Tensor(rng.normal(size=(17, 3)), requires_grad=True),
                               Tensor(vals))
        assert np.array_equal(out.data, vals)

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            straight_through(Tensor([1.0]), Tensor([1.0, 2.0]))


class TestFiniteDifferenceOracle:
    def test_sum_of_squares(self):
        t = Tensor([1.0, 2.0])
        f = lambda u: mul_scalar(mse(u, Tensor([0.0, 0.0])), 2.0)  # sum of squares
        fd = finite_difference_grad(f, t, step=1e-6)
        np.testing.assert_allclose(fd.data, [2.0, 4.0], atol=1e-6)

    def test_constant_function(self):
        t = Tensor([1.0, -3.0])
        fd = finite_difference_grad(lambda u: 7.5, t, step=1e-6)
        np.testing.assert_array_equal(fd.data, [0.0, 0.0])

    def test_step_must_be_positive(self):
        with pytest.raises(ContractError):
            finite_difference_grad(lambda u: 0.0, Tensor([1.0]), step=0.0)

    def test_restores_input(self):
        t = Tensor([1.0, 2.0])
        before = t.data.copy()
        finite_difference_grad(lambda u: mse(u, Tensor([0.0, 0.0])), t)
        np.testing.assert_array_equal(t.data, before)


def _grad_check(build, leaf, tol=1e-5, step=1e-6):
    """backward() against central differences for one leaf tensor."""
    leaf.grad = None
    backward(build())
    fd = finite_difference_grad(lambda _: build(), leaf, step=step)
    err = relative_error(leaf.grad, fd.data)
    assert err < tol, f"gradient mismatch: rel err {err}"


class TestGradientsMatchFiniteDifferences:
    """Every differentiable op, randomized inputs of size <= 64."""

    def test_three_layer_affine_relu_network(self):
        rng = RNG(7)
        x = Tensor(rng.normal(size=(8, 4)))
        params = {
            "w1": Tensor(rng.normal(size=(4, 6)), requires_grad=True),
            "b1": Tensor(rng.normal(size=6), requires_grad=True),
            "w2": Tensor(rng.normal(size=(6, 6)), requires_grad=True),
            "b2": Tensor(rng.normal(size=6), requires_grad=True),
            "w3": Tensor(rng.normal(size=(6, 3)), requires_grad=True),
            "b3": Tensor(rng.normal(size=3), requires_grad=True),
        }
        target = Tensor(rng.normal(size=(8, 3)))

        def build():
            h = relu(affine(x, params["w1"], params["b1"]))
            h = relu(affine(h, params["w2"], params["b2"]))
            return mse(affine(h, params["w3"], params["b3"]), target)

        for leaf in params.values():
            _grad_check(build, leaf)

    def test_add_and_mul_scalar(self):
        rng = RNG(1)
        a = Tensor(rng.normal(size=(5, 3)), requires_grad=True)
        b = Tensor(rng.normal(size=(5, 3)), requires_grad=True)
        target = Tensor(rng.normal(size=(5, 3)))
        build = lambda: mse(add(mul_scalar(a, 1.7), b), target)
        _grad_check(build, a)
        _grad_check(build, b)

    def test_scalar_broadcast_add(self):
        rng = RNG(2)
        a = Tensor(rng.normal(size=(4, 4)), requires_grad=True)
        c = Tensor(0.3, requires_grad=True)
        build = lambda: mse(add(a, c), Tensor(np.zeros((4, 4))))
        _grad_check(build, a)
        _grad_check(build, c)

    def test_matmul_and_transpose(self):
        rng = RNG(3)
        a = Tensor(rng.normal(size=(4, 5)), requires_grad=True)
        b = Tensor(rng.normal(size=(4, 6)), requires_grad=True)
        target = Tensor(rng.normal(size=(5, 6)))
        build = lambda: mse(matmul(transpose(a), b), target)
        _grad_check(build, a)
        _grad_check(build, b)

    def test_reshape_and_concat(self):
        rng = RNG(4)
        a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        target = Tensor(rng.normal(size=(2, 12)))
        build = lambda: mse(reshape(concat([a, b], axis=1), (2, 12)), target)
        _grad_check(build, a)
        _grad_check(build, b)

    def test_bmm(self):
        rng = RNG(5)
        a = Tensor(rng.normal(size=(3, 1, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(3, 4, 2)), requires_grad=True)
        target = Tensor(rng.normal(size=(3, 1, 2)))
        build = lambda: mse(bmm(a, b), target)
        _grad_check(build, a)
        _grad_check(build, b)

    def test_softmax(self):
        rng = RNG(6)
        logits = Tensor(rng.normal(size=(5, 4)), requires_grad=True)
        target = Tensor(rng.random(size=(5, 4)))
        build = lambda: mse(softmax(logits), target)
        _grad_check(build, logits)

    def test_mse_both_sides(self):
        rng = RNG(8)
        a = Tensor(rng.normal(size=(6, 2)), requires_grad=True)
        b = Tensor(rng.normal(size=(6, 2)), requires_grad=True)
        build = lambda: mse(a, b)
        _grad_check(build, a)
        _grad_check(build, b)

    def test_gather_rows(self):
        rng = RNG(9)
        table = Tensor(rng.normal(size=(6, 3)), requires_grad=True)
        idx = np.array([0, 2, 2, 5, 1])
        target = Tensor(rng.normal(size=(5, 3)))
        build = lambda: mse(gather_rows(table, idx), target)
        _grad_check(build, table)

    @pytest.mark.parametrize("stride", [1, 2])
    def test_conv2d(self, stride):
        rng = RNG(10 + stride)
        x = Tensor(rng.normal(size=(2, 3, 6, 6)), requires_grad=True)
        w = Tensor(rng.normal(size=(4, 3, 3, 3)) * 0.5, requires_grad=True)
        b = Tensor(rng.normal(size=4), requires_grad=True)
        oh = (6 - 1) // stride + 1
        target = Tensor(rng.normal(size=(2, 4, oh, oh)))
        build = lambda: mse(conv2d_3x3(x, w, b, stride=stride), target)
        _grad_check(build, x, step=1e-5)
        _grad_check(build, w, step=1e-5)
        _grad_check(build, b, step=1e-5)

    def test_conv2d_odd_non_square_stride2(self):
        rng = RNG(12)
        x = Tensor(rng.normal(size=(2, 2, 7, 5)), requires_grad=True)
        w = Tensor(rng.normal(size=(3, 2, 3, 3)) * 0.5, requires_grad=True)
        b = Tensor(rng.normal(size=3), requires_grad=True)
        target = Tensor(rng.normal(size=(2, 3, 4, 3)))
        build = lambda: mse(conv2d_3x3(x, w, b, stride=2), target)
        _grad_check(build, x, step=1e-5)
        _grad_check(build, w, step=1e-5)
        _grad_check(build, b, step=1e-5)

    def test_upsample2x(self):
        rng = RNG(13)
        x = Tensor(rng.normal(size=(2, 2, 3, 3)), requires_grad=True)
        target = Tensor(rng.normal(size=(2, 2, 6, 6)))
        build = lambda: mse(upsample2x(x), target)
        _grad_check(build, x)

    def test_relu_away_from_kink(self):
        rng = RNG(14)
        vals = rng.normal(size=(6, 4))
        vals[np.abs(vals) < 1e-2] = 0.1  # keep clear of the non-differentiable point
        x = Tensor(vals, requires_grad=True)
        build = lambda: mse(relu(x), Tensor(np.zeros((6, 4))))
        _grad_check(build, x)


class TestConvMatchesReference:
    @given(st.data())
    @settings(deadline=None, max_examples=200)
    def test_property_matches_einsum_reference(self, data):
        # tolerances are relative to the sum of the absolute terms, which
        # bounds the rounding of any summation order; the tile budget is
        # set to whole images so a batch spans several tiles, the last
        # one ragged
        batch, chans, out_ch = (data.draw(st.integers(1, 5), label=k) for k in "BCO")
        height, width = (data.draw(st.integers(1, 9), label=k) for k in "HW")
        stride = data.draw(st.sampled_from([1, 2]), label="stride")
        dtype = data.draw(st.sampled_from([np.float64, np.float32]), label="dtype")
        x_grad = data.draw(st.booleans(), label="x_requires_grad")
        per_tile = data.draw(st.integers(1, batch), label="images_per_tile")
        rng = RNG(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        x, w, b = (rng.normal(size=s).astype(dtype) for s in
                   ((batch, chans, height, width), (out_ch, chans, 3, 3), (out_ch,)))
        oh, ow = (height - 1) // stride + 1, (width - 1) // stride + 1
        g = rng.normal(size=(batch, out_ch, oh, ow)).astype(dtype)
        tile = per_tile * 9 * chans * (height + 2) * (width + 2)
        with mock.patch.object(tensor, "CONV_TILE_ELEMENTS", tile):
            out = conv2d_3x3(Tensor(x, requires_grad=x_grad), Tensor(w, requires_grad=True),
                             Tensor(b, requires_grad=True), stride=stride)
            grads = out._vjp(g)
        f64 = lambda *arrays: [a.astype(np.float64) for a in arrays]
        want = reference_conv2d_3x3(*f64(x, w, b), stride, *f64(g))
        scale = reference_conv2d_3x3(*f64(abs(x), abs(w), abs(b)), stride, *f64(abs(g)))
        rtol = 1e-12 if dtype == np.float64 else 1e-5
        for name, got, ref, mag in zip(("out", "dx", "dw", "db"), (out.data, *grads), want, scale):
            if name == "dx" and not x_grad:
                assert got is None
                continue
            assert got.dtype == dtype and got.shape == ref.shape, name
            assert np.all(np.abs(got - ref) <= rtol * mag), name


class TestShapeErrors:
    def test_add_mismatch(self):
        with pytest.raises(DimensionError):
            add(Tensor([1.0, 2.0]), Tensor([[1.0], [2.0]]))

    def test_affine_mismatch(self):
        with pytest.raises(DimensionError):
            affine(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 5))), Tensor(np.zeros(5)))

    def test_matmul_mismatch(self):
        with pytest.raises(DimensionError):
            matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))

    def test_bmm_rank(self):
        with pytest.raises(DimensionError):
            bmm(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))

    def test_conv_stride(self):
        x, w, b = Tensor(np.zeros((1, 1, 4, 4))), Tensor(np.zeros((1, 1, 3, 3))), Tensor(np.zeros(1))
        with pytest.raises(DimensionError):
            conv2d_3x3(x, w, b, stride=3)

    def test_gather_out_of_range(self):
        with pytest.raises(ContractError):
            gather_rows(Tensor(np.zeros((2, 2))), [0, 2])
