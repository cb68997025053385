"""Tensor arithmetic, tape recording, gradients, and the finite-difference checker."""

import contextlib
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from spcl import autodiff as ad
from spcl.autodiff import GradTape, Tensor, finite_diff_check
from spcl.errors import DisconnectedParamWarning, NonFiniteValue, NormTooSmall, ShapeMismatch
from conftest import detached_max, div, exp, hostile, log, op_l2_normalize_rows, power, sub, tmean, tsum
from spcl.models import ModelConfig, ParamModel
from spcl.semi_supervised import consistency_loss, supervised_loss
from spcl.verify import _GRADCHECK_MODEL


class TestTensorBasics:
    def test_data_is_immutable(self):
        t = Tensor([1.0, 2.0])
        with pytest.raises(ValueError):
            t.data[0] = 5.0

    def test_row_major_float64(self):
        t = Tensor(np.arange(6).reshape(2, 3))
        assert t.data.dtype == np.float64
        assert t.data.flags.c_contiguous

    def test_nan_rejected_at_construction(self):
        with pytest.raises(NonFiniteValue):
            Tensor([1.0, np.nan])

    def test_op_producing_inf_raises(self):
        t = Tensor([0.0])
        with pytest.raises(NonFiniteValue):
            log(t)

    def test_overflowing_op_error_names_the_op(self):
        with pytest.raises(NonFiniteValue, match="op 'exp' produced NaN/Inf"):
            exp(Tensor([1000.0]))

    def test_nan_scalar_constant_rejected(self):
        t = Tensor([1.0, 2.0])
        with pytest.raises(NonFiniteValue):
            t + float("nan")

    def test_op_outputs_are_frozen_row_major_float64(self):
        rng = np.random.default_rng(4)
        m = Tensor(rng.standard_normal((3, 4)))
        img = Tensor(rng.standard_normal((2, 4 * 4 * 1)))
        kernel = Tensor(rng.standard_normal((9, 2)))
        outputs = {
            "add": m + m,
            "sum": tsum(m),
            "transpose": Tensor([1.0, 2.0, 3.0]).T,
            "reshape": m.reshape(4, 3),
            "concat": ad.concat([m, m], axis=1),
            "conv2d": ad.conv2d(img, kernel, (4, 4)),
        }
        assert outputs["sum"].ndim == 0
        for op, out in outputs.items():
            assert out.data.dtype == np.float64, op
            assert out.data.flags.c_contiguous, op
            assert not out.data.flags.writeable, op

    def test_eager_op_makes_no_finite_scan(self, monkeypatch):
        a, b = Tensor(np.ones((16, 32))), Tensor(np.ones((16, 32)))
        w = Tensor(np.ones((32, 8)))
        calls = []
        real_isfinite = np.isfinite

        def counting_isfinite(*args, **kwargs):
            calls.append(1)
            return real_isfinite(*args, **kwargs)

        monkeypatch.setattr(np, "isfinite", counting_isfinite)
        ad.add(a, b)
        ad.matmul(a, w)
        assert calls == []  # the raising error state is the check
        Tensor(np.ones(3))
        a + 2.0
        assert len(calls) == 2  # a caller array and a scalar constant are scanned

    @pytest.mark.parametrize("operand", [float("nan"), np.array([np.nan, 1.0]), [1.0, np.inf]])
    def test_non_finite_operand_rejected(self, operand):
        t = Tensor([1.0, 2.0])
        with pytest.raises(NonFiniteValue, match="contains NaN/Inf"):
            t * operand


class TestDispatch:
    def test_caller_array_is_copied_not_frozen(self):
        x = np.arange(12.0).reshape(3, 4).copy()  # owns its memory, like a fresh op output
        t = Tensor(x)
        s = t + x
        assert x.flags.writeable
        assert not np.shares_memory(t.data, x)
        assert not np.shares_memory(s.data, x)
        x[0, 0] = 99.0
        assert t.data[0, 0] == 0.0

    def test_view_output_is_copied_and_input_kept(self):
        v = Tensor([1.0, 2.0, 3.0])
        out = v.T  # the forward returns the input itself
        assert not out.data.flags.writeable
        assert not np.shares_memory(out.data, v.data)
        np.testing.assert_array_equal(v.data, [1.0, 2.0, 3.0])
        assert not v.data.flags.writeable

    def test_tape_restores_error_state(self):
        before = np.geterr()
        with GradTape():
            exp(Tensor([1.0], requires_grad=True))
        assert np.geterr() == before
        with pytest.raises(NonFiniteValue):
            with GradTape():
                exp(Tensor([1000.0], requires_grad=True))
        assert np.geterr() == before

    @pytest.mark.parametrize("where", ["tape", "eager", "finite_diff"])
    def test_overflow_raises_without_runtime_warning(self, where):
        def loss(q):
            # in the finite_diff case only untaped evaluations overflow, so the
            # error comes from the evaluation loop, not the analytic pass
            scale = 1.0 if where == "finite_diff" and ad.active_tape() is not None else 1000.0
            return tsum(exp(q * scale))

        p = Tensor([1.0], requires_grad=True)
        before = np.geterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteValue, match="op 'exp' produced NaN/Inf"):
                if where == "tape":
                    with GradTape():
                        loss(p)
                elif where == "eager":
                    loss(p)
                else:
                    finite_diff_check(loss, [p])
        assert np.geterr() == before


    def test_conv2d_builds_its_patch_table_once(self, monkeypatch):
        monkeypatch.setattr(ad, "_PATCH_CACHE", {})
        calls = []
        real = ad._patch_indices

        def counting(h, w, k):
            calls.append((h, w, k))
            return real(h, w, k)

        monkeypatch.setattr(ad, "_patch_indices", counting)
        rng = np.random.default_rng(0)
        img, kernel = Tensor(rng.standard_normal((2, 4 * 4 * 1))), Tensor(rng.standard_normal((9, 2)))
        first = ad.conv2d(img, kernel, (4, 4))
        second = ad.conv2d(img, kernel, (4, 4))
        assert calls == [(4, 4, 3)]
        np.testing.assert_array_equal(first.data, second.data)

    @pytest.mark.parametrize("op", ["conv2d", "avg_pool2x", "upsample2x"])
    def test_conv_and_pool_outputs_are_frozen_in_place(self, monkeypatch, op):
        rng = np.random.default_rng(1)
        img = Tensor(rng.standard_normal((2, 4 * 4 * 3)))
        kernel = Tensor(rng.standard_normal((27, 2)))
        frozen = []
        real = ad._freeze

        def recording(a, fresh=False):
            out = real(a, fresh)
            frozen.append((a, out))
            return out

        monkeypatch.setattr(ad, "_freeze", recording)
        out, shape = {
            "conv2d": lambda: (ad.conv2d(img, kernel, (4, 4)), (2, 4 * 4 * 2)),
            "avg_pool2x": lambda: (ad.avg_pool2x(img, (4, 4)), (2, 2 * 2 * 3)),
            "upsample2x": lambda: (ad.upsample2x(img, (4, 4)), (2, 8 * 8 * 3)),
        }[op]()
        produced, kept = frozen[-1]
        assert kept is produced and out.data is produced
        assert out.shape == shape


BIG = 1e308

# One input per primitive that drives its forward into an overflow, a
# divide-by-zero or an invalid operation. transpose, reshape, concat and
# upsample2x only move finite values, so their forward cannot fail.
FORWARD_FAILURES = {
    "add": lambda: Tensor([BIG]) + Tensor([BIG]),
    "sub": lambda: sub(Tensor([BIG]), Tensor([-BIG])),
    "mul": lambda: Tensor([1e200]) * Tensor([1e200]),
    "div": lambda: div(Tensor([1.0]), Tensor([0.0])),
    "matmul": lambda: Tensor([[1e200]]) @ Tensor([[1e200]]),
    "exp": lambda: exp(Tensor([1000.0])),
    "log": lambda: log(Tensor([-1.0])),
    "power": lambda: power(Tensor([-1.0]), 0.5),
    "leaky_relu": lambda: Tensor([-1e300]).leaky_relu(1e10),
    "sum": lambda: tsum(Tensor([BIG, BIG])),
    "mean": lambda: tmean(Tensor([BIG, BIG])),
    "conv2d": lambda: ad.conv2d(Tensor(np.full((1, 4), 1e200)), Tensor(np.full((9, 1), 1e200)), (2, 2)),
    "avg_pool2x": lambda: ad.avg_pool2x(Tensor(np.full((1, 4), BIG)), (2, 2)),
}

# (input, loss) per primitive: the forward is finite and the op's backward
# overflows or divides by zero, either in its own cotangent or when that
# cotangent is added to the one a later use of the input already left there.
BACKWARD_FAILURES = {
    "add": (np.zeros(1), lambda x: tsum((x + Tensor(np.zeros(2))) * Tensor([BIG, BIG]))),
    "sub": (np.zeros(1), lambda x: tsum(sub(x, Tensor(np.zeros(2))) * Tensor([BIG, BIG]))),
    "mul": (np.zeros(1), lambda x: tsum((x * Tensor([1e200])) * Tensor([1e200]))),
    "div": (np.full(1, 1e-200), lambda x: tsum(div(Tensor([1.0]), x))),
    "matmul": (np.zeros((1, 1)), lambda x: tsum((x @ Tensor([[1e200]])) * Tensor([[1e200]]))),
    "transpose": (np.zeros((1, 2)), lambda x: tsum(x.T * Tensor([[BIG], [BIG]])) + tsum(x * Tensor([[BIG, BIG]]))),
    "exp": (np.zeros(1), lambda x: tsum(exp(x) * Tensor([BIG])) + tsum(x * Tensor([BIG]))),
    "log": (np.full(1, 1e-300), lambda x: tsum(log(x) * Tensor([1e10]))),
    "power": (np.zeros(1), lambda x: tsum(power(x, 0.5))),
    "leaky_relu": (np.full(1, -1e-300), lambda x: tsum(x.leaky_relu(1e200) * Tensor([1e200]))),
    "sum": (np.zeros(1), lambda x: tsum(x) * BIG + tsum(x * Tensor([BIG]))),
    "mean": (np.zeros(1), lambda x: tmean(x) * BIG + tsum(x * Tensor([BIG]))),
    "reshape": (np.zeros(2), lambda x: tsum(x.reshape(2, 1) * Tensor([[BIG], [BIG]])) + tsum(x * Tensor([BIG, BIG]))),
    "concat": (np.zeros(1), lambda x: tsum(ad.concat([x, Tensor([0.0])]) * Tensor([BIG, BIG])) + tsum(x * Tensor([BIG]))),
    "conv2d": (np.zeros((9, 1)), lambda k: tsum(ad.conv2d(Tensor(np.full((1, 4), 1e200)), k, (2, 2)) * Tensor(np.full((1, 4), 1e200)))),
    "avg_pool2x": (np.zeros((1, 4)), lambda x: tsum(ad.avg_pool2x(x, (2, 2)) * Tensor([[BIG]])) + tsum(x * Tensor(np.full((1, 4), 1.7e308)))),
    "upsample2x": (np.zeros((1, 1)), lambda x: tsum(ad.upsample2x(x, (1, 1)) * Tensor(np.full((1, 4), BIG)))),
}



def _one_layer_pass(x, w):
    """dense_pass with one hidden layer of weight ``w`` on ``x``, zero biases and an identity output layer."""
    return ad.dense_pass(x, [(w, Tensor([0.0]))], (Tensor([[1.0]]), Tensor([0.0])), 0.01)


# The one-node passes and losses, as FORWARD_FAILURES and BACKWARD_FAILURES
# have the primitives. l2_normalize_rows has no forward case: its forward
# cannot overflow once the norm check before it has passed
# (test_norm_overflow_raises_non_finite_value).
NODE_FORWARD_FAILURES = {
    "dense_pass": lambda: _one_layer_pass(Tensor([[1e200]]), Tensor([[1e200]])),
    "supervised_loss": lambda: supervised_loss(Tensor([[-BIG, BIG]]), [0]),
    "consistency_loss": lambda: consistency_loss(Tensor([[-BIG, BIG]]), np.zeros((1, 2))),
}
NODE_BACKWARD_FAILURES = {
    "dense_pass": (np.full((1, 1), 1e-200), lambda w: tsum(_one_layer_pass(Tensor([[1e200]]), w) * Tensor([[1e200]]))),
    "l2_normalize_rows": (np.full((1, 2), 1e-20), lambda x: tsum(ad.l2_normalize_rows(x) * Tensor([[BIG, BIG]]))),
    "supervised_loss": (
        np.zeros((1, 2)), lambda x: supervised_loss(x, [0]) * 1e308 + tsum(x * Tensor([[1.7e308, 1.7e308]]))
    ),
    "consistency_loss": (
        np.zeros((1, 2)),
        lambda x: consistency_loss(x, np.array([[0.0, 5.0]])) * 1e308 + tsum(x * Tensor([[1.7e308, 0.0]])),
    ),
}


@pytest.fixture
def strict_floats():
    """Any warning is an error, and NumPy's error state must be restored afterwards."""
    before = np.geterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        yield
    assert np.geterr() == before


class TestFloatingPointFlags:
    @pytest.mark.parametrize("where", ["eager", "tape"])
    @pytest.mark.parametrize("op", sorted(FORWARD_FAILURES))
    def test_forward_failure_names_the_op(self, strict_floats, op, where):
        with pytest.raises(NonFiniteValue, match=f"^op '{op}' produced NaN/Inf$"):
            if where == "tape":
                with GradTape():
                    FORWARD_FAILURES[op]()
            else:
                FORWARD_FAILURES[op]()

    @pytest.mark.parametrize("op", sorted(BACKWARD_FAILURES))
    def test_backward_failure_names_the_op(self, strict_floats, op):
        x0, loss = BACKWARD_FAILURES[op]
        x = Tensor(x0, requires_grad=True)
        with GradTape() as tape:
            out = loss(x)
        with pytest.raises(NonFiniteValue, match=f"^backward of op '{op}' produced NaN/Inf$"):
            tape.gradient(out, [x])

    def test_every_primitive_is_covered(self):
        primitives = {"add", "sub", "mul", "div", "matmul", "transpose", "exp", "log", "power",
                      "leaky_relu", "sum", "mean", "reshape", "concat", "conv2d", "avg_pool2x", "upsample2x"}
        assert set(BACKWARD_FAILURES) == primitives
        assert set(FORWARD_FAILURES) == primitives - {"transpose", "reshape", "concat", "upsample2x"}

    @pytest.mark.parametrize("where", ["eager", "tape"])
    @pytest.mark.parametrize("op", sorted(NODE_FORWARD_FAILURES))
    def test_node_forward_failure_names_the_node(self, strict_floats, op, where):
        with pytest.raises(NonFiniteValue, match=f"^op '{op}' produced NaN/Inf$"):
            with GradTape() if where == "tape" else contextlib.nullcontext():
                NODE_FORWARD_FAILURES[op]()

    @pytest.mark.parametrize("op", sorted(NODE_BACKWARD_FAILURES))
    def test_node_backward_failure_names_the_node(self, strict_floats, op):
        x0, loss = NODE_BACKWARD_FAILURES[op]
        x = Tensor(x0, requires_grad=True)
        with GradTape() as tape:
            out = loss(x)
        assert op in [n.op for n in tape.nodes]
        with pytest.raises(NonFiniteValue, match=f"^backward of op '{op}' produced NaN/Inf$"):
            tape.gradient(out, [x])

    @pytest.mark.parametrize("row", [0, -1])
    def test_threaded_product_overflow_names_matmul(self, strict_floats, row):
        # large enough for OpenBLAS to split across threads, whose overflow
        # flags never reach the calling thread
        a = np.ones((256, 512))
        a[row] = 1e306
        with pytest.raises(NonFiniteValue, match="^op 'matmul' produced NaN/Inf$"):
            Tensor(a) @ Tensor(np.ones((512, 64)))

    @pytest.mark.parametrize("where", ["tape", "finite_diff"])
    def test_numpy_error_between_ops_becomes_non_finite_value(self, strict_floats, where):
        def loss(q):
            np.exp(np.array([1000.0]))  # plain NumPy, not an op
            return tsum(q)

        p = Tensor([1.0], requires_grad=True)
        with pytest.raises(NonFiniteValue, match="^NaN/Inf outside an op: overflow"):
            if where == "tape":
                with GradTape():
                    loss(p)
            else:
                finite_diff_check(loss, [p])

    @pytest.mark.parametrize("where", ["eager", "tape"])
    def test_conv2d_bias_overflow_names_conv2d(self, strict_floats, where):
        kernel = np.zeros((9, 1))
        kernel[4] = BIG  # the centre tap: every output pixel of the ones image is BIG
        bias = Tensor([BIG], requires_grad=where == "tape")
        with pytest.raises(NonFiniteValue, match="^op 'conv2d' produced NaN/Inf$"):
            with GradTape() if where == "tape" else contextlib.nullcontext():
                ad.conv2d(Tensor(np.ones((1, 4))), Tensor(kernel), (2, 2), bias)

    def test_conv2d_bias_cotangent_overflow_names_conv2d(self, strict_floats):
        bias = Tensor(np.zeros(1), requires_grad=True)
        with GradTape() as tape:
            out = ad.conv2d(Tensor(np.zeros((1, 4))), Tensor(np.zeros((9, 1))), (2, 2), bias)
            loss = tsum(out * Tensor(np.full((1, 4), BIG)))  # the bias cotangent sums four BIGs
        with pytest.raises(NonFiniteValue, match="^backward of op 'conv2d' produced NaN/Inf$"):
            tape.gradient(loss, [bias])

    @pytest.mark.parametrize("where", ["eager", "tape"])
    def test_norm_overflow_raises_non_finite_value(self, strict_floats, where):
        x = Tensor([[1.0, 2.0], [1e200, 1e200]], requires_grad=True)
        with pytest.raises(NonFiniteValue, match="norm overflowed"):
            if where == "tape":
                with GradTape():
                    ad.l2_normalize_rows(x)
            else:
                ad.l2_normalize_rows(x)


class TestL2Normalize:
    """``l2_normalize_rows`` on one-row matrices."""

    def test_three_four_five(self):
        out = ad.l2_normalize_rows(Tensor([[3.0, 4.0]]))
        np.testing.assert_allclose(out.data, [[0.6, 0.8]], atol=1e-15)

    def test_axis_vector(self):
        out = ad.l2_normalize_rows(Tensor([[0.0, 0.0, 5.0]]))
        np.testing.assert_allclose(out.data, [[0.0, 0.0, 1.0]], atol=1e-15)

    def test_unit_vector_unchanged(self):
        rng = np.random.default_rng(0)
        v = rng.standard_normal((1, 16))
        v /= np.linalg.norm(v)
        out = ad.l2_normalize_rows(Tensor(v))
        np.testing.assert_allclose(out.data, v, atol=1e-12)
        assert abs(np.linalg.norm(out.data) - 1.0) < 1e-12

    def test_scale_invariance(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            v = rng.standard_normal((1, 8))
            s = float(rng.uniform(1e-6, 1e6))
            a = ad.l2_normalize_rows(Tensor(v)).data
            b = ad.l2_normalize_rows(Tensor(s * v)).data
            np.testing.assert_allclose(a, b, atol=1e-12)

    def test_norm_too_small(self):
        with pytest.raises(NormTooSmall):
            ad.l2_normalize_rows(Tensor([[0.0, 0.0]]))

    def test_gradient_flows(self):
        x = Tensor([[3.0, 4.0]], requires_grad=True)
        with GradTape() as tape:
            z = ad.l2_normalize_rows(x)
            out = tsum(z)
        (g,) = tape.gradient(out, [x])
        # d/dx sum(x/||x||) = (I - zz^T)/||x|| summed over rows
        z_ = np.array([0.6, 0.8])
        expected = (np.eye(2) - np.outer(z_, z_)).sum(axis=0) / 5.0
        np.testing.assert_allclose(g, [expected], atol=1e-12)


class TestL2NormalizeRowsNode:
    @pytest.mark.parametrize("rows, d", [(4, 1), (64, 1), (4, 4), (64, 4), (64, 12)])
    def test_value_and_cotangent_byte_equal_to_ops(self, rows, d):
        """Short rows and long, few rows and many, with signed zeros, subnormals and +-1e150."""
        rng = np.random.default_rng(rows + d)
        x0 = hostile(rng, (rows, d), 1e150)
        x0[:, 0] = np.where(rng.random(rows) < 0.2, 1e150, rng.standard_normal(rows))  # no row norm near 0
        g = Tensor(hostile(rng, (rows, d), 1e100))
        x = Tensor(x0, requires_grad=True)
        results = []
        for fn in (ad.l2_normalize_rows, op_l2_normalize_rows):
            with GradTape() as tape:
                out = fn(x * 1.0)
                loss = tsum(out * g)
            results.append([out.data, *tape.gradient(loss, [x])])
        assert all(_same_bytes(a, b) for a, b in zip(*results))


class TestGrad:
    def test_quadratic(self):
        x = Tensor(3.0, requires_grad=True)
        with GradTape() as tape:
            y = x * x
        (g,) = tape.gradient(y, [x])
        assert g == pytest.approx(6.0, abs=1e-12)

    def test_constant_has_zero_gradient(self):
        x = Tensor(3.0, requires_grad=True)
        c = Tensor(7.0)
        with GradTape() as tape:
            y = sub(c * c + x, x)
        (gx,) = tape.gradient(y, [x])
        assert gx == 0.0

    def test_disconnected_param_zero_and_flagged(self):
        x = Tensor(2.0, requires_grad=True)
        z = Tensor([1.0, 1.0], requires_grad=True, name="unused")
        with GradTape() as tape:
            y = x * x
        with pytest.warns(DisconnectedParamWarning):
            gx, gz = tape.gradient(y, [x, z])
        assert gx == pytest.approx(4.0)
        np.testing.assert_array_equal(gz, np.zeros(2))

    def test_shared_subexpression(self):
        x = Tensor(2.0, requires_grad=True)
        with GradTape() as tape:
            y = (x + 1.0) * (x + 1.0) + x * x
        (g,) = tape.gradient(y, [x])
        assert g == pytest.approx(2 * 3.0 + 2 * 2.0)

    def test_matmul_and_broadcast_bias(self):
        rng = np.random.default_rng(2)
        w = Tensor(rng.standard_normal((3, 4)), requires_grad=True, name="w")
        b = Tensor(rng.standard_normal(4), requires_grad=True, name="b")
        x = Tensor(rng.standard_normal((5, 3)))
        with GradTape() as tape:
            out = tsum(power(x @ w + b, 2.0))
        gw, gb = tape.gradient(out, [w, b])
        h = x.data @ w.data + b.data
        np.testing.assert_allclose(gw, x.data.T @ (2 * h), atol=1e-12)
        np.testing.assert_allclose(gb, (2 * h).sum(axis=0), atol=1e-12)

    def test_taped_op_outputs_require_grad_eager_ones_do_not(self):
        x = Tensor(3.0, requires_grad=True)
        eager = x * 2.0
        assert not eager.requires_grad
        with GradTape() as tape:
            const = Tensor(2.0) * 2.0
            y = x * 2.0
            z = y + const
        assert not const.requires_grad
        assert y.requires_grad and z.requires_grad
        assert [(n.op, n.output) for n in tape.nodes] == [("mul", y), ("add", z)]
        # the flag outlives the tape: a later tape differentiates through y as a leaf
        with GradTape() as later:
            w = y * y
        (g,) = later.gradient(w, [y])
        assert g == 12.0


class TestTapeReplay:
    def test_replay_bit_identical(self):
        rng = np.random.default_rng(3)
        x = Tensor(rng.standard_normal((4, 4)), requires_grad=True)
        with GradTape() as tape:
            out = tmean(log(tsum(exp(x @ x.T), axis=1) + 1.0))
        replayed = tape.replay()
        assert replayed == out.data  # bit-for-bit

    def test_replay_many_random_programs(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            a = Tensor(rng.standard_normal((3, 3)), requires_grad=True)
            b = Tensor(rng.standard_normal((3, 3)), requires_grad=True)
            with GradTape() as tape:
                out = tmean(power(sub(a @ b, a * 0.5).leaky_relu(0.1), 2.0))
            assert tape.replay() == out.data


def _random_params(rng, shapes):
    return [Tensor(0.5 * rng.standard_normal(s), requires_grad=True, name=f"p{i}") for i, s in enumerate(shapes)]


class TestFiniteDiffCheck:
    def test_quadratic_tight(self):
        rng = np.random.default_rng(5)
        (p,) = _random_params(rng, [(6,)])
        report = finite_diff_check(lambda q: tsum(q * q), [p], step=1e-5, tolerance=1e-8)
        assert report.passed
        assert report.max_rel_error < 1e-8

    def test_step_precondition(self):
        p = Tensor([1.0], requires_grad=True)
        with pytest.raises(ValueError):
            finite_diff_check(lambda q: tsum(q * q), [p], step=0.5)

    def test_composite_passes_at_1e4(self):
        rng = np.random.default_rng(6)
        w, b = _random_params(rng, [(4, 3), (3,)])
        x = Tensor(rng.standard_normal((5, 4)))

        def f(w_, b_):
            h = (x @ w_ + b_).leaky_relu(0.01)
            return tmean(h * h) + log(tsum(exp(h)))

        report = finite_diff_check(f, [w, b], step=1e-5, tolerance=1e-4)
        assert report.passed, report

    def test_corrupted_gradient_fails(self):
        p = Tensor([1.0, 2.0], requires_grad=True)

        def broken(q):
            # exp with a deliberately wrong backward rule
            return tsum(ad._apply(
                "bad_exp",
                (q,),
                np.exp,
                lambda datas, out: lambda g: (g * out * 3.0,),
            ))

        report = finite_diff_check(broken, [p], step=1e-5, tolerance=1e-4)
        assert not report.passed

    def test_randomized_gradients_100_trials(self):
        """Analytic gradients match central differences across random programs."""
        rng = np.random.default_rng(7)
        for _ in range(100):
            w = Tensor(rng.standard_normal((3, 2)), requires_grad=True)
            x = Tensor(rng.standard_normal((2, 3)))

            def f(w_):
                m = x @ w_
                return tmean(log(exp(m) + 1.0) * m) + power(tsum(power(m, 2.0)), 0.5)

            report = finite_diff_check(f, [w], step=1e-5, tolerance=1e-4)
            assert report.passed, report


class TestConcatReshape:
    def test_concat_gradient_splits(self):
        a = Tensor([[1.0, 2.0]], requires_grad=True)
        b = Tensor([[3.0, 4.0], [5.0, 6.0]], requires_grad=True)
        with GradTape() as tape:
            out = tsum(ad.concat([a, b], axis=0) * Tensor([[1.0, 0.0], [0.0, 1.0], [2.0, 2.0]]))
        ga, gb = tape.gradient(out, [a, b])
        np.testing.assert_array_equal(ga, [[1.0, 0.0]])
        np.testing.assert_array_equal(gb, [[0.0, 1.0], [2.0, 2.0]])

    def test_reshape_roundtrip_gradient(self):
        x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        with GradTape() as tape:
            out = tsum(power(x.reshape(6), 2.0))
        (g,) = tape.gradient(out, [x])
        np.testing.assert_allclose(g, 2 * x.data)


# The pre-change formulas of the conv path, kept as a byte-level reference:
# a fancy-index im2col whose reshape copies, and broadcast-reshape-copy
# pooling and upsampling.
def _ref_im2col(xd, hw, k, channels):
    h, w = hw
    b = xd.shape[0]
    padded = np.concatenate([xd.reshape(b, h * w, channels), np.zeros((b, 1, channels))], axis=1)
    return padded[:, ad._patch_indices(h, w, k), :].reshape(b * h * w, k * k * channels)


def _ref_conv2d(xd, kd, hw, k, cin, cout, g):
    h, w = hw
    b = xd.shape[0]
    out = (_ref_im2col(xd, hw, k, cin) @ kd).reshape(b, h * w * cout)
    flipped = kd.reshape(k, k, cin, cout)[::-1, ::-1].transpose(0, 1, 3, 2).reshape(k * k * cout, cin)
    g_kernel = _ref_im2col(xd, hw, k, cin).T @ g.reshape(b * h * w, cout)
    g_x = (_ref_im2col(g, hw, k, cout) @ flipped).reshape(b, h * w * cin)
    return out, g_x, g_kernel


def _ref_pool_backward(g, hw, c):
    h, w = hw
    b = g.shape[0]
    g_grid = g.reshape(b, h // 2, 1, w // 2, 1, c) / 4.0
    return np.broadcast_to(g_grid, (b, h // 2, 2, w // 2, 2, c)).reshape(b, h * w * c).copy()


def _ref_upsample(xd, hw, c):
    h, w = hw
    b = xd.shape[0]
    grid = xd.reshape(b, h, 1, w, 1, c)
    return np.broadcast_to(grid, (b, h, 2, w, 2, c)).reshape(b, 4 * h * w * c).copy()


def _same_bytes(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _recorded(op_fn, *inputs):
    """Output tensor and backward closure of one op recorded on a fresh tape."""
    with GradTape() as tape:
        out = op_fn(*inputs)
    return out, tape.nodes[-1].backward_fn


class TestConvPath:
    @pytest.mark.parametrize("k", [3, 1])
    def test_conv2d_matches_finite_differences(self, k):
        rng = np.random.default_rng(11 + k)
        hw, cin, cout = (4, 6), 2, 3
        x = Tensor(rng.standard_normal((2, 4 * 6 * cin)), requires_grad=True, name="x")
        kernel = Tensor(rng.standard_normal((k * k * cin, cout)), requires_grad=True, name="kernel")
        weights = Tensor(rng.standard_normal((2, 4 * 6 * cout)))

        report = finite_diff_check(
            lambda x_, k_: tsum(ad.conv2d(x_, k_, hw) * weights), [x, kernel], tolerance=1e-4
        )
        assert report.passed, report

    @pytest.mark.parametrize("op, out_pixels", [("avg_pool2x", 2 * 3), ("upsample2x", 8 * 12)])
    def test_pool_and_upsample_match_finite_differences(self, op, out_pixels):
        rng = np.random.default_rng(17)
        hw, c = (4, 6), 2
        x = Tensor(rng.standard_normal((2, 4 * 6 * c)), requires_grad=True, name="x")
        weights = Tensor(rng.standard_normal((2, out_pixels * c)))
        fn = getattr(ad, op)

        report = finite_diff_check(lambda x_: tsum(fn(x_, hw) * weights), [x], tolerance=1e-4)
        assert report.passed, report

    def test_outputs_and_cotangents_byte_equal_to_reference(self):
        rng = np.random.default_rng(23)
        for _ in range(40):
            b, cin, cout = (int(v) for v in rng.integers(1, 5, size=3))
            hw = tuple(int(2 * v) for v in rng.integers(1, 5, size=2))
            k = int(rng.choice([1, 3]))
            h, w = hw
            x = Tensor(rng.standard_normal((b, h * w * cin)), requires_grad=True)
            kernel = Tensor(rng.standard_normal((k * k * cin, cout)), requires_grad=True)
            g = rng.standard_normal((b, h * w * cout))
            out, back = _recorded(ad.conv2d, x, kernel, hw)
            ref_out, ref_gx, ref_gk = _ref_conv2d(x.data, kernel.data, hw, k, cin, cout, g)
            g_x, g_kernel = back(g)
            assert _same_bytes(out.data, ref_out)
            assert _same_bytes(g_x, ref_gx) and _same_bytes(g_kernel, ref_gk)

            pooled, back = _recorded(ad.avg_pool2x, x, hw)
            g = rng.standard_normal(pooled.shape)
            (g_pool,) = back(g)
            assert _same_bytes(g_pool, _ref_pool_backward(g, hw, cin))

            up = ad.upsample2x(x, hw)
            assert _same_bytes(up.data, _ref_upsample(x.data, hw, cin))

    @pytest.mark.parametrize("source", ["requires_grad", "upstream_op"])
    def test_conv2d_input_cotangent_only_when_tracked(self, source):
        rng = np.random.default_rng(29)
        hw, k, cin, cout = (4, 6), 3, 2, 3
        xd = rng.standard_normal((2, 4 * 6 * cin))
        kernel = Tensor(rng.standard_normal((k * k * cin, cout)), requires_grad=True)
        g = rng.standard_normal((2, 4 * 6 * cout))
        _, ref_gx, ref_gk = _ref_conv2d(xd, kernel.data, hw, k, cin, cout, g)

        _, back = _recorded(ad.conv2d, Tensor(xd), kernel, hw)  # a constant image batch
        const_gx, const_gk = back(g)
        assert const_gx is None
        assert _same_bytes(const_gk, ref_gk)

        with GradTape() as tape:
            if source == "requires_grad":
                x = Tensor(xd, requires_grad=True)
            else:  # the output of a taped op on a tracked tensor: the tape sets requires_grad
                x = Tensor(xd / 2.0, requires_grad=True) * 2.0
            ad.conv2d(x, kernel, hw)
        g_x, g_kernel = tape.nodes[-1].backward_fn(g)
        assert _same_bytes(g_x, ref_gx)
        assert _same_bytes(g_kernel, const_gk)


def _hostile(rng, shape):
    """Ordinary values of many magnitudes mixed with signed zeros, subnormals and 1e300."""
    pool = np.array([0.0, -0.0, 5e-324, -5e-324, 2.5e-310, -1e-308, 1e300, -1e300, 1.0, -3.5])
    ordinary = rng.standard_normal(shape) * 10.0 ** rng.integers(-20, 21, shape)
    return np.where(rng.random(shape) < 0.5, rng.choice(pool, shape), ordinary)


class TestConvPathFastPaths:
    """The maximum-form LeakyReLU, the strided 2x2 adds and the bias inside conv2d against the general forms."""

    @pytest.mark.parametrize("slope", [0.0, 0.01, 0.5, 1.0, -0.0, -0.1, 2.0, 1e10])
    def test_leaky_relu_byte_equal_to_where(self, monkeypatch, slope):
        rng = np.random.default_rng(3)
        scale = max(1.0, slope)  # keep slope * x finite for the steep fallback slopes
        xd = _hostile(rng, (64, 7)) / scale
        xd[0], xd[1] = 0.0, -0.0
        g = _hostile(rng, (64, 7)) / scale
        where_calls = []
        real_where = np.where
        monkeypatch.setattr(np, "where", lambda *args: where_calls.append(1) or real_where(*args))
        out, back = _recorded(ad.leaky_relu, Tensor(xd, requires_grad=True), slope)
        (g_x,) = back(g)
        monkeypatch.undo()
        assert _same_bytes(out.data, np.where(xd > 0.0, xd, slope * xd))
        assert _same_bytes(g_x, g * np.where(xd > 0.0, 1.0, slope))
        fast = 0.0 <= slope <= 1.0 and math.copysign(1.0, slope) > 0.0
        assert bool(where_calls) != fast  # np.where serves exactly the slopes outside [+0.0, 1]

    @pytest.mark.parametrize(
        "b, hw, c",
        [(1, (2, 2), 1), (1, (2, 2), 3), (2, (4, 6), 1), (3, (4, 4), 2), (1, (8, 4), 6), (8, (16, 16), 6),
         (2, (8, 8), 12), (2, (2, 8), 1)],
    )
    def test_window_sums_byte_equal_to_numpy(self, b, hw, c):
        rng = np.random.default_rng(b * 100 + c)
        h, w = hw
        xd = _hostile(rng, (b, h * w * c))
        xd.reshape(b, h // 2, 2, w // 2, 2, c)[:, ::2, :, ::2, :, ::2] = -0.0  # whole windows of -0.0
        pooled = ad.avg_pool2x(Tensor(xd), hw)
        assert _same_bytes(pooled.data, xd.reshape(b, h // 2, 2, w // 2, 2, c).mean(axis=(2, 4)).reshape(b, -1))

        _, back = _recorded(ad.upsample2x, Tensor(np.zeros((b, h * w * c // 4)), requires_grad=True), (h // 2, w // 2))
        for g in (xd, np.asfortranarray(xd)):  # a cotangent that is not C-contiguous goes to np.sum
            (g_x,) = back(g)
            assert _same_bytes(g_x, g.reshape(b, h // 2, 2, w // 2, 2, c).sum(axis=(2, 4)).reshape(b, -1))

    @pytest.mark.parametrize("k", [1, 3])
    def test_conv2d_bias_byte_equal_to_reshape_add_reshape(self, k):
        rng = np.random.default_rng(50 + k)
        for _ in range(10):
            b, cin, cout = (int(v) for v in rng.integers(1, 5, size=3))
            h, w = (int(2 * v) for v in rng.integers(1, 5, size=2))
            x = Tensor(rng.standard_normal((b, h * w * cin)), requires_grad=True)
            kernel = Tensor(rng.standard_normal((k * k * cin, cout)), requires_grad=True)
            bias = Tensor(rng.standard_normal(cout), requires_grad=True)
            weights = Tensor(rng.standard_normal((b, h * w * cout)))

            def separate(x, kernel, bias):
                out = ad.conv2d(x, kernel, (h, w))
                return (out.reshape(b * h * w, cout) + bias).reshape(b, h * w * cout)

            results = []
            for conv in (separate, lambda x, kernel, bias: ad.conv2d(x, kernel, (h, w), bias)):
                with GradTape() as tape:
                    out = conv(x, kernel, bias)
                    loss = tsum(out * weights)
                results.append([out.data, *tape.gradient(loss, [x, kernel, bias])])
            assert all(_same_bytes(a, b) for a, b in zip(*results))

    def test_one_by_one_conv2d_byte_equal_to_gathered_columns(self):
        rng = np.random.default_rng(61)
        b, hw, cin, cout = 3, (4, 6), 5, 2
        x = Tensor(rng.standard_normal((b, 24 * cin)), requires_grad=True)
        kernel = Tensor(rng.standard_normal((cin, cout)), requires_grad=True)
        bias = Tensor(rng.standard_normal(cout), requires_grad=True)
        g = rng.standard_normal((b, 24 * cout))
        ref_out, ref_gx, ref_gk = _ref_conv2d(x.data, kernel.data, hw, 1, cin, cout, g)
        out, back = _recorded(ad.conv2d, x, kernel, hw, bias)
        g_x, g_kernel, g_bias = back(g)
        assert _same_bytes(out.data, (ref_out.reshape(-1, cout) + bias.data).reshape(b, -1))
        assert _same_bytes(g_x, ref_gx) and _same_bytes(g_kernel, ref_gk)
        assert _same_bytes(g_bias, g.reshape(-1, cout).sum(axis=0))

    def test_conv2d_bias_shape_checked(self):
        with pytest.raises(ShapeMismatch, match="bias must have shape"):
            ad.conv2d(Tensor(np.ones((1, 4))), Tensor(np.ones((9, 2))), (2, 2), Tensor(np.ones(3)))


def _leaky(z, slope):
    return np.where(z > 0.0, z, slope * z)


def _dense_segment_pre_activations(model, images):
    """Every leaky_relu input of a dense ``segment_batch``, recomputed in NumPy."""
    p = {k: v.data for k, v in model.params.items()}
    cfg = model.config
    h = images.reshape(images.shape[0], -1)
    pre = []
    for i in range(len(cfg.encoder_widths)):
        pre.append(h @ p[f"enc.{i}.w"] + p[f"enc.{i}.b"])
        h = _leaky(pre[-1], cfg.leaky_slope)
        if i == 0:
            skip = h
    pre.append(h @ p["dec.0.w"] + p["dec.0.b"])
    pre.append(skip @ p["dec.skip.w"] + p["dec.skip.b"])
    return pre


def _conv_embed_pre_activations(model, images):
    """Every leaky_relu input of a conv ``embed_batch``, recomputed in NumPy."""
    p = {k: v.data for k, v in model.params.items()}
    cfg = model.config
    (h, w), (c1, c2) = cfg.image_shape, cfg.conv_channels
    b = images.shape[0]
    pre = []

    def block(x, name, hw, cin, cout):
        pre.append(_ref_im2col(x, hw, 3, cin) @ p[f"{name}.w"] + p[f"{name}.b"])
        act = _leaky(pre[-1], cfg.leaky_slope)
        return act.reshape(b, hw[0] // 2, 2, hw[1] // 2, 2, cout).mean(axis=(2, 4)).reshape(b, -1)

    x = block(images.reshape(b, h * w), "enc.c0", (h, w), 1, c1)
    x = block(x, "enc.c1", (h // 2, w // 2), c1, c2)
    pre.append(x @ p["enc.proj.w"] + p["enc.proj.b"])
    pre.append(_leaky(pre[-1], cfg.leaky_slope) @ p["head.0.w"] + p["head.0.b"])
    return pre


def _dense_embed_pre_activations(model, images):
    """Every leaky_relu input of a dense ``embed_batch``, recomputed in NumPy."""
    p = {k: v.data for k, v in model.params.items()}
    cfg = model.config
    h = images.reshape(images.shape[0], -1)
    pre = []
    for name in [f"enc.{i}" for i in range(len(cfg.encoder_widths))] + ["head.0"]:
        pre.append(h @ p[f"{name}.w"] + p[f"{name}.b"])
        h = _leaky(pre[-1], cfg.leaky_slope)
    return pre


class TestMinKinkDistance:
    def test_gradcheck_dense_model_matches_hand_pre_activations(self):
        model = ParamModel(_GRADCHECK_MODEL)
        images = np.random.default_rng(5).random((4, 4, 4))
        expected = min(float(np.abs(z).min()) for z in _dense_segment_pre_activations(model, images))
        assert ad.min_kink_distance(model.segment_batch, images) == expected

    def test_conv_model_matches_hand_pre_activations(self):
        model = ParamModel(ModelConfig(image_shape=(8, 8), conv_channels=(2, 3), head_hidden=5, embed_dim=4, seed=7))
        images = np.random.default_rng(6).random((3, 8, 8))
        expected = min(float(np.abs(z).min()) for z in _conv_embed_pre_activations(model, images))
        assert ad.min_kink_distance(lambda: model.embed_batch(images)) == expected

    def test_dense_embed_matches_hand_pre_activations(self):
        model = ParamModel(replace(_GRADCHECK_MODEL, encoder_widths=(8, 6, 4)))
        images = np.random.default_rng(7).random((8, 4, 4))
        pre = _dense_embed_pre_activations(model, images)
        assert len(pre) == 4
        expected = min(float(np.abs(z).min()) for z in pre)
        assert ad.min_kink_distance(lambda: model.embed_batch(images)) == expected

    def test_no_recorded_leaky_relu_gives_inf(self):
        x = Tensor(np.array([-1.0, 2.0]), requires_grad=True)
        assert ad.min_kink_distance(lambda: tsum(x * 2.0)) == float("inf")
        assert ad.min_kink_distance(lambda: Tensor([0.5, -3.0]).leaky_relu()) == float("inf")


def _hostile_rows(rng, rows, n):
    """Rows mixing ordinary values, signed zeros, subnormals and 1e300, plus all-zero rows of either sign."""
    pool = np.array([0.0, -0.0, 5e-324, -5e-324, 2.5e-310, -1e-308, 1e300, -1e300, 1.0, -3.5])
    x = np.where(rng.random((rows, n)) < 0.5, rng.choice(pool, (rows, n)), rng.standard_normal((rows, n)))
    x[0] = 0.0
    x[1] = -0.0
    x[2, ::2] = -0.0
    return x


class TestShortRows:
    """``row_sums``/``row_maxes`` and the ops that use them against NumPy's own row reductions."""

    @pytest.mark.parametrize("n", range(1, 10))
    def test_row_reductions_byte_equal_to_numpy(self, n):
        rng = np.random.default_rng(n)
        for rows in (3, 64, 2048):
            x = _hostile_rows(rng, rows, n)
            assert _same_bytes(ad.row_sums(x), np.sum(x, axis=1, keepdims=True))
            assert _same_bytes(ad.row_maxes(x), np.max(x, axis=1, keepdims=True))
            f = np.asfortranarray(x)  # not C-contiguous: handed to NumPy
            assert _same_bytes(ad.row_sums(f), np.sum(f, axis=1, keepdims=True))

    @pytest.mark.parametrize("n", [2, 5, 8])
    def test_ops_reduce_rows_as_numpy_does(self, n):
        rng = np.random.default_rng(40 + n)
        x = Tensor(_hostile_rows(rng, 64, n), requires_grad=True)
        g = _hostile_rows(rng, 64, n)
        assert _same_bytes(tsum(x, axis=1, keepdims=True).data, np.sum(x.data, axis=1, keepdims=True))
        assert _same_bytes(detached_max(x, axis=1, keepdims=True).data, np.max(x.data, axis=1, keepdims=True))
        column = Tensor(rng.standard_normal((64, 1)), requires_grad=True)
        _, back = _recorded(sub, Tensor(np.zeros((64, n))), column)
        assert _same_bytes(back(g)[1], (-g).sum(axis=1, keepdims=True))


class TestMatmulCotangents:
    @pytest.mark.parametrize("tracked", ["left", "right", "both"])
    def test_cotangent_only_for_tracked_operands(self, tracked):
        rng = np.random.default_rng(31)
        ad_, bd = rng.standard_normal((5, 4)), rng.standard_normal((4, 3))
        g = rng.standard_normal((5, 3))
        a = Tensor(ad_, requires_grad=tracked in ("left", "both"))
        b = Tensor(bd, requires_grad=tracked in ("right", "both"))
        _, back = _recorded(ad.matmul, a, b)
        g_a, g_b = back(g)
        assert (g_a is None) == (tracked == "right") and (g_b is None) == (tracked == "left")
        if g_a is not None:
            assert _same_bytes(g_a, g @ bd.T)
        if g_b is not None:
            assert _same_bytes(g_b, ad_.T @ g)


class TestFreshViews:
    def test_fresh_view_is_frozen_in_place(self):
        flat = np.arange(12.0)
        t = Tensor(flat[2:8].reshape(2, 3), _fresh=True)
        assert np.shares_memory(t.data, flat) and not t.data.flags.writeable

    def test_op_output_viewing_an_input_is_still_copied(self):
        v = Tensor(np.arange(4.0)[1:], requires_grad=True)
        with GradTape():
            out = v.T
        assert not np.shares_memory(out.data, v.data)
        assert _same_bytes(out.data, v.data)
