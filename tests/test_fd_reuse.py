"""Reuse inside ``finite_diff_check``'s perturbation loop: same bits, narrow keys, no leaks.

Each eager evaluation in ``autodiff._reusing_evaluations`` may reuse what
the previous one computed from identical operands: ``dense_pass``'s leading
layers, ``supervised_loss``'s validated one-hot and ``consistency_loss``'s
teacher probabilities. These tests hold the reused values to a fresh call
outside the scope, byte for byte, and check what must miss: a perturbed
layer and everything after it, a signed zero, an array written in place.
"""

import numpy as np
import pytest

from spcl import autodiff as ad
from spcl.autodiff import GradTape, Tensor, finite_diff_check
from spcl.errors import InvalidConfig, NonFiniteValue
from spcl.models import ModelConfig, ParamModel
from spcl.semi_supervised import consistency_loss, supervised_loss
from spcl.verify import _GRADCHECK_MODEL

# the acceptance suite's directional experiment trains this dense model on 16x16 slices
DIRECTIONAL_MODEL = ModelConfig(image_shape=(16, 16), arch="dense", skip_width=16)

# each pass's dense layers in computation order: hidden, skip, then the output layer
PASSES = {
    "segment": (ParamModel.segment_batch, ["enc.0", "enc.1", "dec.0", "dec.skip", "dec.out"]),
    "embed": (ParamModel.embed_batch, ["enc.0", "enc.1", "head.0", "head.1"]),
}


def _bits(t: Tensor) -> bytes:
    return t.data.tobytes()


@pytest.fixture
def products(monkeypatch):
    """The operand shapes of every ``_product`` call a dense pass makes, one per layer it computes."""
    calls = []
    real = ad._product

    def counted(x, y):
        calls.append((x.shape, y.shape))
        return real(x, y)

    monkeypatch.setattr(ad, "_product", counted)
    return calls


def _perturbed(model: ParamModel, name: str, step: float = 1e-5) -> ParamModel:
    """``model`` with coordinate 0 of ``name`` moved by ``step``, in a new array, as ``finite_diff_check`` does."""
    data = model.params[name].data.copy()
    data.reshape(-1)[0] += step
    return ParamModel(model.config, {**model.params, name: Tensor(data, name=name)})


class TestDenseLayers:
    @pytest.mark.parametrize("config", [_GRADCHECK_MODEL, DIRECTIONAL_MODEL], ids=["gradcheck", "directional"])
    @pytest.mark.parametrize("pass_name", sorted(PASSES))
    def test_each_perturbed_layer_matches_a_fresh_call(self, config, pass_name, products):
        run, layers = PASSES[pass_name]
        model = ParamModel(config)
        images = np.random.default_rng(0).random((4, *config.image_shape))
        for pos, layer in enumerate(layers):
            for part in ("w", "b"):
                moved = _perturbed(model, f"{layer}.{part}")
                with ad._reusing_evaluations():
                    run(model, images)
                    products.clear()
                    inside = run(moved, images)
                    # the layers before the perturbed one are reused, it and the rest recomputed
                    assert len(products) == len(layers) - pos, (layer, part)
                    back = run(model, images)
                assert _bits(inside) == _bits(run(moved, images)), (layer, part)
                assert _bits(back) == _bits(run(model, images)), (layer, part)

    def test_unchanged_parameters_recompute_only_the_output_layer(self, products):
        model = ParamModel(_GRADCHECK_MODEL)
        images = np.random.default_rng(1).random((4, 4, 4))
        with ad._reusing_evaluations():
            model.segment_batch(images)
            products.clear()
            again = model.segment_batch(images)
        assert len(products) == 1
        assert _bits(again) == _bits(model.segment_batch(images))

    def test_byte_equal_rows_are_reused_and_a_signed_zero_is_not(self, products):
        model = ParamModel(_GRADCHECK_MODEL)
        images = np.random.default_rng(2).random((4, 4, 4))
        images[1, 2, 3] = 0.0
        signed = images.copy()
        signed[1, 2, 3] = -0.0
        with ad._reusing_evaluations():
            model.segment_batch(images)
            products.clear()
            copy = model.segment_batch(images.copy())  # a distinct array with the same bytes
            assert len(products) == 1
            products.clear()
            negative = model.segment_batch(signed)
            assert len(products) == 5
        assert _bits(copy) == _bits(model.segment_batch(images))
        assert _bits(negative) == _bits(model.segment_batch(signed))

    def test_a_failed_pass_leaves_the_store_as_it_was(self):
        model = ParamModel(_GRADCHECK_MODEL)
        images = np.random.default_rng(3).random((4, 4, 4))
        with ad._reusing_evaluations():
            model.segment_batch(images)
            before = ad._reuse["dense_pass"]
            one, zero = Tensor([[1.0]]), Tensor([0.0])
            with pytest.raises(NonFiniteValue, match="op 'dense_pass'"):
                # the hidden layer passes, the output layer overflows
                ad.dense_pass(Tensor([[1e200]]), [(one, zero)], (Tensor([[1e200]]), zero), 0.01)
            assert ad._reuse["dense_pass"] is before


class TestLossConstants:
    def test_target_is_revalidated_when_its_bytes_change(self):
        rng = np.random.default_rng(4)
        logits = Tensor(rng.standard_normal((4, 4, 4, 2)))
        target = rng.integers(0, 2, size=(4, 4, 4))
        with ad._reusing_evaluations():
            supervised_loss(logits, target)
            onehot = ad._reuse["supervised_loss"][1]
            supervised_loss(logits, target.copy())
            assert ad._reuse["supervised_loss"][1] is onehot
            target[0, 0, 0] = 1 - target[0, 0, 0]  # in place, between evaluations
            mutated = target.copy()
            inside = supervised_loss(logits, target)
            assert ad._reuse["supervised_loss"][1] is not onehot
            kept = ad._reuse["supervised_loss"]
            target[0, 0, 1] = 2
            with pytest.raises(InvalidConfig, match="target labels"):
                supervised_loss(logits, target)
            assert ad._reuse["supervised_loss"] is kept
        assert _bits(inside) == _bits(supervised_loss(logits, mutated))

    def test_teacher_probabilities_are_recomputed_when_the_logits_change(self):
        rng = np.random.default_rng(5)
        student = Tensor(rng.standard_normal((4, 4, 4, 2)))
        teacher = rng.standard_normal((4, 4, 4, 2))
        teacher[0, 0, 0, 0] = 0.0
        with ad._reusing_evaluations():
            consistency_loss(student, teacher)
            probs = ad._reuse["consistency_loss"][1]
            consistency_loss(student, Tensor(teacher))  # a Tensor over the same bytes
            assert ad._reuse["consistency_loss"][1] is probs
            teacher[0, 0, 0, 0] = -0.0  # in place, a signed zero only
            consistency_loss(student, teacher)
            assert ad._reuse["consistency_loss"][1] is not probs
            teacher[1, 1, 1, 1] += 0.5
            inside = consistency_loss(student, teacher)
        assert _bits(inside) == _bits(consistency_loss(student, teacher))


class _SpyStore(dict):
    """A reuse store that records every read and write a site makes."""

    def __init__(self):
        super().__init__()
        self.reads, self.writes = [], []

    def get(self, key, default=None):
        self.reads.append(key)
        return super().get(key, default)

    def __setitem__(self, key, value):
        self.writes.append(key)
        super().__setitem__(key, value)


class TestScope:
    def _inputs(self):
        rng = np.random.default_rng(6)
        return ParamModel(_GRADCHECK_MODEL), rng.random((4, 4, 4)), rng.integers(0, 2, (4, 4, 4)), rng.random((4, 4, 4, 2))

    def test_taped_calls_neither_read_nor_fill_the_store(self):
        model, images, target, teacher = self._inputs()
        with ad._reusing_evaluations():
            spy = ad._reuse = _SpyStore()
            with GradTape():
                logits = model.segment_batch(images)
                supervised_loss(logits, target)
                consistency_loss(logits, teacher)
                model.embed_batch(images)
            assert spy.reads == spy.writes == []
            logits = model.segment_batch(images)  # eager: the sites use the store
            supervised_loss(logits, target)
            consistency_loss(logits, teacher)
            assert spy.writes == ["dense_pass", "supervised_loss", "consistency_loss"]
        assert ad._reuse is None

    def test_nothing_is_reused_outside_the_scope(self, products):
        model, images, _, _ = self._inputs()
        model.segment_batch(images)
        products.clear()
        model.segment_batch(images)
        assert len(products) == 5
        assert ad._reuse is None

    def test_store_is_cleared_when_an_evaluation_raises(self):
        model, images, _, _ = self._inputs()
        with pytest.raises(NonFiniteValue):
            with ad._reusing_evaluations():
                model.segment_batch(images)
                assert "dense_pass" in ad._reuse
                big = Tensor([[1e200]])
                ad.dense_pass(big, [(big, Tensor([0.0]))], (Tensor([[1.0]]), Tensor([0.0])), 0.01)
        assert ad._reuse is None

    def test_store_is_cleared_after_finite_diff_check_raises(self):
        model, images, _, _ = self._inputs()
        names = sorted(model.params)

        def loss(*ts):
            logits = ParamModel(model.config, dict(zip(names, ts))).segment_batch(images)
            # only the untaped evaluations overflow, inside the reuse scope
            scale = 1.0 if ad.active_tape() else 1e308
            return consistency_loss(logits, np.zeros(logits.shape)) * scale * scale

        with pytest.raises(NonFiniteValue):
            finite_diff_check(loss, [model.params[n] for n in names])
        assert ad._reuse is None
