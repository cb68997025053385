"""Encoder/head/decoder stack, EMA teacher, checkpoint round trip."""

import io
import json
import re
import warnings
from dataclasses import replace

import numpy as np
import pytest

from conftest import hostile, op_model_pass, same_bytes, tsum
from spcl.autodiff import GradTape, Tensor, finite_diff_check
from spcl.errors import DataError, NonFiniteValue, ShapeMismatch
from spcl.models import EmaTeacher, ModelConfig, ParamModel, ema_update
from spcl.optim import RAdam

TINY = ModelConfig(
    image_shape=(4, 4), num_classes=2, arch="dense", encoder_widths=(8, 4),
    head_hidden=6, embed_dim=4, decoder_width=6, skip_width=3, seed=3,
)
TINY_CONV = ModelConfig(
    image_shape=(8, 8), num_classes=2, arch="conv", conv_channels=(3, 4),
    head_hidden=8, embed_dim=6, seed=5,
)


def npy_bytes() -> bytes:
    buf = io.BytesIO()
    np.save(buf, np.zeros(3))
    return buf.getvalue()


class TestEmbed:
    def test_unit_norm(self, rng):
        model = ParamModel(TINY)
        z = model.embed_batch(rng.random((4, 4)))
        assert z.shape == (1, 4)
        assert abs(np.linalg.norm(z.data) - 1.0) < 1e-10

    def test_deterministic(self, rng):
        model = ParamModel(TINY)
        x = rng.random((4, 4))
        assert np.array_equal(model.embed_batch(x).data, model.embed_batch(x).data)

    def test_distinct_inputs_distinct_embeddings(self, rng):
        model = ParamModel(TINY)
        a = model.embed_batch(rng.random((4, 4))).data[0]
        b = model.embed_batch(rng.random((4, 4))).data[0]
        assert float(a @ b) < 1.0 - 1e-6

    def test_batch_matches_single(self, rng):
        model = ParamModel(TINY)
        images = rng.random((3, 4, 4))
        batched = model.embed_batch(images).data
        for i in range(3):
            np.testing.assert_allclose(batched[i], model.embed_batch(images[i]).data[0], atol=1e-12)


class TestSegment:
    def test_output_shape(self, rng):
        model = ParamModel(ModelConfig(image_shape=(16, 16), num_classes=2))
        logits = model.segment_batch(rng.random((16, 16)))
        assert logits.shape == (1, 16, 16, 2)

    def test_conv_output_shape_and_unit_embedding(self, rng):
        model = ParamModel(TINY_CONV)
        logits = model.segment_batch(rng.random((3, 8, 8)))
        assert logits.shape == (3, 8, 8, 2)
        z = model.embed_batch(rng.random((3, 8, 8)))
        np.testing.assert_allclose(np.linalg.norm(z.data, axis=1), 1.0, atol=1e-10)

    def test_conv_cross_entropy_gradient_finite_difference(self, rng):
        # seed screened so no pre-activation sits within the FD step of a
        # LeakyReLU kink (central differences are invalid across the kink)
        from spcl.semi_supervised import supervised_loss

        model = ParamModel(TINY_CONV)
        x = rng.random((2, 8, 8))
        target = rng.integers(0, 2, size=(2, 8, 8))
        names = sorted(model.params)

        def f(*tensors):
            probe = ParamModel(TINY_CONV, dict(zip(names, tensors)))
            return supervised_loss(probe.segment_batch(x), target)

        report = finite_diff_check(f, [model.params[n] for n in names], step=1e-5, tolerance=1e-4)
        assert report.passed, report

    def test_zero_final_layer_gives_uniform_softmax(self, rng):
        model = ParamModel(TINY)
        model.params["dec.out.w"] = Tensor(np.zeros(model.params["dec.out.w"].shape), requires_grad=True)
        model.params["dec.out.b"] = Tensor(np.zeros(model.params["dec.out.b"].shape), requires_grad=True)
        logits = model.segment_batch(rng.random((4, 4))).data
        e = np.exp(logits - logits.max(axis=-1, keepdims=True))
        probs = e / e.sum(axis=-1, keepdims=True)
        np.testing.assert_allclose(probs, 0.5, atol=1e-12)

    def test_rejects_wrong_spatial_shape(self, rng):
        model = ParamModel(TINY)
        with pytest.raises(ShapeMismatch):
            model.segment_batch(rng.random((5, 5)))

    def test_cross_entropy_gradient_finite_difference(self, rng):
        from spcl.semi_supervised import supervised_loss

        model = ParamModel(TINY)
        x = rng.random((2, 4, 4))
        target = rng.integers(0, 2, size=(2, 4, 4))
        names = sorted(model.params)

        def f(*tensors):
            probe = ParamModel(TINY, dict(zip(names, tensors)))
            return supervised_loss(probe.segment_batch(x), target)

        report = finite_diff_check(f, [model.params[n] for n in names], step=1e-5, tolerance=1e-4)
        assert report.passed, report


def _value_and_cotangents(fn, tracked, g):
    """``fn()``'s value and the cotangents of ``tracked`` under the loss sum(fn() * g), from one tape."""
    with GradTape() as tape:
        out = fn()
        loss = tsum(out * Tensor(g))
    return [out.data, *tape.gradient(loss, tracked, warn_disconnected=False)]


# parameters left untracked, so that the passes skip some cotangents
UNTRACKED = {
    "all": (),
    "image": (),
    "partial-a": ("enc.0.w", "enc.0.b", "dec.0.b", "head.1.w"),
    "partial-b": ("enc.0.w", "dec.skip.b", "dec.out.w", "head.0.b"),
}


class TestDensePassOracle:
    """The dense arch's one-node passes against their op compositions, byte for byte.

    Images and parameters mix ordinary values with signed zeros, subnormals
    and +-1e20; the cotangent arriving at the pass does too.
    """

    @pytest.mark.parametrize("tracking", sorted(UNTRACKED))
    @pytest.mark.parametrize("skip_width", [0, 3])
    @pytest.mark.parametrize("widths", [(5,), (6, 4), (7, 5, 3)])
    def test_value_and_cotangents_byte_equal_to_ops(self, widths, skip_width, tracking):
        rng = np.random.default_rng(len(widths) * 10 + skip_width)
        for slope in (0.01, 0.0, 1.0, -0.1, 2.0):
            cfg = ModelConfig(
                image_shape=(2, 3), num_classes=3, arch="dense", encoder_widths=widths, head_hidden=4,
                embed_dim=3, decoder_width=4, skip_width=skip_width, leaky_slope=slope,
            )
            params = {
                k: Tensor(hostile(rng, v.shape, 1e20), requires_grad=k not in UNTRACKED[tracking], name=k)
                for k, v in ParamModel(cfg).params.items()
            }
            model = ParamModel(cfg, params)
            for b in (1, 3):
                images = Tensor(hostile(rng, (b, 2, 3), 1e20), requires_grad=tracking == "image")
                tracked = [images] * images.requires_grad + [t for t in params.values() if t.requires_grad]
                for kind, size in (("segment", (b, 2, 3, 3)), ("embed", (b, 3))):
                    g = hostile(rng, size, 1e20)
                    ours = _value_and_cotangents(lambda: getattr(model, f"{kind}_batch")(images), tracked, g)
                    ops = _value_and_cotangents(lambda: op_model_pass(model, images, kind), tracked, g)
                    assert all(same_bytes(a, o) for a, o in zip(ours, ops)), (slope, b, kind)

    @pytest.mark.parametrize("tracking", ["all", "image"])
    def test_conv_arch_dense_layers_byte_equal_to_ops(self, tracking):
        """The conv arch's dense layers from the pooled features: one node per pass."""
        rng = np.random.default_rng(9)
        model = ParamModel(TINY_CONV)
        for b in (1, 3):
            images = Tensor(rng.random((b, 8, 8)), requires_grad=tracking == "image")
            tracked = [images] * images.requires_grad + list(model.params.values())
            for kind, size in (("segment", (b, 8, 8, 2)), ("embed", (b, 6))):
                g = rng.standard_normal(size)
                ours = _value_and_cotangents(lambda: getattr(model, f"{kind}_batch")(images), tracked, g)
                ops = _value_and_cotangents(lambda: op_model_pass(model, images, kind), tracked, g)
                assert all(same_bytes(a, o) for a, o in zip(ours, ops)), (b, kind)

    @pytest.mark.parametrize("tracking", ["all", "partial-a", "partial-b"])
    @pytest.mark.parametrize("kind", ["segment", "embed"])
    def test_one_node_with_cotangents_only_for_tracked_inputs(self, kind, tracking):
        cfg = ModelConfig(image_shape=(4, 4), arch="dense", encoder_widths=(8, 4), skip_width=3, seed=2)
        model = ParamModel(cfg)
        for name in UNTRACKED[tracking]:
            model.params[name] = Tensor(model.params[name].data, name=name)
        images = np.random.default_rng(0).random((2, 4, 4))
        with GradTape() as tape:
            model.segment_batch(images) if kind == "segment" else model.embed_batch(images)
        expected = ["dense_pass"] if kind == "segment" else ["dense_pass", "l2_normalize_rows"]
        assert [n.op for n in tape.nodes] == expected
        node = tape.nodes[0]
        cotangents = node.backward_fn(np.ones(node.output.shape))
        assert [c is not None for c in cotangents] == [t.requires_grad for t in node.inputs]
        assert not node.inputs[0].requires_grad  # the image batch

    @pytest.mark.parametrize("tracking", ["all", "partial-b"])
    def test_eager_pass_gives_taped_bytes(self, tracking):
        """Outside a tape the pass records nothing and gives the taped pass's output bytes."""
        model = ParamModel(ModelConfig(image_shape=(4, 4), arch="dense", encoder_widths=(8, 4), skip_width=3, seed=2))
        for name in UNTRACKED[tracking]:
            model.params[name] = Tensor(model.params[name].data, name=name)
        images = np.random.default_rng(1).random((3, 4, 4))
        for kind in ("segment", "embed"):
            eager = getattr(model, f"{kind}_batch")(images)
            with GradTape() as tape:
                taped = getattr(model, f"{kind}_batch")(images)
            assert tape.nodes and taped.requires_grad and not eager.requires_grad
            assert same_bytes(eager.data, taped.data), kind


class TestParameterAccounting:
    def test_all_params_alive_in_combined_loss(self, rng):
        """Generic batch: every parameter block gets some gradient signal."""
        from spcl.contrastive import PairStructure
        from spcl.self_paced import SelfPacedConfig, combined_sp_loss, loss_bounds
        from spcl.semi_supervised import supervised_loss
        from spcl.synth_data import interleaved_pairs

        model = ParamModel(TINY)
        x = rng.random((4, 4, 4))
        target = rng.integers(0, 2, size=(4, 4, 4))
        cfg = SelfPacedConfig(tau=0.5, gamma_start=1.0, gamma_end=loss_bounds(2, 0.5)[1])
        with GradTape() as tape:
            structure = PairStructure(interleaved_pairs(4), np.array([[0, 0, 1, 1]]))
            sp, _ = combined_sp_loss(model.embed_batch(x), structure, cfg.gamma_end * 0.8, cfg)
            loss = supervised_loss(model.segment_batch(x), target) + sp
        names = sorted(model.params)
        grads = tape.gradient(loss, [model.params[n] for n in names])
        for name, g in zip(names, grads):
            assert np.any(g != 0.0), f"dead parameter block {name}"

    def test_reset_decoder_only_touches_decoder(self, rng):
        model = ParamModel(TINY)
        before = {k: v.data.copy() for k, v in model.params.items()}
        model.reset_decoder(seed=99)
        for k, v in model.params.items():
            if k.startswith("dec."):
                if k.endswith(".w"):
                    assert not np.array_equal(v.data, before[k])
            else:
                assert np.array_equal(v.data, before[k])


class TestEmaTeacher:
    def test_scalar_update(self):
        model = ParamModel(TINY)
        teacher = EmaTeacher(model, decay=0.99)
        one = {k: Tensor(np.ones(v.shape), requires_grad=True) for k, v in model.params.items()}
        zero = {k: Tensor(np.zeros(v.shape), requires_grad=True) for k, v in model.params.items()}
        teacher.shadow = {k: np.ones(v.shape) for k, v in model.params.items()}
        ema_update(teacher, ParamModel(TINY, zero))
        np.testing.assert_allclose(teacher.shadow["enc.0.w"], 0.99)

    def test_decay_zero_copies_student(self, rng):
        model = ParamModel(TINY)
        teacher = EmaTeacher(model, decay=0.0)
        other = ParamModel(ModelConfig(**{**TINY.__dict__, "seed": 11}))
        ema_update(teacher, other)
        for k in teacher.shadow:
            np.testing.assert_array_equal(teacher.shadow[k], other.params[k].data)

    def test_geometric_convergence(self):
        model = ParamModel(TINY)
        teacher = EmaTeacher(model, decay=0.9)
        target = ParamModel(ModelConfig(**{**TINY.__dict__, "seed": 5}))
        d0 = max(np.abs(teacher.shadow[k] - target.params[k].data).max() for k in teacher.shadow)
        for step in range(30):
            ema_update(teacher, target)
        d = max(np.abs(teacher.shadow[k] - target.params[k].data).max() for k in teacher.shadow)
        assert d <= d0 * 0.9**30 + 1e-12

    def test_shape_mismatch_rejected(self):
        model = ParamModel(TINY)
        teacher = EmaTeacher(model)
        bad = ParamModel(ModelConfig(**{**TINY.__dict__, "embed_dim": 5}))
        with pytest.raises(ShapeMismatch):
            ema_update(teacher, bad)

    def test_teacher_forward_has_no_gradient_path(self, rng):
        model = ParamModel(TINY)
        teacher = EmaTeacher(model)
        x = rng.random((2, 4, 4))
        with GradTape() as tape:
            out = tsum(teacher.as_model().segment_batch(x))
        assert not tape.nodes  # nothing tracked

    def test_as_model_wraps_shadows_without_copy_or_scan(self, monkeypatch):
        teacher = EmaTeacher(ParamModel(TINY), decay=0.9)
        ema_update(teacher, ParamModel(replace(TINY, seed=4)))
        assert all(not v.flags.writeable for v in teacher.shadow.values())
        calls = []
        real_isfinite = np.isfinite
        monkeypatch.setattr(np, "isfinite", lambda *a, **k: calls.append(1) or real_isfinite(*a, **k))
        frozen = teacher.as_model()
        assert calls == []
        for k, v in teacher.shadow.items():
            assert frozen.params[k].data is v

    def test_update_overflow_names_the_parameter(self):
        model = ParamModel(TINY)
        teacher = EmaTeacher(model)
        teacher.decay = 2.0  # out of range, so that a * shadow overflows
        teacher.shadow = {k: np.full(v.shape, 1e308) for k, v in model.params.items()}
        first = next(iter(model.params))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteValue, match=f"^EMA update of '{first}' produced NaN/Inf$"):
                ema_update(teacher, model)


def per_parameter_radam(params, grads, state, t, lr=1e-3, b1=0.9, b2=0.999, eps=1e-8, scales=None):
    """One RAdam step written parameter by parameter: the reference for the flat update."""
    rho_inf = 2.0 / (1.0 - b2) - 1.0
    rho_t = rho_inf - 2.0 * t * b2**t / (1.0 - b2**t)
    out = {}
    for name, g in grads.items():
        lr_p = lr * max(((len(k), s) for k, s in (scales or {}).items() if name.startswith(k)), default=(0, 1.0))[1]
        m = b1 * state.get(("m", name), 0.0) + (1.0 - b1) * g
        v = b2 * state.get(("v", name), 0.0) + (1.0 - b2) * g * g
        state["m", name], state["v", name] = m, v
        m_hat = m / (1.0 - b1**t)
        if rho_t > 4.0:
            rect = np.sqrt(((rho_t - 4.0) * (rho_t - 2.0) * rho_inf) / ((rho_inf - 4.0) * (rho_inf - 2.0) * rho_t))
            out[name] = params[name] - lr_p * rect * m_hat / (np.sqrt(v / (1.0 - b2**t)) + eps)
        else:
            out[name] = params[name] - lr_p * m_hat
    return out


class TestRAdam:
    def test_flat_update_equals_per_parameter_update(self):
        rng = np.random.default_rng(17)
        model = ParamModel(TINY)
        model.params["enc.wide"] = Tensor(rng.standard_normal((90, 200)), requires_grad=True)  # spans 3 chunks
        scales = {"enc.": 0.05, "head.": 0.05}
        opt = RAdam(lr=2e-3, lr_scales=scales)
        names = sorted(model.params)
        ref = {n: model.params[n].data.copy() for n in names}
        state = {}
        for t in range(1, 31):  # rho_t <= 4 for the first steps, > 4 after
            grads = {n: rng.standard_normal(model.params[n].shape) * 10.0 ** rng.integers(-3, 3) for n in names}
            if t == 12:  # a caller rebinds a parameter between steps
                model.params["dec.out.b"] = Tensor(np.full(model.params["dec.out.b"].shape, 0.5), requires_grad=True)
                ref["dec.out.b"] = model.params["dec.out.b"].data.copy()
            opt.step(model.params, grads)
            ref = per_parameter_radam(ref, grads, state, t, lr=2e-3, scales=scales)
            for n in names:
                assert model.params[n].data.tobytes() == ref[n].tobytes(), (t, n)
                assert opt.m[n].tobytes() == state["m", n].tobytes() and opt.v[n].tobytes() == state["v", n].tobytes()
                assert model.params[n].requires_grad and not model.params[n].data.flags.writeable
        assert opt.t == 30

    def test_second_moment_overflow_names_the_parameter(self):
        opt = RAdam(lr=1e-3)
        params = {"v": Tensor(np.zeros(3), requires_grad=True), "w": Tensor(np.zeros(3), requires_grad=True)}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteValue, match="^RAdam update of 'w' produced NaN/Inf$"):
                opt.step(params, {"v": np.ones(3), "w": np.full(3, 1e200)})
        assert not opt.v["w"].any()  # the overflowing moment was not stored

    def test_overflow_leaves_every_parameter_and_moment(self):
        opt = RAdam(lr=1e-3)
        params = {"v": Tensor(np.zeros(3), requires_grad=True), "w": Tensor(np.zeros(3), requires_grad=True)}
        before = dict(params)
        with pytest.raises(NonFiniteValue, match="^RAdam update of 'w' produced NaN/Inf$"):
            opt.step(params, {"v": np.ones(3), "w": np.full(3, 1e200)})
        assert all(params[n] is before[n] for n in params)
        assert not any(opt.m[n].any() or opt.v[n].any() for n in params)


class TestCheckpoint:
    def test_round_trip(self, tmp_path, rng):
        model = ParamModel(TINY)
        path = tmp_path / "model.npz"
        model.save(path)
        loaded = ParamModel.load(path)
        assert loaded.config == model.config
        for k in model.params:
            np.testing.assert_array_equal(loaded.params[k].data, model.params[k].data)
        x = rng.random((4, 4))
        np.testing.assert_array_equal(loaded.embed_batch(x).data, model.embed_batch(x).data)

    def test_dense_without_skip_trains_and_round_trips(self, tmp_path, rng):
        from spcl.semi_supervised import supervised_loss

        model = ParamModel(replace(TINY, skip_width=0))
        assert not any(k.startswith("dec.skip") for k in model.params)
        x = rng.random((2, 4, 4))
        target = rng.integers(0, 2, size=(2, 4, 4))
        names = sorted(k for k in model.params if not k.startswith("head."))  # the head only embeds
        with GradTape() as tape:
            loss = supervised_loss(model.segment_batch(x), target)
        grads = tape.gradient(loss, [model.params[n] for n in names])
        before = model.params["dec.out.w"].data
        RAdam().step(model.params, dict(zip(names, grads)))
        assert not np.array_equal(model.params["dec.out.w"].data, before)
        path = tmp_path / "model.npz"
        model.save(path)
        loaded = ParamModel.load(path)
        assert loaded.config == model.config
        np.testing.assert_array_equal(loaded.segment_batch(x).data, model.segment_batch(x).data)

    def test_version_check(self, tmp_path):
        model = ParamModel(TINY)
        path = tmp_path / "model.npz"
        model.save(path)
        import json

        import numpy as np2

        data = dict(np2.load(path))
        meta = json.loads(bytes(data["__meta__"]).decode())
        meta["format_version"] = 999
        data["__meta__"] = np2.frombuffer(json.dumps(meta).encode(), dtype=np2.uint8)
        with open(path, "wb") as fh:
            np2.savez(fh, **data)
        with pytest.raises(DataError, match="unsupported format: 999"):
            ParamModel.load(path)

    @pytest.mark.parametrize("meta", [[1, 2], "x", 3, None, {"format_version": 1, "config": [1]}])
    def test_metadata_not_an_object_is_data_error(self, tmp_path, meta):
        path = tmp_path / "model.npz"
        arrays = {k: v.data for k, v in ParamModel(TINY).params.items()}
        with open(path, "wb") as fh:
            np.savez(fh, __meta__=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8), **arrays)
        with pytest.raises(DataError, match="is not a JSON object"):
            ParamModel.load(path)

    @pytest.mark.parametrize(
        "content",
        [None, b"", b"not a checkpoint", b"PK\x03\x04truncated", pytest.param(npy_bytes(), id="npy-array")],
    )
    def test_missing_or_unreadable_file_is_data_error(self, tmp_path, content):
        path = tmp_path / "model.npz"
        if content is not None:
            path.write_bytes(content)
        with pytest.raises(DataError):
            ParamModel.load(path)

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda meta, arrays: meta.update(format_version=True), "unsupported format: True"),  # True == 1
            (lambda meta, arrays: meta["config"].update(seed=-1), "config: seed must be >= 0"),
            (lambda meta, arrays: arrays["enc.0.b"].fill(np.nan), "['enc.0.b'] must hold finite floats"),
            (lambda meta, arrays: arrays.update({"dec.out.b": np.zeros(32, dtype=np.int64)}),
             "['dec.out.b'] must hold finite floats"),
        ],
        ids=["version-true", "seed-negative", "nan-weight", "int-weight"],
    )
    def test_values_save_never_writes_are_data_errors(self, tmp_path, edit, message):
        path = tmp_path / "model.npz"
        ParamModel(TINY).save(path)
        with np.load(path) as data:
            arrays = {k: data[k] for k in data.files if k != "__meta__"}
            meta = json.loads(bytes(data["__meta__"]).decode())
        edit(meta, arrays)
        with open(path, "wb") as fh:
            np.savez(fh, __meta__=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8), **arrays)
        with pytest.raises(DataError, match=re.escape(f"checkpoint {path} ")) as info:
            ParamModel.load(path)
        assert message in str(info.value)

    @pytest.mark.parametrize(
        "edit",
        [
            lambda arrays, cfg: arrays.pop("dec.out.w"),
            lambda arrays, cfg: arrays.update({"enc.0.w": np.zeros((3, 3))}),
            lambda arrays, cfg: arrays.update({"enc.9.w": np.zeros(3)}),
            lambda arrays, cfg: cfg.pop("skip_width"),
            lambda arrays, cfg: cfg.update({"dropout": 0.5}),
            lambda arrays, cfg: cfg.update({"num_classes": "2"}),
            lambda arrays, cfg: cfg.update({"image_shape": 8}),
            lambda arrays, cfg: cfg.update({"conv_channels": ["a", 4]}),
            lambda arrays, cfg: cfg.update({"arch": 3}),
            lambda arrays, cfg: cfg.update({"arch": "bogus"}),
            lambda arrays, cfg: cfg.update({"leaky_slope": "x"}),
        ],
        ids=[
            "missing-param", "wrong-shape", "unknown-param", "missing-config-key", "unknown-config-key",
            "str-num-classes", "int-image-shape", "str-conv-channel", "int-arch", "unknown-arch", "str-leaky-slope",
        ],
    )
    def test_checkpoint_not_matching_its_config_is_data_error(self, tmp_path, edit):
        path = tmp_path / "model.npz"
        ParamModel(TINY).save(path)
        with np.load(path) as data:
            arrays = {k: data[k] for k in data.files if k != "__meta__"}
            meta = json.loads(bytes(data["__meta__"]).decode())
        edit(arrays, meta["config"])
        with open(path, "wb") as fh:
            np.savez(fh, __meta__=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8), **arrays)
        with pytest.raises(DataError):
            ParamModel.load(path)
