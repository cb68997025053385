"""Toy differentiable encoder/projection-head/decoder stack with an EMA teacher.

Miniature stand-in for an encoder-decoder segmentation network: dense
downsampling blocks summarize the image into a d-dimensional feature, a
two-layer LeakyReLU head maps it to the embedding space (unit-normalized),
and a dense decoder with one concatenated skip recovers per-pixel class
logits. Everything is float64 on the autodiff tape; parameters are plain
named Tensors so training loops, EMA shadows, and checkpoints stay dumb.

Each run of dense layers is one ``autodiff.dense_pass`` node. On the dense
arch that is a whole pass: the encoder layers and ``head.0`` up to
``head.1``'s output for ``embed_batch`` (then one ``l2_normalize_rows``
node), and the encoder layers and ``dec.0``, with ``dec.skip`` on the first
encoder activation, up to ``dec.out``'s logits for ``segment_batch``. On
the conv arch it is the layers from the pooled conv features: ``enc.proj``
and ``head.0`` up to ``head.1``, or ``enc.proj`` up to ``dec.proj``, whose
LeakyReLU and the conv decoder are ops. A node's value and cotangents have
the bits of the ``matmul``/``add``/``leaky_relu``/``concat``/``reshape`` ops
it replaces, and the first encoder activation's cotangent is the
``dec.skip`` layer's plus the ``enc.1`` (or ``dec.0``) layer's, as the tape
walk adds them.
"""

from __future__ import annotations

import json
import zipfile
from dataclasses import asdict, dataclass, replace

import numpy as np

from .autodiff import _RAISE_FP, Tensor, avg_pool2x, concat, conv2d, dense_pass, l2_normalize_rows, upsample2x
from .errors import DataError, InvalidConfig, NonFiniteValue, ShapeMismatch
from .schema import check_at_least, check_finite, check_value

CHECKPOINT_FORMAT_VERSION = 1


@dataclass(frozen=True)
class ModelConfig:
    image_shape: tuple[int, int] = (16, 16)
    num_classes: int = 2
    arch: str = "conv"  # "conv": weight-shared downsampling blocks; "dense": flat projections
    conv_channels: tuple[int, ...] = (6, 12)  # conv arch only, exactly two
    encoder_widths: tuple[int, ...] = (64, 32)  # dense arch only
    head_hidden: int = 64
    embed_dim: int = 32
    decoder_width: int = 64
    skip_width: int = 16  # dense arch only; conv skips at full resolution
    leaky_slope: float = 0.01
    seed: int = 0

    def __post_init__(self):
        # Only the sizes ``arch`` builds are checked: a conv model never reads the encoder
        # widths, decoder_width or skip_width, and a dense model never reads conv_channels.
        if self.arch not in ("conv", "dense"):
            raise InvalidConfig(f"arch must be 'conv' or 'dense', got {self.arch!r}")
        check_finite(self, "leaky_slope")
        check_at_least(self, seed=0)
        if len(self.encoder_widths) < 1:
            raise InvalidConfig("encoder_widths must have at least one entry")
        positive = dict(image_shape=self.image_shape, head_hidden=(self.head_hidden,), embed_dim=(self.embed_dim,))
        if self.arch == "conv":
            if len(self.conv_channels) != 2:
                raise InvalidConfig(f"conv arch needs 2 conv_channels, got {self.conv_channels!r}")
            positive["conv_channels"] = self.conv_channels
        else:
            positive.update(encoder_widths=self.encoder_widths, decoder_width=(self.decoder_width,))
            check_at_least(self, skip_width=0)  # 0 drops the skip branch
        for name, sizes in positive.items():
            if any(v < 1 for v in sizes):
                raise InvalidConfig(f"{name} must be positive, got {getattr(self, name)!r}")
        check_at_least(self, num_classes=2)
        if self.arch == "conv" and any(s % 4 for s in self.image_shape):
            raise InvalidConfig(f"image_shape must be divisible by 4 for the conv arch, which downsamples twice, "
                                f"got {self.image_shape}")

    @property
    def num_pixels(self) -> int:
        return int(np.prod(self.image_shape))

    @property
    def feature_dim(self) -> int:
        return self.encoder_widths[-1] if self.arch == "dense" else 32


def _init_params(config: ModelConfig) -> dict[str, Tensor]:
    rng = np.random.default_rng(config.seed)

    def dense(name, fan_in, fan_out):
        bound = 1.0 / np.sqrt(fan_in)
        params[f"{name}.w"] = Tensor(
            rng.uniform(-bound, bound, size=(fan_in, fan_out)), requires_grad=True, name=f"{name}.w"
        )
        params[f"{name}.b"] = Tensor(np.zeros(fan_out), requires_grad=True, name=f"{name}.b")

    params: dict[str, Tensor] = {}
    if config.arch == "conv":
        c1, c2 = config.conv_channels
        h, w = config.image_shape
        bottleneck = (h // 4) * (w // 4) * c2
        dense("enc.c0", 9 * 1, c1)
        dense("enc.c1", 9 * c1, c2)
        dense("enc.proj", bottleneck, config.feature_dim)
        dense("head.0", config.feature_dim, config.head_hidden)
        dense("head.1", config.head_hidden, config.embed_dim)
        dense("dec.proj", config.feature_dim, bottleneck)
        dense("dec.c0", 9 * c2, c1)
        dense("dec.out", 1 * (c1 + c1), config.num_classes)  # 1x1 conv over concat with skip
    else:
        sizes = [config.num_pixels, *config.encoder_widths]
        for i, (fi, fo) in enumerate(zip(sizes, sizes[1:])):
            dense(f"enc.{i}", fi, fo)
        dense("head.0", config.feature_dim, config.head_hidden)
        dense("head.1", config.head_hidden, config.embed_dim)
        dense("dec.0", config.feature_dim, config.decoder_width)
        if config.skip_width > 0:
            dense("dec.skip", config.encoder_widths[0], config.skip_width)
        dense("dec.out", config.decoder_width + config.skip_width, config.num_pixels * config.num_classes)
    return params


class ParamModel:
    """Encoder E, head g, decoder D as one named-parameter collection."""

    def __init__(self, config: ModelConfig, params: dict[str, Tensor] | None = None):
        self.config = config
        self.params = params if params is not None else _init_params(config)

    # -- forward passes (functional over self.params; teacher reuses them) --

    def _flatten(self, images) -> Tensor:
        """(B, H*W) pixel rows of an (H, W) image or a (B, H, W) batch; an array is wrapped once, already flat."""
        x = images if isinstance(images, Tensor) else np.asarray(images, dtype=np.float64)
        h, w = self.config.image_shape
        if x.ndim == 2 and x.shape == (h, w):
            rows = 1
        elif x.ndim == 3 and x.shape[1:] == (h, w):
            rows = x.shape[0]
        else:
            raise ShapeMismatch(f"expected (H, W) or (B, H, W) with H,W={self.config.image_shape}, got {x.shape}")
        return x.reshape(rows, h * w) if isinstance(x, Tensor) else Tensor(x.reshape(rows, h * w))

    def _layer(self, name: str) -> tuple[Tensor, Tensor]:
        return self.params[f"{name}.w"], self.params[f"{name}.b"]

    def _conv_block(self, x: Tensor, name: str, hw: tuple[int, int]) -> Tensor:
        kernel, bias = self._layer(name)
        return conv2d(x, kernel, hw, bias).leaky_relu(self.config.leaky_slope)

    def _encode(self, images) -> tuple[Tensor, list[str], Tensor | None]:
        """The rows the encoder's dense layers start from, those layers' names, and the conv arch's skip activations.

        The dense arch's dense layers start from the pixel rows; the conv
        arch's ``enc.proj`` from the pooled output of its two conv blocks,
        whose first block's full-resolution activations are the skip.
        """
        x = self._flatten(images)
        if self.config.arch == "dense":
            return x, [f"enc.{i}" for i in range(len(self.config.encoder_widths))], None
        h, w = self.config.image_shape
        a1 = self._conv_block(x, "enc.c0", (h, w))
        a2 = self._conv_block(avg_pool2x(a1, (h, w)), "enc.c1", (h // 2, w // 2))
        return avg_pool2x(a2, (h // 2, w // 2)), ["enc.proj"], a1

    def _dense_pass(self, x: Tensor, hidden: list[str], out: str, skip: str | None = None, shape=None) -> Tensor:
        """The LeakyReLU layers named ``hidden``, then the affine layer ``out``, as one node."""
        layers = [self._layer(name) for name in hidden]
        skip_layer = self._layer(skip) if skip else None
        return dense_pass(x, layers, self._layer(out), self.config.leaky_slope, skip=skip_layer, shape=shape)

    def embed_batch(self, images) -> Tensor:
        """Unit-norm embeddings z = normalize(g(E(x))), shape (B, embed_dim); one (H, W) image gives B = 1."""
        x, encoder, _ = self._encode(images)
        return l2_normalize_rows(self._dense_pass(x, [*encoder, "head.0"], "head.1"))

    def segment_batch(self, images) -> Tensor:
        """Per-pixel class logits, shape (B, H, W, num_classes); one (H, W) image gives B = 1."""
        x, encoder, skip = self._encode(images)
        h, w = self.config.image_shape
        if self.config.arch == "dense":
            skip_layer = "dec.skip" if self.config.skip_width > 0 else None
            return self._dense_pass(x, [*encoder, "dec.0"], "dec.out", skip_layer, (h, w, self.config.num_classes))
        c1, c2 = self.config.conv_channels
        u = self._dense_pass(x, encoder, "dec.proj").leaky_relu(self.config.leaky_slope)
        u = upsample2x(u, (h // 4, w // 4))
        u = self._conv_block(u, "dec.c0", (h // 2, w // 2))
        u = upsample2x(u, (h // 2, w // 2))
        b = u.shape[0]
        cat = concat([u.reshape(b, h * w, c1), skip.reshape(b, h * w, c1)], axis=2)
        logits = conv2d(cat.reshape(b, h * w * 2 * c1), self.params["dec.out.w"], (h, w), self.params["dec.out.b"])
        return logits.reshape(b, h, w, self.config.num_classes)

    # -- parameter bookkeeping --

    def encoder_head_params(self) -> dict[str, Tensor]:
        return {k: v for k, v in self.params.items() if k.startswith(("enc.", "head."))}

    def reset_decoder(self, seed: int | None = None) -> None:
        """Fresh decoder init (used when moving from pre-training to segmentation)."""
        fresh = _init_params(replace(self.config, seed=self.config.seed if seed is None else seed))
        for k in list(self.params):
            if k.startswith("dec."):
                self.params[k] = fresh[k]

    def copy(self) -> "ParamModel":
        return ParamModel(self.config, dict(self.params))

    # -- persistence --

    def save(self, path) -> None:
        arrays = {k: v.data for k, v in self.params.items()}
        meta = json.dumps(
            {"format_version": CHECKPOINT_FORMAT_VERSION, "config": asdict(self.config)}
        )
        with open(path, "wb") as fh:
            np.savez(fh, __meta__=np.frombuffer(meta.encode(), dtype=np.uint8), **arrays)

    @classmethod
    def load(cls, path) -> "ParamModel":
        """Read a checkpoint written by ``save``.

        A missing or unreadable file, metadata that is not a JSON object or
        names another format version, a config that ``check_value`` does not
        read as a ModelConfig, parameter names or shapes other than the
        config builds, or a parameter that is not finite floats are a
        DataError.
        """
        try:
            data = np.load(path)
            if not isinstance(data, np.lib.npyio.NpzFile):
                raise ValueError("not an .npz archive")
            with data:
                meta = json.loads(bytes(data["__meta__"]).decode())
                arrays = {k: data[k] for k in data.files if k != "__meta__"}
        except (OSError, EOFError, ValueError, KeyError, RecursionError, zipfile.BadZipFile) as exc:
            raise DataError(f"cannot read checkpoint {path}: {exc}") from exc
        if not isinstance(meta, dict):
            raise DataError(f"checkpoint {path} metadata is not a JSON object")
        version = meta.get("format_version")
        if type(version) is not int or version != CHECKPOINT_FORMAT_VERSION:
            raise DataError(
                f"checkpoint {path} has unsupported format: {version!r}; format_version must be "
                f"{CHECKPOINT_FORMAT_VERSION}"
            )
        try:
            cfg = check_value(meta.get("config"), ModelConfig, "config")
        except InvalidConfig as exc:
            raise DataError(f"checkpoint {path} has an invalid config: {exc}") from exc
        expected = {k: v.shape for k, v in _init_params(cfg).items()}
        found = {k: a.shape for k, a in arrays.items()}
        if found != expected:
            raise DataError(
                f"checkpoint {path} parameters do not match its config: "
                f"missing {sorted(set(expected) - set(found))}, unknown {sorted(set(found) - set(expected))}, "
                f"wrong shape {sorted(k for k in set(found) & set(expected) if found[k] != expected[k])}"
            )
        bad = sorted(k for k, a in arrays.items() if a.dtype.kind != "f" or not np.isfinite(a).all())
        if bad:
            raise DataError(f"checkpoint {path} parameters {bad} must hold finite floats")
        params = {k: Tensor(a, requires_grad=True, name=k) for k, a in arrays.items()}
        return cls(cfg, params)


class EmaTeacher:
    """Exponential-moving-average shadow of a model's parameters.

    Never updated by gradients; ema_update pulls it toward the student. The
    shadow arrays are finite and read-only: the student's own at the start,
    then each one ema_update computes.
    """

    def __init__(self, student: ParamModel, decay: float = 0.99):
        if not (0.0 <= decay < 1.0):
            raise InvalidConfig(f"decay must be in [0, 1), got {decay}")
        self.decay = float(decay)
        self.config = student.config
        self.shadow: dict[str, np.ndarray] = {k: v.data for k, v in student.params.items()}

    def as_model(self) -> ParamModel:
        """Frozen view for inference: constant tensors over the shadow arrays, not copied or rescanned."""
        return ParamModel(
            self.config, {k: Tensor(v, requires_grad=False, name=k, _fresh=True) for k, v in self.shadow.items()}
        )


def ema_update(teacher: EmaTeacher, student: ParamModel) -> EmaTeacher:
    """teacher <- decay * teacher + (1 - decay) * student, parameter-wise.

    Each new shadow array is computed under the raising error state, so it
    is finite (an overflow raises NonFiniteValue naming the parameter), and
    then frozen.
    """
    a = teacher.decay
    try:
        with np.errstate(**_RAISE_FP):
            for k, s in student.params.items():
                t = teacher.shadow.get(k)
                if t is None or t.shape != s.shape:
                    raise ShapeMismatch(f"teacher/student mismatch on {k!r}")
                new = a * t + (1.0 - a) * s.data
                new.flags.writeable = False
                teacher.shadow[k] = new
    except FloatingPointError:
        raise NonFiniteValue(f"EMA update of {k!r} produced NaN/Inf") from None
    return teacher
