import numpy as np
import pytest

from spcl import autodiff as ad
from spcl.autodiff import GradTape, Tensor, _apply, _as_tensor, _unbroadcast, row_sums
from spcl.contrastive import PairStructure, mask_coefficients, pair_loss_values
from spcl.optim import RAdam
from spcl.self_paced import optimal_weight, pace_schedule, regularizer_value
from spcl.semi_supervised import labeled_batches, supervised_loss


def interleaved_pairs(num_samples: int) -> np.ndarray:
    """Pairing map [1, 0, 3, 2, ...]: views of original t sit at 2t, 2t+1."""
    pair = np.arange(num_samples)
    pair[0::2] += 1
    pair[1::2] -= 1
    return pair


def unit_rows(rng: np.random.Generator, n: int, dim: int) -> np.ndarray:
    z = rng.standard_normal((n, dim))
    return z / np.linalg.norm(z, axis=1, keepdims=True)


def random_batch(
    rng: np.random.Generator,
    num_originals: int,
    dim: int = 8,
    num_classes: int | list | None = None,
    num_labels: int = 1,
) -> tuple[np.ndarray, PairStructure]:
    """Random unit-row embeddings and their structure: interleaved pairs, labels drawn per original for both views."""
    n2 = 2 * num_originals
    if num_classes is None:
        num_classes = [max(2, num_originals // 2)] * num_labels
    elif np.ndim(num_classes) == 0:
        num_classes = [int(num_classes)] * num_labels
    labels = np.zeros((len(num_classes), n2), dtype=np.int64)
    for k, ck in enumerate(num_classes):
        per_original = rng.integers(0, ck, size=num_originals)
        labels[k] = np.repeat(per_original, 2)
    return unit_rows(rng, n2, dim), PairStructure(interleaved_pairs(n2), labels)


def exploding_matmul(a, b):
    """``autodiff.matmul`` with the same forward and a backward that overflows: patch it in to fail a training's backward.

    The contrastive loss's Gram product ``z @ z.T`` is a ``matmul`` op, so every pre-training step records one.
    """
    return _apply("matmul", (a, b), ad._product,
                  lambda datas, out: lambda g: (g @ datas[1].T * 1e300 * 1e300, datas[0].T @ g * 1e300 * 1e300))


# ---------------------------------------------------------------------------
# ops that no training path records: the building blocks of the oracles below
# ---------------------------------------------------------------------------

def sub(a: Tensor, b: Tensor) -> Tensor:
    def bwd(datas, out, na=a.requires_grad, nb=b.requires_grad):
        sa, sb = datas[0].shape, datas[1].shape
        return lambda g: (_unbroadcast(g, sa) if na else None, _unbroadcast(-g, sb) if nb else None)

    return _apply("sub", (a, b), np.subtract, bwd)


def div(a: Tensor, b: Tensor) -> Tensor:
    def bwd(datas, out, na=a.requires_grad, nb=b.requires_grad):
        da, db = datas
        return lambda g: (
            _unbroadcast(g / db, da.shape) if na else None,
            _unbroadcast(-g * da / (db * db), db.shape) if nb else None,
        )

    return _apply("div", (a, b), np.divide, bwd)


def exp(a: Tensor) -> Tensor:
    return _apply("exp", (a,), np.exp, lambda datas, out: lambda g: (g * out,))


def log(a: Tensor) -> Tensor:
    def bwd(datas, out):
        (da,) = datas
        return lambda g: (g / da,)

    return _apply("log", (a,), np.log, bwd)


def power(a: Tensor, exponent: float) -> Tensor:
    exponent = float(exponent)

    def bwd(datas, out):
        (da,) = datas
        return lambda g: (g * exponent * da ** (exponent - 1.0),)

    return _apply("power", (a,), lambda x: x**exponent, bwd)


def tsum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    def fwd(x):
        if axis == 1 and keepdims and x.ndim == 2:
            return row_sums(x)
        return np.sum(x, axis=axis, keepdims=keepdims)

    def bwd(datas, out):
        shape = datas[0].shape

        def back(g):
            g = np.asarray(g)
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            return (np.broadcast_to(g, shape).copy(),)

        return back

    return _apply("sum", (a,), fwd, bwd)


def tmean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    def fwd(x):
        return np.mean(x, axis=axis, keepdims=keepdims)

    def bwd(datas, out):
        shape = datas[0].shape
        n = datas[0].size if axis is None else np.prod([shape[i] for i in np.atleast_1d(axis)])

        def back(g):
            g = np.asarray(g) / float(n)
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            return (np.broadcast_to(g, shape).copy(),)

        return back

    return _apply("mean", (a,), fwd, bwd)


# ---------------------------------------------------------------------------
# op compositions: the one-node passes and losses written as single ops
# ---------------------------------------------------------------------------

def same_bytes(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def hostile(rng: np.random.Generator, shape, big: float = 1e300) -> np.ndarray:
    """Standard normal values mixed with signed zeros, subnormals and +-big."""
    pool = np.array([0.0, -0.0, 5e-324, -5e-324, 2.5e-310, -1e-308, big, -big, 1.0, -3.5])
    return np.where(rng.random(shape) < 0.4, rng.choice(pool, shape), rng.standard_normal(shape))


def detached_max(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    """Row/array max as a constant (no gradient flows through the shift)."""
    if axis == 1 and keepdims and a.ndim == 2:
        return Tensor(ad.row_maxes(a.data), _fresh=True)
    return Tensor(np.max(a.data, axis=axis, keepdims=keepdims))


def op_l2_normalize_rows(t: Tensor) -> Tensor:
    return div(t, power(tsum(t * t, axis=1, keepdims=True), 0.5))


def op_model_pass(model, images, kind: str) -> Tensor:
    """``segment_batch`` or ``embed_batch`` with every dense layer a matmul, add and leaky_relu op.

    A dense model's skip branch is a concat op and its logits a reshape op;
    a conv model's conv blocks and decoder are ``ParamModel``'s own ops.
    """
    cfg, p = model.config, model.params
    h, w = cfg.image_shape
    x, encoder, conv_skip = model._encode(images)

    def layer(a, name, leaky=True):
        z = a @ p[f"{name}.w"] + p[f"{name}.b"]
        return z.leaky_relu(cfg.leaky_slope) if leaky else z

    a = x
    for i, name in enumerate(encoder):
        a = layer(a, name)
        if i == 0:
            first = a
    if kind == "embed":
        return op_l2_normalize_rows(layer(layer(a, "head.0"), "head.1", leaky=False))
    if cfg.arch == "conv":
        c1 = cfg.conv_channels[0]
        u = ad.upsample2x(layer(a, "dec.proj"), (h // 4, w // 4))
        u = ad.upsample2x(model._conv_block(u, "dec.c0", (h // 2, w // 2)), (h // 2, w // 2))
        b = u.shape[0]
        cat = ad.concat([u.reshape(b, h * w, c1), conv_skip.reshape(b, h * w, c1)], axis=2)
        logits = ad.conv2d(cat.reshape(b, h * w * 2 * c1), p["dec.out.w"], (h, w), p["dec.out.b"])
        return logits.reshape(b, h, w, cfg.num_classes)
    u = layer(a, "dec.0")
    if cfg.skip_width > 0:
        u = ad.concat([u, layer(first, "dec.skip")], axis=1)
    logits = layer(u, "dec.out", leaky=False)
    return logits.reshape(logits.shape[0], h, w, cfg.num_classes)


def op_supervised_loss(logits: Tensor, target) -> Tensor:
    classes = logits.shape[-1]
    flat = logits.reshape(-1, classes)
    t = np.asarray(target).reshape(-1)
    shift = detached_max(flat, axis=1, keepdims=True)
    lse = log(tsum(exp(sub(flat, shift)), axis=1, keepdims=True)) + shift
    onehot = np.zeros((t.size, classes))
    onehot[np.arange(t.size), t] = 1.0
    return tsum(Tensor(onehot) * sub(flat, lse)) * (-1.0 / t.size)


def op_consistency_loss(student: Tensor, teacher: np.ndarray) -> Tensor:
    flat = student.reshape(-1, student.shape[-1])
    e = exp(sub(flat, detached_max(flat, axis=1, keepdims=True)))
    ps = div(e, tsum(e, axis=1, keepdims=True))
    t_rows = teacher.reshape(ps.shape)
    e_t = np.exp(t_rows - ad.row_maxes(t_rows))
    diff = sub(ps, Tensor(e_t / ad.row_sums(e_t)))
    return tmean(diff * diff)


def op_pair_loss_values(z, structure: PairStructure, tau: float) -> Tensor:
    """``pair_loss_values`` with everything after the Gram product as ops, the row max a constant shift."""
    z = _as_tensor(z)
    scores = (z @ z.T) * (1.0 / tau)
    shift = detached_max(scores, axis=1, keepdims=True)
    e = exp(sub(scores, shift)) * Tensor(1.0 - np.eye(structure.num_samples))
    return sub(log(tsum(e, axis=1, keepdims=True)) + shift, scores)


# the contrastive objective one meta-label at a time, from ops: the oracle for
# the one masked_mean_sum node that combined_sp_loss records. The masks are
# built from the structure's pairing and labels; its mask stacks are not read.

def op_positive_mask(structure: PairStructure, k: int) -> np.ndarray:
    """Boolean (2N, 2N) mask with row i True exactly on P^k(i), one label at a time."""
    labels = structure.meta_labels[k]
    mask = labels[:, None] == labels[None, :]
    idx = np.arange(structure.num_samples)
    mask[idx, structure.pair_of] = True
    mask[idx, idx] = False
    return mask


def op_pair_mask(structure: PairStructure) -> np.ndarray:
    """Boolean (2N, 2N) mask selecting only each anchor's paired view."""
    n2 = structure.num_samples
    mask = np.zeros((n2, n2), dtype=bool)
    mask[np.arange(n2), structure.pair_of] = True
    return mask


def op_masked_mean(values, mask: np.ndarray, weights: np.ndarray | None = None):
    """(1/2N) sum_i (1/|row_i|) sum_{j in row_i} w_ij values_ij as a tsum op; an array gives a float."""
    coef = mask_coefficients(mask)
    if weights is not None:
        coef = coef * weights
    if isinstance(values, Tensor):
        return tsum(Tensor(coef) * values) * (1.0 / mask.shape[0])
    return float(np.sum(coef * values) / mask.shape[0])


def op_unsup_loss(z, structure: PairStructure, tau: float) -> Tensor:
    """Average l over the view pairs only, from ops: (1/2N) sum_i l_{i, j(i)}."""
    return op_masked_mean(pair_loss_values(z, structure, tau), op_pair_mask(structure))


def op_meta_loss(z, structure: PairStructure, k: int, tau: float) -> Tensor:
    """Average l over each anchor's positive set for meta-label k, from ops."""
    return op_masked_mean(pair_loss_values(z, structure, tau), op_positive_mask(structure, k))


def op_sp_loss(z, structure: PairStructure, k: int, gamma: float, config, values: Tensor | None = None):
    """Self-paced loss of meta-label k and its in-mask weights, with the w*l and R means as ops."""
    if values is None:
        values = pair_loss_values(z, structure, config.tau)
    mask = op_positive_mask(structure, k)
    w = np.where(mask, optimal_weight(values.data, gamma, config.regularizer), 0.0)
    r = np.where(mask, regularizer_value(w, gamma, config.regularizer), 0.0)
    return op_masked_mean(values, mask, w) + op_masked_mean(r, mask), w[mask]


def reference_supervised_history(model, dataset, labeled_patients, config, seed: int) -> list[dict]:
    """Plain supervised training written out step by step, independent of spcl's training loop.

    Per epoch, labeled batches drawn with ``default_rng([seed, epoch, 0])``;
    per batch, cross-entropy, its gradient and one RAdam step at one
    learning rate for every parameter (``encoder_lr_scale`` 1). Trains
    ``model`` in place and returns the history rows run_semisup writes with
    both lambdas at zero; gamma is logged but does not enter the loss.
    """
    refs = [
        (vi, si)
        for vi, v in enumerate(dataset.volumes)
        if v.patient_id in set(labeled_patients)
        for si in range(v.num_slices)
    ]
    pace = config.self_paced.with_default_pace(config.unlabeled_batch_originals)
    optimizer = RAdam(lr=config.lr)
    names = sorted(model.params)
    history = []
    for epoch in range(config.epochs):
        gamma = pace_schedule(pace, epoch, config.epochs)
        rng = np.random.default_rng([seed, epoch, 0])
        for step, (images, masks) in enumerate(labeled_batches(dataset, refs, config.batch_size, rng)):
            with GradTape() as tape:
                loss = supervised_loss(model.segment_batch(images), masks)
            grads = tape.gradient(loss, [model.params[n] for n in names], warn_disconnected=False)
            optimizer.step(model.params, dict(zip(names, grads)))
            sup = loss.item()
            history.append({"epoch": epoch, "step": step, "sup": sup, "reg": 0.0, "sp_con": 0.0, "total": sup,
                            "gamma": gamma, "mean_w": 0.0, "min_w": 0.0, "max_w": 0.0})
    return history


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
