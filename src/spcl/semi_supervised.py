"""Training objectives and the training loop: cross-entropy, Mean-Teacher
consistency, the combined semi-supervised objective, and the one loop that
runs both self-paced pre-training and semi-supervised training.

Both phases take the same step, one per batch: a taped loss, gradients over
a parameter list fixed for the run, one RAdam step, an EMA teacher update
when there is a teacher, and one history row; the pace gamma advances after
each epoch. The phases differ only in their batch stream and their loss.
Pre-training embeds augmented pair batches, solves the pair weights in
closed form, and steps the encoder+head on the weighted loss.
Semi-supervised training optimizes

    total = sup + lambda_reg * consistency + lambda_sp * sp_contrastive

Both take their contrastive term, and the pair-weight statistics they log,
from ``self_paced.combined_sp_loss``: one call per batch on the batch's
embeddings and its ``PairStructure``, in every pre-training mode and with
or without self-paced weighting. Each pair batch whose contrastive term is
taken gets its structure (pairing, meta-labels, positive masks and
coefficients, checked once); unsupervised pre-training keeps one per-image
structure for the whole run, rebuilt only if a batch's pairing differs
from it. With both lambdas zero semi-supervised training degenerates to
plain supervised training (and is the supervised baseline, bit for bit:
the unlabeled stream is never touched).

All stochastic draws flow through per-epoch seeded generators, so two runs
with the same config and seed produce identical loss histories.
"""

from __future__ import annotations

import csv
import itertools
import math
from dataclasses import dataclass, field, replace
import numpy as np

from .autodiff import GradTape, Tensor, _apply, _content_key, _reused, _unbroadcast, row_maxes, row_sums
from .contrastive import PairStructure
from .errors import InvalidConfig, NonFiniteValue, NormTooSmall, ShapeMismatch
from .models import EmaTeacher, ParamModel, ema_update
from .optim import RAdam
from .schema import check_at_least, check_finite
from .self_paced import SelfPacedConfig, combined_sp_loss, pace_schedule, weight_stats
from .synth_data import (
    AugmentationPolicy,
    PairBatch,
    SynthDataset,
    build_pair_batch,
    per_image_labels,
)

HISTORY_COLUMNS = ("epoch", "step", "sup", "reg", "sp_con", "total", "gamma", "mean_w", "min_w", "max_w")

PRETRAIN_MODES = ("unsup", "unsup_sp", "meta", "sp")


# ---------------------------------------------------------------------------
# losses
# ---------------------------------------------------------------------------

def _logit_rows(logits) -> tuple[Tensor, tuple[int, int]]:
    """``logits`` as a Tensor, and the (pixels, classes) shape of its rows."""
    t = logits if isinstance(logits, Tensor) else Tensor(np.asarray(logits, dtype=np.float64))
    if t.ndim < 2:
        raise ShapeMismatch(f"logits need a trailing class axis, got shape {t.shape}")
    return t, (math.prod(t.shape[:-1]), t.shape[-1])


def supervised_loss(logits, target) -> Tensor:
    """Mean per-pixel cross-entropy under softmax, as one tape node.

    logits: (..., C); target: integer class indices of shape logits.shape[:-1].
    Value and cotangent have the bits of the ops ``-sum(onehot * (x -
    (log(sum(exp(x - m))) + m))) / N`` on the (N, C) logit rows ``x``, with
    the row max ``m`` a constant: ``x`` takes the cotangent of its use in
    the log-probabilities, then that of its use under ``exp`` added to it.
    Inside ``finite_diff_check``'s perturbation loop an eager call reuses
    the previous one's validated one-hot when the target matches it by
    shape, dtype and bytes and the logits have the same rows and classes.
    """
    x, (rows, classes) = _logit_rows(logits)
    target = np.asarray(target)

    def validated_onehot() -> Tensor:
        t = np.asarray(target, dtype=np.int64).reshape(-1)
        if t.size != rows:
            raise ShapeMismatch(f"target size {t.size} does not match {rows} pixels")
        if t.min() < 0 or t.max() >= classes:
            raise InvalidConfig(f"target labels must lie in [0, {classes})")
        onehot = np.zeros((t.size, classes))
        onehot[np.arange(t.size), t] = 1.0
        return Tensor(onehot, _fresh=True)

    onehot = _reused("supervised_loss", (x,), lambda: (rows, classes, _content_key(target)), validated_onehot)
    scale = -1.0 / rows
    saved = []

    def fwd(xd, oh):
        flat = xd.reshape(rows, classes)
        shift = row_maxes(flat)
        e = np.exp(flat - shift)
        total = row_sums(e)
        saved[:] = (e, total)
        return np.sum(oh * (flat - (np.log(total) + shift))) * scale

    def bwd(datas, out):
        xd, oh = datas
        e, total = saved

        def back(g):
            g_lp = (g * scale) * oh
            g_flat = g_lp + (_unbroadcast(-g_lp, total.shape) / total) * e
            return g_flat.reshape(xd.shape), None

        return back

    return _apply("supervised_loss", (x, onehot), fwd, bwd)


def consistency_loss(student_logits, teacher_logits) -> Tensor:
    """Mean squared difference of softmax probabilities, student vs frozen teacher, as one tape node.

    The teacher side is treated as a constant: no gradient flows into it.
    Value and cotangent have the bits of the ops ``mean((e / sum(e) - p) **
    2)``, with ``e = exp(x - m)`` on the student's (N, C) logit rows ``x``
    and ``p`` the teacher's probabilities: the difference, squared as a
    product with itself, takes its two cotangents added, and ``e`` takes
    the division's cotangent, then the row sum's added to it. Inside
    ``finite_diff_check``'s perturbation loop an eager call reuses the
    previous one's teacher-probability Tensor when the teacher logits match
    by shape, dtype and bytes.
    """
    t_data = teacher_logits.data if isinstance(teacher_logits, Tensor) else np.asarray(teacher_logits, dtype=np.float64)
    s, (rows, classes) = _logit_rows(student_logits)
    if s.shape != t_data.shape:
        raise ShapeMismatch(f"student {s.shape} vs teacher {t_data.shape}")

    def teacher_probs() -> Tensor:
        t_rows = t_data.reshape(rows, classes)
        e_t = np.exp(t_rows - row_maxes(t_rows))
        return Tensor(e_t / row_sums(e_t))

    probs = _reused("consistency_loss", (s,), lambda: _content_key(t_data), teacher_probs)
    saved = []

    def fwd(xd, pt):
        flat = xd.reshape(rows, classes)
        e = np.exp(flat - row_maxes(flat))
        total = row_sums(e)
        diff = e / total - pt
        saved[:] = (e, total, diff)
        return np.mean(diff * diff)

    def bwd(datas, out):
        e, total, diff = saved

        def back(g):
            q = (np.asarray(g) / float(diff.size)) * diff
            g_ps = q + q
            g_e = g_ps / total + _unbroadcast(-g_ps * e / (total * total), total.shape)
            return (g_e * e).reshape(datas[0].shape), None

        return back

    return _apply("consistency_loss", (s, probs), fwd, bwd)


# ---------------------------------------------------------------------------
# configs and state
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PretrainConfig:
    epochs: int = 20
    batch_originals: int = 8
    lr: float = 1e-3
    loss_mode: str = "sp"
    self_paced: SelfPacedConfig = field(default_factory=lambda: SelfPacedConfig(lambdas=(1.0, 0.5, 0.5)))

    def __post_init__(self):
        if self.loss_mode not in PRETRAIN_MODES:
            raise InvalidConfig(f"loss_mode must be one of {PRETRAIN_MODES}, got {self.loss_mode!r}")
        check_at_least(self, epochs=1, batch_originals=2)
        check_finite(self, "lr")
        if self.lr <= 0.0:
            raise InvalidConfig(f"lr must be positive, got {self.lr}")


@dataclass(frozen=True)
class SemiSupConfig:
    epochs: int = 40
    batch_size: int = 8
    unlabeled_batch_originals: int = 8
    lr: float = 1e-3
    lambda_reg: float = 0.1
    lambda_sp: float = 0.1
    ema_decay: float = 0.99
    consistency_noise: float = 0.05
    sp_on_unlabeled_only: bool = False
    encoder_lr_scale: float = 1.0
    sp_weighting: bool = True  # False: unweighted meta-contrastive term (w = 1)
    self_paced: SelfPacedConfig = field(default_factory=lambda: SelfPacedConfig(lambdas=(1.0, 0.5, 0.5)))

    def __post_init__(self):
        check_at_least(self, epochs=1, batch_size=1, unlabeled_batch_originals=2)
        check_finite(self, "lr", "lambda_reg", "lambda_sp", "ema_decay", "consistency_noise", "encoder_lr_scale")
        if self.lr <= 0.0:
            raise InvalidConfig(f"lr must be positive, got {self.lr}")
        check_at_least(self, lambda_reg=0.0, lambda_sp=0.0, consistency_noise=0.0, encoder_lr_scale=0.0)
        if not (0.0 <= self.ema_decay < 1.0):
            raise InvalidConfig(f"ema_decay must be in [0, 1), got {self.ema_decay}")


@dataclass
class TrainingState:
    """Mutable loop state; the history list is append-only."""

    model: ParamModel
    teacher: EmaTeacher | None
    optimizer: RAdam
    epoch: int = 0
    gamma: float = 1.0
    history: list[dict] = field(default_factory=list)


def write_history_csv(history: list[dict], path) -> None:
    """Loss-history CSV; float cells use repr so identical runs match bytewise."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(HISTORY_COLUMNS)
        for row in history:
            writer.writerow(
                [row["epoch"], row["step"]] + [repr(float(row[c])) for c in HISTORY_COLUMNS[2:]]
            )


# ---------------------------------------------------------------------------
# data streams (per-epoch seeded)
# ---------------------------------------------------------------------------

def labeled_batches(dataset: SynthDataset, refs, batch_size: int, rng: np.random.Generator):
    order = rng.permutation(len(refs))
    for start in range(0, len(refs), batch_size):
        take = [refs[i] for i in order[start : start + batch_size]]
        images = np.stack([dataset.volumes[vi].slices[si] for vi, si in take])
        masks = np.stack([dataset.volumes[vi].masks[si] for vi, si in take])
        yield images, masks


@dataclass(frozen=True)
class UnlabeledBatch:
    pair: PairBatch
    clean_images: np.ndarray
    student_view: np.ndarray


def unlabeled_batches(
    dataset: SynthDataset,
    refs,
    batch_originals: int,
    policy: AugmentationPolicy,
    rng: np.random.Generator,
    noise_sigma: float = 0.0,
):
    order = rng.permutation(len(refs))
    usable = (len(refs) // batch_originals) * batch_originals
    for start in range(0, usable, batch_originals):
        take = [refs[i] for i in order[start : start + batch_originals]]
        pair = build_pair_batch(dataset, take, policy, rng)
        clean = np.stack([dataset.volumes[vi].slices[si] for vi, si in take])
        student = np.clip(clean + rng.normal(0.0, noise_sigma, size=clean.shape), 0.0, 1.0) if noise_sigma > 0 else clean
        yield UnlabeledBatch(pair=pair, clean_images=clean, student_view=student)


def _require_full_batch(num_slices: int, batch_originals: int, field: str) -> None:
    """unlabeled_batches drops the remainder, so too few slices would train zero steps."""
    if num_slices < batch_originals:
        raise InvalidConfig(
            f"{field}={batch_originals} exceeds the {num_slices} unlabeled training slices; "
            "no batch would be drawn and training would take zero steps"
        )


# ---------------------------------------------------------------------------
# the training loop
# ---------------------------------------------------------------------------

def _fit(
    state: TrainingState, phase: str, config: PretrainConfig | SemiSupConfig, names: list[str], batches, loss
) -> TrainingState:
    """Run ``config.epochs`` epochs of the step both phases share.

    ``batches(epoch)`` yields an epoch's batches. Per batch, ``loss(batch,
    gamma)`` returns the taped total, the (sup, reg, sp_con) terms and the
    pair-weight stats; gradients over ``names`` feed one RAdam step, the
    teacher (if any) takes one EMA update, and one history row is appended.
    Gamma follows ``config.self_paced``'s pace, advancing after each epoch. A
    NaN/Inf or a vanishing norm is re-raised naming the phase, epoch and step.
    The ops' raising error state catches a NaN/Inf where it arises; the check
    on the scalar loss (and RAdam's scan of the new parameters) backs it up
    for any routine that sets no floating-point flag.
    """
    params = state.model.params
    state.gamma = pace_schedule(config.self_paced, 0, config.epochs)
    for epoch in range(config.epochs):
        for step, batch in enumerate(batches(epoch)):
            try:
                with GradTape() as tape:
                    total, terms, w_stats = loss(batch, state.gamma)
                value = total.item()
                if not math.isfinite(value):
                    raise NonFiniteValue("the loss is NaN/Inf")
                grads = tape.gradient(total, [params[n] for n in names], warn_disconnected=False)
                state.optimizer.step(params, dict(zip(names, grads)))
                if state.teacher is not None:
                    ema_update(state.teacher, state.model)
            except (NonFiniteValue, NormTooSmall) as exc:
                raise type(exc)(f"{phase} epoch {epoch} step {step}: {exc}") from exc
            row = (epoch, step, *terms, value, state.gamma, *w_stats)
            state.history.append(dict(zip(HISTORY_COLUMNS, row)))
        state.epoch += 1
        state.gamma = pace_schedule(config.self_paced, state.epoch, config.epochs)
    return state


def _sp_term(model: ParamModel, images, structure: PairStructure, gamma: float, cfg: SelfPacedConfig, weighted: bool):
    """Embed a pair batch's images; return its self-paced contrastive loss and pair-weight stats."""
    loss, w = combined_sp_loss(model.embed_batch(images), structure, gamma, cfg, weighted=weighted)
    return loss, weight_stats(w)


def run_pretraining(
    model: ParamModel,
    dataset: SynthDataset,
    config: PretrainConfig,
    seed: int = 0,
    policy: AugmentationPolicy | None = None,
) -> TrainingState:
    """Pre-train encoder+head on the train split; decoder is left untouched."""
    policy = policy or AugmentationPolicy()
    config = replace(config, self_paced=config.self_paced.with_default_pace(config.batch_originals))
    refs = dataset.slice_refs("train")
    _require_full_batch(len(refs), config.batch_originals, "batch_originals")
    unsup = config.loss_mode in ("unsup", "unsup_sp")
    sp_cfg = replace(config.self_paced, lambdas=(1.0,)) if unsup else config.self_paced
    weighted = config.loss_mode in ("sp", "unsup_sp")
    per_image = None  # reused while batches pair their views alike: per_image_labels depend only on the size

    def batches(epoch):
        rng = np.random.default_rng([seed, epoch, 1])
        return (b.pair for b in unlabeled_batches(dataset, refs, config.batch_originals, policy, rng))

    def loss(pair: PairBatch, gamma: float):
        nonlocal per_image
        if not unsup:
            structure = PairStructure(pair.pair_of, pair.meta_labels)
        else:
            if per_image is None or not np.array_equal(per_image.pair_of, pair.pair_of):
                per_image = PairStructure(pair.pair_of, per_image_labels(pair.images.shape[0] // 2))
            structure = per_image
        sp, w_stats = _sp_term(model, pair.images, structure, gamma, sp_cfg, weighted)
        return sp, (0.0, 0.0, sp.item()), w_stats

    state = TrainingState(model=model, teacher=None, optimizer=RAdam(lr=config.lr))
    return _fit(state, "pretrain", config, sorted(model.encoder_head_params()), batches, loss)


def run_semisup(
    model: ParamModel,
    dataset: SynthDataset,
    labeled_patients: list[int],
    config: SemiSupConfig,
    seed: int = 0,
    policy: AugmentationPolicy | None = None,
) -> TrainingState:
    """Semi-supervised training on the train split with the given labeled patients.

    With both lambdas zero the unlabeled stream is never drawn and this is
    plain supervised training. Otherwise the unlabeled stream drives the step
    count and labeled batches cycle.
    """
    policy = policy or AugmentationPolicy()
    config = replace(
        config, self_paced=config.self_paced.with_default_pace(config.unlabeled_batch_originals)
    )
    train_ids = set(dataset.splits["train"])
    bad = set(labeled_patients) - train_ids
    if bad:
        raise InvalidConfig(f"labeled patients {sorted(bad)} are not in the train split")
    labeled_refs = [
        (vi, si)
        for vi, v in enumerate(dataset.volumes)
        if v.patient_id in set(labeled_patients)
        for si in range(v.num_slices)
    ]
    if not labeled_refs:
        raise InvalidConfig(f"labeled patients {list(labeled_patients)} hold no slices; training would take zero steps")
    if config.sp_on_unlabeled_only:
        unlabeled_refs = [
            (vi, si)
            for vi, si in dataset.slice_refs("train")
            if dataset.volumes[vi].patient_id not in set(labeled_patients)
        ]
    else:
        unlabeled_refs = dataset.slice_refs("train")
    use_unlabeled = config.lambda_reg > 0 or config.lambda_sp > 0
    if use_unlabeled:
        _require_full_batch(len(unlabeled_refs), config.unlabeled_batch_originals, "unlabeled_batch_originals")

    def batches(epoch):
        lab = labeled_batches(dataset, labeled_refs, config.batch_size, np.random.default_rng([seed, epoch, 0]))
        if not use_unlabeled:
            return ((b, None) for b in lab)
        unl_rng = np.random.default_rng([seed, epoch, 1])
        unl = unlabeled_batches(
            dataset, unlabeled_refs, config.unlabeled_batch_originals, policy, unl_rng,
            noise_sigma=config.consistency_noise,
        )
        return zip(itertools.cycle(list(lab)), unl)

    # only the consistency term reads the teacher
    teacher = EmaTeacher(model, decay=config.ema_decay) if config.lambda_reg > 0 else None

    def loss(batch, gamma: float):
        (images, masks), unlabeled = batch
        sup = supervised_loss(model.segment_batch(images), masks)
        total, reg_value, sp_value, w_stats = sup, 0.0, 0.0, (0.0, 0.0, 0.0)
        if config.lambda_reg > 0:
            teacher_logits = teacher.as_model().segment_batch(unlabeled.clean_images)
            reg = consistency_loss(model.segment_batch(unlabeled.student_view), teacher_logits.data)
            reg_value = reg.item()
            total = total + reg * config.lambda_reg
        if config.lambda_sp > 0:
            pair = unlabeled.pair
            structure = PairStructure(pair.pair_of, pair.meta_labels)
            sp, w_stats = _sp_term(model, pair.images, structure, gamma, config.self_paced, config.sp_weighting)
            sp_value = sp.item()
            total = total + sp * config.lambda_sp
        return total, (sup.item(), reg_value, sp_value), w_stats

    scales = (
        {"enc.": config.encoder_lr_scale, "head.": config.encoder_lr_scale}
        if config.encoder_lr_scale != 1.0
        else None
    )
    state = TrainingState(model=model, teacher=teacher, optimizer=RAdam(lr=config.lr, lr_scales=scales))
    return _fit(state, "semisup", config, sorted(model.params), batches, loss)


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def dice_coefficient(a: np.ndarray, b: np.ndarray) -> float:
    """2|A.B| / (|A|+|B|) for boolean masks; both empty counts as perfect."""
    a, b = np.asarray(a, dtype=bool), np.asarray(b, dtype=bool)
    denom = int(a.sum()) + int(b.sum())
    if denom == 0:
        return 1.0
    return 2.0 * int((a & b).sum()) / denom


@dataclass(frozen=True)
class DiceReport:
    per_class: dict[int, float]
    mean: float  # over foreground classes


def evaluate_dice(model: ParamModel, dataset: SynthDataset, split: str = "test") -> DiceReport:
    """Volume-level Dice: slices regrouped into their scan before the overlap."""
    volumes = dataset.volumes_in(split)
    if not volumes:
        raise InvalidConfig(f"split {split!r} is empty")
    classes = range(model.config.num_classes)
    per_class = {c: [] for c in classes}
    for vol in volumes:
        logits = model.segment_batch(vol.slices).data
        pred = np.argmax(logits, axis=-1)
        for c in classes:
            per_class[c].append(dice_coefficient(pred == c, vol.masks == c))
    averaged = {c: float(np.mean(v)) for c, v in per_class.items()}
    foreground = [averaged[c] for c in classes if c != 0]
    return DiceReport(per_class=averaged, mean=float(np.mean(foreground)))
