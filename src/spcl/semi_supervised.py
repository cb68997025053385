"""Training objectives and loops: cross-entropy, Mean-Teacher consistency,
the combined semi-supervised objective, and the alternating self-paced loop.

The pre-training loop embeds augmented pair batches, solves the pair weights
in closed form, and steps the encoder+head on the weighted loss. The
semi-supervised loop optimizes

    total = sup + lambda_reg * consistency + lambda_sp * sp_contrastive

Both loops take their contrastive term, and the pair-weight statistics they
log, from ``self_paced.combined_sp_loss``: one call per batch, in every
pre-training mode and with or without self-paced weighting.

with one optimizer step per batch and an EMA teacher update after each step.
With both lambdas zero it degenerates to plain supervised training (and is
the supervised baseline, bit for bit: the unlabeled stream is never touched).

All stochastic draws flow through per-epoch seeded generators, so two runs
with the same config and seed produce identical loss histories.
"""

from __future__ import annotations

import csv
import itertools
from dataclasses import dataclass, field, replace
import numpy as np

from .autodiff import GradTape, Tensor, tsum
from .contrastive import AugmentedBatch
from .errors import InvalidConfig, ShapeMismatch
from .models import EmaTeacher, ParamModel, ema_update
from .optim import RAdam
from .schema import check_finite
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

def _softmax_rows(logits: Tensor) -> Tensor:
    from .autodiff import detached_max

    shift = detached_max(logits, axis=1, keepdims=True)
    e = (logits - shift).exp()
    return e / tsum(e, axis=1, keepdims=True)


def _flatten_logits(logits) -> Tensor:
    t = logits if isinstance(logits, Tensor) else Tensor(np.asarray(logits, dtype=np.float64))
    if t.ndim < 2:
        raise ShapeMismatch(f"logits need a trailing class axis, got shape {t.shape}")
    classes = t.shape[-1]
    return t.reshape(int(np.prod(t.shape[:-1])), classes)


def supervised_loss(logits, target) -> Tensor:
    """Mean per-pixel cross-entropy under softmax.

    logits: (..., C); target: integer class indices of shape logits.shape[:-1].
    """
    flat = _flatten_logits(logits)
    classes = flat.shape[1]
    t = np.asarray(target, dtype=np.int64).reshape(-1)
    if t.size != flat.shape[0]:
        raise ShapeMismatch(f"target size {t.size} does not match {flat.shape[0]} pixels")
    if t.min() < 0 or t.max() >= classes:
        raise InvalidConfig(f"target labels must lie in [0, {classes})")
    from .autodiff import masked_logsumexp_rows

    log_probs = flat - masked_logsumexp_rows(flat, np.ones((1, classes)))
    onehot = np.zeros((t.size, classes))
    onehot[np.arange(t.size), t] = 1.0
    return tsum(Tensor(onehot) * log_probs) * (-1.0 / t.size)


def consistency_loss(student_logits, teacher_logits) -> Tensor:
    """Mean squared difference of softmax probabilities, student vs frozen teacher.

    The teacher side is treated as a constant: no gradient flows into it.
    """
    t_data = teacher_logits.data if isinstance(teacher_logits, Tensor) else np.asarray(teacher_logits, dtype=np.float64)
    s = student_logits if isinstance(student_logits, Tensor) else Tensor(np.asarray(student_logits, dtype=np.float64))
    if s.shape != t_data.shape:
        raise ShapeMismatch(f"student {s.shape} vs teacher {t_data.shape}")
    ps = _softmax_rows(_flatten_logits(s))
    e = np.exp(t_data.reshape(ps.shape) - t_data.reshape(ps.shape).max(axis=1, keepdims=True))
    pt = e / e.sum(axis=1, keepdims=True)
    diff = ps - Tensor(pt)
    return (diff * diff).mean()


@dataclass(frozen=True)
class LossBreakdown:
    """Per-step loss terms; reg and sp_con are unscaled, total carries the lambdas."""

    sup: float
    reg: float
    sp_con: float
    total: float

    def check_additivity(self, lambda_reg: float, lambda_sp: float, tol: float = 1e-10) -> bool:
        return abs(self.total - (self.sup + lambda_reg * self.reg + lambda_sp * self.sp_con)) <= tol


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
        if self.epochs < 1 or self.batch_originals < 2:
            raise InvalidConfig("need epochs >= 1 and batch_originals >= 2")
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
        if self.epochs < 1 or self.batch_size < 1 or self.unlabeled_batch_originals < 2:
            raise InvalidConfig("need epochs >= 1, batch_size >= 1 and unlabeled_batch_originals >= 2")
        check_finite(self, "lr", "lambda_reg", "lambda_sp", "ema_decay", "consistency_noise", "encoder_lr_scale")
        if self.lr <= 0.0:
            raise InvalidConfig(f"lr must be positive, got {self.lr}")
        if self.lambda_reg < 0 or self.lambda_sp < 0:
            raise InvalidConfig("loss weights must be non-negative")
        if not (0.0 <= self.ema_decay < 1.0):
            raise InvalidConfig(f"ema_decay must be in [0, 1), got {self.ema_decay}")
        if self.consistency_noise < 0.0 or self.encoder_lr_scale < 0.0:
            raise InvalidConfig("consistency_noise and encoder_lr_scale must be non-negative")


@dataclass
class TrainingState:
    """Mutable loop state; the history list is append-only."""

    model: ParamModel
    teacher: EmaTeacher | None
    optimizer: RAdam
    max_epoch: int
    seed: int
    epoch: int = 0
    gamma: float = 1.0
    history: list[dict] = field(default_factory=list)

    def record(self, step: int, breakdown: LossBreakdown, gamma: float, w_stats: tuple[float, float, float]):
        self.history.append(
            {
                "epoch": self.epoch,
                "step": step,
                "sup": breakdown.sup,
                "reg": breakdown.reg,
                "sp_con": breakdown.sp_con,
                "total": breakdown.total,
                "gamma": gamma,
                "mean_w": w_stats[0],
                "min_w": w_stats[1],
                "max_w": w_stats[2],
            }
        )


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
# pre-training
# ---------------------------------------------------------------------------

def _pretrain_loss(model: ParamModel, batch: PairBatch, mode: str, gamma: float, cfg: SelfPacedConfig):
    """Embed, assemble the contrastive batch, and return (loss, weight stats)."""
    z = model.embed_batch(batch.images)
    if mode in ("unsup", "unsup_sp"):
        labels = per_image_labels(batch.images.shape[0] // 2)
        cfg = replace(cfg, lambdas=(1.0,))
    else:
        labels = batch.meta_labels
    aug = AugmentedBatch(z, batch.pair_of, labels)
    loss, w = combined_sp_loss(aug, gamma, cfg, weighted=mode in ("sp", "unsup_sp"))
    return loss, weight_stats(w)


def pretrain_epoch(state: TrainingState, unlabeled_stream, config: PretrainConfig) -> TrainingState:
    """One pass: closed-form weights per batch, one encoder+head step per batch."""
    sp_cfg = config.self_paced
    if sp_cfg.gamma_start is None or sp_cfg.gamma_end is None:
        raise InvalidConfig("resolve pace endpoints before training (with_default_pace)")
    step = 0
    for batch in unlabeled_stream:
        if isinstance(batch, UnlabeledBatch):
            batch = batch.pair
        with GradTape() as tape:
            loss, w_stats = _pretrain_loss(state.model, batch, config.loss_mode, state.gamma, sp_cfg)
        params = state.model.encoder_head_params()
        names = sorted(params)
        grads = tape.gradient(loss, [params[n] for n in names], warn_disconnected=False)
        state.optimizer.step(state.model.params, dict(zip(names, grads)))
        value = loss.item()
        state.record(step, LossBreakdown(0.0, 0.0, value, value), state.gamma, w_stats)
        step += 1
    state.epoch += 1
    state.gamma = pace_schedule(sp_cfg, state.epoch, state.max_epoch)
    return state


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
    state = TrainingState(
        model=model,
        teacher=None,
        optimizer=RAdam(lr=config.lr),
        max_epoch=config.epochs,
        seed=seed,
        gamma=pace_schedule(config.self_paced, 0, config.epochs),
    )
    for epoch in range(config.epochs):
        rng = np.random.default_rng([seed, epoch, 1])
        stream = unlabeled_batches(dataset, refs, config.batch_originals, policy, rng)
        pretrain_epoch(state, stream, config)
    return state


# ---------------------------------------------------------------------------
# semi-supervised training
# ---------------------------------------------------------------------------

def semisup_epoch(
    state: TrainingState,
    labeled_stream,
    unlabeled_stream,
    config: SemiSupConfig,
) -> TrainingState:
    """One epoch of total = sup + lambda_reg*consistency + lambda_sp*sp_con.

    With both lambdas zero the unlabeled stream is ignored entirely and the
    epoch is plain supervised training. Otherwise the unlabeled stream drives
    the step count and labeled batches cycle.
    """
    use_unlabeled = (config.lambda_reg > 0 or config.lambda_sp > 0) and unlabeled_stream is not None
    if use_unlabeled:
        pairs = zip(itertools.cycle(list(labeled_stream)), unlabeled_stream)
    else:
        pairs = ((lab, None) for lab in labeled_stream)

    sp_cfg = config.self_paced
    for step, ((images, masks), unlabeled) in enumerate(pairs):
        w_stats = (0.0, 0.0, 0.0)
        with GradTape() as tape:
            sup = supervised_loss(state.model.segment_batch(images), masks)
            total = sup
            reg_value = 0.0
            sp_value = 0.0
            if unlabeled is not None and config.lambda_reg > 0:
                teacher_logits = state.teacher.as_model().segment_batch(unlabeled.clean_images)
                student_logits = state.model.segment_batch(unlabeled.student_view)
                reg = consistency_loss(student_logits, teacher_logits.data)
                reg_value = reg.item()
                total = total + reg * config.lambda_reg
            if unlabeled is not None and config.lambda_sp > 0:
                z = state.model.embed_batch(unlabeled.pair.images)
                aug = AugmentedBatch(z, unlabeled.pair.pair_of, unlabeled.pair.meta_labels)
                sp, w = combined_sp_loss(aug, state.gamma, sp_cfg, weighted=config.sp_weighting)
                w_stats = weight_stats(w)
                sp_value = sp.item()
                total = total + sp * config.lambda_sp
        names = sorted(state.model.params)
        grads = tape.gradient(total, [state.model.params[n] for n in names], warn_disconnected=False)
        state.optimizer.step(state.model.params, dict(zip(names, grads)))
        if state.teacher is not None:
            ema_update(state.teacher, state.model, config.ema_decay)
        state.record(
            step,
            LossBreakdown(sup=sup.item(), reg=reg_value, sp_con=sp_value, total=total.item()),
            state.gamma,
            w_stats,
        )
    state.epoch += 1
    state.gamma = pace_schedule(sp_cfg, state.epoch, state.max_epoch)
    return state


def run_semisup(
    model: ParamModel,
    dataset: SynthDataset,
    labeled_patients: list[int],
    config: SemiSupConfig,
    seed: int = 0,
    policy: AugmentationPolicy | None = None,
) -> TrainingState:
    """Semi-supervised training on the train split with the given labeled patients."""
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
    if config.lambda_reg > 0 or config.lambda_sp > 0:
        _require_full_batch(len(unlabeled_refs), config.unlabeled_batch_originals, "unlabeled_batch_originals")

    scales = (
        {"enc.": config.encoder_lr_scale, "head.": config.encoder_lr_scale}
        if config.encoder_lr_scale != 1.0
        else None
    )
    state = TrainingState(
        model=model,
        teacher=EmaTeacher(model, decay=config.ema_decay),
        optimizer=RAdam(lr=config.lr, lr_scales=scales),
        max_epoch=config.epochs,
        seed=seed,
        gamma=pace_schedule(config.self_paced, 0, config.epochs),
    )
    for epoch in range(config.epochs):
        lab_rng = np.random.default_rng([seed, epoch, 0])
        lab = labeled_batches(dataset, labeled_refs, config.batch_size, lab_rng)
        if config.lambda_reg > 0 or config.lambda_sp > 0:
            unl_rng = np.random.default_rng([seed, epoch, 1])
            unl = unlabeled_batches(
                dataset,
                unlabeled_refs,
                config.unlabeled_batch_originals,
                policy,
                unl_rng,
                noise_sigma=config.consistency_noise,
            )
        else:
            unl = None
        semisup_epoch(state, lab, unl, config)
    return state


def train_supervised(
    model: ParamModel,
    dataset: SynthDataset,
    labeled_patients: list[int],
    config: SemiSupConfig,
    seed: int = 0,
) -> TrainingState:
    """Supervised baseline: the semi-supervised loop with both lambdas at zero."""
    return run_semisup(
        model,
        dataset,
        labeled_patients,
        replace(config, lambda_reg=0.0, lambda_sp=0.0),
        seed=seed,
    )


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
