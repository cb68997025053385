"""Variant ladder on synthetic data: pre-training losses, semi-supervised
regularizers, and the fully supervised bounds, with shared seeds per row.

Each variant is one training recipe; rows report per-seed test Dice plus
mean/std. The directional experiment (a fixed five-row subset under a
feature-preserving fine-tune protocol, plus a label-noise comparison of
linear self-pacing against unweighted meta-contrast) reproduces the
qualitative trends at desk scale.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, replace
import numpy as np

from .config import ExperimentConfig
from .errors import InvalidConfig
from .models import ParamModel
from .semi_supervised import evaluate_dice, run_pretraining, run_semisup
from .synth_data import SynthDataset, generate_dataset

VARIANTS = (
    "baseline",
    "unsup-con",
    "unsup-con+SP",
    "con(meta)",
    "sp-con(pretrain)",
    "sp-con(semisup)",
    "sp-con(both)",
    "sp-con(both)+mean-teacher",
    "full-supervision",
)

_PRETRAIN_MODE = {
    "unsup-con": "unsup",
    "unsup-con+SP": "unsup_sp",
    "con(meta)": "meta",
    "sp-con(pretrain)": "sp",
    "sp-con(both)": "sp",
    "sp-con(both)+mean-teacher": "sp",
}


@dataclass(frozen=True)
class AblationRow:
    variant: str
    dice: tuple[float, ...]  # one entry per seed, same seeds across variants
    mean: float
    std: float

    @classmethod
    def from_scores(cls, variant: str, scores: list[float]) -> "AblationRow":
        return cls(
            variant=variant,
            dice=tuple(scores),
            mean=float(np.mean(scores)),
            std=float(np.std(scores)),
        )

    @property
    def median(self) -> float:
        return float(np.median(self.dice))


def run_variant(
    variant: str,
    dataset: SynthDataset,
    config: ExperimentConfig,
    seed: int,
    eval_dataset: SynthDataset | None = None,
) -> float:
    """Train one recipe end to end and return its test Dice."""
    if variant not in VARIANTS:
        raise InvalidConfig(f"unknown variant {variant!r}; expected one of {VARIANTS}")
    if variant == "full-supervision":
        labeled = dataset.splits["train"]
    else:
        labeled = dataset.first_train_patients(config.ablation.num_labeled)
    model = ParamModel(replace(config.model, seed=seed))

    mode = _PRETRAIN_MODE.get(variant)
    if mode is not None:
        pre = replace(config.pretrain, loss_mode=mode)
        run_pretraining(model, dataset, pre, seed=seed, policy=config.augment)

    if variant in ("sp-con(semisup)", "sp-con(both)"):
        semi = replace(config.semisup, lambda_reg=0.0)
    elif variant == "sp-con(both)+mean-teacher":
        semi = config.semisup
    else:  # baseline, the pretrain-only rows and full-supervision: supervised fine-tune
        semi = replace(config.semisup, lambda_reg=0.0, lambda_sp=0.0)
    state = run_semisup(model, dataset, labeled, semi, seed=seed, policy=config.augment)
    report = evaluate_dice(state.model, eval_dataset or dataset, split=config.ablation.eval_split)
    return report.mean


def run_ablation(
    config: ExperimentConfig,
    dataset: SynthDataset | None = None,
    variants: tuple[str, ...] = VARIANTS,
    eval_dataset: SynthDataset | None = None,
) -> list[AblationRow]:
    """All requested variants over the shared seed set."""
    dataset = dataset or generate_dataset(**config.data_kwargs())
    rows = []
    for variant in variants:
        scores = [
            run_variant(variant, dataset, config, seed, eval_dataset=eval_dataset)
            for seed in config.ablation.seeds
        ]
        rows.append(AblationRow.from_scores(variant, scores))
    return rows


def ablation_checks(rows: list[AblationRow], baseline_margin: float) -> list[str]:
    """Expected orderings for a completed table; returns human-readable failures."""
    by_name = {r.variant: r for r in rows}
    problems = []
    if "full-supervision" in by_name:
        top = by_name["full-supervision"].mean
        for r in rows:
            if r.variant != "full-supervision" and top < r.mean:
                problems.append(f"full-supervision ({top:.3f}) below {r.variant} ({r.mean:.3f})")
    if "sp-con(both)+mean-teacher" in by_name and "baseline" in by_name:
        gap = by_name["sp-con(both)+mean-teacher"].mean - by_name["baseline"].mean
        if gap < baseline_margin:
            problems.append(
                f"sp-con(both)+mean-teacher beats baseline by {gap:.3f} < margin {baseline_margin}"
            )
    return problems


def write_ablation_csv(rows: list[AblationRow], path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        seeds = len(rows[0].dice) if rows else 0
        writer.writerow(["variant"] + [f"dice_seed{i}" for i in range(seeds)] + ["mean", "std"])
        for r in rows:
            writer.writerow([r.variant] + [repr(v) for v in r.dice] + [repr(r.mean), repr(r.std)])


def format_ablation_table(rows: list[AblationRow]) -> str:
    width = max(len(r.variant) for r in rows)
    lines = [f"{'variant'.ljust(width)}  mean    std     per-seed"]
    for r in rows:
        per_seed = " ".join(f"{v:.3f}" for v in r.dice)
        lines.append(f"{r.variant.ljust(width)}  {r.mean:.3f}  {r.std:.3f}   {per_seed}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# the directional desk-scale experiment
# ---------------------------------------------------------------------------

CHAIN_VARIANTS = (
    "baseline",
    "unsup-con",
    "con(meta)",
    "sp-con(pretrain)",
    "sp-con(both)+mean-teacher",
)


@dataclass(frozen=True)
class DirectionalResult:
    medians: dict[str, float]
    chain_holds: bool
    mean_teacher_gain: float
    spl_noise_gain: float
    seconds: float
    chain_dice: dict[str, tuple[float, ...]]  # per-seed test Dice of each chain row
    noise_dice: dict[str, tuple[float, ...]]  # per-seed test Dice of the "linear-spl" and "unweighted" noise arms


def paired_gains(result: DirectionalResult) -> dict[str, tuple[tuple[float, ...], int]]:
    """Per chain link, and for the SPL noise gain: the per-seed differences, later minus earlier
    arm, and the number of seeds whose difference favours the later arm (is positive)."""
    arms = [(a, b, result.chain_dice) for a, b in zip(CHAIN_VARIANTS, CHAIN_VARIANTS[1:])]
    arms.append(("unweighted", "linear-spl", result.noise_dice))
    gains = {}
    for a, b, dice in arms:
        diffs = tuple(y - x for x, y in zip(dice[a], dice[b]))
        gains[f"{a} -> {b}"] = (diffs, sum(d > 0 for d in diffs))
    return gains


def directional_experiment(
    config: ExperimentConfig,
    seeds: tuple[int, ...] = (0, 1, 2, 3, 4),
    noise_level: float = 0.5,
    margin: float = 0.05,
) -> DirectionalResult:
    """Five-variant chain at the configured noise plus the high-noise SPL test.

    The chain rows share one feature-preserving fine-tune protocol (the
    config's encoder_lr_scale); the high-noise comparison trains the full
    semi-supervised objective with closed-form pair weighting against the
    same objective with every pair weight pinned to one.
    """
    import time

    t0 = time.time()
    dataset = generate_dataset(**config.data_kwargs())
    eval_cfg = {**config.data_kwargs(), "num_patients": 20, "noise_level": 0.0, "seed": 1234}
    eval_dataset = generate_dataset(**eval_cfg, val_fraction=0.05, test_fraction=0.9)

    chain_cfg = replace(config, ablation=replace(config.ablation, seeds=tuple(seeds)))
    rows = run_ablation(chain_cfg, dataset=dataset, variants=CHAIN_VARIANTS, eval_dataset=eval_dataset)
    medians = {r.variant: r.median for r in rows}
    order = [medians[v] for v in CHAIN_VARIANTS]
    chain_holds = all(b >= a for a, b in zip(order, order[1:]))
    mt_gain = medians["sp-con(both)+mean-teacher"] - medians["baseline"]

    noisy_kwargs = {**config.data_kwargs(), "noise_level": noise_level}
    noisy = generate_dataset(**noisy_kwargs)
    labeled = noisy.first_train_patients(config.ablation.num_labeled)

    def noisy_run(sp_weighting: bool, loss_mode: str, seed: int) -> float:
        model = ParamModel(replace(config.model, seed=seed))
        pre = replace(config.pretrain, loss_mode=loss_mode)
        run_pretraining(model, noisy, pre, seed=seed, policy=config.augment)
        semi = replace(config.semisup, sp_weighting=sp_weighting)
        state = run_semisup(model, noisy, labeled, semi, seed=seed, policy=config.augment)
        return evaluate_dice(state.model, eval_dataset, split=config.ablation.eval_split).mean

    with_spl = [noisy_run(True, "sp", s) for s in seeds]
    without = [noisy_run(False, "meta", s) for s in seeds]
    spl_gain = float(np.median(with_spl) - np.median(without))

    return DirectionalResult(
        medians=medians,
        chain_holds=chain_holds and mt_gain >= margin,
        mean_teacher_gain=float(mt_gain),
        spl_noise_gain=spl_gain,
        seconds=time.time() - t0,
        chain_dice={r.variant: r.dice for r in rows},
        noise_dice={"linear-spl": tuple(with_spl), "unweighted": tuple(without)},
    )
