"""Pace dynamics report: gamma and pair-weight statistics over epochs.

On a frozen model and a frozen batch, the pair losses are fixed, so the
weight statistics trace exactly how the schedule admits pairs: gamma runs
its curve for each exponent p and regularizer, and mean/min/max w_ij follow.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, replace

import numpy as np

from .config import ExperimentConfig
from .contrastive import AugmentedBatch
from .errors import InvalidConfig
from .models import ParamModel
from .self_paced import combined_sp_loss, pace_schedule, weight_stats
from .synth_data import build_pair_batch, generate_dataset

PACE_EXPONENTS = (0.5, 1.0, 2.0)
REGULARIZERS = ("hard", "linear")


@dataclass(frozen=True)
class PaceRow:
    epoch: int
    p: float
    regularizer: str
    gamma: float
    mean_w: float
    min_w: float
    max_w: float


def pace_report(
    config: ExperimentConfig,
    max_epoch: int = 20,
    exponents: tuple[float, ...] = PACE_EXPONENTS,
    regularizers: tuple[str, ...] = REGULARIZERS,
) -> list[PaceRow]:
    """One row per (epoch, p, regularizer) on a frozen model and batch."""
    if max_epoch < 1:
        raise InvalidConfig(f"max_epoch must be >= 1, got {max_epoch}")
    dataset = generate_dataset(**config.data_kwargs())
    model = ParamModel(config.model)
    rng = np.random.default_rng([config.seed, 777])
    refs = dataset.slice_refs("train")
    take = [refs[i] for i in rng.permutation(len(refs))[: config.pretrain.batch_originals]]
    pair = build_pair_batch(dataset, take, config.augment, rng)
    batch = AugmentedBatch(model.embed_batch(pair.images), pair.pair_of, pair.meta_labels)

    rows = []
    for regularizer in regularizers:
        for p in exponents:
            cfg = replace(config.self_paced, regularizer=regularizer, p=p).with_default_pace(
                config.pretrain.batch_originals
            )
            for epoch in range(max_epoch + 1):
                gamma = pace_schedule(cfg, epoch, max_epoch)
                _, w = combined_sp_loss(batch, gamma, cfg)
                mean_w, min_w, max_w = weight_stats(w)
                rows.append(
                    PaceRow(
                        epoch=epoch,
                        p=p,
                        regularizer=regularizer,
                        gamma=gamma,
                        mean_w=mean_w,
                        min_w=min_w,
                        max_w=max_w,
                    )
                )
    return rows


def write_pace_csv(rows: list[PaceRow], path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "p", "regularizer", "gamma", "mean_w", "min_w", "max_w"])
        for r in rows:
            writer.writerow(
                [r.epoch, repr(r.p), r.regularizer, repr(r.gamma), repr(r.mean_w), repr(r.min_w), repr(r.max_w)]
            )
