"""Self-paced weighting for contrastive pairs: closed-form weights, pace schedule.

Each positive pair (i, j) gets an importance weight w_ij in [0, 1] chosen by
minimizing  w * l + R_gamma(w)  over [0, 1], where the regularizer is either

    hard:   R_gamma(w) = -gamma * w          ->  w* = 1 if l <= gamma else 0
    linear: R_gamma(w) = gamma (w^2/2 - w)   ->  w* = clip(1 - l/gamma, 0, 1)

The pace gamma grows over training as

    gamma(e) = gamma_start + (gamma_end - gamma_start) * (e / max_epoch)^p

and the per-pair losses live in the exact band

    log(1 + 2(N-1) e^{-2/tau})  <=  l_ij  <=  log(1 + 2(N-1) e^{2/tau}),

so scheduling gamma between those bounds moves from "no pair selected" to
"every pair selected". Weights are recomputed in closed form every batch and
held constant while the encoder takes its gradient step.

``combined_sp_loss`` is the one training objective, sum_k lambda_k times the
loss of meta-label k: every pre-training mode, the semi-supervised
regularizer, the pace report and ``spcl verify`` call it. Like every loss
here it takes the batch's embeddings and its ``PairStructure`` as two
arguments, and the labels it uses from ``config.lambdas``; with
``weighted=True`` it is ``sp_contrastive_loss``. It builds the pair-loss
matrix, the closed-form weights and the regularizer once per batch for all
meta-labels, and records the K-label sum as one tape node
(``masked_mean_sum``). With ``weighted=False`` it is the plain meta-label
contrastive loss, and with one class per original image the unsupervised
one. Nothing that depends only on the pairing and the labels is built
here: the positive masks, their ``1/|P^k(i)|`` coefficients and the
off-diagonal mask come from the structure, which training builds for each
pair batch (once per run for unsupervised pre-training) and
``check_gradients`` once per configuration and label set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .autodiff import Tensor
from .contrastive import PairStructure, _check_tau, masked_mean_sum, pair_loss_values
from .errors import InvalidConfig
from .schema import check_finite

HARD = "hard"
LINEAR = "linear"
_REGULARIZERS = (HARD, LINEAR)


@dataclass(frozen=True)
class SelfPacedConfig:
    """Regularizer kind, temperature, pace endpoints/exponent, and meta-label weights.

    gamma_start/gamma_end may be left None and filled from the exact loss
    bounds for a given batch size via ``with_default_pace``.
    """

    regularizer: str = LINEAR
    tau: float = 0.1
    gamma_start: float | None = None
    gamma_end: float | None = None
    p: float = 0.5
    lambdas: tuple[float, ...] = (1.0,)

    def __post_init__(self):
        if self.regularizer not in _REGULARIZERS:
            raise InvalidConfig(f"regularizer must be one of {_REGULARIZERS}, got {self.regularizer!r}")
        check_finite(self, "tau", "gamma_start", "gamma_end", "p")
        if self.tau <= 0.0:
            raise InvalidConfig(f"tau must be positive, got {self.tau}")
        if self.p <= 0.0:
            raise InvalidConfig(f"schedule exponent p must be positive, got {self.p}")
        for name in ("gamma_start", "gamma_end"):
            value = getattr(self, name)
            if value is not None and value <= 0.0:
                raise InvalidConfig(f"{name} must be positive, got {value}")
        if self.gamma_start is not None and self.gamma_end is not None:
            if self.gamma_start > self.gamma_end:
                raise InvalidConfig(f"gamma_start {self.gamma_start} must not exceed gamma_end {self.gamma_end}")
        lam = tuple(float(v) for v in self.lambdas)
        if not all(math.isfinite(v) for v in lam):
            raise InvalidConfig(f"lambdas must be finite, got {lam}")
        if not lam or any(v < 0.0 for v in lam) or not any(v > 0.0 for v in lam):
            raise InvalidConfig("lambdas must be non-negative with at least one positive entry")
        object.__setattr__(self, "lambdas", lam)

    def with_default_pace(self, batch_originals: int) -> "SelfPacedConfig":
        """Fill missing pace endpoints with the exact loss bounds for N originals.

        gamma_end at the upper bound guarantees every pair is used by the end;
        gamma_start at the lower bound is the smallest pace at which any pair
        can be selected at all.
        """
        lo, hi = loss_bounds(batch_originals, self.tau)
        return replace(
            self,
            gamma_start=lo if self.gamma_start is None else self.gamma_start,
            gamma_end=hi if self.gamma_end is None else self.gamma_end,
        )


def _check_gamma(gamma: float) -> float:
    gamma = float(gamma)
    if not 0.0 < gamma < math.inf:
        raise InvalidConfig(f"gamma must be positive and finite, got {gamma}")
    return gamma


def optimal_weight(loss, gamma: float, regularizer: str):
    """Closed-form argmin over w in [0, 1] of w*loss + R_gamma(w).

    Hard mode thresholds (ties at loss == gamma resolve to w = 1); linear mode
    ramps as 1 - loss/gamma, clipped to [0, 1] so the argmin property holds
    for any real loss value. The loss is clipped to [0, gamma] before the
    division, which gives the same bits and cannot overflow however small
    gamma is. Accepts scalars or arrays.
    """
    gamma = _check_gamma(gamma)
    l = np.asarray(loss, dtype=np.float64)
    if regularizer == HARD:
        w = np.where(l <= gamma, 1.0, 0.0)
    elif regularizer == LINEAR:
        w = 1.0 - np.clip(l, 0.0, gamma) / gamma
    else:
        raise InvalidConfig(f"unknown regularizer {regularizer!r}")
    return float(w) if np.isscalar(loss) or np.ndim(loss) == 0 else w


def regularizer_value(w, gamma: float, regularizer: str):
    """R_gamma(w): -gamma*w (hard) or gamma*(w^2/2 - w) (linear)."""
    gamma = _check_gamma(gamma)
    w_arr = np.asarray(w, dtype=np.float64)
    if np.any(w_arr < 0.0) or np.any(w_arr > 1.0):
        raise InvalidConfig("weights must lie in [0, 1]")
    if regularizer == HARD:
        r = -gamma * w_arr
    elif regularizer == LINEAR:
        r = gamma * (0.5 * w_arr * w_arr - w_arr)
    else:
        raise InvalidConfig(f"unknown regularizer {regularizer!r}")
    return float(r) if np.ndim(w) == 0 else r


def loss_bounds(batch_originals: int, tau: float) -> tuple[float, float]:
    """Exact attainable range of l_ij over unit-row batches of N originals.

    (log(1 + 2(N-1) e^{-2/tau}), log(1 + 2(N-1) e^{2/tau})), evaluated via
    log1p/logaddexp so small temperatures cannot overflow.
    """
    n = int(batch_originals)
    if n < 2:
        raise InvalidConfig(f"need at least 2 originals, got {n}")
    tau = _check_tau(tau)
    count = 2.0 * (n - 1)
    lo = float(np.log1p(count * np.exp(-2.0 / tau)))
    hi = float(np.logaddexp(0.0, np.log(count) + 2.0 / tau))
    return lo, hi


def pace_schedule(config: SelfPacedConfig, cur_epoch: int, max_epoch: int) -> float:
    """gamma at a given epoch: start + (end - start) * (cur/max)^p."""
    if max_epoch < 1:
        raise InvalidConfig(f"max_epoch must be >= 1, got {max_epoch}")
    if not (0 <= cur_epoch <= max_epoch):
        raise InvalidConfig(f"cur_epoch {cur_epoch} outside [0, {max_epoch}]")
    if config.gamma_start is None or config.gamma_end is None:
        raise InvalidConfig("pace endpoints unresolved; call with_default_pace first")
    frac = (cur_epoch / max_epoch) ** config.p
    return float(config.gamma_start + (config.gamma_end - config.gamma_start) * frac)


def _pair_losses(embeddings, structure: PairStructure, config: SelfPacedConfig) -> tuple[Tensor, tuple[int, ...]]:
    """The batch's ``pair_loss_values`` and the meta-labels k with lambda_k != 0, in order."""
    if len(config.lambdas) > structure.num_meta_labels:
        raise InvalidConfig(
            f"{len(config.lambdas)} lambdas but batch has {structure.num_meta_labels} meta-labels"
        )
    ks = tuple(k for k, lam in enumerate(config.lambdas) if lam != 0.0)
    return pair_loss_values(embeddings, structure, config.tau), ks


def sp_contrastive_loss(
    embeddings,
    structure: PairStructure,
    gamma: float,
    config: SelfPacedConfig,
) -> tuple[Tensor, np.ndarray]:
    """Self-paced contrastive loss sum_k lambda_k * sp_loss_k at pace gamma, and its pooled weights.

    Computes l_ij once, solves the inner weight problem exactly in closed
    form, and gives each meta-label k with lambda_k != 0 (lambda_k from
    ``config.lambdas``) the loss (1/2N) sum_i (1/|P^k(i)|) sum_j [w_ij l_ij
    + R_gamma(w_ij)]; the sum is one ``masked_mean_sum`` node. The second
    value concatenates, over the used k in order, the in-mask weights w_ij
    flattened row-major over ``positive_masks(structure, (k,))``; the masks
    and their coefficients come from ``structure``. The weights (and the
    regularizer term) are constants for gradient purposes: only w_ij *
    grad(l_ij) reaches the encoder.
    """
    values, ks = _pair_losses(embeddings, structure, config)
    gamma = _check_gamma(gamma)
    w = optimal_weight(values.data, gamma, config.regularizer)
    # the weights are one matrix for every label; inside a mask the masked
    # weights equal it, so R of it, masked, is the per-label R, masked
    masks, coefs = structure.select(ks)
    r = coefs * np.where(masks, regularizer_value(w, gamma, config.regularizer), 0.0)
    offsets = [float(np.sum(r_k) / structure.num_samples) for r_k in r]
    w = np.where(masks, w, 0.0)
    loss = masked_mean_sum(values, coefs * w, [config.lambdas[k] for k in ks], offsets)
    return loss, w[masks]


def combined_sp_loss(
    embeddings,
    structure: PairStructure,
    gamma: float,
    config: SelfPacedConfig,
    weighted: bool = True,
) -> tuple[Tensor, np.ndarray]:
    """The training objective sum_k lambda_k * sp_loss_k, and its pooled weights.

    With ``weighted=True`` it is ``sp_contrastive_loss``. With
    ``weighted=False`` every pair weighs 1 and the regularizer vanishes,
    which is the plain meta-label contrastive loss. Either way the
    pair-loss matrix is built once for every meta-label and the sum is one
    tape node. Meta-labels with lambda_k == 0 are skipped entirely (their
    masks are never read). The second value concatenates, over the used k
    in order, the in-mask weights w_ij.
    """
    if weighted:
        return sp_contrastive_loss(embeddings, structure, gamma, config)
    values, ks = _pair_losses(embeddings, structure, config)
    masks, coefs = structure.select(ks)
    loss = masked_mean_sum(values, coefs, [config.lambdas[k] for k in ks])
    return loss, np.ones(int(masks.sum()))


def weight_stats(weights: np.ndarray) -> tuple[float, float, float]:
    """(mean, min, max) of a set of pair weights."""
    return float(weights.mean()), float(weights.min()), float(weights.max())
