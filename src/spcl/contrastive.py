"""Contrastive losses over augmented batches with meta-labels.

A batch of N original images becomes 2N augmented samples with unit-norm
embeddings z_i, a fixed-point-free pairing involution j(i) linking the two
views of each original, and K integer meta-label vectors. For an anchor i
and candidate j, the per-pair loss is

    l_ij = log sum_{a != i} exp(z_i . z_a / tau)  -  z_i . z_j / tau

computed with a max-shifted log-sum-exp (exponents reach +-2/tau, which
overflows naively for small temperatures): ``pair_loss_values`` is the Gram
``matmul`` followed by one node. The meta-label loss averages l over each
anchor's positive set

    P^k(i) = { j | y^k_j = y^k_i, j != i }  union  { j(i) },

and the unsupervised loss is the meta-label loss with one class per
original image, where P(i) = { j(i) }. ``masked_mean_sum`` reduces the
(2N, 2N) loss matrix under K constant coefficient matrices
(``mask_coefficients`` of the ``positive_masks`` stack, times any weights)
as one tape node; ``self_paced.combined_sp_loss`` is its one caller in
training.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor, _apply, _as_tensor, row_maxes, row_sums
from .errors import InvalidConfig


@dataclass(frozen=True)
class AugmentedBatch:
    """2N embedded samples: unit-row embeddings, pairing map, K meta-label vectors.

    embeddings: (2N, d) Tensor (or array, wrapped), rows unit-norm within 1e-10.
    pair_of:    (2N,) int array, an involution with no fixed point.
    meta_labels:(K, 2N) int array; the two views of an original share labels.
    """

    embeddings: Tensor
    pair_of: np.ndarray
    meta_labels: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "embeddings", _as_tensor(self.embeddings))
        object.__setattr__(self, "pair_of", np.asarray(self.pair_of, dtype=np.int64))
        labels = np.atleast_2d(np.asarray(self.meta_labels, dtype=np.int64))
        object.__setattr__(self, "meta_labels", labels)
        z, pair = self.embeddings, self.pair_of
        if z.ndim != 2:
            raise InvalidConfig(f"embeddings must be 2-D, got shape {z.shape}")
        n2 = z.shape[0]
        if n2 < 2 or n2 % 2:
            raise InvalidConfig(f"batch must hold 2N >= 2 samples, got {n2}")
        if pair.shape != (n2,):
            raise InvalidConfig("pair_of length must match the number of samples")
        idx = np.arange(n2)
        if np.any(pair == idx) or np.any(pair[pair] != idx):
            raise InvalidConfig("pair_of must be a fixed-point-free involution")
        if labels.shape[1] != n2:
            raise InvalidConfig("each meta-label vector must cover all 2N samples")
        if np.any(labels != labels[:, pair]):
            raise InvalidConfig("paired views must carry identical meta-labels")
        norms = np.linalg.norm(z.data, axis=1)
        if np.any(np.abs(norms - 1.0) > 1e-10):
            raise InvalidConfig(f"embedding rows must be unit norm, worst |1-||z||| = {np.abs(norms - 1.0).max():.2e}")

    @property
    def num_samples(self) -> int:
        """2N, the augmented-set size."""
        return self.embeddings.shape[0]

    @property
    def num_meta_labels(self) -> int:
        return self.meta_labels.shape[0]


def _check_tau(tau: float) -> float:
    tau = float(tau)
    if not 0.0 < tau < math.inf:
        raise InvalidConfig(f"temperature must be positive and finite, got {tau}")
    return tau


def positive_masks(batch: AugmentedBatch, ks: tuple[int, ...]) -> np.ndarray:
    """Boolean (K, 2N, 2N) stack: row i of slice k is True exactly on P^{ks[k]}(i)."""
    labels = batch.meta_labels[list(ks)]
    masks = labels[:, :, None] == labels[:, None, :]
    idx = np.arange(batch.num_samples)
    masks[:, idx, batch.pair_of] = True
    masks[:, idx, idx] = False
    return masks


def pair_loss_values(batch: AugmentedBatch, tau: float) -> Tensor:
    """All l_ij as a (2N, 2N) Tensor (diagonal entries are meaningless).

    l_ij = logsumexp_{a != i}(z_i . z_a / tau) - z_i . z_j / tau, with the
    row max as a constant shift so no exponent exceeds zero. After the
    ``matmul`` op ``z @ z.T``, one node has the bits of the ops ``s = G *
    (1/tau)``, ``log(tsum(exp(s - max) * offdiag, axis=1, keepdims=True)) +
    max - s``: ``s`` takes the cotangent of ``- s``, then adds that under ``exp``.
    """
    inv_tau = np.asarray(1.0 / _check_tau(tau))
    offdiag = 1.0 - np.eye(batch.num_samples)
    saved = []

    def fwd(gram):
        s = gram * inv_tau
        shift = row_maxes(s)
        e = np.exp(s - shift)
        total = row_sums(e * offdiag)
        saved[:] = (e, total)
        return (np.log(total) + shift) - s

    def back(g):
        e, total = saved
        return ((-g + ((row_sums(g) / total) * offdiag) * e) * inv_tau,)

    z = batch.embeddings
    return _apply("pair_loss_values", (z @ z.T,), fwd, lambda datas, out: back)


def mask_coefficients(mask: np.ndarray) -> np.ndarray:
    """``mask`` with each row divided by its count of True entries; any leading axes ride along.

    Every mask row must be non-empty.
    """
    counts = mask.sum(axis=-1)
    if np.any(counts == 0):
        raise InvalidConfig("every anchor needs at least one positive")
    return mask.astype(np.float64) / counts[..., None]


def masked_mean_sum(values: Tensor, coefs: np.ndarray, scales, offsets=None) -> Tensor:
    """sum_k scales[k] * (masked mean of ``values`` under ``coefs[k]`` + offsets[k]), as one tape node.

    ``coefs`` is a (K, 2N, 2N) stack of constant coefficient matrices
    (``mask_coefficients``, times any weights), ``scales`` K floats and
    ``offsets`` K constant floats or None. The value and the cotangent of
    ``values`` have the bits of the K-term sum built from ops,
    ``(tsum(coefs[k] * values) * (1/2N) + offsets[k]) * scales[k]`` added
    left to right: each term's reduction runs over one contiguous (2N, 2N)
    product, and the K cotangents add up in reverse order, as the tape walk
    adds them.
    """
    scales = [float(c) for c in scales]
    inv_n = 1.0 / coefs.shape[1]

    def fwd(x):
        prod = coefs * x
        total = None
        for k, scale in enumerate(scales):
            term = np.sum(prod[k]) * inv_n
            if offsets is not None:
                term = term + offsets[k]
            term = term * scale
            total = term if total is None else total + term
        return np.asarray(total)

    def bwd(datas, out):
        def back(g):
            acc = None
            for k in reversed(range(len(scales))):
                gk = coefs[k] * ((g * scales[k]) * inv_n)
                acc = gk if acc is None else acc + gk
            return (acc,)

        return back

    return _apply("masked_mean_sum", (values,), fwd, bwd)
