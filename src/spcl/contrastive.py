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

The positive sets depend on the pairing and the meta-labels, never on the
embeddings, so a ``PairStructure`` checks ``(pair_of, meta_labels)`` once
and holds read-only copies of them, the off-diagonal mask, and the
``positive_masks`` / ``mask_coefficients`` stacks of all K labels. Every
loss takes the embeddings and a structure as two arguments;
``pair_loss_values``, the one function that reads the embedding rows,
checks them against the structure. The losses read their masks,
coefficients and off-diagonal from the structure. Training builds one
structure for each pair batch whose contrastive loss it takes
(unsupervised pre-training one per run, rebuilt only if a batch's pairing
differs: its per-image labels never change), and ``check_gradients`` one
per configuration and label set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor, _apply, _as_tensor, row_maxes, row_sums
from .errors import InvalidConfig


def _integers(values, name: str) -> np.ndarray:
    """``values`` as a new int64 array; a ragged nesting or a non-integer value is rejected, naming ``name``."""
    try:
        arr = np.asarray(values)
    except ValueError:  # a ragged nesting, which NumPy cannot shape
        raise InvalidConfig(f"{name} must be a rectangular array, got a ragged sequence") from None
    if arr.dtype.kind in "bi" or arr.dtype.kind == "u" and arr.dtype.itemsize < 8:
        return arr.astype(np.int64)
    if arr.dtype.kind not in "uf":
        raise InvalidConfig(f"{name} must hold integers, got {arr.dtype} values")
    # a value outside int64's [-2**63, 2**63) casts to whatever the CPU gives, so it is rejected before the cast
    if arr.dtype.kind == "u":
        in_range = arr <= np.iinfo(np.int64).max
    else:
        in_range = (arr >= -(2.0**63)) & (arr < 2.0**63)
    ints = np.where(in_range, arr, 0).astype(np.int64)
    inexact = ~in_range | (ints != arr)
    if np.any(inexact):
        raise InvalidConfig(f"{name} must hold integers, got {arr[inexact][0]}")
    return ints


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True, init=False, eq=False)
class PairStructure:
    """The embedding-free part of a batch of 2N samples, checked once.

    pair_of:     (2N,) int64, an involution with no fixed point.
    meta_labels: (K, 2N) int64; the two views of an original share labels.
    offdiag:     (2N, 2N) float, 1 off the diagonal and 0 on it.
    masks:       (K, 2N, 2N) bool, ``positive_masks`` of every label.
    coefs:       (K, 2N, 2N) float, ``mask_coefficients(masks)``.

    Every array is a read-only copy.
    """

    pair_of: np.ndarray
    meta_labels: np.ndarray
    offdiag: np.ndarray
    masks: np.ndarray
    coefs: np.ndarray

    def __init__(self, pair_of, meta_labels):
        pair = _read_only(_integers(pair_of, "pair_of"))
        labels = _read_only(np.atleast_2d(_integers(meta_labels, "meta_labels")))
        if pair.ndim != 1:
            raise InvalidConfig(f"pair_of must be 1-D, got shape {pair.shape}")
        n2 = pair.shape[0]
        if n2 < 2 or n2 % 2:
            raise InvalidConfig(f"batch must hold 2N >= 2 samples, got {n2}")
        idx = np.arange(n2)
        # an index outside [0, 2N) clipped to c cannot be mapped back: pair_of[pair_of[c]] is that index
        if ((pair == idx) | (pair.take(pair, mode="clip") != idx)).any():
            raise InvalidConfig("pair_of must be a fixed-point-free involution")
        if labels.ndim != 2 or labels.shape[1] != n2:
            raise InvalidConfig("each meta-label vector must cover all 2N samples")
        if (labels != labels.take(pair, axis=1)).any():
            raise InvalidConfig("paired views must carry identical meta-labels")
        object.__setattr__(self, "pair_of", pair)
        object.__setattr__(self, "meta_labels", labels)
        object.__setattr__(self, "offdiag", _read_only(1.0 - np.eye(n2)))
        masks = positive_masks(self, range(labels.shape[0]))
        object.__setattr__(self, "masks", _read_only(masks))
        object.__setattr__(self, "coefs", _read_only(mask_coefficients(masks)))

    @property
    def num_samples(self) -> int:
        return self.pair_of.shape[0]

    @property
    def num_meta_labels(self) -> int:
        return self.meta_labels.shape[0]

    def select(self, ks: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
        """The masks and coefficients of meta-labels ``ks``, in that order, as (len(ks), 2N, 2N) stacks."""
        if tuple(ks) == tuple(range(self.num_meta_labels)):
            return self.masks, self.coefs
        rows = list(ks)
        return self.masks[rows], self.coefs[rows]


def _check_tau(tau: float) -> float:
    tau = float(tau)
    if not 0.0 < tau < math.inf:
        raise InvalidConfig(f"temperature must be positive and finite, got {tau}")
    return tau


def positive_masks(structure: PairStructure, ks: tuple[int, ...]) -> np.ndarray:
    """Boolean (K, 2N, 2N) stack: row i of slice k is True exactly on P^{ks[k]}(i)."""
    labels = structure.meta_labels[list(ks)]
    masks = labels[:, :, None] == labels[:, None, :]
    # no "| {j(i)}" step: a PairStructure has rejected twins whose labels
    # differ, so the label match already holds every j(i)
    idx = np.arange(structure.num_samples)
    masks[:, idx, idx] = False
    return masks


def pair_loss_values(embeddings, structure: PairStructure, tau: float) -> Tensor:
    """All l_ij as a (2N, 2N) Tensor (diagonal entries are meaningless).

    ``embeddings`` is a (2N, d) Tensor (or array, wrapped) with one row per
    sample of ``structure``, each of unit norm within 1e-10.

    l_ij = logsumexp_{a != i}(z_i . z_a / tau) - z_i . z_j / tau, with the
    row max as a constant shift so no exponent exceeds zero. After the
    ``matmul`` op ``z @ z.T``, one node has the bits of the ops ``s = G *
    (1/tau)``, ``log(tsum(exp(s - max) * offdiag, axis=1, keepdims=True)) +
    max - s``: ``s`` takes the cotangent of ``- s``, then adds that under ``exp``.
    """
    z = _as_tensor(embeddings)
    if z.ndim != 2:
        raise InvalidConfig(f"embeddings must be 2-D, got shape {z.shape}")
    n2 = z.shape[0]
    if n2 < 2 or n2 % 2:
        raise InvalidConfig(f"batch must hold 2N >= 2 samples, got {n2}")
    if n2 != structure.num_samples:
        raise InvalidConfig("pair_of length must match the number of samples")
    norms = np.sqrt(np.add.reduce(z.data * z.data, axis=1))  # np.linalg.norm's bits
    if (np.abs(norms - 1.0) > 1e-10).any():
        raise InvalidConfig(f"embedding rows must be unit norm, worst |1-||z||| = {np.abs(norms - 1.0).max():.2e}")
    inv_tau = np.asarray(1.0 / _check_tau(tau))
    offdiag = structure.offdiag
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
