"""PairStructure: a batch's pairing, meta-labels, positive masks and coefficients, checked and built once."""

import dataclasses

import numpy as np
import pytest

from conftest import (
    interleaved_pairs,
    op_masked_mean,
    op_pair_loss_values,
    op_positive_mask,
    op_sp_loss,
    same_bytes,
    unit_rows,
)
from spcl.autodiff import GradTape, Tensor
from spcl.contrastive import AugmentedBatch, PairStructure, mask_coefficients, positive_masks
from spcl.errors import InvalidConfig
from spcl.self_paced import HARD, LINEAR, SelfPacedConfig, combined_sp_loss, loss_bounds

LAMBDAS = {1: (1.0,), 3: (1.0, 0.1, 0.25)}


def draw_labels(rng, num_labels: int, n2: int) -> np.ndarray:
    return np.repeat(rng.integers(0, 3, size=(num_labels, n2 // 2)), 2, axis=1)


def pace(n2: int, tau: float) -> float:
    """A pace inside the loss band, where linear weights are fractional; any pace for one original."""
    if n2 == 2:
        return 1.0
    lo, hi = loss_bounds(n2 // 2, tau)
    return 0.5 * (lo + hi)


def oracle_loss(batch: AugmentedBatch, gamma: float, cfg: SelfPacedConfig, weighted: bool):
    """sum_k lambda_k L_k and the pooled weights, one label at a time from ops, with no PairStructure read."""
    values = op_pair_loss_values(batch, cfg.tau)
    total, pooled = None, []
    for k, lam in enumerate(cfg.lambdas):
        if lam == 0.0:
            continue
        if weighted:
            term, w = op_sp_loss(batch, k, gamma, cfg, values=values)
        else:
            mask = op_positive_mask(batch, k)
            term, w = op_masked_mean(values, mask), np.ones(int(mask.sum()))
        pooled.append(w)
        total = term * lam if total is None else total + term * lam
    return total, np.concatenate(pooled)


def evaluate(objective, z: np.ndarray):
    """Value, pooled weights and embedding cotangent of ``objective(embeddings) * 0.1``."""
    emb = Tensor(z, requires_grad=True)
    with GradTape() as tape:
        loss, pooled = objective(emb)
        scaled = loss * 0.1
    return scaled.data, pooled, tape.gradient(scaled, [emb])[0]


def assert_same(got, want):
    assert all(same_bytes(a, b) for a, b in zip(got, want))


class TestSameBits:
    @pytest.mark.parametrize("n2", [2, 8, 16])
    @pytest.mark.parametrize("num_labels", [1, 3])
    @pytest.mark.parametrize("mode", ["hard", "linear", "unweighted"])
    def test_structure_batch_equals_caller_batch_and_ops(self, rng, n2, num_labels, mode):
        weighted = mode != "unweighted"
        cfg = SelfPacedConfig(regularizer=HARD if mode == "hard" else LINEAR, tau=0.5, lambdas=LAMBDAS[num_labels])
        gamma = pace(n2, cfg.tau)
        for _ in range(4):
            z = unit_rows(rng, n2, 5)
            pair, labels = interleaved_pairs(n2), draw_labels(rng, num_labels, n2)
            structure = PairStructure(pair, labels)
            built = evaluate(lambda e: combined_sp_loss(AugmentedBatch.from_structure(e, structure), gamma, cfg,
                                                        weighted=weighted), z)
            caller = evaluate(lambda e: combined_sp_loss(AugmentedBatch(e, pair, labels), gamma, cfg,
                                                         weighted=weighted), z)
            ops = evaluate(lambda e: oracle_loss(AugmentedBatch(e, pair, labels), gamma, cfg, weighted), z)
            assert_same(built, caller)
            assert_same(built, ops)

    def test_label_selections_on_one_structure_equal_fresh_batches(self, rng):
        z, pair, labels = unit_rows(rng, 8, 4), interleaved_pairs(8), draw_labels(rng, 3, 8)
        structure = PairStructure(pair, labels)
        batch = AugmentedBatch.from_structure(z, structure)
        for lambdas in [(1.0, 0.0, 0.1), (1.0, 0.1, 0.0), (1.0, 0.0, 0.1)]:
            cfg = SelfPacedConfig(tau=0.5, lambdas=lambdas).with_default_pace(4)
            gamma = 0.5 * (cfg.gamma_start + cfg.gamma_end)
            for weighted in (True, False):
                loss, pooled = combined_sp_loss(batch, gamma, cfg, weighted=weighted)
                fresh_loss, fresh_pooled = combined_sp_loss(AugmentedBatch(z, pair, labels), gamma, cfg,
                                                            weighted=weighted)
                assert same_bytes(loss.data, fresh_loss.data) and same_bytes(pooled, fresh_pooled), lambdas
        assert not same_bytes(structure.select((0, 2))[0], structure.select((0, 1))[0])

    def test_stacks_are_the_single_implementation(self, rng):
        pair, labels = interleaved_pairs(8), draw_labels(rng, 3, 8)
        structure = PairStructure(pair, labels)
        batch = AugmentedBatch(unit_rows(rng, 8, 4), pair, labels)
        assert same_bytes(structure.masks, positive_masks(batch, (0, 1, 2)))
        assert same_bytes(structure.coefs, mask_coefficients(positive_masks(batch, (0, 1, 2))))
        assert same_bytes(structure.offdiag, 1.0 - np.eye(8))
        for ks in [(2,), (0, 2), (2, 0, 1)]:
            masks, coefs = structure.select(ks)
            assert same_bytes(masks, positive_masks(batch, ks))
            assert same_bytes(coefs, mask_coefficients(positive_masks(batch, ks)))


class TestImmutable:
    def test_arrays_are_read_only(self, rng):
        structure = PairStructure(interleaved_pairs(8), draw_labels(rng, 3, 8))
        arrays = [structure.pair_of, structure.meta_labels, structure.offdiag, structure.masks, structure.coefs]
        for a in arrays:
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[(0,) * a.ndim] = 1
        with pytest.raises(dataclasses.FrozenInstanceError):
            structure.pair_of = interleaved_pairs(8)

    def test_mutating_the_inputs_leaves_the_structure(self, rng):
        pair, labels = interleaved_pairs(8), draw_labels(rng, 3, 8)
        want = PairStructure(pair.copy(), labels.copy())
        structure = PairStructure(pair, labels)
        batch = AugmentedBatch(unit_rows(rng, 8, 4), pair, labels)
        pair[:] = np.arange(8)
        labels[:] = 7
        for got in (structure, batch.structure):
            for name in ("pair_of", "meta_labels", "offdiag", "masks", "coefs"):
                assert same_bytes(getattr(got, name), getattr(want, name)), name

    def test_integral_values_of_any_numeric_dtype_load(self, rng):
        pair, labels = interleaved_pairs(8), draw_labels(rng, 2, 8)
        want = PairStructure(pair, labels)
        for dtype in (np.float64, np.float32, np.int32, np.uint8, np.int16):
            got = PairStructure(pair.astype(dtype), labels.astype(dtype))
            assert same_bytes(got.pair_of, want.pair_of) and same_bytes(got.meta_labels, want.meta_labels)
            assert same_bytes(got.coefs, want.coefs)
        assert same_bytes(PairStructure(pair.tolist(), labels[0].tolist()).meta_labels, labels[:1])
        assert same_bytes(PairStructure(pair, np.zeros((1, 8), dtype=bool)).meta_labels, np.zeros((1, 8), np.int64))
        for edge, dtype in [(2**63 - 1, np.uint64), (-(2.0**63), np.float64)]:
            got = PairStructure(pair, np.full((1, 8), edge, dtype=dtype)).meta_labels
            assert same_bytes(got, np.full((1, 8), int(edge), np.int64))


# (pair_of, meta_labels, message) for 2N = 4; each is rejected by both constructors
STRUCTURAL_FAULTS = [
    ([0, 1, 3, 2], [[0, 0, 1, 1]], "pair_of must be a fixed-point-free involution"),
    ([1, 2, 3, 0], [[0, 0, 0, 0]], "pair_of must be a fixed-point-free involution"),
    ([1, 0, 3, 9], [[0, 0, 1, 1]], "pair_of must be a fixed-point-free involution"),
    ([1, 0, 3, -1], [[0, 0, 1, 1]], "pair_of must be a fixed-point-free involution"),
    ([1, 0, 3, 2], [[0, 0, 1]], "each meta-label vector must cover all 2N samples"),
    ([1, 0, 3, 2], np.zeros((1, 4, 1)), "each meta-label vector must cover all 2N samples"),
    ([1, 0, 3, 2], [[0, 1, 2, 2]], "paired views must carry identical meta-labels"),
    ([1.7, 0.2, 3.9, 2.1], [[0, 0, 1, 1]], "pair_of must hold integers, got 1.7"),
    ([1, 0, 3, np.nan], [[0, 0, 1, 1]], "pair_of must hold integers, got nan"),
    ([1, 0, 3, 2], [[0.5, 0.7, 1, 1]], "meta_labels must hold integers, got 0.5"),
    ([1, 0, 3, 2], [[0, 0, np.nan, np.nan]], "meta_labels must hold integers, got nan"),
    ([1, 0, 3, 2], [[0, 0, np.inf, np.inf]], "meta_labels must hold integers, got inf"),
    ([1, 0, 3, 2], [[0, 0, -np.inf, -np.inf]], "meta_labels must hold integers, got -inf"),
    ([1, 0, 3, 2], [[0, 0, 2.0**63, 2.0**63]], "meta_labels must hold integers"),
    ([1, 0, 3, 2], [[0, 0, -(2.0**64), -(2.0**64)]], "meta_labels must hold integers"),
    ([1, 0, 3, 2], np.array([[0, 0, 2**63, 2**63]], dtype=np.uint64), "meta_labels must hold integers"),
    (["1", "0", "3", "2"], [[0, 0, 1, 1]], "pair_of must hold integers, got <U1 values"),
    ([1, 0, 3, 2], [[0, 0, 1j, 1j]], "meta_labels must hold integers, got complex128 values"),
    ([[1, 0], [3]], [[0, 0, 1, 1]], "pair_of must be a rectangular array, got a ragged sequence"),
    ([1, 0, 3, 2], [[0, 0], [1, 1, 1, 1]], "meta_labels must be a rectangular array, got a ragged sequence"),
]


class TestChecks:
    @pytest.mark.parametrize("pair_of, labels, message", STRUCTURAL_FAULTS)
    def test_structural_fault_has_one_message_on_both_paths(self, rng, pair_of, labels, message):
        with pytest.raises(InvalidConfig) as direct:
            PairStructure(pair_of, labels)
        with pytest.raises(InvalidConfig) as batch:
            AugmentedBatch(unit_rows(rng, 4, 3), pair_of, labels)
        assert str(direct.value) == str(batch.value)
        assert str(direct.value).startswith(message)

    def test_pair_count_is_checked_without_embeddings(self):
        with pytest.raises(InvalidConfig, match=r"^batch must hold 2N >= 2 samples, got 3$"):
            PairStructure([1, 0, 2], [[0, 0, 0]])
        with pytest.raises(InvalidConfig, match=r"^pair_of must be 1-D"):
            PairStructure([[1, 0]], [[0, 0]])

    @pytest.mark.parametrize(
        "embeddings, message",
        [
            (lambda rng: unit_rows(rng, 6, 3), "pair_of length must match the number of samples"),
            (lambda rng: unit_rows(rng, 10, 3), "pair_of length must match the number of samples"),
            (lambda rng: unit_rows(rng, 7, 3), "batch must hold 2N >= 2 samples, got 7"),
            (lambda rng: unit_rows(rng, 8, 3)[:, 0], "embeddings must be 2-D, got shape (8,)"),
            (lambda rng: unit_rows(rng, 8, 3) * (1.0 + 1e-9), "embedding rows must be unit norm"),
        ],
    )
    def test_embedding_fault_has_one_message_on_both_paths(self, rng, embeddings, message):
        z = embeddings(rng)
        pair, labels = interleaved_pairs(8), np.zeros((1, 8), dtype=int)
        with pytest.raises(InvalidConfig) as on_structure:
            AugmentedBatch.from_structure(z, PairStructure(pair, labels))
        with pytest.raises(InvalidConfig) as caller:
            AugmentedBatch(z, pair, labels)
        assert str(on_structure.value) == str(caller.value)
        assert str(on_structure.value).startswith(message)

    def test_batch_reads_its_structure(self, rng):
        z, pair, labels = unit_rows(rng, 8, 3), interleaved_pairs(8), draw_labels(rng, 3, 8)
        structure = PairStructure(pair, labels)
        batch = AugmentedBatch.from_structure(z, structure)
        assert batch.structure is structure and batch.pair_of is structure.pair_of
        assert batch.meta_labels is structure.meta_labels
        assert (batch.num_samples, batch.num_meta_labels) == (8, 3)
