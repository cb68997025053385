"""Positive sets, per-pair losses, and the two contrastive reductions through the training node."""

import math

import numpy as np
import pytest

from conftest import (
    hostile,
    interleaved_pairs,
    op_pair_loss_values,
    op_positive_mask,
    op_unsup_loss,
    random_batch,
    same_bytes,
    tsum,
    unit_rows,
)
from spcl.autodiff import GradTape, Tensor
from spcl.contrastive import PairStructure, pair_loss_values, positive_masks
from spcl.errors import InvalidConfig
from spcl.self_paced import SelfPacedConfig, combined_sp_loss, sp_contrastive_loss


def naive_pair_loss(z: np.ndarray, i: int, j: int, tau: float) -> float:
    """Direct-formula reference: no vectorization, no log-sum-exp shift."""
    denom = sum(math.exp(float(z[i] @ z[a]) / tau) for a in range(len(z)) if a != i)
    return -math.log(math.exp(float(z[i] @ z[j]) / tau) / denom)


def naive_positive_set(labels, pair_of, i: int) -> set[int]:
    """P(i) from its definition: same label, minus the anchor, plus the paired view."""
    return {j for j in range(len(labels)) if labels[j] == labels[i] and j != i} | {int(pair_of[i])}


def mask_row(structure: PairStructure, k: int, i: int) -> set[int]:
    return set(int(j) for j in np.flatnonzero(positive_masks(structure, (k,))[0, i]))


def meta_loss(z, structure: PairStructure, k: int, tau: float):
    """The training objective, unweighted, with all weight on meta-label k."""
    lambdas = tuple(float(i == k) for i in range(k + 1))
    return combined_sp_loss(z, structure, 1.0, SelfPacedConfig(tau=tau, lambdas=lambdas), weighted=False)[0]


def unsup_loss(z, structure: PairStructure, tau: float):
    """The training objective, unweighted, with one class per original image (its lower view index)."""
    per_image = np.minimum(np.arange(structure.num_samples), structure.pair_of)[None, :]
    return meta_loss(z, PairStructure(structure.pair_of, per_image), 0, tau)


def naive_meta_loss(z, pair_of, labels, tau):
    n2 = len(z)
    total = 0.0
    for i in range(n2):
        pos = naive_positive_set(labels, pair_of, i)
        total += sum(naive_pair_loss(z, i, j, tau) for j in pos) / len(pos)
    return total / n2


def naive_unsup_loss(z, pair_of, tau):
    return sum(naive_pair_loss(z, i, int(pair_of[i]), tau) for i in range(len(z))) / len(z)


# (embeddings for a structure of 2N = 8 samples, the start of the message)
EMBEDDING_FAULTS = [
    (lambda rng: unit_rows(rng, 6, 3), "pair_of length must match the number of samples"),
    (lambda rng: unit_rows(rng, 10, 3), "pair_of length must match the number of samples"),
    (lambda rng: unit_rows(rng, 7, 3), "batch must hold 2N >= 2 samples, got 7"),
    (lambda rng: unit_rows(rng, 8, 3)[:, 0], "embeddings must be 2-D, got shape (8,)"),
    (lambda rng: unit_rows(rng, 8, 3)[None], "embeddings must be 2-D, got shape (1, 8, 3)"),
    (lambda rng: unit_rows(rng, 8, 3) * (1.0 + 1e-9), "embedding rows must be unit norm"),
    (lambda rng: unit_rows(rng, 8, 3) * 1.5, "embedding rows must be unit norm"),
]


class TestEmbeddingChecks:
    """``pair_loss_values``, the one reader of the embedding rows, checks them against the structure."""

    @pytest.mark.parametrize("embeddings, message", EMBEDDING_FAULTS)
    def test_pair_loss_values_rejects(self, rng, embeddings, message):
        with pytest.raises(InvalidConfig) as exc:
            pair_loss_values(embeddings(rng), PairStructure(interleaved_pairs(8), [[0] * 8]), 0.5)
        assert str(exc.value).startswith(message)

    def test_rows_off_unit_norm_within_1e_10_are_accepted(self, rng):
        z = unit_rows(rng, 8, 3)
        z[0] *= 1.0 + 5e-11
        z[1] *= 1.0 - 5e-11
        values = pair_loss_values(z, PairStructure(interleaved_pairs(8), [[0] * 8]), 0.5)
        assert np.isfinite(values.data).all()

    def test_losses_reject_with_the_same_message(self, rng):
        structure = PairStructure(interleaved_pairs(8), [[0, 0, 1, 1, 0, 0, 1, 1]])
        cfg = SelfPacedConfig(tau=0.5).with_default_pace(4)
        for z, call in [
            (unit_rows(rng, 8, 3) * 1.5, lambda z: combined_sp_loss(z, structure, 1.0, cfg, weighted=False)),
            (unit_rows(rng, 6, 3), lambda z: sp_contrastive_loss(z, structure, cfg.gamma_end, cfg)),
        ]:
            with pytest.raises(InvalidConfig) as direct:
                pair_loss_values(z, structure, cfg.tau)
            with pytest.raises(InvalidConfig) as through_loss:
                call(z)
            assert str(through_loss.value) == str(direct.value)


class TestPositiveSet:
    def test_twin_only_when_label_unique(self):
        # originals (a, b): augmented labels (a, a, b, b), anchor 0 -> {1}
        structure = PairStructure(interleaved_pairs(4), np.array([[0, 0, 1, 1]]))
        assert mask_row(structure, 0, 0) == {1}

    def test_all_same_class(self):
        structure = PairStructure(interleaved_pairs(4), np.array([[7, 7, 7, 7]]))
        assert mask_row(structure, 0, 0) == {1, 2, 3}

    def test_degenerate_labels_reduce_to_twin(self):
        structure = PairStructure(interleaved_pairs(6), np.repeat(np.arange(3), 2)[None, :])
        for i in range(6):
            assert mask_row(structure, 0, i) == {int(structure.pair_of[i])}

    def test_never_contains_anchor_always_contains_twin(self, rng):
        for _ in range(20):
            _, structure = random_batch(rng, 5, num_classes=[2, 4], num_labels=2)
            for k in range(2):
                for i in range(10):
                    pos = mask_row(structure, k, i)
                    assert i not in pos
                    assert int(structure.pair_of[i]) in pos

    def test_mask_matches_per_anchor_sets(self, rng):
        _, structure = random_batch(rng, 6, num_classes=[3])
        (mask,) = positive_masks(structure, (0,))
        for i in range(12):
            assert set(np.flatnonzero(mask[i])) == naive_positive_set(structure.meta_labels[0], structure.pair_of, i)

    def test_stacked_masks_equal_per_label_masks(self, rng):
        _, structure = random_batch(rng, 6, num_classes=[3, 6, 1], num_labels=3)
        for ks in [(0,), (2, 0), (0, 1, 2)]:
            want = np.stack([op_positive_mask(structure, k) for k in ks])
            np.testing.assert_array_equal(positive_masks(structure, ks), want)


class TestPairLoss:
    def test_identical_embeddings_give_log7(self, rng):
        z = np.tile(unit_rows(rng, 1, 5), (8, 1))
        structure = PairStructure(interleaved_pairs(8), np.zeros((1, 8), dtype=int))
        for i, j in [(0, 1), (2, 5), (7, 3)]:
            assert pair_loss_values(z, structure, tau=0.5).data[i, j] == pytest.approx(math.log(7), abs=1e-12)

    def test_two_cluster_hand_value(self):
        # z0 = z1 = e_x, z2 = z3 = e_y, tau = 1: l_01 = log(e + 2) - 1
        z = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
        structure = PairStructure(interleaved_pairs(4), np.array([[0, 0, 1, 1]]))
        assert pair_loss_values(z, structure, tau=1.0).data[0, 1] == pytest.approx(0.5514447139320509, abs=1e-12)

    def test_huge_temperature_washes_out(self, rng):
        vals = pair_loss_values(*random_batch(rng, 4), tau=1e6).data
        off = ~np.eye(8, dtype=bool)
        np.testing.assert_allclose(vals[off], math.log(7), atol=1e-4)

    def test_matches_naive_reference(self, rng):
        for _ in range(25):
            z, structure = random_batch(rng, 4, dim=6)
            tau = float(rng.uniform(0.07, 1.5))
            vals = pair_loss_values(z, structure, tau).data
            for i in range(8):
                for j in range(8):
                    if i != j:
                        assert vals[i, j] == pytest.approx(naive_pair_loss(z, i, j, tau), abs=1e-10)

    def test_monotone_in_target_similarity(self, rng):
        # raising z_i . z_j leaves row i's other similarities untouched,
        # so l_ij must strictly decrease
        z = unit_rows(rng, 8, 16)
        i, j = 0, 3
        z2 = z.copy()
        z2[j] = z2[j] + 0.5 * z[i]
        z2[j] /= np.linalg.norm(z2[j])
        if z2[i] @ z2[j] <= z[i] @ z[j]:
            pytest.skip("nudge failed to increase similarity")
        structure = PairStructure(interleaved_pairs(8), np.zeros((1, 8), dtype=int))
        assert pair_loss_values(z2, structure, 0.5).data[i, j] < pair_loss_values(z, structure, 0.5).data[i, j]

    def test_no_overflow_at_tau_001(self, rng):
        vals = pair_loss_values(*random_batch(rng, 8), tau=0.01).data
        assert np.all(np.isfinite(vals))

    def test_rejects_bad_tau(self, rng):
        with pytest.raises(InvalidConfig):
            pair_loss_values(*random_batch(rng, 2), tau=0.0)

    @pytest.mark.parametrize("tau", [math.nan, math.inf])
    def test_rejects_non_finite_tau(self, rng, tau):
        with pytest.raises(InvalidConfig, match="temperature must be positive and finite"):
            pair_loss_values(*random_batch(rng, 2), tau=tau)


def awkward_unit_rows(rng: np.random.Generator, n: int, dim: int) -> np.ndarray:
    """Unit rows whose entries past the first mix in signed zeros and subnormals."""
    z = unit_rows(rng, n, dim)
    awkward = rng.random(z.shape) < 0.3
    awkward[:, 0] = False
    z[awkward] = rng.choice([0.0, -0.0, 5e-324, -5e-324, 2.5e-310], z.shape)[awkward]
    return z / np.linalg.norm(z, axis=1, keepdims=True)


def _node_value_and_cotangent(loss_values, z: np.ndarray, tau: float, g: np.ndarray):
    """``loss_values(z, structure, tau)``'s value and the cotangent of the embeddings under sum(value * g)."""
    emb = Tensor(z, requires_grad=True)
    structure = PairStructure(interleaved_pairs(len(z)), np.zeros((1, len(z)), dtype=np.int64))
    with GradTape() as tape:
        out = loss_values(emb, structure, tau)
        loss = tsum(out * Tensor(g))
    return out.data, tape.gradient(loss, [emb])[0]


class TestPairLossNode:
    """After the Gram product, ``pair_loss_values`` is one node with the bits of ``op_pair_loss_values``.

    Rows hold signed zeros and subnormals, and one row repeats or negates
    another; the cotangent arriving at the node mixes in signed zeros,
    subnormals and +-1e100.
    """

    @pytest.mark.parametrize("tau", [0.01, 0.07, 0.5, 1e6])
    @pytest.mark.parametrize("n2", [2, 8, 16])
    def test_value_and_cotangent_byte_equal_to_ops(self, n2, tau):
        rng = np.random.default_rng(n2)
        for dim in (1, 3, 8):
            for twin in ("none", "duplicate", "antipodal"):
                z = awkward_unit_rows(rng, n2, dim)
                if twin != "none":
                    z[-1] = z[0] if twin == "duplicate" else -z[0]
                g = hostile(rng, (n2, n2), 1e100)
                ours = _node_value_and_cotangent(pair_loss_values, z, tau, g)
                ops = _node_value_and_cotangent(op_pair_loss_values, z, tau, g)
                assert all(same_bytes(a, b) for a, b in zip(ours, ops)), (dim, twin)

    def test_gram_product_then_one_node_and_eager_bytes(self, rng):
        z, structure = Tensor(unit_rows(rng, 8, 4), requires_grad=True), PairStructure(interleaved_pairs(8), [[0] * 8])
        with GradTape() as tape:
            taped = pair_loss_values(z, structure, 0.5)
        assert [n.op for n in tape.nodes] == ["transpose", "matmul", "pair_loss_values"]
        eager = pair_loss_values(z, structure, 0.5)
        assert taped.requires_grad and not eager.requires_grad
        assert same_bytes(eager.data, taped.data)


class TestUnsupLoss:
    def test_identical_embeddings(self, rng):
        z = np.tile(unit_rows(rng, 1, 4), (8, 1))
        structure = PairStructure(interleaved_pairs(8), np.zeros((1, 8), dtype=int))
        assert unsup_loss(z, structure, 0.3).item() == pytest.approx(math.log(7), abs=1e-12)

    def test_matches_naive_reference_100_batches(self, rng):
        for _ in range(100):
            n = int(rng.integers(2, 9))
            z, structure = random_batch(rng, n, dim=16)
            tau = float(rng.choice([0.07, 0.1, 0.5, 1.0]))
            ours = unsup_loss(z, structure, tau).item()
            ref = naive_unsup_loss(z, structure.pair_of, tau)
            assert ours == pytest.approx(ref, abs=1e-10)

    def test_random_n8_d16(self, rng):
        z, structure = random_batch(rng, 8, dim=16)
        ours = unsup_loss(z, structure, 0.5).item()
        ref = naive_unsup_loss(z, structure.pair_of, 0.5)
        assert ours == pytest.approx(ref, abs=1e-10)


class TestMetaLoss:
    def test_identical_embeddings_any_labels(self, rng):
        z = np.tile(unit_rows(rng, 1, 4), (8, 1))
        structure = PairStructure(interleaved_pairs(8), np.repeat(rng.integers(0, 2, size=4), 2)[None, :])
        loss = meta_loss(z, structure, 0, 0.3)
        assert loss.item() == pytest.approx(math.log(7), abs=1e-12)

    def test_single_class_uses_all_candidates(self, rng):
        z, structure = random_batch(rng, 2, num_classes=[1])
        loss = meta_loss(z, structure, 0, 0.7)
        assert positive_masks(structure, (0,)).sum() == 4 * 3  # every off-diagonal entry is a positive
        ref = naive_meta_loss(z, structure.pair_of, structure.meta_labels[0], 0.7)
        assert loss.item() == pytest.approx(ref, abs=1e-10)

    def test_matches_naive_reference_100_batches(self, rng):
        for _ in range(100):
            n = int(rng.integers(2, 8))
            z, structure = random_batch(rng, n, num_classes=[int(rng.integers(1, n + 1))])
            tau = float(rng.choice([0.1, 0.5, 1.0]))
            ours = meta_loss(z, structure, 0, tau)
            ref = naive_meta_loss(z, structure.pair_of, structure.meta_labels[0], tau)
            assert ours.item() == pytest.approx(ref, abs=1e-10)

    def test_degenerate_labels_equal_unsup_exactly(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 8))
            z, structure = random_batch(rng, n)
            structure = PairStructure(structure.pair_of, np.repeat(np.arange(n), 2)[None, :])
            tau = float(rng.uniform(0.1, 1.0))
            a = op_unsup_loss(z, structure, tau).item()
            b = meta_loss(z, structure, 0, tau)
            assert a == b.item()  # bitwise: the node has the bits of the view-pair masked mean

    def test_permutation_invariance(self, rng):
        for _ in range(20):
            z, structure = random_batch(rng, 5, num_classes=[3])
            tau = 0.4
            perm = rng.permutation(10)
            inv = np.empty(10, dtype=int)
            inv[perm] = np.arange(10)
            permuted = PairStructure(inv[structure.pair_of[perm]], structure.meta_labels[:, perm])
            a = meta_loss(z, structure, 0, tau)
            b = meta_loss(z[perm], permuted, 0, tau)
            assert a.item() == pytest.approx(b.item(), abs=1e-12)
            assert unsup_loss(z, structure, tau).item() == pytest.approx(
                unsup_loss(z[perm], permuted, tau).item(), abs=1e-12
            )

    def test_loss_matrix_alignment(self, rng):
        z, structure = random_batch(rng, 4, num_classes=[2])
        values, (mask,) = pair_loss_values(z, structure, 0.5).data, positive_masks(structure, (0,))
        for i in range(8):
            for j in naive_positive_set(structure.meta_labels[0], structure.pair_of, i):
                assert values[i, j] == pytest.approx(naive_pair_loss(z, i, j, 0.5), abs=1e-10)
                assert mask[i, j]


class TestGradientFlow:
    def test_losses_differentiable_wrt_embeddings(self, rng):
        raw = Tensor(rng.standard_normal((8, 6)), requires_grad=True)
        from spcl.autodiff import l2_normalize_rows

        with GradTape() as tape:
            z = l2_normalize_rows(raw)
            structure = PairStructure(interleaved_pairs(8), np.repeat(rng.integers(0, 2, 4), 2)[None, :])
            loss = meta_loss(z, structure, 0, 0.5)
        (g,) = tape.gradient(loss, [raw])
        assert g.shape == (8, 6)
        assert np.any(g != 0.0)
