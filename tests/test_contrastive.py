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
from spcl.contrastive import AugmentedBatch, pair_loss_values, positive_masks
from spcl.errors import InvalidConfig
from spcl.self_paced import SelfPacedConfig, combined_sp_loss


def naive_pair_loss(z: np.ndarray, i: int, j: int, tau: float) -> float:
    """Direct-formula reference: no vectorization, no log-sum-exp shift."""
    denom = sum(math.exp(float(z[i] @ z[a]) / tau) for a in range(len(z)) if a != i)
    return -math.log(math.exp(float(z[i] @ z[j]) / tau) / denom)


def naive_positive_set(labels, pair_of, i: int) -> set[int]:
    """P(i) from its definition: same label, minus the anchor, plus the paired view."""
    return {j for j in range(len(labels)) if labels[j] == labels[i] and j != i} | {int(pair_of[i])}


def mask_row(batch: AugmentedBatch, k: int, i: int) -> set[int]:
    return set(int(j) for j in np.flatnonzero(positive_masks(batch, (k,))[0, i]))


def meta_loss(batch: AugmentedBatch, k: int, tau: float):
    """The training objective, unweighted, with all weight on meta-label k."""
    lambdas = tuple(float(i == k) for i in range(k + 1))
    return combined_sp_loss(batch, 1.0, SelfPacedConfig(tau=tau, lambdas=lambdas), weighted=False)[0]


def unsup_loss(batch: AugmentedBatch, tau: float):
    """The training objective, unweighted, with one class per original image (its lower view index)."""
    per_image = np.minimum(np.arange(batch.num_samples), batch.pair_of)[None, :]
    return meta_loss(AugmentedBatch(batch.embeddings, batch.pair_of, per_image), 0, tau)


def naive_meta_loss(z, pair_of, labels, tau):
    n2 = len(z)
    total = 0.0
    for i in range(n2):
        pos = naive_positive_set(labels, pair_of, i)
        total += sum(naive_pair_loss(z, i, j, tau) for j in pos) / len(pos)
    return total / n2


def naive_unsup_loss(z, pair_of, tau):
    return sum(naive_pair_loss(z, i, int(pair_of[i]), tau) for i in range(len(z))) / len(z)


class TestAugmentedBatch:
    def test_rejects_fixed_point(self, rng):
        z = unit_rows(rng, 4, 5)
        with pytest.raises(InvalidConfig):
            AugmentedBatch(z, np.array([0, 1, 3, 2]), np.zeros((1, 4), dtype=int))

    def test_rejects_label_mismatch_across_views(self, rng):
        z = unit_rows(rng, 4, 5)
        with pytest.raises(InvalidConfig):
            AugmentedBatch(z, interleaved_pairs(4), np.array([[0, 1, 2, 2]]))

    def test_rejects_non_unit_rows(self, rng):
        z = unit_rows(rng, 4, 5) * 1.5
        with pytest.raises(InvalidConfig):
            AugmentedBatch(z, interleaved_pairs(4), np.array([[0, 0, 1, 1]]))


class TestPositiveSet:
    def test_twin_only_when_label_unique(self, rng):
        # originals (a, b): augmented labels (a, a, b, b), anchor 0 -> {1}
        batch = AugmentedBatch(
            unit_rows(rng, 4, 6), interleaved_pairs(4), np.array([[0, 0, 1, 1]])
        )
        assert mask_row(batch, 0, 0) == {1}

    def test_all_same_class(self, rng):
        batch = AugmentedBatch(
            unit_rows(rng, 4, 6), interleaved_pairs(4), np.array([[7, 7, 7, 7]])
        )
        assert mask_row(batch, 0, 0) == {1, 2, 3}

    def test_degenerate_labels_reduce_to_twin(self, rng):
        batch = random_batch(rng, 3, num_classes=[3])
        batch = AugmentedBatch(
            batch.embeddings, batch.pair_of, np.repeat(np.arange(3), 2)[None, :]
        )
        for i in range(6):
            assert mask_row(batch, 0, i) == {int(batch.pair_of[i])}

    def test_never_contains_anchor_always_contains_twin(self, rng):
        for _ in range(20):
            batch = random_batch(rng, 5, num_classes=[2, 4], num_labels=2)
            for k in range(2):
                for i in range(10):
                    pos = mask_row(batch, k, i)
                    assert i not in pos
                    assert int(batch.pair_of[i]) in pos

    def test_mask_matches_per_anchor_sets(self, rng):
        batch = random_batch(rng, 6, num_classes=[3])
        (mask,) = positive_masks(batch, (0,))
        for i in range(12):
            assert set(np.flatnonzero(mask[i])) == naive_positive_set(batch.meta_labels[0], batch.pair_of, i)

    def test_stacked_masks_equal_per_label_masks(self, rng):
        batch = random_batch(rng, 6, num_classes=[3, 6, 1], num_labels=3)
        for ks in [(0,), (2, 0), (0, 1, 2)]:
            np.testing.assert_array_equal(positive_masks(batch, ks), np.stack([op_positive_mask(batch, k) for k in ks]))


class TestPairLoss:
    def test_identical_embeddings_give_log7(self, rng):
        z = np.tile(unit_rows(rng, 1, 5), (8, 1))
        batch = AugmentedBatch(z, interleaved_pairs(8), np.zeros((1, 8), dtype=int))
        for i, j in [(0, 1), (2, 5), (7, 3)]:
            assert pair_loss_values(batch, tau=0.5).data[i, j] == pytest.approx(math.log(7), abs=1e-12)

    def test_two_cluster_hand_value(self):
        # z0 = z1 = e_x, z2 = z3 = e_y, tau = 1: l_01 = log(e + 2) - 1
        z = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
        batch = AugmentedBatch(z, interleaved_pairs(4), np.array([[0, 0, 1, 1]]))
        assert pair_loss_values(batch, tau=1.0).data[0, 1] == pytest.approx(0.5514447139320509, abs=1e-12)

    def test_huge_temperature_washes_out(self, rng):
        batch = random_batch(rng, 4)
        vals = pair_loss_values(batch, tau=1e6).data
        off = ~np.eye(8, dtype=bool)
        np.testing.assert_allclose(vals[off], math.log(7), atol=1e-4)

    def test_matches_naive_reference(self, rng):
        for _ in range(25):
            batch = random_batch(rng, 4, dim=6)
            tau = float(rng.uniform(0.07, 1.5))
            vals = pair_loss_values(batch, tau).data
            z = batch.embeddings.data
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
        labels = np.zeros((1, 8), dtype=int)
        a = AugmentedBatch(z, interleaved_pairs(8), labels)
        b = AugmentedBatch(z2, interleaved_pairs(8), labels)
        assert pair_loss_values(b, 0.5).data[i, j] < pair_loss_values(a, 0.5).data[i, j]

    def test_no_overflow_at_tau_001(self, rng):
        batch = random_batch(rng, 8)
        vals = pair_loss_values(batch, tau=0.01).data
        assert np.all(np.isfinite(vals))

    def test_rejects_bad_tau(self, rng):
        batch = random_batch(rng, 2)
        with pytest.raises(InvalidConfig):
            pair_loss_values(batch, tau=0.0)

    @pytest.mark.parametrize("tau", [math.nan, math.inf])
    def test_rejects_non_finite_tau(self, rng, tau):
        with pytest.raises(InvalidConfig, match="temperature must be positive and finite"):
            pair_loss_values(random_batch(rng, 2), tau=tau)


def awkward_unit_rows(rng: np.random.Generator, n: int, dim: int) -> np.ndarray:
    """Unit rows whose entries past the first mix in signed zeros and subnormals."""
    z = unit_rows(rng, n, dim)
    awkward = rng.random(z.shape) < 0.3
    awkward[:, 0] = False
    z[awkward] = rng.choice([0.0, -0.0, 5e-324, -5e-324, 2.5e-310], z.shape)[awkward]
    return z / np.linalg.norm(z, axis=1, keepdims=True)


def _node_value_and_cotangent(loss_values, z: np.ndarray, tau: float, g: np.ndarray):
    """``loss_values(batch, tau)``'s value and the cotangent of the embeddings under sum(value * g)."""
    emb = Tensor(z, requires_grad=True)
    batch = AugmentedBatch(emb, interleaved_pairs(len(z)), np.zeros((1, len(z)), dtype=np.int64))
    with GradTape() as tape:
        out = loss_values(batch, tau)
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
        batch = AugmentedBatch(Tensor(unit_rows(rng, 8, 4), requires_grad=True), interleaved_pairs(8), [[0] * 8])
        with GradTape() as tape:
            taped = pair_loss_values(batch, 0.5)
        assert [n.op for n in tape.nodes] == ["transpose", "matmul", "pair_loss_values"]
        eager = pair_loss_values(batch, 0.5)
        assert taped.requires_grad and not eager.requires_grad
        assert same_bytes(eager.data, taped.data)


class TestUnsupLoss:
    def test_identical_embeddings(self, rng):
        z = np.tile(unit_rows(rng, 1, 4), (8, 1))
        batch = AugmentedBatch(z, interleaved_pairs(8), np.zeros((1, 8), dtype=int))
        assert unsup_loss(batch, 0.3).item() == pytest.approx(math.log(7), abs=1e-12)

    def test_matches_naive_reference_100_batches(self, rng):
        for _ in range(100):
            n = int(rng.integers(2, 9))
            batch = random_batch(rng, n, dim=16)
            tau = float(rng.choice([0.07, 0.1, 0.5, 1.0]))
            ours = unsup_loss(batch, tau).item()
            ref = naive_unsup_loss(batch.embeddings.data, batch.pair_of, tau)
            assert ours == pytest.approx(ref, abs=1e-10)

    def test_random_n8_d16(self, rng):
        batch = random_batch(rng, 8, dim=16)
        ours = unsup_loss(batch, 0.5).item()
        ref = naive_unsup_loss(batch.embeddings.data, batch.pair_of, 0.5)
        assert ours == pytest.approx(ref, abs=1e-10)


class TestMetaLoss:
    def test_identical_embeddings_any_labels(self, rng):
        z = np.tile(unit_rows(rng, 1, 4), (8, 1))
        labels = np.repeat(rng.integers(0, 2, size=4), 2)[None, :]
        batch = AugmentedBatch(z, interleaved_pairs(8), labels)
        loss = meta_loss(batch, 0, 0.3)
        assert loss.item() == pytest.approx(math.log(7), abs=1e-12)

    def test_single_class_uses_all_candidates(self, rng):
        batch = random_batch(rng, 2, num_classes=[1])
        loss = meta_loss(batch, 0, 0.7)
        assert positive_masks(batch, (0,)).sum() == 4 * 3  # every off-diagonal entry is a positive
        ref = naive_meta_loss(batch.embeddings.data, batch.pair_of, batch.meta_labels[0], 0.7)
        assert loss.item() == pytest.approx(ref, abs=1e-10)

    def test_matches_naive_reference_100_batches(self, rng):
        for _ in range(100):
            n = int(rng.integers(2, 8))
            batch = random_batch(rng, n, num_classes=[int(rng.integers(1, n + 1))])
            tau = float(rng.choice([0.1, 0.5, 1.0]))
            ours = meta_loss(batch, 0, tau)
            ref = naive_meta_loss(batch.embeddings.data, batch.pair_of, batch.meta_labels[0], tau)
            assert ours.item() == pytest.approx(ref, abs=1e-10)

    def test_degenerate_labels_equal_unsup_exactly(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 8))
            batch = random_batch(rng, n)
            batch = AugmentedBatch(
                batch.embeddings, batch.pair_of, np.repeat(np.arange(n), 2)[None, :]
            )
            tau = float(rng.uniform(0.1, 1.0))
            a = op_unsup_loss(batch, tau).item()
            b = meta_loss(batch, 0, tau)
            assert a == b.item()  # bitwise: the node has the bits of the view-pair masked mean

    def test_permutation_invariance(self, rng):
        for _ in range(20):
            batch = random_batch(rng, 5, num_classes=[3])
            tau = 0.4
            perm = rng.permutation(10)
            inv = np.empty(10, dtype=int)
            inv[perm] = np.arange(10)
            permuted = AugmentedBatch(
                batch.embeddings.data[perm],
                inv[batch.pair_of[perm]],
                batch.meta_labels[:, perm],
            )
            a = meta_loss(batch, 0, tau)
            b = meta_loss(permuted, 0, tau)
            assert a.item() == pytest.approx(b.item(), abs=1e-12)
            assert unsup_loss(batch, tau).item() == pytest.approx(
                unsup_loss(permuted, tau).item(), abs=1e-12
            )

    def test_loss_matrix_alignment(self, rng):
        batch = random_batch(rng, 4, num_classes=[2])
        values, (mask,) = pair_loss_values(batch, 0.5).data, positive_masks(batch, (0,))
        z = batch.embeddings.data
        for i in range(8):
            for j in naive_positive_set(batch.meta_labels[0], batch.pair_of, i):
                assert values[i, j] == pytest.approx(naive_pair_loss(z, i, j, 0.5), abs=1e-10)
                assert mask[i, j]


class TestGradientFlow:
    def test_losses_differentiable_wrt_embeddings(self, rng):
        raw = Tensor(rng.standard_normal((8, 6)), requires_grad=True)
        from spcl.autodiff import l2_normalize_rows

        with GradTape() as tape:
            z = l2_normalize_rows(raw)
            batch = AugmentedBatch(z, interleaved_pairs(8), np.repeat(rng.integers(0, 2, 4), 2)[None, :])
            loss = meta_loss(batch, 0, 0.5)
        (g,) = tape.gradient(loss, [raw])
        assert g.shape == (8, 6)
        assert np.any(g != 0.0)
