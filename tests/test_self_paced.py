"""Closed-form weights vs brute force, exact loss bounds, schedule, combined loss."""

import math

import numpy as np
import pytest

from conftest import (
    interleaved_pairs,
    op_masked_mean,
    op_meta_loss,
    op_positive_mask,
    op_sp_loss,
    op_unsup_loss,
    random_batch,
)
from spcl.autodiff import GradTape, Tensor, l2_normalize_rows
from spcl.contrastive import PairStructure, mask_coefficients, masked_mean_sum, pair_loss_values, positive_masks
from spcl.errors import InvalidConfig
from spcl.self_paced import (
    HARD,
    LINEAR,
    SelfPacedConfig,
    combined_sp_loss,
    loss_bounds,
    optimal_weight,
    pace_schedule,
    regularizer_value,
    sp_contrastive_loss,
)
from spcl.synth_data import per_image_labels

GRID = np.linspace(0.0, 1.0, 10001)  # step 1e-4


def dense_weights(structure: PairStructure, k: int, weights: np.ndarray) -> np.ndarray:
    """sp_contrastive_loss's in-mask weights for the one label k scattered back to a (2N, 2N) matrix."""
    w = np.zeros((structure.num_samples, structure.num_samples))
    w[positive_masks(structure, (k,))[0]] = weights
    return w


def weighted_loss_terms(z, structure, k, weights, gamma, config) -> tuple[float, float]:
    """(w*l part, regularizer part) of the self-paced scalar, rebuilt from its weights."""
    mask = op_positive_mask(structure, k)
    w = dense_weights(structure, k, weights)
    r = np.where(mask, regularizer_value(w, gamma, config.regularizer), 0.0)
    return op_masked_mean(pair_loss_values(z, structure, config.tau).data, mask, w), op_masked_mean(r, mask)


def grid_argmin(l: float, gamma: float, regularizer: str) -> float:
    obj = GRID * l + regularizer_value(GRID, gamma, regularizer)
    return float(GRID[np.argmin(obj)])


class TestOptimalWeight:
    def test_hard_below_and_above(self):
        assert optimal_weight(2.0, 3.0, HARD) == 1.0
        assert optimal_weight(5.0, 3.0, HARD) == 0.0

    def test_hard_tie_selects_one(self):
        assert optimal_weight(3.0, 3.0, HARD) == 1.0

    def test_linear_values(self):
        assert optimal_weight(1.0, 4.0, LINEAR) == pytest.approx(0.75)
        assert optimal_weight(5.0, 4.0, LINEAR) == 0.0

    def test_rejects_nonpositive_gamma(self):
        with pytest.raises(InvalidConfig):
            optimal_weight(1.0, 0.0, HARD)

    @pytest.mark.parametrize("gamma", [math.nan, math.inf])
    def test_rejects_non_finite_gamma(self, gamma):
        for regularizer in (HARD, LINEAR):
            with pytest.raises(InvalidConfig, match="gamma must be positive and finite"):
                optimal_weight(1.0, gamma, regularizer)
            with pytest.raises(InvalidConfig, match="gamma must be positive and finite"):
                regularizer_value(1.0, gamma, regularizer)

    def test_matches_grid_search_1000_random(self, rng):
        lo, hi = loss_bounds(8, 0.1)
        for regularizer in (HARD, LINEAR):
            l = rng.uniform(0.0, 2 * hi, size=1000)
            g = rng.uniform(0.1, 2 * hi, size=1000)
            for li, gi in zip(l, g):
                w_star = optimal_weight(float(li), float(gi), regularizer)
                w_grid = grid_argmin(float(li), float(gi), regularizer)
                assert abs(w_star - w_grid) <= 1e-3
                obj_star = w_star * li + regularizer_value(w_star, float(gi), regularizer)
                obj_grid = GRID * li + regularizer_value(GRID, float(gi), regularizer)
                assert obj_star <= obj_grid.min() + 1e-12

    def test_monotone_in_loss_and_gamma(self, rng):
        for regularizer in (HARD, LINEAR):
            losses = np.sort(rng.uniform(0.0, 10.0, size=50))
            w = optimal_weight(losses, 4.0, regularizer)
            assert np.all(np.diff(w) <= 1e-15)  # non-increasing in l
            gammas = np.sort(rng.uniform(0.1, 10.0, size=50))
            w2 = np.array([optimal_weight(3.0, float(g), regularizer) for g in gammas])
            assert np.all(np.diff(w2) >= -1e-15)  # non-decreasing in gamma

    def test_range(self, rng):
        for regularizer in (HARD, LINEAR):
            w = optimal_weight(rng.uniform(-5, 50, size=500), 2.0, regularizer)
            assert np.all((w >= 0.0) & (w <= 1.0))
            if regularizer == HARD:
                assert set(np.unique(w)) <= {0.0, 1.0}

    def test_linear_weight_cannot_overflow(self, rng):
        losses = np.concatenate([rng.uniform(-5, 50, size=500), [0.0, -0.0, 2.0, 1e300, -1e300]])
        for gamma in (2.0, 1e-3, 1e-310):
            with np.errstate(over="ignore"):
                expected = np.clip(1.0 - losses / gamma, 0.0, 1.0)
            with np.errstate(over="raise", divide="raise", invalid="raise"):
                w = optimal_weight(losses, gamma, LINEAR)
            assert w.tobytes() == expected.tobytes()


class TestRegularizerValue:
    def test_hand_values(self):
        assert regularizer_value(1.0, 2.0, HARD) == -2.0
        assert regularizer_value(1.0, 2.0, LINEAR) == -1.0
        assert regularizer_value(0.0, 7.3, LINEAR) == 0.0

    def test_rejects_out_of_range_weight(self):
        with pytest.raises(InvalidConfig):
            regularizer_value(1.2, 1.0, HARD)


class TestLossBounds:
    def test_exact_values_n2_tau1(self):
        lo, hi = loss_bounds(2, 1.0)
        assert lo == pytest.approx(0.2395447662218845, abs=1e-14)
        assert hi == pytest.approx(2.7586236756795133, abs=1e-14)

    def test_large_tau_collapses_to_log_2n_minus_1(self):
        for n in (2, 4, 16):
            lo, hi = loss_bounds(n, 1e8)
            assert lo == pytest.approx(math.log(2 * n - 1), abs=1e-6)
            assert hi == pytest.approx(math.log(2 * n - 1), abs=1e-6)

    def test_small_tau_does_not_overflow(self):
        lo, hi = loss_bounds(4, 1e-4)
        assert lo == pytest.approx(0.0, abs=1e-12)
        assert hi == pytest.approx(math.log(6) + 2e4, rel=1e-12)

    @pytest.mark.parametrize("tau", [math.nan, math.inf, 0.0])
    def test_rejects_bad_tau(self, tau):
        with pytest.raises(InvalidConfig, match="temperature must be positive and finite"):
            loss_bounds(4, tau)

    def test_containment_on_random_batches(self, rng):
        for _ in range(200):
            n = int(rng.choice([2, 4, 8]))
            tau = float(rng.choice([0.07, 0.1, 0.5, 1.0]))
            lo, hi = loss_bounds(n, tau)
            vals = pair_loss_values(*random_batch(rng, n), tau).data
            off = ~np.eye(2 * n, dtype=bool)
            assert vals[off].min() >= lo - 1e-12
            assert vals[off].max() <= hi + 1e-12

    def test_bounds_attained_by_adversarial_batches(self):
        for n, tau in [(2, 1.0), (4, 0.5), (8, 0.1)]:
            lo, hi = loss_bounds(n, tau)
            structure = PairStructure(interleaved_pairs(2 * n), np.zeros((1, 2 * n), dtype=int))
            d = 4
            u = np.zeros(d)
            u[0] = 1.0
            # anchor and its twin coincide, everyone else antipodal -> lower bound
            z = np.tile(-u, (2 * n, 1))
            z[0] = u
            z[1] = u
            assert pair_loss_values(z, structure, tau).data[0, 1] == pytest.approx(lo, abs=1e-9)
            # twin antipodal, everyone else on the anchor -> upper bound
            z = np.tile(u, (2 * n, 1))
            z[1] = -u
            assert pair_loss_values(z, structure, tau).data[0, 1] == pytest.approx(hi, abs=1e-9)


class TestPaceSchedule:
    def test_hand_value(self):
        cfg = SelfPacedConfig(gamma_start=2.0, gamma_end=10.0, p=0.5)
        assert pace_schedule(cfg, 25, 100) == pytest.approx(6.0, abs=1e-12)

    def test_endpoints_exact(self):
        cfg = SelfPacedConfig(gamma_start=1.5, gamma_end=9.25, p=2.0)
        assert pace_schedule(cfg, 0, 40) == 1.5
        assert pace_schedule(cfg, 40, 40) == 9.25

    def test_monotone_and_exponent_ordering(self):
        mid = 50
        for p, expected_frac in [(2.0, 0.25), (0.5, 0.5**0.5)]:
            cfg = SelfPacedConfig(gamma_start=0.0 + 1e-9, gamma_end=1.0, p=p)
            gammas = [pace_schedule(cfg, e, 100) for e in range(101)]
            assert all(b >= a for a, b in zip(gammas, gammas[1:]))
            assert gammas[mid] == pytest.approx(expected_frac, abs=1e-6)
        slow = SelfPacedConfig(gamma_start=1e-9, gamma_end=1.0, p=2.0)
        fast = SelfPacedConfig(gamma_start=1e-9, gamma_end=1.0, p=0.5)
        assert pace_schedule(slow, mid, 100) < pace_schedule(fast, mid, 100)

    def test_preconditions(self):
        cfg = SelfPacedConfig(gamma_start=1.0, gamma_end=2.0)
        with pytest.raises(InvalidConfig):
            pace_schedule(cfg, 5, 0)
        with pytest.raises(InvalidConfig):
            pace_schedule(cfg, 11, 10)
        with pytest.raises(InvalidConfig):
            pace_schedule(SelfPacedConfig(), 1, 10)  # endpoints unresolved

    def test_default_endpoints_from_bounds(self):
        cfg = SelfPacedConfig(tau=0.5).with_default_pace(8)
        lo, hi = loss_bounds(8, 0.5)
        assert (cfg.gamma_start, cfg.gamma_end) == (lo, hi)


class TestSelfPacedLoss:
    def test_gamma_above_max_reproduces_meta_loss(self, rng):
        z, structure = random_batch(rng, 4, num_classes=[2])
        cfg = SelfPacedConfig(regularizer=HARD, tau=0.5)
        _, hi = loss_bounds(4, 0.5)
        loss, weights = sp_contrastive_loss(z, structure, hi + 1.0, cfg)
        assert np.all(weights == 1.0)
        wl, reg = weighted_loss_terms(z, structure, 0, weights, hi + 1.0, cfg)
        meta = combined_sp_loss(z, structure, hi + 1.0, cfg, weighted=False)[0]
        assert wl == pytest.approx(meta.item(), abs=1e-10)
        assert loss.item() == pytest.approx(wl + reg, abs=1e-12)

    def test_gamma_below_min_zeroes_everything(self, rng):
        z, structure = random_batch(rng, 4, num_classes=[2])
        cfg = SelfPacedConfig(regularizer=HARD, tau=0.5)
        lo, _ = loss_bounds(4, 0.5)
        loss, weights = sp_contrastive_loss(z, structure, lo * 0.5, cfg)
        assert np.all(weights == 0.0)
        wl, reg = weighted_loss_terms(z, structure, 0, weights, lo * 0.5, cfg)
        assert wl == 0.0 and reg == 0.0
        assert loss.item() == 0.0

    def test_zero_weights_give_exactly_zero_gradient(self, rng):
        raw = Tensor(rng.standard_normal((8, 6)), requires_grad=True)
        cfg = SelfPacedConfig(regularizer=HARD, tau=0.5)
        lo, _ = loss_bounds(4, 0.5)
        with GradTape() as tape:
            z = l2_normalize_rows(raw)
            structure = PairStructure(interleaved_pairs(8), np.repeat(rng.integers(0, 2, 4), 2)[None, :])
            loss, _ = sp_contrastive_loss(z, structure, lo * 0.5, cfg)
        (g,) = tape.gradient(loss, [raw])
        assert np.all(g == 0.0)

    def test_weighted_gradient_matches_frozen_finite_difference(self, rng):
        """With w frozen at its closed-form values, d(loss)/d(raw) matches FD."""
        raw0 = rng.standard_normal((6, 5)) * 0.7
        labels = np.repeat(rng.integers(0, 2, 3), 2)[None, :]
        cfg = SelfPacedConfig(regularizer=LINEAR, tau=0.5)
        gamma = sum(loss_bounds(3, 0.5)) / 2.0
        structure = PairStructure(interleaved_pairs(6), labels)

        def embed(arr):
            return l2_normalize_rows(arr if isinstance(arr, Tensor) else Tensor(arr))

        _, weights = sp_contrastive_loss(embed(raw0), structure, gamma, cfg)
        coefs = mask_coefficients(positive_masks(structure, (0,))) * dense_weights(structure, 0, weights)

        def frozen_loss(arr):
            return masked_mean_sum(pair_loss_values(embed(arr), structure, cfg.tau), coefs, [1.0])

        raw = Tensor(raw0, requires_grad=True)
        with GradTape() as tape:
            out = frozen_loss(raw)
        (analytic,) = tape.gradient(out, [raw])

        step = 1e-5
        flat = raw0.reshape(-1)
        numeric = np.zeros_like(flat)
        for c in range(flat.size):
            up, dn = flat.copy(), flat.copy()
            up[c] += step
            dn[c] -= step
            numeric[c] = (
                frozen_loss(up.reshape(raw0.shape)).item()
                - frozen_loss(dn.reshape(raw0.shape)).item()
            ) / (2 * step)
        rel = np.abs(analytic.reshape(-1) - numeric) / np.maximum(
            np.abs(analytic.reshape(-1)) + np.abs(numeric), 1e-5
        )
        assert rel.max() < 1e-4

    def test_mean_weight_dynamics_fast_vs_slow_pace(self, rng):
        """At mid-training the p=1/2 schedule keeps more pairs than p=2."""
        z, structure = random_batch(rng, 8, num_classes=[3])
        base = SelfPacedConfig(regularizer=LINEAR, tau=0.5).with_default_pace(8)
        means = {}
        for p in (0.5, 2.0):
            cfg = SelfPacedConfig(
                regularizer=LINEAR, tau=0.5, p=p,
                gamma_start=base.gamma_start, gamma_end=base.gamma_end,
            )
            gamma = pace_schedule(cfg, 50, 100)
            _, weights = sp_contrastive_loss(z, structure, gamma, cfg)
            means[p] = weights.mean()
        assert means[0.5] > means[2.0]


class TestCombinedLoss:
    def test_single_label_identity(self, rng):
        z, structure = random_batch(rng, 4, num_classes=[2])
        cfg = SelfPacedConfig(tau=0.5, lambdas=(1.0,)).with_default_pace(4)
        gamma = 0.5 * (cfg.gamma_start + cfg.gamma_end)
        single, _ = op_sp_loss(z, structure, 0, gamma, cfg)
        assert combined_sp_loss(z, structure, gamma, cfg)[0].item() == single.item()

    @pytest.mark.parametrize("gamma", [math.nan, math.inf])
    def test_non_finite_gamma_rejected(self, rng, gamma):
        z, structure = random_batch(rng, 4, num_classes=[2])
        for regularizer in (HARD, LINEAR):
            cfg = SelfPacedConfig(regularizer=regularizer, tau=0.5)
            with pytest.raises(InvalidConfig, match="gamma must be positive and finite"):
                combined_sp_loss(z, structure, gamma, cfg)

    def test_zero_lambda_drops_label(self, rng):
        z, structure = random_batch(rng, 4, num_classes=[2, 3, 2], num_labels=3)
        labels = structure.meta_labels
        other = PairStructure(structure.pair_of, np.vstack([labels[0], np.roll(labels[1], 2), labels[2] * 0]))
        cfg = SelfPacedConfig(tau=0.5, lambdas=(1.0, 0.0, 0.0)).with_default_pace(4)
        gamma = cfg.gamma_end * 0.7
        assert combined_sp_loss(z, structure, gamma, cfg)[0].item() == combined_sp_loss(z, other, gamma, cfg)[0].item()

    def test_split_lambdas_on_identical_labels(self, rng):
        z, structure = random_batch(rng, 4, num_classes=[2])
        dup = PairStructure(structure.pair_of, np.vstack([structure.meta_labels[0]] * 2))
        gamma = 2.0
        cfg_single = SelfPacedConfig(tau=0.5, lambdas=(1.0,), gamma_start=1.0, gamma_end=3.0)
        cfg_split = SelfPacedConfig(tau=0.5, lambdas=(0.5, 0.5), gamma_start=1.0, gamma_end=3.0)
        a = combined_sp_loss(z, structure, gamma, cfg_single)[0].item()
        b = combined_sp_loss(z, dup, gamma, cfg_split)[0].item()
        assert b == pytest.approx(a, abs=1e-12)

    @pytest.mark.parametrize("regularizer", [HARD, LINEAR])
    def test_pooled_weights_and_loss_match_per_label_terms(self, rng, regularizer):
        z, structure = random_batch(rng, 5, num_classes=[2, 3, 2], num_labels=3)
        cfg = SelfPacedConfig(regularizer=regularizer, tau=0.5, lambdas=(1.0, 0.0, 0.25)).with_default_pace(5)
        gamma = 0.5 * (cfg.gamma_start + cfg.gamma_end)
        loss, pooled = combined_sp_loss(z, structure, gamma, cfg)
        terms = [op_sp_loss(z, structure, k, gamma, cfg) for k in (0, 2)]
        np.testing.assert_array_equal(pooled, np.concatenate([w for _, w in terms]))
        assert loss.item() == (terms[0][0] * 1.0 + terms[1][0] * 0.25).item()

    def test_unweighted_is_meta_loss_bitwise(self, rng):
        z, structure = random_batch(rng, 5, num_classes=[2, 3, 2], num_labels=3)
        cfg = SelfPacedConfig(tau=0.5, lambdas=(1.0, 0.0, 0.25))
        loss, pooled = combined_sp_loss(z, structure, 1.0, cfg, weighted=False)
        meta = [op_meta_loss(z, structure, k, 0.5) for k in (0, 2)]
        assert loss.item() == (meta[0] * 1.0 + meta[1] * 0.25).item()
        assert pooled.size == sum(int(op_positive_mask(structure, k).sum()) for k in (0, 2)) and np.all(pooled == 1.0)

    def test_unweighted_per_image_labels_is_unsup_loss_bitwise(self, rng):
        z, structure = random_batch(rng, 5)
        per_image = PairStructure(structure.pair_of, per_image_labels(5))
        loss, pooled = combined_sp_loss(z, per_image, 1.0, SelfPacedConfig(tau=0.5), weighted=False)
        assert loss.item() == op_unsup_loss(z, structure, 0.5).item()
        np.testing.assert_array_equal(pooled, np.ones(10))

    @pytest.mark.parametrize(
        "mode, lambdas",
        [("hard", (1.0, 0.1, 0.1)), ("linear", (1.0, 0.1, 0.1)), ("linear", (0.5, 0.0, 0.25)),
         ("unweighted", (1.0, 0.1, 0.1)), ("unweighted", (0.0, 0.3, 1.0))],
    )
    def test_one_node_matches_per_label_ops_value_and_gradient(self, rng, mode, lambdas):
        """The K-label node against the per-label sum built from ops, bit for bit, under a cotangent != 1."""
        weighted = mode != "unweighted"
        cfg = SelfPacedConfig(regularizer=HARD if mode == "hard" else LINEAR, tau=0.5, lambdas=lambdas)
        cfg = cfg.with_default_pace(6)
        gamma = 0.5 * (cfg.gamma_start + cfg.gamma_end)

        def taped(objective):
            structure = PairStructure(interleaved_pairs(12), labels)
            with GradTape() as tape:
                loss = objective(l2_normalize_rows(raw), structure) * 0.1
            return loss.data, tape.gradient(loss, [raw])[0], tape

        def per_label(z, structure):
            values = pair_loss_values(z, structure, cfg.tau)
            total = None
            for k, lam in enumerate(lambdas):
                if lam == 0.0:
                    continue
                if weighted:
                    term = op_sp_loss(z, structure, k, gamma, cfg, values=values)[0]
                else:
                    term = op_masked_mean(values, op_positive_mask(structure, k))
                total = term * lam if total is None else total + term * lam
            return total

        for _ in range(12):
            raw = Tensor(rng.standard_normal((12, 6)), requires_grad=True)
            labels = np.repeat(rng.integers(0, 3, size=(3, 6)), 2, axis=1)
            value, grad, tape = taped(lambda z, st: combined_sp_loss(z, st, gamma, cfg, weighted=weighted)[0])
            want_value, want_grad, _ = taped(per_label)
            assert value.tobytes() == want_value.tobytes()
            assert grad.tobytes() == want_grad.tobytes()
            assert [n.op for n in tape.nodes].count("masked_mean_sum") == 1

    def test_config_validation(self):
        with pytest.raises(InvalidConfig):
            SelfPacedConfig(regularizer="soft")
        with pytest.raises(InvalidConfig):
            SelfPacedConfig(lambdas=(0.0, 0.0))
        with pytest.raises(InvalidConfig):
            SelfPacedConfig(gamma_start=5.0, gamma_end=1.0)
        with pytest.raises(InvalidConfig):
            SelfPacedConfig(p=0.0)
