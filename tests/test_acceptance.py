"""Acceptance criteria, one test per criterion, at their stated tolerances.

Each test prints a single PASS line on success so the suite doubles as a
checklist. Oracles: brute-force grid minimization, exact bound formulas,
central finite differences, naive reference implementations, and the
measured directional experiment.
"""

import time

import numpy as np

from conftest import reference_supervised_history
from spcl.config import ExperimentConfig, config_from_dict
from spcl.models import ModelConfig, ParamModel
from spcl.self_paced import SelfPacedConfig, loss_bounds
from spcl.semi_supervised import SemiSupConfig, run_semisup, write_history_csv
from spcl.synth_data import generate_dataset
from spcl.verify import (
    check_closed_form_weights,
    check_equivalences,
    check_gradients,
    check_loss_bounds,
)


def _report(criterion: str, detail: str) -> None:
    print(f"\nACCEPTANCE {criterion}: PASS ({detail})")


class TestCriterion1ClosedFormOptimality:
    def test_weights_match_grid_search(self):
        t0 = time.time()
        family = check_closed_form_weights(trials=1000)
        elapsed = time.time() - t0
        assert family.passed, family.detail
        assert elapsed < 10.0, f"runtime {elapsed:.1f}s exceeds 10s"
        _report("criterion 1 (closed-form optimality)", f"{family.detail}, {elapsed:.1f}s")


class TestCriterion2LossBounds:
    def test_containment_and_adversarial_attainment(self):
        t0 = time.time()
        family = check_loss_bounds(trials=1000)
        elapsed = time.time() - t0
        assert family.passed, family.detail
        assert elapsed < 30.0, f"runtime {elapsed:.1f}s exceeds 30s"
        _report("criterion 2 (loss bounds)", f"{family.detail}, {elapsed:.1f}s")


class TestCriterion3GradientCorrectness:
    def test_five_losses_twenty_configs(self):
        t0 = time.time()
        family = check_gradients(configs=20, seed=33, tolerance=1e-4)
        elapsed = time.time() - t0
        assert family.passed, family.detail
        assert elapsed < 120.0, f"runtime {elapsed:.1f}s exceeds 2min"
        _report("criterion 3 (gradient correctness)", f"{family.detail}, {elapsed:.1f}s")


class TestCriterion4Equivalences:
    def test_degenerate_hard_saturation_lambda_drop(self):
        family = check_equivalences()
        assert family.passed, family.detail
        _report("criterion 4a/4c (loss equivalences)", family.detail)

    def test_zero_lambda_loop_bitwise_supervised(self, tmp_path):
        dataset = generate_dataset(5, 6, (8, 8), noise_level=0.2, seed=3)
        labeled = dataset.splits["train"][:1]
        mc = ModelConfig(image_shape=(8, 8), arch="conv", conv_channels=(3, 4), head_hidden=8, embed_dim=6, seed=0)
        cfg = SemiSupConfig(epochs=3, batch_size=4, lambda_reg=0.0, lambda_sp=0.0)
        semi = run_semisup(ParamModel(mc), dataset, labeled, cfg, seed=5)
        sup = ParamModel(mc)  # trained in place by an independent supervised loop
        pa, pb = tmp_path / "semi.csv", tmp_path / "sup.csv"
        write_history_csv(semi.history, pa)
        write_history_csv(reference_supervised_history(sup, dataset, labeled, cfg, seed=5), pb)
        assert pa.read_bytes() == pb.read_bytes()
        for k in semi.model.params:
            np.testing.assert_array_equal(semi.model.params[k].data, sup.params[k].data)
        _report("criterion 4b (reduction to supervised)", "history CSVs and parameters bitwise equal")


class TestCriterion5PaceDynamics:
    def test_endpoints_exact_and_weight_ordering(self):
        from spcl.pace_report import pace_report

        config = ExperimentConfig()
        max_epoch = 20
        rows = pace_report(config, max_epoch=max_epoch)
        resolved = config.self_paced.with_default_pace(config.pretrain.batch_originals)
        for p in (0.5, 1.0, 2.0):
            for reg in ("linear", "hard"):
                start = [r for r in rows if r.epoch == 0 and r.p == p and r.regularizer == reg]
                end = [r for r in rows if r.epoch == max_epoch and r.p == p and r.regularizer == reg]
                assert start[0].gamma == resolved.gamma_start
                assert end[0].gamma == resolved.gamma_end
        mid = {r.p: r.mean_w for r in rows if r.epoch == max_epoch // 2 and r.regularizer == "linear"}
        assert mid[0.5] > mid[1.0] > mid[2.0], f"mid-training mean weights not ordered: {mid}"
        _report(
            "criterion 5 (pace dynamics)",
            f"gamma endpoints exact; mean_w at mid-training {mid[0.5]:.3f} > {mid[1.0]:.3f} > {mid[2.0]:.3f}",
        )


# Directional experiment protocol: all five chain rows share one
# feature-preserving fine-tune recipe (dense blocks, encoder lr x0.05);
# medians over five fixed seeds on a 20-volume held-out evaluation pool.
DIRECTIONAL_CONFIG = config_from_dict(
    {
        "data": {"num_patients": 10, "slices_per_volume": 12, "height": 16, "width": 16,
                 "noise_level": 0.3, "num_partitions": 4, "seed": 7},
        "model": {"arch": "dense", "skip_width": 16},
        "self_paced": {"tau": 0.5, "lambdas": [1.0, 0.1, 0.1]},
        "pretrain": {"epochs": 60, "batch_originals": 8, "lr": 1e-3},
        "semisup": {"epochs": 40, "batch_size": 8, "unlabeled_batch_originals": 8,
                     "lr": 1e-3, "lambda_reg": 0.1, "lambda_sp": 0.1, "encoder_lr_scale": 0.05},
        "ablation": {"seeds": [0, 1, 2, 3, 4], "num_labeled": 2},
    }
)


class TestCriterion6DirectionalExperiment:
    def test_variant_chain_and_noise_comparison(self):
        from spcl.ablation import CHAIN_VARIANTS, directional_experiment, paired_gains

        result = directional_experiment(
            DIRECTIONAL_CONFIG, seeds=(0, 1, 2, 3, 4), noise_level=0.5, margin=0.05
        )
        chain = [result.medians[v] for v in CHAIN_VARIANTS]
        for a, b, va, vb in zip(chain, chain[1:], CHAIN_VARIANTS, CHAIN_VARIANTS[1:]):
            assert b >= a, f"{vb} ({b:.4f}) below {va} ({a:.4f})"
        assert result.mean_teacher_gain >= 0.05, (
            f"mean-teacher variant beats baseline by {result.mean_teacher_gain:.4f} < 0.05"
        )
        assert result.spl_noise_gain >= 0.02, (
            f"linear SPL beats unweighted meta by {result.spl_noise_gain:.4f} < 0.02 at noise 0.5"
        )
        assert result.seconds < 900, f"runtime {result.seconds:.0f}s exceeds 15min"
        chain_text = " <= ".join(f"{v}:{result.medians[v]:.3f}" for v in CHAIN_VARIANTS)
        _report(
            "criterion 6 (directional experiment)",
            f"{chain_text}; MT gain {result.mean_teacher_gain:.3f}; "
            f"SPL noise gain {result.spl_noise_gain:.3f}; {result.seconds:.0f}s",
        )
        for link, (diffs, favour) in paired_gains(result).items():
            print(f"  {link}: per-seed {' '.join(f'{d:+.4f}' for d in diffs)}; {favour}/{len(diffs)} seeds favour the later")


class TestCriterion7Determinism:
    def test_identical_configs_identical_csvs(self, tmp_path):
        dataset = generate_dataset(5, 6, (8, 8), noise_level=0.2, seed=3)
        labeled = dataset.splits["train"][:1]
        mc = ModelConfig(image_shape=(8, 8), arch="conv", conv_channels=(3, 4), head_hidden=8, embed_dim=6, seed=1)
        cfg = SemiSupConfig(
            epochs=3, batch_size=4, lambda_reg=0.1, lambda_sp=0.1,
            self_paced=SelfPacedConfig(tau=0.5, lambdas=(1.0, 0.1, 0.1)),
        )
        pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
        write_history_csv(run_semisup(ParamModel(mc), dataset, labeled, cfg, seed=4).history, pa)
        write_history_csv(run_semisup(ParamModel(mc), dataset, labeled, cfg, seed=4).history, pb)
        assert pa.read_bytes() == pb.read_bytes()
        _report("criterion 7 (determinism)", "independent runs wrote identical loss-history CSVs")
