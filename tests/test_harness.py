"""Config loading/overrides, CLI subcommands and exit codes, verification families."""

import json
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import spcl
from spcl.ablation import AblationRow, DirectionalResult, ablation_checks, format_ablation_table, paired_gains
from spcl.config import (
    ExperimentConfig,
    OUTPUT_ROOT_ENV,
    apply_overrides,
    config_from_dict,
    config_to_dict,
    load_config,
)
from spcl.errors import DataError, InvalidConfig
from spcl.models import ModelConfig, ParamModel
from spcl.verify import check_closed_form_weights, check_gradients, run_verification

SMALL = {
    "seed": 1,
    "data": {"num_patients": 5, "slices_per_volume": 6, "height": 8, "width": 8, "noise_level": 0.2, "seed": 3},
    "model": {"arch": "conv", "conv_channels": [3, 4], "head_hidden": 8, "embed_dim": 6},
    "pretrain": {"epochs": 2, "batch_originals": 4},
    "semisup": {"epochs": 2, "batch_size": 4, "unlabeled_batch_originals": 4},
    "ablation": {"seeds": [0, 1, 2], "num_labeled": 1},
}


# The source root that holds the spcl this process imported (src/ in a checkout).
SPCL_ROOT = str(Path(spcl.__file__).resolve().parent.parent)


def run_python(args, cwd):
    """Run Python in cwd against the same spcl this process imported.

    A relative PYTHONPATH does not resolve from cwd, and an installed spcl may be
    another version, so the absolute source root goes first. SPCL_OUTPUT_ROOT is
    dropped so that outputs land under cwd/runs whatever the caller's shell sets.
    """
    env = {k: v for k, v in os.environ.items() if k != OUTPUT_ROOT_ENV}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SPCL_ROOT, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env, capture_output=True, text=True)


def run_cli(args, cwd):
    """Run `python -m spcl` in cwd (see run_python)."""
    return run_python(["-m", "spcl", *args], cwd)


class TestConfig:
    def test_defaults_round_trip(self):
        cfg = ExperimentConfig()
        again = config_from_dict(config_to_dict(cfg))
        assert again == cfg

    def test_unknown_key_rejected(self):
        with pytest.raises(InvalidConfig):
            config_from_dict({"data": {"num_patients": 4, "bogus": 1}})
        with pytest.raises(InvalidConfig):
            config_from_dict({"nonsense": {}})
        with pytest.raises(InvalidConfig):
            config_from_dict({"pretrain": {"self_paced": {}}})
        for derived in ({"seed": 1}, {"image_shape": [8, 8]}, {"num_classes": 3}):
            with pytest.raises(InvalidConfig, match="unknown config keys at model"):
                config_from_dict({"model": derived})

    def test_model_section_is_a_modelconfig_with_derived_fields(self, tmp_path):
        cfg = config_from_dict({"seed": 4, "data": {"height": 8, "width": 8}, "model": {"arch": "dense"}})
        assert cfg.model == ModelConfig(image_shape=(8, 8), arch="dense", seed=4)
        # conv_channels takes any length in the type; a conv checkpoint still needs exactly two
        path = tmp_path / "model.npz"
        ParamModel(config_from_dict(SMALL).model).save(path)
        with np.load(path) as data:
            arrays = {k: data[k] for k in data.files if k != "__meta__"}
            meta = json.loads(bytes(data["__meta__"]).decode())
        meta["config"]["conv_channels"] = [3, 4, 5]
        with open(path, "wb") as fh:
            np.savez(fh, __meta__=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8), **arrays)
        with pytest.raises(DataError, match="conv arch needs 2 conv_channels"):
            ParamModel.load(path)

    @pytest.mark.parametrize(
        "data, key",
        [
            ({"pretrain": {"epochs": "abc"}}, "pretrain.epochs"),
            ({"semisup": {"lr": "x"}}, "semisup.lr"),
            ({"data": {"num_patients": "abc"}}, "data.num_patients"),
            ({"augment": {"crop_scale": 3}}, "augment.crop_scale"),
            ({"augment": {"crop_scale": [0.9]}}, "augment.crop_scale"),
            ({"self_paced": {"lambdas": ["a", 0.1]}}, "self_paced.lambdas[0]"),
            ({"self_paced": {"gamma_start": "low"}}, "self_paced.gamma_start"),
            ({"semisup": {"sp_weighting": 1}}, "semisup.sp_weighting"),
            ({"model": {"arch": 3}}, "model.arch"),
            ({"ablation": {"seeds": [0, 1.5, 2]}}, "ablation.seeds[1]"),
            ({"seed": True}, "seed"),
        ],
    )
    def test_wrongly_typed_value_rejected_naming_its_key(self, data, key):
        with pytest.raises(InvalidConfig, match=re.escape(key)):
            config_from_dict(data)

    def test_module_configs_validate_at_load(self):
        with pytest.raises(InvalidConfig):
            config_from_dict({"pretrain": {"epochs": 0}})
        with pytest.raises(InvalidConfig):
            config_from_dict({"self_paced": {"lambdas": [0.0, 0.0]}})

    @pytest.mark.parametrize(
        "data",
        [
            {"augment": {"flip_prob": 1.5}},
            {"augment": {"max_rotate_deg": -1.0}},
            {"augment": {"crop_scale": [2, 3]}},
            {"augment": {"crop_scale": [0.0, 1.0]}},
            {"augment": {"crop_scale": [0.9, 0.8]}},
            {"augment": {"gamma_range": [0.0, 1.0]}},
            {"augment": {"gamma_range": [1.2, 0.8]}},
            {"augment": {"brightness_delta": -0.1}},
            {"augment": {"max_rotate_deg": float("inf")}},  # --set reads Infinity through json.loads
            {"augment": {"gamma_range": [0.8, float("inf")]}},
            {"augment": {"brightness_delta": float("inf")}},
            {"model": {"head_hidden": -1}},
            {"model": {"embed_dim": 0}},
            {"model": {"conv_channels": [0, 12]}},
            {"model": {"conv_channels": []}},
            {"model": {"conv_channels": [3, 4, 5]}},
            {"model": {"arch": "dense", "encoder_widths": [64, 0]}},
            {"model": {"arch": "dense", "decoder_width": 0}},
            {"model": {"arch": "dense", "skip_width": -1}},
            {"data": {"height": 0}},
            {"data": {"width": 1}},
            {"data": {"num_partitions": 0}},
            {"data": {"height": 18, "width": 18}},  # the conv arch downsamples twice
        ],
    )
    def test_out_of_range_value_rejected_at_load(self, data):
        with pytest.raises(InvalidConfig):
            config_from_dict(data)

    @pytest.mark.parametrize(
        "override",
        [
            "pretrain.lr=Infinity",  # --set reads Infinity and NaN through json.loads
            "pretrain.lr=-1",
            "semisup.lr=NaN",
            "semisup.lr=0",
            "semisup.lambda_reg=Infinity",
            "semisup.consistency_noise=Infinity",
            "semisup.consistency_noise=-1",
            "semisup.ema_decay=NaN",
            "semisup.ema_decay=1.5",
            "semisup.encoder_lr_scale=Infinity",
            "semisup.encoder_lr_scale=-1",
            "semisup.epochs=0",
            "semisup.batch_size=0",
            "semisup.unlabeled_batch_originals=1",
            "self_paced.tau=Infinity",
            "self_paced.p=Infinity",
            "self_paced.gamma_start=NaN",
            "self_paced.lambdas=[1.0, Infinity]",
            "model.leaky_slope=NaN",
            "ablation.num_labeled=-1",
            "ablation.num_labeled=0",
            "ablation.baseline_margin=NaN",
            "ablation.seeds=[]",
            "ablation.seeds=[0, 1]",
            "ablation.seeds=[0, 0, 0]",
        ],
    )
    def test_training_value_out_of_range_rejected_at_load(self, override):
        with pytest.raises(InvalidConfig):
            config_from_dict(apply_overrides({}, [override]))

    @pytest.mark.parametrize(
        "override", ["self_paced.gamma_start=0", "self_paced.gamma_start=-1", "self_paced.gamma_end=0"]
    )
    def test_nonpositive_pace_endpoint_rejected_at_load_naming_it(self, override):
        key = override.split("=")[0].split(".")[1]
        with pytest.raises(InvalidConfig, match=f"{key} must be positive"):
            config_from_dict(apply_overrides({}, [override]))

    @pytest.mark.parametrize(
        "data, message",
        [
            # gamma_start defaults to the lower loss bound, 0.228 at tau 0.5 and N 8
            ({"self_paced": {"gamma_end": 0.1}}, "self_paced.gamma_end = 0.1 is below 0.228266"),
            # gamma_end defaults to the upper loss bound, 6.64 at tau 0.5 and N 8
            ({"self_paced": {"gamma_start": 7.0}}, "self_paced.gamma_start = 7.0 is above 6.64036"),
            # the bound at the semi-supervised batch size is checked too
            ({"self_paced": {"gamma_end": 0.2}, "pretrain": {"batch_originals": 2}},
             "semisup.unlabeled_batch_originals = 8"),
            ({"self_paced": {"gamma_start": 3.0, "gamma_end": 2.0}}, "gamma_start 3.0 must not exceed gamma_end 2.0"),
            # 2 / tau overflows: the default gamma_end would be inf
            ({"self_paced": {"tau": 5e-324}}, "self_paced.tau = 5e-324 is so small"),
            # exp(-2 / tau) underflows: the default gamma_start would be 0.0
            ({"self_paced": {"tau": 0.002}},
             "self_paced.tau = 0.002 is so small that the lower loss bound at pretrain.batch_originals = 8 underflows"),
        ],
    )
    def test_pace_endpoint_crossing_the_other_rejected_at_load_naming_it(self, data, message):
        with pytest.raises(InvalidConfig, match=re.escape(message)):
            config_from_dict(data)

    @pytest.mark.parametrize(
        "data",
        [{"self_paced": {"gamma_end": 0.3}}, {"self_paced": {"gamma_start": 6.0}},
         {"self_paced": {"gamma_start": 0.1, "gamma_end": 0.1}}],
    )
    def test_pace_endpoint_within_the_other_default_loads(self, data):
        config_from_dict(data)

    @pytest.mark.parametrize(
        "data, key",
        [({"seed": -1}, "seed"), ({"data": {"seed": -1}}, "data: seed"),
         ({"ablation": {"seeds": [0, 1, -1]}}, "ablation: seeds")],
    )
    def test_negative_seed_rejected_at_load_naming_it(self, data, key):
        with pytest.raises(InvalidConfig, match=f"^{key} must be"):
            config_from_dict(data)

    @pytest.mark.parametrize(
        "data",
        [
            {"model": {"arch": "dense", "skip_width": 0}},  # no skip branch
            {"model": {"arch": "dense", "conv_channels": []}},  # dense never reads conv_channels
            {"model": {"encoder_widths": [64, 0]}},  # conv never reads the encoder widths
            {"model": {"arch": "dense"}, "data": {"height": 10}},  # only conv needs dims divisible by 4
        ],
    )
    def test_sizes_an_arch_does_not_build_pass_at_load(self, data):
        config_from_dict(data)

    def test_defaults_unchanged(self):
        """The effective config of the defaults, as config.json has always held it."""
        expected = {
            "seed": 0,
            "output_dir": "runs",
            "data": {"num_patients": 10, "slices_per_volume": 12, "height": 16, "width": 16,
                     "noise_level": 0.3, "num_partitions": 4, "seed": 7},
            "model": {"arch": "conv", "conv_channels": [6, 12], "encoder_widths": [64, 32], "head_hidden": 64,
                      "embed_dim": 32, "decoder_width": 64, "skip_width": 16, "leaky_slope": 0.01},
            "self_paced": {"regularizer": "linear", "tau": 0.5, "gamma_start": None, "gamma_end": None,
                           "p": 0.5, "lambdas": [1.0, 0.1, 0.1]},
            "pretrain": {"epochs": 40, "batch_originals": 8, "lr": 0.001, "loss_mode": "sp"},
            "semisup": {"epochs": 40, "batch_size": 8, "unlabeled_batch_originals": 8, "lr": 0.002,
                        "lambda_reg": 0.1, "lambda_sp": 0.1, "ema_decay": 0.99, "consistency_noise": 0.05,
                        "sp_on_unlabeled_only": False, "encoder_lr_scale": 1.0, "sp_weighting": True},
            "augment": {"flip_prob": 0.5, "max_rotate_deg": 0.0, "crop_scale": [1.0, 1.0],
                        "gamma_range": [0.95, 1.05], "brightness_delta": 0.03},
            "ablation": {"seeds": [0, 1, 2], "num_labeled": 2, "baseline_margin": 0.05, "eval_split": "test"},
        }
        assert config_to_dict(ExperimentConfig()) == expected
        assert config_from_dict(expected) == ExperimentConfig()

    def test_one_self_paced_section(self):
        cfg = ExperimentConfig()
        x = replace(cfg.self_paced, tau=0.3, regularizer="hard")
        changed = replace(cfg, self_paced=x)
        assert changed.pretrain.self_paced == x
        assert changed.semisup.self_paced == x
        assert config_from_dict({"self_paced": {"tau": 0.3}}).semisup.self_paced.tau == 0.3

    def test_overrides_win_over_file(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"data": {"noise_level": 0.1}}))
        cfg = load_config(str(path), ["data.noise_level=0.7", "semisup.lambda_sp=0.25"])
        assert cfg.data.noise_level == 0.7
        assert cfg.semisup.lambda_sp == 0.25

    def test_override_parsing(self):
        data = apply_overrides({}, ["a.b=3", "a.c=true", "a.d=hello", "e=[1,2]"])
        assert data == {"a": {"b": 3, "c": True, "d": "hello"}, "e": [1, 2]}

    def test_json_too_deep_to_parse_rejected(self, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000 + "]" * 100_000)  # used to raise RecursionError
        with pytest.raises(InvalidConfig, match="config is not valid JSON"):
            load_config(str(path))
        # an integer literal of more digits than Python converts is read as a string
        with pytest.raises(InvalidConfig, match="^seed must be an integer"):
            load_config(None, ["seed=" + "9" * 5000])

    def test_missing_file(self):
        with pytest.raises(InvalidConfig):
            load_config("/nonexistent/config.json")

    @pytest.mark.parametrize("top", ["[1, 2]", "5", '"text"', "null", "true"])
    @pytest.mark.parametrize("override", ["seed=1", "data.seed=1"])
    def test_override_into_a_top_level_that_is_not_an_object(self, tmp_path, top, override):
        """--set on such a file raised TypeError or AttributeError instead of the error the file gives alone."""
        path = tmp_path / "c.json"
        path.write_text(top)
        want = f"the top level is not a JSON object, got {json.loads(top)!r}"
        with pytest.raises(InvalidConfig) as without:
            load_config(str(path))
        with pytest.raises(InvalidConfig) as overridden:
            load_config(str(path), [override])
        assert str(without.value) == str(overridden.value) == want

    def test_output_root_env(self, monkeypatch, tmp_path):
        monkeypatch.setenv(OUTPUT_ROOT_ENV, str(tmp_path))
        cfg = ExperimentConfig(output_dir="runs")
        assert str(cfg.output_root()) == str(tmp_path / "runs")

    def test_builders_produce_valid_configs(self):
        cfg = config_from_dict(SMALL)
        assert cfg.model.image_shape == (8, 8)
        assert cfg.pretrain.epochs == 2
        assert replace(cfg.semisup, lambda_sp=0.0).lambda_sp == 0.0
        assert cfg.self_paced.lambdas == (1.0, 0.1, 0.1)
        assert cfg.pretrain.self_paced == cfg.semisup.self_paced == cfg.self_paced


class TestVerification:
    def test_all_families_pass(self):
        report = run_verification(fast=True)
        assert report.passed, report.failed_names
        assert len(report.families) >= 6

    def test_corrupted_weight_formula_fails_family(self):
        from spcl.self_paced import optimal_weight

        def corrupted(l, gamma, regularizer):
            return min(1.0, float(optimal_weight(l, gamma, regularizer)) + 0.01)

        family = check_closed_form_weights(corrupted, trials=100)
        assert not family.passed

    def test_skewed_contrastive_node_backward_fails_gradient_family(self, monkeypatch):
        """The three contrastive cases run the training node: a 1% error in its backward fails each of them."""
        real_apply = spcl.contrastive._apply

        def skewed_apply(op, inputs, fwd, bwd):
            def skewed_bwd(datas, out):
                back = bwd(datas, out)
                return lambda g: back(g * 1.01)

            return real_apply(op, inputs, fwd, skewed_bwd if op == "masked_mean_sum" else bwd)

        monkeypatch.setattr(spcl.contrastive, "_apply", skewed_apply)
        family = check_gradients(configs=1)
        assert not family.passed
        assert family.detail.endswith("failed: ['unsup_con@1', 'meta_con@1', 'sp_con_frozen_w@1']"), family.detail

    def test_skewed_pair_loss_node_backward_fails_gradient_family(self, monkeypatch):
        """The three contrastive cases differentiate through the pair-loss node: a 1% error in its backward fails each."""
        real_apply = spcl.contrastive._apply

        def skewed_apply(op, inputs, fwd, bwd):
            def skewed_bwd(datas, out):
                back = bwd(datas, out)
                return lambda g: back(g * 1.01)

            return real_apply(op, inputs, fwd, skewed_bwd if op == "pair_loss_values" else bwd)

        monkeypatch.setattr(spcl.contrastive, "_apply", skewed_apply)
        family = check_gradients(configs=1)
        assert not family.passed
        assert family.detail.endswith("failed: ['unsup_con@1', 'meta_con@1', 'sp_con_frozen_w@1']"), family.detail

    def test_skewed_dense_pass_backward_fails_every_gradient_case(self, monkeypatch):
        """Every case differentiates through a dense pass that the perturbed evaluations partly reuse."""
        real_apply = spcl.autodiff._apply

        def skewed_apply(op, inputs, fwd, bwd, kinks=()):
            def skewed_bwd(datas, out):
                back = bwd(datas, out)
                return lambda g: back(g * 1.01)

            return real_apply(op, inputs, fwd, skewed_bwd if op == "dense_pass" else bwd, kinks)

        monkeypatch.setattr(spcl.autodiff, "_apply", skewed_apply)
        family = check_gradients(configs=1)
        assert not family.passed
        assert family.detail.endswith(
            "failed: ['unsup_con@1', 'meta_con@1', 'sp_con_frozen_w@1', 'cross_entropy@1', 'consistency@1']"
        ), family.detail

    @pytest.mark.parametrize("op, case", [("supervised_loss", "cross_entropy"), ("consistency_loss", "consistency")])
    def test_skewed_segmentation_loss_backward_fails_its_case(self, monkeypatch, op, case):
        """The loss nodes whose constants the perturbed evaluations reuse still face the oracle."""
        real_apply = spcl.semi_supervised._apply

        def skewed_apply(name, inputs, fwd, bwd):
            def skewed_bwd(datas, out):
                back = bwd(datas, out)
                return lambda g: back(g * 1.01)

            return real_apply(name, inputs, fwd, skewed_bwd if name == op else bwd)

        monkeypatch.setattr(spcl.semi_supervised, "_apply", skewed_apply)
        family = check_gradients(configs=1)
        assert not family.passed
        assert family.detail.endswith(f"failed: ['{case}@1']"), family.detail

    def test_gradient_family_needs_a_configuration(self):
        with pytest.raises(ValueError, match="configs must be at least 1, got 0"):
            check_gradients(configs=0)

    def test_report_is_machine_readable(self):
        report = run_verification(fast=True)
        parsed = json.loads(report.to_json())
        assert parsed["passed"] is True
        assert len(parsed["families"]) >= 6


class TestAblationMachinery:
    def test_row_statistics(self):
        row = AblationRow.from_scores("baseline", [0.5, 0.7, 0.6])
        assert row.mean == pytest.approx(0.6)
        assert row.median == pytest.approx(0.6)
        assert row.std == pytest.approx(np.std([0.5, 0.7, 0.6]))

    def test_ordering_checks(self):
        rows = [
            AblationRow.from_scores("baseline", [0.5, 0.5, 0.5]),
            AblationRow.from_scores("sp-con(both)+mean-teacher", [0.7, 0.7, 0.7]),
            AblationRow.from_scores("full-supervision", [0.9, 0.9, 0.9]),
        ]
        assert ablation_checks(rows, baseline_margin=0.05) == []
        bad = [
            AblationRow.from_scores("baseline", [0.5, 0.5, 0.5]),
            AblationRow.from_scores("sp-con(both)+mean-teacher", [0.52, 0.52, 0.52]),
            AblationRow.from_scores("full-supervision", [0.4, 0.4, 0.4]),
        ]
        problems = ablation_checks(bad, baseline_margin=0.05)
        assert len(problems) >= 2

    def test_paired_gains_per_link_and_noise_arm(self):
        chain = {
            "baseline": (0.50, 0.60, 0.70),
            "unsup-con": (0.55, 0.55, 0.70),
            "con(meta)": (0.60, 0.65, 0.75),
            "sp-con(pretrain)": (0.60, 0.70, 0.80),
            "sp-con(both)+mean-teacher": (0.75, 0.75, 0.75),
        }
        result = DirectionalResult(
            medians={}, chain_holds=True, mean_teacher_gain=0.1, spl_noise_gain=0.02, seconds=0.0,
            chain_dice=chain, noise_dice={"linear-spl": (0.5, 0.25, 0.5), "unweighted": (0.25, 0.5, 0.5)},
        )
        gains = paired_gains(result)
        assert list(gains) == [
            "baseline -> unsup-con", "unsup-con -> con(meta)", "con(meta) -> sp-con(pretrain)",
            "sp-con(pretrain) -> sp-con(both)+mean-teacher", "unweighted -> linear-spl",
        ]
        diffs, favour = gains["baseline -> unsup-con"]
        assert diffs == pytest.approx((0.05, -0.05, 0.0)) and favour == 1
        assert gains["unsup-con -> con(meta)"][1] == 3
        assert gains["sp-con(pretrain) -> sp-con(both)+mean-teacher"][1] == 2
        assert gains["unweighted -> linear-spl"] == ((0.25, -0.25, 0.0), 1)

    def test_table_contains_all_variants(self):
        rows = [AblationRow.from_scores(v, [0.1, 0.2, 0.3]) for v in ("baseline", "full-supervision")]
        table = format_ablation_table(rows)
        assert "baseline" in table and "full-supervision" in table


class TestCliProcess:
    @pytest.fixture()
    def workdir(self, tmp_path):
        (tmp_path / "small.json").write_text(json.dumps(SMALL))
        return tmp_path

    def test_full_pipeline(self, workdir):
        r = run_cli(["generate-data", "--config", "small.json", "--out", "ds"], workdir)
        assert r.returncode == 0, r.stderr
        r = run_cli(["pretrain", "--config", "small.json", "--data", "ds", "--name", "pre"], workdir)
        assert r.returncode == 0, r.stderr
        assert (workdir / "runs" / "pre" / "history.csv").exists()
        assert (workdir / "runs" / "pre" / "config.json").exists()
        r = run_cli(
            ["train", "--config", "small.json", "--data", "ds", "--init", "runs/pre/encoder.npz", "--name", "tr"],
            workdir,
        )
        assert r.returncode == 0, r.stderr
        summary = json.loads((workdir / "runs" / "tr" / "summary.json").read_text())
        assert "dice_mean" in summary
        r = run_cli(["eval", "--config", "small.json", "--model", "runs/tr/model.npz", "--data", "ds"], workdir)
        assert r.returncode == 0, r.stderr
        assert "mean" in json.loads(r.stdout)

    def test_pace_report_csv_structure(self, workdir):
        r = run_cli(["pace-report", "--config", "small.json", "--epochs", "4"], workdir)
        assert r.returncode == 0, r.stderr
        lines = (workdir / "runs" / "pace" / "pace.csv").read_text().splitlines()
        assert lines[0] == "epoch,p,regularizer,gamma,mean_w,min_w,max_w"
        assert len(lines) - 1 == 5 * 3 * 2  # epochs 0..4 x three exponents x two regularizers

    def test_pace_report_rejects_non_positive_epochs(self, workdir):
        for epochs in ("0", "-3"):  # -3 used to exit 0 with a header-only CSV
            r = run_cli(["pace-report", "--config", "small.json", "--epochs", epochs], workdir)
            assert r.returncode == 2, r.stderr
            assert "Traceback" not in r.stderr
            assert not (workdir / "runs" / "pace").exists()

    def test_pace_report_batch_above_the_train_slices_exits_2(self, workdir):
        # it used to draw a smaller batch than its pace endpoints were computed for
        overrides = ["--set", "pretrain.batch_originals=30"]
        r = run_cli(["pace-report", "--config", "small.json", "--epochs", "1", *overrides], workdir)
        assert r.returncode == 2, r.stderr
        assert "config error: batch_originals=30 exceeds the" in r.stderr
        assert "unlabeled training slices; no batch would be drawn" in r.stderr and "Traceback" not in r.stderr
        assert not (workdir / "runs" / "pace").exists()

    def test_override_into_a_list_config_exits_2(self, workdir):
        (workdir / "list.json").write_text("[1, 2]")
        r = run_cli(["pace-report", "--config", "list.json", "--set", "data.seed=1"], workdir)
        assert r.returncode == 2, r.stderr
        assert r.stderr.strip() == "config error: the top level is not a JSON object, got [1, 2]"

    def test_config_error_exit_code(self, workdir):
        for override in ("data.bogus=1", "ablation.eval_split=bogus"):
            r = run_cli(["train", "--config", "small.json", "--set", override, "--name", "bad"], workdir)
            assert r.returncode == 2, r.stderr
            assert "Traceback" not in r.stderr
            assert not (workdir / "runs" / "bad").exists()

    def test_training_value_out_of_range_exits_2_before_any_data(self, workdir):
        # both used to fail only once training had started
        for override in ("semisup.batch_size=0", "semisup.ema_decay=1.5"):
            r = run_cli(["train", "--config", "small.json", "--set", override, "--name", "bad"], workdir)
            assert r.returncode == 2, r.stderr
            assert "Traceback" not in r.stderr
            assert not (workdir / "runs" / "bad").exists()

    def test_conv_image_size_exits_2_before_any_data(self, workdir):
        # a missing --data directory would exit 3 if the data came first;
        # generate-data never builds a model
        for args in (["pretrain", "--data", "missing"], ["generate-data", "--out", "ds"]):
            r = run_cli([*args, "--config", "small.json", "--set", "data.height=18"], workdir)
            assert r.returncode == 2, r.stderr
            assert "divisible by 4" in r.stderr and "Traceback" not in r.stderr
            assert not (workdir / "ds").exists() and not (workdir / "runs").exists()

    def test_num_labeled_above_train_split_exits_2(self, workdir):
        # slicing the split would label every train patient: a fully supervised run
        r = run_cli(["train", "--config", "small.json", "--set", "ablation.num_labeled=100", "--name", "bad"], workdir)
        assert r.returncode == 2, r.stderr
        assert "num_labeled=100" in r.stderr and "Traceback" not in r.stderr
        assert not (workdir / "runs" / "bad").exists()

    def test_training_failure_exits_1_naming_the_step(self, workdir):
        r = run_cli(["train", "--config", "small.json", "--set", "semisup.lr=1e200", "--name", "bad"], workdir)
        assert r.returncode == 1, r.stderr
        assert "Traceback" not in r.stderr
        assert r.stderr.startswith("training failed: semisup epoch 0 step 1: op 'conv2d' produced NaN/Inf")

    def test_backward_failure_exits_1_naming_the_op(self, workdir):
        # the CLI in a process whose matmul backward overflows
        script = (
            "import sys; sys.path.insert(0, sys.argv[1]); "
            "from conftest import exploding_matmul; import spcl.autodiff, spcl.cli; "
            "spcl.autodiff.matmul = exploding_matmul; sys.exit(spcl.cli.main(sys.argv[2:]))"
        )
        tests_dir = str(Path(__file__).resolve().parent)
        r = run_python(["-c", script, tests_dir, "pretrain", "--config", "small.json", "--name", "bad"], workdir)
        assert r.returncode == 1, r.stderr
        assert "Traceback" not in r.stderr
        assert re.match(r"training failed: pretrain epoch \d+ step \d+: backward of op 'matmul' produced NaN/Inf$", r.stderr)

    def test_wrongly_typed_value_exits_2_before_any_output(self, workdir):
        r = run_cli(["train", "--config", "small.json", "--set", "pretrain.epochs=abc", "--name", "bad"], workdir)
        assert r.returncode == 2, r.stderr
        assert "Traceback" not in r.stderr
        assert "pretrain.epochs" in r.stderr
        assert not (workdir / "runs" / "bad" / "config.json").exists()

    def test_negative_seed_and_crossing_pace_exit_2_before_any_data(self, workdir):
        # each used to generate its data first: the seeds then failed in NumPy with a traceback, the pace with exit 2
        for args in (["generate-data", "--set", "data.seed=-1", "--out", "ds"],
                     ["pretrain", "--set", "seed=-1", "--data", "missing"],
                     ["pretrain", "--set", "self_paced.gamma_end=0.1", "--data", "missing"]):
            r = run_cli([*args, "--config", "small.json"], workdir)
            assert r.returncode == 2, r.stderr
            assert "seed" in r.stderr or "self_paced.gamma_end" in r.stderr
            assert "Traceback" not in r.stderr
            assert not (workdir / "ds").exists() and not (workdir / "runs").exists()

    def test_arrays_no_generator_writes_exit_3_naming_the_file(self, workdir):
        r = run_cli(["generate-data", "--config", "small.json", "--out", "ds"], workdir)
        assert r.returncode == 0, r.stderr
        images, masks = workdir / "ds" / "vol_001_images.npy", workdir / "ds" / "vol_001_masks.npy"
        good_images, good_masks = np.load(images), np.load(masks)
        np.save(images, np.where(good_images == good_images.max(), np.nan, good_images))  # used to exit 1
        r = run_cli(["train", "--config", "small.json", "--data", "ds", "--name", "bad"], workdir)
        assert r.returncode == 3, r.stderr
        assert r.stderr.startswith("data error: ") and "manifest.json" in r.stderr and "volumes[1].images" in r.stderr
        np.save(images, good_images)
        np.save(masks, np.where(good_masks == 1, 5, 0))  # used to exit 2
        r = run_cli(["train", "--config", "small.json", "--data", "ds", "--name", "bad"], workdir)
        assert r.returncode == 3, r.stderr
        assert "manifest.json" in r.stderr and "volumes[1].masks" in r.stderr and "Traceback" not in r.stderr
        assert not (workdir / "runs" / "bad").exists()
        np.save(masks, good_masks)
        cfg = ModelConfig(image_shape=(8, 8), conv_channels=(3, 4), head_hidden=8, embed_dim=6)
        ParamModel(cfg).save(workdir / "nan.npz")
        with np.load(workdir / "nan.npz") as data:
            arrays = {k: data[k] for k in data.files}
        arrays["enc.c0.b"] = np.full(3, np.nan)
        np.savez(workdir / "nan.npz", **arrays)
        r = run_cli(["eval", "--config", "small.json", "--model", "nan.npz", "--data", "ds"], workdir)  # used to exit 1
        assert r.returncode == 3, r.stderr
        assert r.stderr.startswith("data error: checkpoint nan.npz ") and "enc.c0.b" in r.stderr

    def test_init_checkpoint_must_match_config_model(self, workdir):
        r = run_cli(["pretrain", "--config", "small.json", "--name", "pre"], workdir)
        assert r.returncode == 0, r.stderr
        mismatches = {
            "arch": ["--set", "model.arch=dense", "--set", "model.embed_dim=7"],
            "image_shape": ["--set", "data.height=12", "--set", "data.width=12"],
        }
        for field_name, overrides in mismatches.items():
            r = run_cli(
                ["train", "--config", "small.json", "--init", "runs/pre/encoder.npz", "--name", "tr", *overrides],
                workdir,
            )
            assert r.returncode == 2, r.stderr
            assert "Traceback" not in r.stderr
            assert field_name in r.stderr
            assert not (workdir / "runs" / "tr" / "config.json").exists()

    def test_data_error_exit_code(self, workdir):
        r = run_cli(["pretrain", "--config", "small.json", "--data", "missing_dir"], workdir)
        assert r.returncode == 3

    def test_malformed_dataset_exits_3_naming_the_manifest(self, workdir):
        r = run_cli(["generate-data", "--config", "small.json", "--out", "ds"], workdir)
        assert r.returncode == 0, r.stderr
        np.save(workdir / "ds" / "vol_001_images.npy", np.zeros((6, 4, 4)))  # another (H, W)
        r = run_cli(["train", "--config", "small.json", "--data", "ds", "--name", "bad"], workdir)
        assert r.returncode == 3, r.stderr
        assert r.stderr.startswith("data error: ") and "manifest.json" in r.stderr
        assert "Traceback" not in r.stderr

    def test_volume_with_zero_slices_exits_3_naming_it(self, workdir):
        # such a volume used to load, and training exited 0
        r = run_cli(["generate-data", "--config", "small.json", "--out", "ds"], workdir)
        assert r.returncode == 0, r.stderr
        np.save(workdir / "ds" / "vol_001_images.npy", np.zeros((0, 8, 8)))
        np.save(workdir / "ds" / "vol_001_masks.npy", np.zeros((0, 8, 8), dtype=np.int64))
        r = run_cli(["train", "--config", "small.json", "--data", "ds", "--name", "bad"], workdir)
        assert r.returncode == 3, r.stderr
        assert r.stderr.startswith("data error: ") and "manifest.json" in r.stderr and "volumes[1].images" in r.stderr
        assert "Traceback" not in r.stderr
        assert not (workdir / "runs" / "bad").exists()

    def test_manifest_split_ids_that_name_no_patient_exit_3(self, workdir):
        r = run_cli(["generate-data", "--config", "small.json", "--out", "ds"], workdir)
        assert r.returncode == 0, r.stderr
        path = workdir / "ds" / "manifest.json"
        manifest = json.loads(path.read_text())
        manifest["splits"]["train"] = [str(pid) for pid in manifest["splits"]["train"]]
        path.write_text(json.dumps(manifest))
        r = run_cli(["train", "--config", "small.json", "--data", "ds", "--name", "bad"], workdir)
        assert r.returncode == 3, r.stderr
        assert r.stderr.startswith("data error: ") and "manifest.json" in r.stderr and "splits.train[0]" in r.stderr
        assert "Traceback" not in r.stderr
        assert not (workdir / "runs" / "bad").exists()

    def test_train_on_data_of_another_image_shape_exits_3(self, workdir):
        r = run_cli(["generate-data", "--config", "small.json", "--set", "data.height=12", "--set", "data.width=12",
                     "--out", "ds12"], workdir)
        assert r.returncode == 0, r.stderr
        r = run_cli(["train", "--config", "small.json", "--data", "ds12", "--name", "bad"], workdir)
        assert r.returncode == 3, r.stderr
        assert r.stderr.startswith("data error: dataset ds12 ") and "(12, 12)" in r.stderr and "(8, 8)" in r.stderr
        assert "Traceback" not in r.stderr
        assert not (workdir / "runs" / "bad").exists()

    def test_eval_checks_the_data_against_the_checkpoint(self, workdir):
        r = run_cli(["generate-data", "--config", "small.json", "--set", "data.height=12", "--set", "data.width=12",
                     "--out", "ds12"], workdir)
        assert r.returncode == 0, r.stderr
        for side in (8, 12):
            cfg = ModelConfig(image_shape=(side, side), conv_channels=(3, 4), head_hidden=8, embed_dim=6)
            ParamModel(cfg).save(workdir / f"m{side}.npz")
        r = run_cli(["eval", "--config", "small.json", "--model", "m8.npz", "--data", "ds12"], workdir)
        assert r.returncode == 3, r.stderr
        assert r.stderr.startswith("data error: dataset ds12 ") and "checkpoint m8.npz is for (8, 8)" in r.stderr
        assert "Traceback" not in r.stderr
        # the checkpoint, not the config's 8x8 data section, fixes the shape eval needs
        r = run_cli(["eval", "--config", "small.json", "--model", "m12.npz", "--data", "ds12"], workdir)
        assert r.returncode == 0, r.stderr

    def test_missing_checkpoint_exit_code(self, workdir):
        r = run_cli(["eval", "--config", "small.json", "--model", "nope.npz"], workdir)
        assert r.returncode == 3, r.stderr
        assert "Traceback" not in r.stderr

    def test_verify_fast_passes(self, workdir):
        r = run_cli(["verify", "--fast", "--json"], workdir)
        assert r.returncode == 0, r.stderr
        assert json.loads(r.stdout)["passed"] is True

    def test_determinism_of_history(self, workdir):
        r = run_cli(["generate-data", "--config", "small.json", "--out", "ds"], workdir)
        assert r.returncode == 0, r.stderr
        r = run_cli(["train", "--config", "small.json", "--data", "ds", "--name", "t1"], workdir)
        assert r.returncode == 0, r.stderr
        r = run_cli(["train", "--config", "small.json", "--data", "ds", "--name", "t2"], workdir)
        assert r.returncode == 0, r.stderr
        a = (workdir / "runs" / "t1" / "history.csv").read_bytes()
        b = (workdir / "runs" / "t2" / "history.csv").read_bytes()
        assert a == b

    def test_train_summary_carries_version(self, workdir):
        r = run_cli(["generate-data", "--config", "small.json", "--out", "ds"], workdir)
        assert r.returncode == 0, r.stderr
        r = run_cli(["train", "--config", "small.json", "--data", "ds", "--name", "t1"], workdir)
        assert r.returncode == 0, r.stderr
        summary = json.loads((workdir / "runs" / "t1" / "summary.json").read_text())
        assert summary["version"] == spcl.__version__

    def test_run_reproducible_from_persisted_config(self, workdir):
        """The effective config a run writes is enough to reproduce it."""
        r = run_cli(["generate-data", "--config", "small.json", "--out", "ds"], workdir)
        assert r.returncode == 0, r.stderr
        r = run_cli(["train", "--config", "small.json", "--data", "ds", "--name", "t1"], workdir)
        assert r.returncode == 0, r.stderr
        r = run_cli(["train", "--config", "runs/t1/config.json", "--data", "ds", "--name", "t2"], workdir)
        assert r.returncode == 0, r.stderr
        a = (workdir / "runs" / "t1" / "history.csv").read_bytes()
        b = (workdir / "runs" / "t2" / "history.csv").read_bytes()
        assert a == b


class TestImportPath:
    def test_no_scipy_on_the_import_path(self, tmp_path):
        code = (
            "import sys, spcl, spcl.cli, spcl.ablation, spcl.verify, spcl.pace_report; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        )
        proc = run_python(["-c", code], tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"


class TestAblationRuns:
    def test_variant_ladder_deterministic_tables(self, tmp_path):
        """Two invocations with identical seeds produce identical tables."""
        from spcl.ablation import run_ablation, write_ablation_csv
        from spcl.synth_data import generate_dataset

        cfg = config_from_dict(SMALL)
        dataset = generate_dataset(**cfg.data_kwargs())
        variants = ("baseline", "con(meta)", "sp-con(both)+mean-teacher", "full-supervision")
        pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
        write_ablation_csv(run_ablation(cfg, dataset=dataset, variants=variants), pa)
        write_ablation_csv(run_ablation(cfg, dataset=dataset, variants=variants), pb)
        assert pa.read_bytes() == pb.read_bytes()

    def test_unknown_variant_rejected(self):
        from spcl.ablation import run_variant
        from spcl.synth_data import generate_dataset

        cfg = config_from_dict(SMALL)
        dataset = generate_dataset(**cfg.data_kwargs())
        with pytest.raises(InvalidConfig):
            run_variant("bogus", dataset, cfg, seed=0)

    def test_num_labeled_above_train_split_rejected(self):
        from spcl.ablation import directional_experiment, run_variant
        from spcl.synth_data import generate_dataset

        cfg = config_from_dict({**SMALL, "ablation": {**SMALL["ablation"], "num_labeled": 100}})
        dataset = generate_dataset(**cfg.data_kwargs())
        train = len(dataset.splits["train"])
        match = f"num_labeled=100 exceeds the {train} patients of the train split"
        with pytest.raises(InvalidConfig, match=match):
            run_variant("baseline", dataset, cfg, seed=0)
        with pytest.raises(InvalidConfig, match=match):
            directional_experiment(cfg, seeds=(0, 1, 2))
        assert dataset.first_train_patients(train) == dataset.splits["train"]


DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    r = run_python([str(demo)], tmp_path)
    assert r.returncode == 0, r.stderr
    assert "Traceback" not in r.stderr
