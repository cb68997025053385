"""Command-line entry point.

Subcommands mirror the experiment stages: generate-data, pretrain, train,
eval, ablation, verify, pace-report. One JSON config file plus repeatable
--set section.key=value overrides (flags win). Exit codes: 0 success,
1 training failed (a NaN/Inf or a vanishing norm, named with its phase, epoch
and step) or an ablation ordering check failed, 2 config error, 3 data error,
4 verification failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, replace
from pathlib import Path

from .ablation import ablation_checks, format_ablation_table, run_ablation, write_ablation_csv
from .config import ExperimentConfig, load_config, save_effective_config
from .errors import DataError, InvalidConfig, NonFiniteValue, NormTooSmall, VerificationFailure
from .models import ParamModel
from .pace_report import pace_report, write_pace_csv
from .semi_supervised import evaluate_dice, run_pretraining, run_semisup, write_history_csv
from .synth_data import SPLITS, generate_dataset, load_dataset, save_dataset
from .verify import run_verification

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_VERIFY = 4


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="dotted-path config override, e.g. --set data.noise_level=0.5 (repeatable)",
    )


def _run_dir(config: ExperimentConfig, name: str) -> Path:
    out = config.output_root() / name
    out.mkdir(parents=True, exist_ok=True)
    save_effective_config(config, out / "config.json")
    return out


def _dataset_for(config: ExperimentConfig, path: str | None, image_shape: tuple[int, int], owner: str):
    """The dataset at ``path`` (or generated from the config); DataError unless its images are ``image_shape``."""
    dataset = load_dataset(path) if path else generate_dataset(**config.data_kwargs())
    if dataset.image_shape != image_shape:
        source = f"dataset {path}" if path else "the dataset generated from the config"
        raise DataError(f"{source} holds {dataset.image_shape} images, but {owner} is for {image_shape}")
    return dataset


def cmd_generate_data(config: ExperimentConfig, args) -> int:
    dataset = generate_dataset(**config.data_kwargs())
    out = Path(args.out) if args.out else config.output_root() / "dataset"
    save_dataset(dataset, out)
    print(f"wrote {len(dataset.volumes)} volumes to {out}")
    return EXIT_OK


def cmd_pretrain(config: ExperimentConfig, args) -> int:
    dataset = _dataset_for(config, args.data, config.model.image_shape, "the config")
    model = ParamModel(config.model)
    state = run_pretraining(model, dataset, config.pretrain, seed=config.seed, policy=config.augment)
    out = _run_dir(config, args.name)
    model.save(out / "encoder.npz")
    write_history_csv(state.history, out / "history.csv")
    print(f"pretrained {config.pretrain.epochs} epochs; checkpoint and history in {out}")
    return EXIT_OK


def cmd_train(config: ExperimentConfig, args) -> int:
    dataset = _dataset_for(config, args.data, config.model.image_shape, "the config")
    labeled = dataset.first_train_patients(config.ablation.num_labeled)
    expected = config.model
    if args.init:
        model = ParamModel.load(args.init)
        # config.json must describe the model that is trained.
        found, want = asdict(replace(model.config, seed=expected.seed)), asdict(expected)
        diff = [f"{k}: checkpoint {found[k]!r}, config {want[k]!r}" for k in want if found[k] != want[k]]
        if diff:
            raise InvalidConfig(f"checkpoint {args.init} does not match the config's model: {'; '.join(diff)}")
        model.reset_decoder(seed=config.seed)
    else:
        model = ParamModel(expected)
    state = run_semisup(model, dataset, labeled, config.semisup, seed=config.seed, policy=config.augment)
    out = _run_dir(config, args.name)
    state.model.save(out / "model.npz")
    write_history_csv(state.history, out / "history.csv")
    report = evaluate_dice(state.model, dataset, split=config.ablation.eval_split)
    from . import __version__

    summary = {
        "version": __version__,
        "seed": config.seed,
        "dice_mean": report.mean,
        "dice_per_class": {str(k): v for k, v in report.per_class.items()},
    }
    (out / "summary.json").write_text(json.dumps(summary, indent=2))
    print(f"trained; test Dice {report.mean:.3f}; outputs in {out}")
    return EXIT_OK


def cmd_eval(config: ExperimentConfig, args) -> int:
    model = ParamModel.load(args.model)
    dataset = _dataset_for(config, args.data, model.config.image_shape, f"checkpoint {args.model}")
    report = evaluate_dice(model, dataset, split=args.split)
    print(json.dumps({"mean": report.mean, "per_class": {str(k): v for k, v in report.per_class.items()}}, indent=2))
    return EXIT_OK


def cmd_ablation(config: ExperimentConfig, args) -> int:
    dataset = _dataset_for(config, args.data, config.model.image_shape, "the config")
    rows = run_ablation(config, dataset=dataset)
    out = _run_dir(config, args.name)
    write_ablation_csv(rows, out / "ablation.csv")
    table = format_ablation_table(rows)
    (out / "ablation.txt").write_text(table + "\n")
    print(table)
    problems = ablation_checks(rows, config.ablation.baseline_margin)
    for p in problems:
        print(f"ordering check failed: {p}", file=sys.stderr)
    print(f"outputs in {out}")
    return EXIT_OK if not problems else EXIT_FAILED


def cmd_verify(config: ExperimentConfig, args) -> int:
    report = run_verification(fast=args.fast)
    if args.json:
        print(report.to_json())
    else:
        for line in report.summary_lines():
            print(line)
    if not report.passed:
        raise VerificationFailure(report.failed_names)
    return EXIT_OK


def cmd_pace_report(config: ExperimentConfig, args) -> int:
    rows = pace_report(config, max_epoch=args.epochs)
    out = _run_dir(config, args.name)
    write_pace_csv(rows, out / "pace.csv")
    print(f"wrote {len(rows)} rows to {out / 'pace.csv'}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="spcl", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate-data", help="generate and persist a synthetic dataset")
    _add_common(p)
    p.add_argument("--out", help="output directory (default: <output>/dataset)")
    p.set_defaults(fn=cmd_generate_data)

    p = sub.add_parser("pretrain", help="contrastive pre-training of encoder+head")
    _add_common(p)
    p.add_argument("--data", help="existing dataset directory (default: generate)")
    p.add_argument("--name", default="pretrain", help="run directory name")
    p.set_defaults(fn=cmd_pretrain)

    p = sub.add_parser("train", help="semi-supervised (or supervised) training")
    _add_common(p)
    p.add_argument("--data", help="existing dataset directory")
    p.add_argument("--init", help="encoder checkpoint to start from")
    p.add_argument("--name", default="train", help="run directory name")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint's volume Dice")
    _add_common(p)
    p.add_argument("--model", required=True, help="model checkpoint")
    p.add_argument("--data", help="existing dataset directory")
    p.add_argument("--split", default="test", choices=SPLITS)
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("ablation", help="run the variant ladder")
    _add_common(p)
    p.add_argument("--data", help="existing dataset directory")
    p.add_argument("--name", default="ablation", help="run directory name")
    p.set_defaults(fn=cmd_ablation)

    p = sub.add_parser("verify", help="run all property verification suites")
    _add_common(p)
    p.add_argument("--json", action="store_true", help="machine-readable summary")
    p.add_argument("--fast", action="store_true", help="smaller trial counts")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("pace-report", help="gamma and weight statistics per epoch")
    _add_common(p)
    p.add_argument("--epochs", type=int, default=20)
    p.add_argument("--name", default="pace", help="run directory name")
    p.set_defaults(fn=cmd_pace_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = load_config(args.config, args.overrides)
        return args.fn(config, args)
    except InvalidConfig as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (NonFiniteValue, NormTooSmall) as exc:
        print(f"training failed: {exc}", file=sys.stderr)
        return EXIT_FAILED
    except VerificationFailure as exc:
        print(f"verification failed: {', '.join(exc.failed_families)}", file=sys.stderr)
        return EXIT_VERIFY


if __name__ == "__main__":
    sys.exit(main())
