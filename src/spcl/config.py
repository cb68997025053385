"""Experiment configuration: nested sections, JSON files, dotted-path overrides.

The ``model``, ``self_paced``, ``pretrain``, ``semisup`` and ``augment``
sections are the module configs themselves (ModelConfig, SelfPacedConfig,
PretrainConfig, SemiSupConfig, AugmentationPolicy) at experiment-level
defaults. The fields in ``_DERIVED`` are set from other fields and are not
file keys: pre-training and the semi-supervised term share the one
``self_paced`` section, and the model takes its image shape from ``data``
and its seed from the top-level ``seed``. ``data`` and ``ablation`` hold
values that are absent in the module configs.

Every field has a default. Loading replaces the fields a file gives in the
default config: unknown keys and wrongly typed values are rejected, and the
module configs validate themselves, so a bad file fails before anything runs.
"""

from __future__ import annotations

import dataclasses
import json
import os
import typing
from dataclasses import dataclass, field, replace
from pathlib import Path

from .errors import InvalidConfig
from .models import ModelConfig
from .schema import check_finite, check_value
from .self_paced import SelfPacedConfig
from .semi_supervised import PretrainConfig, SemiSupConfig
from .synth_data import SPLITS, TEST_FRACTION, VAL_FRACTION, AugmentationPolicy, check_generation

OUTPUT_ROOT_ENV = "SPCL_OUTPUT_ROOT"


@dataclass(frozen=True)
class DataSection:
    num_patients: int = 10
    slices_per_volume: int = 12
    height: int = 16
    width: int = 16
    noise_level: float = 0.3
    num_partitions: int = 4
    seed: int = 7

    def __post_init__(self):
        check_generation(
            self.num_patients,
            self.slices_per_volume,
            (self.height, self.width),
            self.noise_level,
            self.num_partitions,
            VAL_FRACTION,
            TEST_FRACTION,
        )


@dataclass(frozen=True)
class AblationSection:
    seeds: tuple[int, ...] = (0, 1, 2)
    num_labeled: int = 2
    baseline_margin: float = 0.05
    eval_split: str = "test"

    def __post_init__(self):
        if len(self.seeds) < 3:
            raise InvalidConfig(f"ablation needs at least 3 seeds for a standard deviation, got {len(self.seeds)}")
        if len(set(self.seeds)) != len(self.seeds):
            raise InvalidConfig(f"ablation.seeds must be distinct, got {list(self.seeds)}")
        if self.num_labeled < 1:
            raise InvalidConfig(f"num_labeled must be >= 1, got {self.num_labeled}")
        check_finite(self, "baseline_margin")
        if self.eval_split not in SPLITS:
            raise InvalidConfig(f"eval_split must be one of {SPLITS}, got {self.eval_split!r}")


# Section fields that ExperimentConfig sets from other fields; they are not file keys.
_DERIVED = {
    "model": {"image_shape": lambda c: (c.data.height, c.data.width), "seed": lambda c: c.seed,
              "num_classes": lambda c: 2},
    "pretrain": {"self_paced": lambda c: c.self_paced},
    "semisup": {"self_paced": lambda c: c.self_paced},
}


@dataclass(frozen=True)
class ExperimentConfig:
    seed: int = 0
    output_dir: str = "runs"
    data: DataSection = field(default_factory=DataSection)
    model: ModelConfig = field(default_factory=ModelConfig)
    self_paced: SelfPacedConfig = field(default_factory=lambda: SelfPacedConfig(tau=0.5, lambdas=(1.0, 0.1, 0.1)))
    pretrain: PretrainConfig = field(default_factory=lambda: PretrainConfig(epochs=40))
    semisup: SemiSupConfig = field(default_factory=lambda: SemiSupConfig(lr=2e-3))
    augment: AugmentationPolicy = field(
        default_factory=lambda: AugmentationPolicy(
            max_rotate_deg=0.0, crop_scale=(1.0, 1.0), gamma_range=(0.95, 1.05), brightness_delta=0.03
        )
    )
    ablation: AblationSection = field(default_factory=AblationSection)

    def __post_init__(self):
        for name, derived in _DERIVED.items():
            values = {key: value(self) for key, value in derived.items()}
            object.__setattr__(self, name, replace(getattr(self, name), **values))

    # -- values derived from several sections --

    def data_kwargs(self) -> dict:
        d = self.data
        return dict(
            num_patients=d.num_patients,
            slices_per_volume=d.slices_per_volume,
            shape=(d.height, d.width),
            noise_level=d.noise_level,
            seed=d.seed,
            num_partitions=d.num_partitions,
        )

    def output_root(self) -> Path:
        root = os.environ.get(OUTPUT_ROOT_ENV)
        return Path(root) / self.output_dir if root else Path(self.output_dir)


def _from_dict(base, data: dict, path: str = ""):
    """``base`` with the fields ``data`` gives replaced, each value checked against its field.

    Fields holding a dataclass are sections; derived fields are not file keys.
    """
    hints = typing.get_type_hints(type(base))
    derived = _DERIVED.get(path[:-1], {})
    unknown = {name for name in data if name not in hints or name in derived}
    if unknown:
        raise InvalidConfig(f"unknown config keys at {path or 'top level'}: {sorted(unknown)}")
    changes = {}
    for name, value in data.items():
        if dataclasses.is_dataclass(hints[name]):
            if not isinstance(value, dict):
                raise InvalidConfig(f"section {path}{name} must be a mapping")
            changes[name] = _from_dict(getattr(base, name), value, f"{path}{name}.")
        else:
            changes[name] = check_value(value, hints[name], f"{path}{name}")
    return replace(base, **changes)


def config_from_dict(data: dict) -> ExperimentConfig:
    if not isinstance(data, dict):
        raise InvalidConfig("config root must be a mapping")
    return _from_dict(ExperimentConfig(), data)


def config_to_dict(config: ExperimentConfig) -> dict:
    data = json.loads(json.dumps(dataclasses.asdict(config)))
    for name, derived in _DERIVED.items():
        data[name] = {key: value for key, value in data[name].items() if key not in derived}
    return data


def _parse_override(text: str) -> tuple[list[str], object]:
    if "=" not in text:
        raise InvalidConfig(f"override {text!r} must look like section.key=value")
    key, raw = text.split("=", 1)
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    return key.strip().split("."), value


def apply_overrides(data: dict, overrides: list[str]) -> dict:
    """Apply dotted-path assignments (flags win over the file)."""
    for text in overrides:
        path, value = _parse_override(text)
        node = data
        for part in path[:-1]:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise InvalidConfig(f"cannot descend into {part!r} in override {text!r}")
        node[path[-1]] = value
    return data


def load_config(path: str | None = None, overrides: list[str] | None = None) -> ExperimentConfig:
    """Config file (JSON) + --set overrides; either may be omitted."""
    data: dict = {}
    if path is not None:
        p = Path(path)
        if not p.exists():
            raise InvalidConfig(f"config file not found: {p}")
        try:
            data = json.loads(p.read_text())
        except json.JSONDecodeError as exc:
            raise InvalidConfig(f"config is not valid JSON: {exc}") from exc
    data = apply_overrides(data, overrides or [])
    return config_from_dict(data)


def save_effective_config(config: ExperimentConfig, path) -> None:
    Path(path).write_text(json.dumps(config_to_dict(config), indent=2, sort_keys=True) + "\n")
