"""Experiment configuration: nested sections, JSON files, dotted-path overrides.

The ``model``, ``self_paced``, ``pretrain``, ``semisup`` and ``augment``
sections are the module configs themselves (ModelConfig, SelfPacedConfig,
PretrainConfig, SemiSupConfig, AugmentationPolicy) at experiment-level
defaults. The fields in ``_DERIVED`` are set from other fields and are not
file keys: pre-training and the semi-supervised term share the one
``self_paced`` section, and the model takes its image shape from ``data``
and its seed from the top-level ``seed``. ``data`` and ``ablation`` hold
values that are absent in the module configs.

Every field has a default. ``config_from_dict`` reads a file with
``schema.check_value`` onto the default config: unknown keys and wrongly
typed values are rejected, and the sections and ExperimentConfig validate
themselves (seeds, and each pace endpoint against the loss bound the other
defaults to), so a bad file fails before anything runs.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
from dataclasses import dataclass, field, replace
from pathlib import Path

from .errors import InvalidConfig
from .models import ModelConfig
from .schema import check_at_least, check_finite, check_value
from .self_paced import SelfPacedConfig, loss_bounds
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
        check_at_least(self, seed=0)
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
            raise InvalidConfig(f"seeds must number at least 3 for a standard deviation, got {len(self.seeds)}")
        if len(set(self.seeds)) != len(self.seeds) or min(self.seeds) < 0:
            raise InvalidConfig(f"seeds must be distinct and >= 0, got {list(self.seeds)}")
        check_at_least(self, num_labeled=1)
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
        check_at_least(self, seed=0)
        for name, derived in _DERIVED.items():
            values = {key: value(self) for key, value in derived.items()}
            object.__setattr__(self, name, replace(getattr(self, name), **values))
        self._check_pace()

    def _check_pace(self) -> None:
        """InvalidConfig if a pace endpoint is set beyond the loss bound the other one defaults to, or defaults to 0.0.

        ``with_default_pace`` fills an unset endpoint from ``loss_bounds`` at
        each phase's batch size; SelfPacedConfig checks the two endpoints
        against each other only when both are set.
        """
        sp = self.self_paced
        for key, n in (
            ("pretrain.batch_originals", self.pretrain.batch_originals),
            ("semisup.unlabeled_batch_originals", self.semisup.unlabeled_batch_originals),
        ):
            lo, hi = loss_bounds(n, sp.tau)
            at = f"at tau = {sp.tau} and {key} = {n}"
            if not math.isfinite(hi):
                raise InvalidConfig(f"self_paced.tau = {sp.tau} is so small that the upper loss bound overflows")
            if sp.gamma_start is None and lo == 0.0:
                raise InvalidConfig(
                    f"self_paced.tau = {sp.tau} is so small that the lower loss bound at {key} = {n} "
                    "underflows to 0.0, and gamma_start, which defaults to that bound, must be positive"
                )
            if sp.gamma_start is None and sp.gamma_end is not None and sp.gamma_end < lo:
                raise InvalidConfig(
                    f"self_paced.gamma_end = {sp.gamma_end} is below {lo:.6g}, the lower loss bound "
                    f"that gamma_start defaults to {at}"
                )
            if sp.gamma_end is None and sp.gamma_start is not None and sp.gamma_start > hi:
                raise InvalidConfig(
                    f"self_paced.gamma_start = {sp.gamma_start} is above {hi:.6g}, the upper loss bound "
                    f"that gamma_end defaults to {at}"
                )

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


def config_from_dict(data: dict) -> ExperimentConfig:
    """The default config with the fields ``data`` gives replaced, each checked against its annotation."""
    for name, derived in _DERIVED.items():
        section = data.get(name) if isinstance(data, dict) else None
        given = sorted(set(section) & set(derived)) if isinstance(section, dict) else []
        if given:
            raise InvalidConfig(f"unknown config keys at {name}: {given}")
    return check_value(data, ExperimentConfig, base=ExperimentConfig())


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
    except ValueError:  # not JSON, or an integer of more digits than Python converts
        value = raw
    return key.strip().split("."), value


def apply_overrides(data: dict, overrides: list[str]) -> dict:
    """Apply dotted-path assignments (flags win over the file), which need a JSON object to assign into."""
    if overrides and not isinstance(data, dict):
        raise InvalidConfig(f"the top level is not a JSON object, got {data!r}")
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
        except (ValueError, RecursionError) as exc:
            raise InvalidConfig(f"config is not valid JSON: {exc}") from exc
    data = apply_overrides(data, overrides or [])
    return config_from_dict(data)


def save_effective_config(config: ExperimentConfig, path) -> None:
    Path(path).write_text(json.dumps(config_to_dict(config), indent=2, sort_keys=True) + "\n")
