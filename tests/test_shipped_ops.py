"""Every autodiff op that ships in spcl is one that training or evaluation applies.

A static scan collects the op names the package source passes to
``_apply``. A spy on ``_apply`` records the names applied while one epoch of
each pre-training mode, semi-supervised training and ``evaluate_dice`` run
on both archs. The two sets must be equal: an op that only a test or a
check applies belongs next to the oracles in ``tests/conftest.py``.
"""

import re
import sys
from pathlib import Path

import spcl
from spcl import autodiff
from spcl.models import ModelConfig, ParamModel
from spcl.semi_supervised import (
    PRETRAIN_MODES,
    PretrainConfig,
    SemiSupConfig,
    evaluate_dice,
    run_pretraining,
    run_semisup,
)
from spcl.synth_data import AugmentationPolicy, generate_dataset

FAST_POLICY = AugmentationPolicy(
    flip_prob=0.5, max_rotate_deg=0.0, crop_scale=(1.0, 1.0), gamma_range=(0.95, 1.05), brightness_delta=0.03
)
MODELS = {
    "dense": ModelConfig(image_shape=(8, 8), arch="dense", encoder_widths=(8, 6), head_hidden=8, embed_dim=6,
                         decoder_width=8, skip_width=4),
    "conv": ModelConfig(image_shape=(8, 8), arch="conv", conv_channels=(3, 4), head_hidden=8, embed_dim=6),
}


def shipped_ops() -> set[str]:
    """The op names passed to ``_apply("...")`` anywhere in the package source."""
    root = Path(spcl.__file__).resolve().parent
    return {name for path in root.glob("*.py") for name in re.findall(r'\b_apply\(\s*"(\w+)"', path.read_text())}


def test_every_shipped_op_is_applied_by_training(monkeypatch):
    applied = set()
    real = autodiff._apply

    def spy(op, *args, **kwargs):
        applied.add(op)
        return real(op, *args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.partition(".")[0] == "spcl" and getattr(module, "_apply", None) is real:
            monkeypatch.setattr(module, "_apply", spy)
    ds = generate_dataset(5, 6, (8, 8), noise_level=0.0, seed=11)
    labeled = ds.splits["train"][:1]
    for arch, config in MODELS.items():
        model = ParamModel(config)
        for mode in PRETRAIN_MODES:
            cfg = PretrainConfig(epochs=1, batch_originals=4, loss_mode=mode)
            assert run_pretraining(model, ds, cfg, seed=0, policy=FAST_POLICY).history, (arch, mode)
        cfg = SemiSupConfig(epochs=1, batch_size=4, unlabeled_batch_originals=4)
        assert run_semisup(model, ds, labeled, cfg, seed=0, policy=FAST_POLICY).history, arch
        evaluate_dice(model, ds)
    assert applied == shipped_ops()
