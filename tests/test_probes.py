"""The benchmark's probe points still resolve against spcl, fire, and come off cleanly.

perfbench/probes.py wraps spcl functions and methods by name from outside the
package. A refactor that renames a probed function, or stops calling it
through a module-level binding, breaks the benchmark's ``--trace 1`` run; this
test makes it break Tier-1 as well. It only imports perfbench.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np

import spcl
import spcl.ablation
import spcl.optim
from spcl.autodiff import Tensor
from spcl.config import config_from_dict
from conftest import tsum

PROBES_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "probes.py"

TINY = {
    "data": {"num_patients": 5, "slices_per_volume": 6, "height": 8, "width": 8, "noise_level": 0.2, "seed": 3},
    "model": {"arch": "conv", "conv_channels": [3, 4], "head_hidden": 8, "embed_dim": 6},
    "pretrain": {"epochs": 1, "batch_originals": 4},
    "semisup": {"epochs": 1, "batch_size": 4, "unlabeled_batch_originals": 4},
    "ablation": {"num_labeled": 1},
}


def load_probes():
    spec = importlib.util.spec_from_file_location("perfbench_probes", PROBES_PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses resolve annotations through sys.modules
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def bindings(probes) -> dict:
    """Every spcl module attribute, and every class attribute the probes replace."""
    out = {
        (mod.__name__, key): value
        for mod in list(sys.modules.values())
        if getattr(mod, "__name__", "").partition(".")[0] == "spcl"
        for key, value in vars(mod).items()
    }
    methods = [(m, c, n) for m, c, n, _ in probes.SPAN_METHODS] + [
        ("optim", "RAdam", "step"), ("autodiff", "GradTape", "gradient"), ("autodiff", "Tensor", "__init__"),
    ]
    for module, cls, name in methods:
        owner = getattr(getattr(spcl, module), cls)
        out[(owner.__qualname__, name)] = owner.__dict__[name]
    return out


def test_probe_points_resolve_fire_and_restore():
    probes = load_probes()
    before = bindings(probes)
    patches = probes.Patches()
    probe, tracer = probes.Probe(), probes.Tracer()
    try:
        probe.install(spcl, patches)
        tracer.install(spcl, patches)
        config = config_from_dict(TINY)
        dataset = spcl.synth_data.generate_dataset(**config.data_kwargs())
        dice = spcl.ablation.run_variant("sp-con(both)+mean-teacher", dataset, config, seed=0)
        x = Tensor(np.array([0.3, -0.2]), requires_grad=True)
        spcl.autodiff.finite_diff_check(lambda t: tsum(t * t), [x])
    finally:
        patches.restore()

    after = bindings(probes)
    left = [key for key, value in before.items() if after.get(key) is not value]
    assert not left, f"Patches.restore left replaced bindings behind: {left}"
    assert [v.dice for v in probe.variants] == [dice]
    assert [t.phase for t in probe.trainings] == ["pretrain", "semisup"]
    for t in probe.trainings:
        assert len(t.history) > 0
        assert len(t.step_ends) == len(t.history), f"{t.phase}: one RAdam.step per history row"
    assert len(probe.fd_checks) == 1 and probe.fd_checks[0].report.passed
    names = [span for _, _, span in probes.SPAN_FUNCTIONS] + [span for *_, span in probes.SPAN_METHODS]
    silent = [name for name in names if tracer.count(name) == 0]
    assert not silent, f"probed names never called through their bindings: {silent}"
    assert tracer.tensors > 0 and sum(tracer.nodes.values()) > 0 and tracer.bwd_s
