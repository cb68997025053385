#!/usr/bin/env python3
"""Digests of spcl's outputs, for checking that a change keeps them bit-identical.

    python3 tools/fingerprints.py

Run it on two checkouts and compare the output: equal lines mean equal bits.
For each perfbench workload it runs one unit at seed 5 and prints the first
8 hex digits of the sha1 of that unit's fingerprint (every Dice and loss
history, or every gradient-check error, as ``repr``). For each of the seeds
33, 5, 41 and 97 it prints the sha1 of the ``check_gradients(configs=5)``
detail string. Last it runs the acceptance suite's directional experiment
and prints its medians and per-seed Dice in full precision. The whole run
takes a few minutes.

perfbench is imported as it is and nothing in it is changed; spcl is
imported from this checkout's ``src``.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import run as perfbench  # noqa: E402  (perfbench/run.py)
from probes import Patches, Probe  # noqa: E402

UNIT_SEED = 5
GRADCHECK_SEEDS = (33, 5, 41, 97)
DIRECTIONAL_SEEDS = (0, 1, 2, 3, 4)


def sha1(text: str) -> str:
    return hashlib.sha1(text.encode()).hexdigest()


def unit_fingerprint(spcl, name: str, seed: int) -> str:
    """One perfbench unit of workload ``name`` at ``seed``, with perfbench's probes installed."""
    workload = perfbench.WORKLOADS[name]()
    workload.setup(spcl)
    probe, patches = Probe(), Patches()
    probe.install(spcl, patches)
    try:
        unit = perfbench.run_unit(spcl, workload, seed, probe)
    finally:
        patches.restore()
    if unit.problems:
        raise SystemExit(f"error: {name} unit failed:\n" + "\n".join(unit.problems))
    return unit.fingerprint


def directional(spcl) -> str:
    """The acceptance suite's directional experiment: medians, then per-seed Dice per variant."""
    config = spcl.config.config_from_dict(
        {**perfbench.DIRECTIONAL, "ablation": {**perfbench.DIRECTIONAL["ablation"], "seeds": list(DIRECTIONAL_SEEDS)}}
    )
    result = spcl.ablation.directional_experiment(config, seeds=DIRECTIONAL_SEEDS, noise_level=0.5, margin=0.05)
    lines = [f"directional median {v} {m!r}" for v, m in result.medians.items()]
    for arms in (result.chain_dice, result.noise_dice):
        lines += [f"directional dice {v} {' '.join(repr(d) for d in dice)}" for v, dice in arms.items()]
    return "\n".join(lines)


def main() -> int:
    spcl = perfbench.load_spcl()
    for name in perfbench.WORKLOADS:
        print(f"unit {name} seed {UNIT_SEED} {sha1(unit_fingerprint(spcl, name, UNIT_SEED))[:8]}", flush=True)
    for seed in GRADCHECK_SEEDS:
        detail = spcl.verify.check_gradients(configs=5, seed=seed).detail
        print(f"check_gradients seed {seed} {sha1(detail)}", flush=True)
    print(directional(spcl), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
