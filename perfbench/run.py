#!/usr/bin/env python3
"""Benchmark of spcl: closed-loop training, gradient checks and the ablation ladder.

    python3 perfbench/run.py --workload train-dense --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one table

One process, a closed loop: each unit of work (one training, one gradient
check or one ablation ladder) starts when the last one ends, and units repeat
while another one still fits in ``--seconds`` (at least one always runs).
Unit ``i`` uses the seed ``--seed + i``. BLAS threads are left as found.

``--trace 0`` prints every end-to-end metric. The step time it bounds is the
1st percentile within each kind of step, not the median. On a shared 2-vCPU
host, neighbours slow the CPU by 1.3-1.8x for seconds to tens of seconds at
a time. Over ten 25 s runs of the same code, the interquartile range was up
to 47% of the median for the median step and for the unit wall time, and
4-19% for the 1st percentile. A step cannot run faster than its own cost, so
the low tail tracks the program, and a change that slows every step of a
kind moves it. Wall time, throughput and the median step are still printed,
and reported per layer.
``--trace 1`` runs one unit
untraced, then the same unit under the span tracer in ``probes.py``, checks
that both produced bit-identical results, and prints every per-layer metric.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
name every metric with its unit, the environment, and any failed check.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from probes import Patches, Probe, Tracer, perf

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
SETUP_REPEATS = 5

# The acceptance suite's directional-experiment protocol: 10 patients x 12
# slices of 16x16 at noise 0.3, dense blocks, 60 pre-train + 40 semi-sup epochs.
DIRECTIONAL = {
    "data": {"num_patients": 10, "slices_per_volume": 12, "height": 16, "width": 16,
             "noise_level": 0.3, "num_partitions": 4, "seed": 7},
    "model": {"arch": "dense", "skip_width": 16},
    "self_paced": {"tau": 0.5, "lambdas": [1.0, 0.1, 0.1]},
    "pretrain": {"epochs": 60, "batch_originals": 8, "lr": 1e-3},
    "semisup": {"epochs": 40, "batch_size": 8, "unlabeled_batch_originals": 8,
                "lr": 1e-3, "lambda_reg": 0.1, "lambda_sp": 0.1, "encoder_lr_scale": 0.05},
    "ablation": {"seeds": [0, 1, 2], "num_labeled": 2},
}
LADDER_EPOCHS = (10, 10)  # pre-train, semi-sup: 15 trainings in one unit
STEP_QUANTILE = 1  # percentile of the bounded step time; see the module docstring
GRADCHECK_CONFIGS = 3
FULL_RECIPE = "sp-con(both)+mean-teacher"


def load_spcl():
    """Import spcl from this checkout's src directory, never from elsewhere."""
    if not (SRC / "spcl" / "__init__.py").is_file():
        raise SystemExit(f"error: no spcl package under {SRC}")
    sys.path.insert(0, str(SRC))
    import spcl
    import spcl.ablation
    import spcl.config
    import spcl.optim
    import spcl.verify

    if not Path(spcl.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"error: imported spcl from {spcl.__file__}, not from {SRC}")
    return spcl


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

@dataclass
class Unit:
    """What one unit of work did, and which of its operations passed their checks."""

    seconds: float = 0.0
    ops: int = 0
    passed: int = 0
    problems: list[str] = field(default_factory=list)
    fingerprint: str = ""  # every output the unit produced, for the fidelity check
    dice: list[float] = field(default_factory=list)


def check_variants(variants, unit: Unit) -> None:
    """Each trained model: Dice in [0, 1], finite histories, one step per history row."""
    for v in variants:
        problems = []
        if not (math.isfinite(v.dice) and 0.0 <= v.dice <= 1.0):
            problems.append(f"test Dice {v.dice!r} outside [0, 1]")
        if not v.trainings:
            problems.append("no training ran")
        for t in v.trainings:
            if not t.history:
                problems.append(f"{t.phase}: empty loss history")
            elif not all(math.isfinite(float(x)) for row in t.history for x in row.values()):
                problems.append(f"{t.phase}: non-finite value in the loss history")
            if len(t.step_ends) != len(t.history or ()):
                problems.append(f"{t.phase}: {len(t.step_ends)} optimizer steps but "
                                f"{len(t.history or ())} history rows")
        unit.passed += not problems
        unit.problems += problems
        unit.dice.append(v.dice)
    unit.fingerprint = repr([(v.dice, [(t.phase, t.history) for t in v.trainings]) for v in variants])


def directional_config(spcl, arch: str = "dense", epochs: tuple[int, int] = (60, 40)):
    pre, semi = epochs
    return spcl.config.config_from_dict({
        **DIRECTIONAL,
        "model": {**DIRECTIONAL["model"], "arch": arch},
        "pretrain": {**DIRECTIONAL["pretrain"], "epochs": pre},
        "semisup": {**DIRECTIONAL["semisup"], "epochs": semi},
    })


def _datasets(spcl, config):
    """The train pool and the 20-volume noise-free evaluation pool of the directional experiment."""
    gen = spcl.synth_data.generate_dataset
    kwargs = config.data_kwargs()
    eval_kwargs = {**kwargs, "num_patients": 20, "noise_level": 0.0, "seed": 1234}
    return gen(**kwargs), gen(**eval_kwargs, val_fraction=0.05, test_fraction=0.9)


class Training:
    """The paper's full recipe, run_variant(sp-con(both)+mean-teacher), on one arch."""

    ops = 1

    def __init__(self, arch: str):
        self.arch = arch

    def setup(self, spcl) -> None:
        self.config = directional_config(spcl, self.arch)
        self.dataset, self.eval_dataset = _datasets(spcl, self.config)

    def run(self, spcl, seed: int, probe: Probe, unit: Unit) -> None:
        spcl.ablation.run_variant(FULL_RECIPE, self.dataset, self.config, seed, eval_dataset=self.eval_dataset)

    def check(self, spcl, probe: Probe, unit: Unit) -> None:
        check_variants(probe.variants, unit)


class Gradcheck:
    """check_gradients: five losses against central differences, eager and untaped."""

    ops = 5 * GRADCHECK_CONFIGS  # one finite_diff_check per loss and configuration

    def setup(self, spcl) -> None:
        pass

    def run(self, spcl, seed: int, probe: Probe, unit: Unit) -> None:
        self.family = spcl.verify.check_gradients(configs=GRADCHECK_CONFIGS, seed=seed)

    def check(self, spcl, probe: Probe, unit: Unit) -> None:
        for c in probe.fd_checks:
            problems = []
            if not c.report.passed:
                problems.append(f"finite-difference check failed: {c.report!r}")
            if len(c.eval_s) != 2 * c.coordinates:
                problems.append(f"{len(c.eval_s)} loss evaluations for {c.coordinates} coordinates")
            unit.passed += not problems
            unit.problems += problems
        if not self.family.passed:
            unit.passed = min(unit.passed, unit.ops - 1)
            unit.problems.append(f"check_gradients failed: {self.family.detail}")
        unit.fingerprint = repr((self.family.passed, self.family.detail,
                                 [c.report.max_rel_error for c in probe.fd_checks]))


class Ladder:
    """run_ablation over the five chain variants on seeds (s, s+1, s+2), reduced epochs."""

    ops = 15

    def setup(self, spcl) -> None:
        self.base = directional_config(spcl, epochs=LADDER_EPOCHS)
        self.dataset, self.eval_dataset = _datasets(spcl, self.base)

    def run(self, spcl, seed: int, probe: Probe, unit: Unit) -> None:
        config = replace(self.base, ablation=replace(self.base.ablation, seeds=(seed, seed + 1, seed + 2)))
        self.rows = spcl.ablation.run_ablation(
            config, dataset=self.dataset, variants=spcl.ablation.CHAIN_VARIANTS, eval_dataset=self.eval_dataset
        )

    def check(self, spcl, probe: Probe, unit: Unit) -> None:
        check_variants(probe.variants, unit)
        variants = spcl.ablation.CHAIN_VARIANTS
        if [r.variant for r in self.rows] != list(variants) or any(len(r.dice) != 3 for r in self.rows):
            unit.problems.append(f"ladder rows {[(r.variant, len(r.dice)) for r in self.rows]} "
                                 f"lack one score per seed for {variants}")
            unit.passed = 0
        elif [d for r in self.rows for d in r.dice] != [v.dice for v in probe.variants]:
            unit.problems.append("ladder scores differ from the Dice each run_variant call returned")
            unit.passed = 0


WORKLOADS = {
    "train-dense": lambda: Training("dense"),
    "train-conv": lambda: Training("conv"),
    "gradcheck": Gradcheck,
    "ablation-ladder": Ladder,
}


def run_unit(spcl, workload, seed: int, probe: Probe) -> Unit:
    probe.reset()
    unit = Unit(ops=workload.ops)
    t0 = perf()
    try:
        workload.run(spcl, seed, probe, unit)
    except Exception:  # a failed operation is counted, not fatal
        unit.seconds = perf() - t0
        unit.problems.append("unit raised:\n" + traceback.format_exc())
        return unit
    unit.seconds = perf() - t0
    workload.check(spcl, probe, unit)
    return unit


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def percentile(values, q: float) -> float:
    return float(np.percentile(values, q))


def step_groups(probe: Probe) -> dict[str, list[float]]:
    """Step latencies in ms, one group per kind of step.

    A step is an optimizer step (the interval between consecutive returns)
    or an untaped loss evaluation of a finite-difference check. Trainings
    with the same phase and config, or evaluations of the same loss
    function, make one kind of step.
    """
    groups: dict[str, list[float]] = {}
    for t in probe.trainings:
        groups.setdefault(t.recipe, []).extend(t.step_ms())
    for c in probe.fd_checks:
        groups.setdefault(c.kind, []).extend(s * 1e3 for s in c.eval_s)
    return groups


def group_weighted(samples: dict[str, list[float]], q: float) -> float:
    """Percentile q within each group of steps, weighted by the group's share of steps.

    Pre-training steps are about 3x cheaper than semi-supervised ones, a
    supervised-only step is about 3x cheaper than a Mean-Teacher one, and
    the five gradient-checked losses differ by up to 1.6x, so a pooled
    percentile would jump between modes.
    """
    total = sum(len(v) for v in samples.values())
    return sum(len(v) / total * percentile(v, q) for v in samples.values())


def run_figures(units: list[Unit], samples: dict[str, list[float]]) -> dict:
    """Median unit seconds, steps per second and median step: exposed to neighbours' load."""
    steps = sum(len(v) for v in samples.values())
    return {
        "run.wall_s": statistics.median(u.seconds for u in units),
        "run.steps_per_s": steps / sum(u.seconds for u in units),
        "run.step_p50_ms": group_weighted(samples, 50),
    }


def peak_rss_mb() -> float:
    """Peak resident set of this process plus that of its largest waited-for child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def measure_setup(args) -> float:
    """Median wall time of fresh processes that import spcl and build the workload's inputs."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = perf()
        subprocess.run(cmd, check=True, cwd=ROOT, timeout=120)
        times.append(perf() - t0)
    return statistics.median(times)


def layer_metrics(probe: Probe, tracer: Tracer, unit: Unit, reference: Unit,
                  ref_groups: dict, ref_samples: dict, dataset_s: float) -> dict:
    """Every per-layer metric of one traced unit (run figures and step percentiles come from the untraced one)."""
    self_s = tracer.self_seconds()
    steps = max(probe.steps or len(probe.fd_evals), 1)
    by_phase = {p: sum(len(t.step_ends) for t in probe.trainings if t.phase == p) for p in ("pretrain", "semisup")}

    # pair_loss_values calls per optimizer step, by the training phase they ran in
    phase_of = {i: s[0] for i, s in enumerate(tracer.spans)
                if s[0] in ("semi_supervised.run_pretraining", "semi_supervised.run_semisup")}
    plv = {"pretrain": 0, "semisup": 0}
    for i, s in enumerate(tracer.spans):
        if s[0] == "contrastive.pair_loss_values":
            parent = s[3]
            while parent >= 0 and parent not in phase_of:
                parent = tracer.spans[parent][3]
            if parent >= 0:
                plv["pretrain" if phase_of[parent].endswith("pretraining") else "semisup"] += 1

    # step self time: optimizer-step intervals minus the child spans they cover
    phase_spans = sorted(phase_of)
    trainings = sorted(probe.trainings, key=lambda t: t.start)
    windows = {i: t.step_ends[-1] for i, t in zip(phase_spans, trainings) if t.step_ends}
    intervals = sum(t.step_ends[-1] - t.start for t in trainings if t.step_ends)
    step_self = intervals - tracer.covered_by_children(windows)

    backward_in_fd = sum(end - start for i, (n, start, end, _) in enumerate(tracer.spans)
                         if n == "autodiff.backward" and tracer.has_ancestor(i, "verify.finite_diff_check"))
    pretrain_keys = [t.key for t in probe.trainings if t.phase == "pretrain"]
    variant_s = tracer.total_seconds("ablation.run_variant")
    fd_us = [s * 1e6 for s in probe.fd_evals]

    m = {
        **run_figures([reference], ref_groups),
        "contrastive.pair_loss_values.calls_per_step": tracer.count("contrastive.pair_loss_values") / steps,
        "contrastive.pair_loss_values.calls_per_pretrain_step": plv["pretrain"] / max(by_phase["pretrain"], 1),
        "contrastive.pair_loss_values.calls_per_semisup_step": plv["semisup"] / max(by_phase["semisup"], 1),
        "contrastive.pair_loss_values.s": self_s["contrastive.pair_loss_values"],
        "self_paced.sp_contrastive_loss.s": self_s["self_paced.sp_contrastive_loss"],
        "self_paced.combined_sp_loss.s": self_s["self_paced.combined_sp_loss"],
        "autodiff.conv2d.fwd_s": self_s["autodiff.conv2d"],
        "autodiff.backward_s": self_s["autodiff.backward"],
        "autodiff.nodes_per_step": sum(tracer.nodes.values()) / max(tracer.count("autodiff.backward"), 1),
        "autodiff.tensors_per_step": tracer.tensors / steps,
    }
    for op in OPS:
        m[f"autodiff.calls.{op}"] = tracer.nodes.get(op, 0)
        m[f"autodiff.bwd_s.{op}"] = tracer.bwd_s.get(op, 0.0)
    m.update({
        "optim.step.s": self_s["optim.step"],
        "models.ema_update.s": self_s["models.ema_update"],
        "models.teacher_as_model.s": self_s["models.teacher_as_model"],
        "models.embed_batch.s": self_s["models.embed_batch"],
        "models.segment_batch.s": self_s["models.segment_batch"],
        "synth_data.build_pair_batch.s": self_s["synth_data.build_pair_batch"],
        "synth_data.generate_dataset.s": dataset_s,
        "semi_supervised.step_self_s": step_self,
        "semi_supervised.evaluate_dice.s": self_s["semi_supervised.evaluate_dice"],
        "semi_supervised.supervised_loss.s": self_s["semi_supervised.supervised_loss"],
        "semi_supervised.consistency_loss.s": self_s["semi_supervised.consistency_loss"],
    })
    for phase in ("pretrain", "semisup"):
        values = ref_samples[phase] or [0.0]
        m[f"semi_supervised.{phase}_step_p50_ms"] = percentile(values, 50)
        m[f"semi_supervised.{phase}_step_p95_ms"] = percentile(values, 95)
    m.update({
        "semi_supervised.test_dice": statistics.fmean(unit.dice) if unit.dice else 0.0,
        "verify.fd_evals": len(fd_us),
        "verify.fd_eval.s": sum(fd_us) / 1e6,
        "verify.fd_eval_p99_us": percentile(fd_us, 99) if fd_us else 0.0,
        "verify.analytic_grad.s": sum(c.analytic_eval_s for c in probe.fd_checks) + backward_in_fd,
        "ablation.run_pretraining.calls": len(pretrain_keys),
        "ablation.pretrain_useful_ratio": len(set(pretrain_keys)) / len(pretrain_keys) if pretrain_keys else 0.0,
        "ablation.busy_over_wall": variant_s / max(unit.seconds, 1e-9),
        "trace.overhead_s": unit.seconds - reference.seconds,
    })
    return m


# recorded autodiff ops reported one by one; others still count in nodes_per_step
OPS = ("add", "sub", "mul", "div", "matmul", "exp", "log", "power", "leaky_relu", "sum", "mean",
       "reshape", "concat", "conv2d", "avg_pool2x", "upsample2x")

# per-layer metrics that must be nonzero where the workload exercises their layer
_RUN = ("run.wall_s", "run.steps_per_s", "run.step_p50_ms")
_TRAINING_LAYERS = _RUN + (
    "contrastive.pair_loss_values.calls_per_step", "contrastive.pair_loss_values.calls_per_pretrain_step",
    "contrastive.pair_loss_values.calls_per_semisup_step", "contrastive.pair_loss_values.s",
    "self_paced.sp_contrastive_loss.s", "self_paced.combined_sp_loss.s", "autodiff.backward_s",
    "autodiff.nodes_per_step", "autodiff.tensors_per_step", "autodiff.calls.matmul", "autodiff.bwd_s.matmul",
    "optim.step.s", "models.ema_update.s", "models.teacher_as_model.s", "models.embed_batch.s",
    "models.segment_batch.s", "synth_data.build_pair_batch.s", "synth_data.generate_dataset.s",
    "semi_supervised.step_self_s", "semi_supervised.evaluate_dice.s", "semi_supervised.supervised_loss.s",
    "semi_supervised.consistency_loss.s", "semi_supervised.pretrain_step_p50_ms",
    "semi_supervised.semisup_step_p50_ms", "semi_supervised.test_dice", "ablation.run_pretraining.calls",
    "ablation.pretrain_useful_ratio", "ablation.busy_over_wall",
)
_CONV_LAYERS = ("autodiff.conv2d.fwd_s", "autodiff.calls.conv2d", "autodiff.bwd_s.conv2d")
EXERCISED = {
    "train-dense": _TRAINING_LAYERS,
    "train-conv": _TRAINING_LAYERS + _CONV_LAYERS,
    "ablation-ladder": _TRAINING_LAYERS,
    "gradcheck": _RUN + (
        "contrastive.pair_loss_values.calls_per_step", "contrastive.pair_loss_values.s",
        "self_paced.sp_contrastive_loss.s", "autodiff.backward_s", "autodiff.nodes_per_step",
        "autodiff.tensors_per_step", "autodiff.calls.matmul", "autodiff.bwd_s.matmul", "models.embed_batch.s",
        "models.segment_batch.s", "semi_supervised.supervised_loss.s", "semi_supervised.consistency_loss.s",
        "verify.fd_evals", "verify.fd_eval.s", "verify.fd_eval_p99_us", "verify.analytic_grad.s",
    ),
}


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------

def source_digest() -> str:
    h = hashlib.sha1()
    for path in sorted((SRC / "spcl").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_commit() -> str | None:
    """HEAD of the checkout's own .git, read from files; None outside a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    thread_vars = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_thread_env": {v: os.environ.get(v) for v in thread_vars},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": git_commit(),
        "src_sha1": source_digest(),
    }


def declared(kind: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in BENCHMARK[kind]}


def emit(metrics: dict, kind: str, units: list[Unit], extra_problems: list[str], extra_checks: int) -> bool:
    attempted = sum(u.ops for u in units) + extra_checks
    failed = sum(u.ops - u.passed for u in units) + len(extra_problems)
    problems = [p for u in units for p in u.problems] + extra_problems
    unit_of = declared(kind)
    if set(metrics) != set(unit_of):
        problems.append(f"metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ set(unit_of))}")
    for p in problems:
        print(f"FAILED CHECK: {p}")
    width = max(map(len, unit_of))
    for name, unit in unit_of.items():
        print(f"  {name.ljust(width)}  {metrics.get(name, float('nan')):.6g} {unit}")
    print(f"  {'failed_frac'.ljust(width)}  {failed / attempted:.6g} ({failed}/{attempted} operations)")
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(metrics.get(name, float("nan"))), "unit": unit}
                    for name, unit in unit_of.items()},
    }
    print(json.dumps(result))
    return not problems


def main_all(args) -> int:
    """Run every workload in its own process and print one table."""
    ok = True
    table = {}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600)
        lines = proc.stdout.strip().splitlines()
        print(f"== {name}\n" + "\n".join(lines[:-1]), flush=True)
        result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
        ok &= bool(result and result["correct"])
        table[name] = result
    kind = "per_layer" if args.trace else "end_to_end"
    print(f"\n{'metric':<50} {'unit':<6} " + " ".join(f"{w:>16}" for w in WORKLOADS))
    for metric, unit in declared(kind).items():
        cells = [f"{r['metrics'][metric]['value']:>16.6g}" if r else f"{'-':>16}" for r in table.values()]
        print(f"{metric:<50} {unit:<6} " + " ".join(cells))
    print("failed: " + ", ".join(f"{w}={r['failed']}/{r['attempted']}" if r else f"{w}=no result"
                                 for w, r in table.items()))
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=BENCHMARK["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.workload == "all":
        return main_all(args)
    spcl = load_spcl()
    workload = WORKLOADS[args.workload]()
    if args.setup_only:
        workload.setup(spcl)
        return 0

    probe_patches, trace_patches = Patches(), Patches()
    probe = Probe()
    probe.install(spcl, probe_patches)
    print("env " + json.dumps(environment()))
    try:
        if args.trace:
            return traced_run(args, spcl, workload, probe, trace_patches)
        return measured_run(args, spcl, workload, probe)
    finally:
        trace_patches.restore()
        probe_patches.restore()


def measured_run(args, spcl, workload, probe: Probe) -> int:
    """Closed loop of units for --seconds; prints every end-to-end metric."""
    workload.setup(spcl)
    units, samples = [], {}
    t0 = perf()
    while True:
        unit = run_unit(spcl, workload, args.seed + len(units), probe)
        units.append(unit)
        for group, values in step_groups(probe).items():
            samples.setdefault(group, []).extend(values)
        if unit.problems or perf() - t0 + unit.seconds > args.seconds:
            break
    if not samples:
        raise SystemExit("error: no step completed:\n" + "\n".join(p for u in units for p in u.problems))
    rss = peak_rss_mb()  # before the set-up processes, which would count as children
    metrics = {"setup_s": measure_setup(args), "step_p1_ms": group_weighted(samples, STEP_QUANTILE),
               "peak_rss_mb": rss}
    for group, values in samples.items():
        print(f"  {group} steps: n={len(values)} p1={percentile(values, STEP_QUANTILE):.4f} ms "
              f"p50={percentile(values, 50):.4f} ms p95={percentile(values, 95):.4f} ms")
    print("  not bounded: " + ", ".join(f"{k} {v:.6g}" for k, v in run_figures(units, samples).items())
          + f" over {len(units)} units")
    dice = [d for u in units for d in u.dice]
    if dice:
        print(f"  test_dice per trained model: {' '.join(repr(d) for d in dice)}")
    return 0 if emit(metrics, "end_to_end", units, [], 0) else 1


def traced_run(args, spcl, workload, probe: Probe, patches: Patches) -> int:
    """One unit untraced, the same unit traced; prints every per-layer metric."""
    tracer = Tracer()
    tracer.install(spcl, patches)
    workload.setup(spcl)
    patches.restore()
    dataset_s = tracer.total_seconds("synth_data.generate_dataset")
    tracer.reset()
    reference = run_unit(spcl, workload, args.seed, probe)
    ref_groups = step_groups(probe)
    ref_samples = {p: probe.step_ms(p) for p in ("pretrain", "semisup")}
    tracer.install(spcl, patches)
    traced = run_unit(spcl, workload, args.seed, probe)
    patches.restore()

    metrics = layer_metrics(probe, tracer, traced, reference, ref_groups, ref_samples, dataset_s)
    problems = []
    if traced.fingerprint != reference.fingerprint:
        problems.append("traced run's Dice, loss histories or gradient errors differ from the untraced run's")
    unwired = [name for name in EXERCISED[args.workload] if not metrics[name] > 0]
    if unwired:
        problems.append(f"per-layer counters read zero on a layer this workload uses: {unwired}")
    print(f"  spans recorded: {len(tracer.spans)}; untraced unit {reference.seconds:.4f} s, "
          f"traced unit {traced.seconds:.4f} s")
    return 0 if emit(metrics, "per_layer", [reference, traced], problems, 2) else 1


if __name__ == "__main__":
    sys.exit(main())
