"""Instrumentation for the benchmark: always-on probes and an opt-in span tracer.

Everything here wraps public spcl functions and methods from outside the
package. A function imported with ``from .x import f`` is a separate binding
in every importing module, so ``Patches.function`` replaces each binding that
refers to the original object; methods are replaced on their class. Nothing
in the package is edited, and ``Patches.restore`` puts every binding back.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field

perf = time.perf_counter


class Patches:
    """Replaced bindings, restored in reverse order by ``restore``."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def function(self, module, name: str, make_wrapper) -> None:
        original = getattr(module, name)
        wrapper = make_wrapper(original)
        sites = [
            (mod, key)
            for mod in list(sys.modules.values())
            if getattr(mod, "__name__", "").partition(".")[0] == "spcl"
            for key, value in list(vars(mod).items())
            if value is original
        ]
        for mod, key in sites:
            setattr(mod, key, wrapper)
            self._undo.append((mod, key, original))

    def method(self, cls, name: str, make_wrapper) -> None:
        original = cls.__dict__[name]
        setattr(cls, name, make_wrapper(original))
        self._undo.append((cls, name, original))

    def restore(self) -> None:
        while self._undo:
            owner, key, original = self._undo.pop()
            setattr(owner, key, original)


# ---------------------------------------------------------------------------
# probes: step clocks, loss histories, finite-difference evaluations
# ---------------------------------------------------------------------------

@dataclass
class Training:
    """One call of run_pretraining or run_semisup."""

    phase: str  # "pretrain" or "semisup"
    recipe: str  # phase and config: trainings with one recipe make one kind of step
    key: str  # digest of everything the call's result depends on
    start: float
    step_ends: list[float] = field(default_factory=list)  # RAdam.step return times
    history: list[dict] | None = None

    def step_ms(self) -> list[float]:
        ends = self.step_ends
        return [(b - a) * 1e3 for a, b in zip([self.start] + ends[:-1], ends)]


@dataclass
class Variant:
    """One call of run_variant: the trainings it ran and the Dice it returned."""

    trainings: list[Training] = field(default_factory=list)
    dice: float | None = None


@dataclass
class FdCheck:
    """One call of finite_diff_check."""

    kind: str  # the loss function checked, by its code location
    coordinates: int
    eval_s: list[float] = field(default_factory=list)  # untaped loss evaluations
    analytic_eval_s: float = 0.0  # the taped evaluation the analytic gradient uses
    report: object = None


def _digest(*parts) -> str:
    h = hashlib.sha1()
    for p in parts:
        h.update(p if isinstance(p, bytes) else repr(p).encode())
    return h.hexdigest()


class Probe:
    """Light hooks that stay on in every run, traced or not.

    They time the interval between consecutive ``RAdam.step`` returns per
    training phase, keep each training's loss history, and time every loss
    evaluation ``finite_diff_check`` makes.
    """

    def __init__(self):
        self.trainings: list[Training] = []
        self.variants: list[Variant] = []
        self.fd_checks: list[FdCheck] = []
        self._current: Training | None = None
        self._variant: Variant | None = None

    def reset(self) -> None:
        self.trainings, self.variants, self.fd_checks = [], [], []

    def install(self, spcl, patches: Patches) -> None:
        probe = self

        def training(phase):
            def make(fn):
                signature = inspect.signature(fn)

                @functools.wraps(fn)
                def wrapper(*args, **kwargs):
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    a = bound.arguments
                    params = b"".join(a["model"].params[k].data.tobytes() for k in sorted(a["model"].params))
                    key = _digest(phase, params, a["model"].config, id(a["dataset"]),
                                  {k: v for k, v in a.items() if k not in ("model", "dataset")})
                    recipe = f"{phase}/{_digest(a['config'])[:8]}"
                    record = Training(phase, recipe, key, perf())
                    outer, probe._current = probe._current, record
                    try:
                        state = fn(*args, **kwargs)
                    finally:
                        probe._current = outer
                    record.history = state.history
                    probe.trainings.append(record)
                    if probe._variant is not None:
                        probe._variant.trainings.append(record)
                    return state

                return wrapper

            return make

        def variant(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                record = Variant()
                probe._variant = record
                try:
                    record.dice = float(fn(*args, **kwargs))
                finally:
                    probe._variant = None
                probe.variants.append(record)
                return record.dice

            return wrapper

        def step(fn):
            @functools.wraps(fn)
            def wrapper(self, *args, **kwargs):
                out = fn(self, *args, **kwargs)
                if probe._current is not None:
                    probe._current.step_ends.append(perf())
                return out

            return wrapper

        def fd_check(fn):
            active_tape = spcl.autodiff.active_tape

            @functools.wraps(fn)
            def wrapper(f, params, *args, **kwargs):
                code = getattr(f, "__code__", None)
                kind = f"fd/{code.co_name}@{code.co_firstlineno}" if code else f"fd/{type(f).__name__}"
                record = FdCheck(kind, coordinates=sum(int(p.data.size) for p in params))

                def timed(*xs):
                    t0 = perf()
                    out = f(*xs)
                    dt = perf() - t0
                    if active_tape() is None:
                        record.eval_s.append(dt)
                    else:
                        record.analytic_eval_s += dt
                    return out

                record.report = fn(timed, params, *args, **kwargs)
                probe.fd_checks.append(record)
                return record.report

            return wrapper

        patches.function(spcl.semi_supervised, "run_pretraining", training("pretrain"))
        patches.function(spcl.semi_supervised, "run_semisup", training("semisup"))
        patches.function(spcl.ablation, "run_variant", variant)
        patches.method(spcl.optim.RAdam, "step", step)
        patches.function(spcl.autodiff, "finite_diff_check", fd_check)

    def step_ms(self, phase: str) -> list[float]:
        return [ms for t in self.trainings if t.phase == phase for ms in t.step_ms()]

    @property
    def steps(self) -> int:
        return sum(len(t.step_ends) for t in self.trainings)

    @property
    def fd_evals(self) -> list[float]:
        return [s for c in self.fd_checks for s in c.eval_s]


# ---------------------------------------------------------------------------
# tracer: spans at module boundaries, per-op backward time, tensor count
# ---------------------------------------------------------------------------

# (module, function, span name); each function is wrapped at every binding
SPAN_FUNCTIONS = (
    ("contrastive", "pair_loss_values", "contrastive.pair_loss_values"),
    ("self_paced", "sp_contrastive_loss", "self_paced.sp_contrastive_loss"),
    ("self_paced", "combined_sp_loss", "self_paced.combined_sp_loss"),
    ("autodiff", "conv2d", "autodiff.conv2d"),
    ("autodiff", "finite_diff_check", "verify.finite_diff_check"),
    ("models", "ema_update", "models.ema_update"),
    ("synth_data", "build_pair_batch", "synth_data.build_pair_batch"),
    ("synth_data", "generate_dataset", "synth_data.generate_dataset"),
    ("semi_supervised", "evaluate_dice", "semi_supervised.evaluate_dice"),
    ("semi_supervised", "supervised_loss", "semi_supervised.supervised_loss"),
    ("semi_supervised", "consistency_loss", "semi_supervised.consistency_loss"),
    ("semi_supervised", "run_pretraining", "semi_supervised.run_pretraining"),
    ("semi_supervised", "run_semisup", "semi_supervised.run_semisup"),
    ("ablation", "run_variant", "ablation.run_variant"),
)

# (module, class, method, span name)
SPAN_METHODS = (
    ("optim", "RAdam", "step", "optim.step"),
    ("models", "EmaTeacher", "as_model", "models.teacher_as_model"),
    ("models", "ParamModel", "embed_batch", "models.embed_batch"),
    ("models", "ParamModel", "segment_batch", "models.segment_batch"),
    ("autodiff", "GradTape", "gradient", "autodiff.backward"),
)


class Tracer:
    """Spans kept in memory until the run ends: [name, start, end, parent index].

    ``GradTape.gradient`` also counts the recorded nodes per op and times each
    node's backward closure; ``Tensor.__init__`` counts tensors made.
    """

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.nodes: dict[str, int] = defaultdict(int)
        self.bwd_s: dict[str, float] = defaultdict(float)
        self.tensors = 0

    def reset(self) -> None:
        self.__init__()

    def _span(self, name):
        tracer = self

        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                spans, stack = tracer.spans, tracer._stack
                sid = len(spans)
                spans.append([name, perf(), 0.0, stack[-1] if stack else -1])
                stack.append(sid)
                try:
                    return fn(*args, **kwargs)
                finally:
                    stack.pop()
                    spans[sid][2] = perf()

            return wrapper

        return make

    def install(self, spcl, patches: Patches) -> None:
        tracer = self
        for module, name, span in SPAN_FUNCTIONS:
            patches.function(getattr(spcl, module), name, self._span(span))
        for module, cls, name, span in SPAN_METHODS:
            patches.method(getattr(getattr(spcl, module), cls), name, self._span(span))

        def timed_backward(op, backward):
            def back(g):
                t0 = perf()
                out = backward(g)
                tracer.bwd_s[op] += perf() - t0
                return out

            return back

        def gradient(fn):  # outside the span, so the wrapping is not backward time
            @functools.wraps(fn)
            def wrapper(tape, *args, **kwargs):
                for node in tape.nodes:
                    tracer.nodes[node.op] += 1
                    node.backward_fn = timed_backward(node.op, node.backward_fn)
                return fn(tape, *args, **kwargs)

            return wrapper

        def tensor_init(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                tracer.tensors += 1
                fn(*args, **kwargs)

            return wrapper

        patches.method(spcl.autodiff.GradTape, "gradient", gradient)
        patches.method(spcl.autodiff.Tensor, "__init__", tensor_init)

    # -- summaries --

    def self_seconds(self) -> dict[str, float]:
        """Per span name: summed duration minus the time its child spans cover."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _) in enumerate(self.spans):
            out[name] += end - start - child[i]
        return out

    def total_seconds(self, name: str) -> float:
        return sum(end - start for n, start, end, _ in self.spans if n == name)

    def count(self, name: str) -> int:
        return sum(1 for s in self.spans if s[0] == name)

    def has_ancestor(self, index: int, name: str) -> bool:
        parent = self.spans[index][3]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False

    def covered_by_children(self, windows: dict[int, float]) -> float:
        """Seconds of direct children of the spans in ``windows`` that end by the window's end.

        ``windows`` maps a span's index to the end of the part of it that is
        measured (a training's last optimizer step).
        """
        total = 0.0
        for name, start, end, parent in self.spans:
            if parent in windows and end <= windows[parent]:
                total += end - start
        return total
