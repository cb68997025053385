"""Property verification suites: closed-form weights vs brute force, loss
bounds, gradient checks, reduction equivalences, schedule behavior.

Each family runs a batch of randomized checks against an independent oracle
and reports pass/fail; the CLI turns any failure into a nonzero exit. The
closed-form family takes the weight function as a parameter so a corrupted
implementation can be shown to fail (negative control).
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field

import numpy as np

from .autodiff import GradTape, Tensor, finite_diff_check, l2_normalize_rows, min_kink_distance
from .contrastive import AugmentedBatch, PairStructure, masked_mean_sum, pair_loss_values
from .models import ModelConfig, ParamModel
from .self_paced import (
    HARD,
    LINEAR,
    SelfPacedConfig,
    combined_sp_loss,
    loss_bounds,
    optimal_weight,
    pace_schedule,
    regularizer_value,
    sp_contrastive_loss,
)
from .semi_supervised import consistency_loss, supervised_loss
from .synth_data import interleaved_pairs, per_image_labels


@dataclass
class FamilyResult:
    name: str
    passed: bool
    detail: str
    seconds: float


@dataclass
class VerificationReport:
    families: list[FamilyResult] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(f.passed for f in self.families)

    @property
    def failed_names(self) -> list[str]:
        return [f.name for f in self.families if not f.passed]

    def to_dict(self) -> dict:
        return {
            "passed": bool(self.passed),
            "families": [
                {"name": f.name, "passed": bool(f.passed), "detail": f.detail, "seconds": round(f.seconds, 3)}
                for f in self.families
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    def summary_lines(self) -> list[str]:
        return [
            f"[{'PASS' if f.passed else 'FAIL'}] {f.name}: {f.detail} ({f.seconds:.2f}s)"
            for f in self.families
        ]


def _unit_rows(rng, n, d):
    z = rng.standard_normal((n, d))
    return z / np.linalg.norm(z, axis=1, keepdims=True)


def _random_batch(rng, n, d=8, classes=3):
    labels = np.repeat(rng.integers(0, classes, size=n), 2)[None, :]
    return AugmentedBatch(_unit_rows(rng, 2 * n, d), interleaved_pairs(2 * n), labels)


def _dense(mask, weights):
    """In-mask weights, as sp_contrastive_loss returns them, scattered back to the mask's shape."""
    w = np.zeros(mask.shape)
    w[mask] = weights
    return w


def _unweighted_loss(batch: AugmentedBatch, config: SelfPacedConfig) -> Tensor:
    """The plain meta-label contrastive loss: the training objective with every pair weight 1."""
    return combined_sp_loss(batch, 1.0, config, weighted=False)[0]


def check_closed_form_weights(weight_fn=optimal_weight, trials: int = 1000, seed: int = 0) -> FamilyResult:
    """Closed-form w* vs a 1e-4 grid search of the proximal objective."""
    t0 = time.time()
    rng = np.random.default_rng(seed)
    grid = np.linspace(0.0, 1.0, 10001)
    _, hi = loss_bounds(8, 0.1)
    worst_dw, bad_obj = 0.0, 0
    for regularizer in (HARD, LINEAR):
        losses = rng.uniform(0.0, 2 * hi, size=trials)
        gammas = rng.uniform(0.1, 2 * hi, size=trials)
        for l, g in zip(losses, gammas):
            w_star = weight_fn(float(l), float(g), regularizer)
            obj = grid * l + regularizer_value(grid, float(g), regularizer)
            w_grid = float(grid[np.argmin(obj)])
            worst_dw = max(worst_dw, abs(w_star - w_grid))
            obj_star = w_star * l + regularizer_value(np.clip(w_star, 0, 1), float(g), regularizer)
            if obj_star > obj.min() + 1e-12:
                bad_obj += 1
    passed = worst_dw <= 1e-3 and bad_obj == 0
    return FamilyResult(
        "closed_form_weights",
        passed,
        f"max |w* - w_grid| = {worst_dw:.2e}, objective violations = {bad_obj}",
        time.time() - t0,
    )


def check_loss_bounds(trials: int = 300, seed: int = 1) -> FamilyResult:
    """Random-batch containment plus adversarial attainment of both bounds."""
    t0 = time.time()
    rng = np.random.default_rng(seed)
    violations = 0
    for _ in range(trials):
        n = int(rng.choice([2, 4, 8, 16]))
        tau = float(rng.choice([0.07, 0.1, 0.5, 1.0]))
        lo, hi = loss_bounds(n, tau)
        vals = pair_loss_values(_random_batch(rng, n), tau).data
        off = ~np.eye(2 * n, dtype=bool)
        if vals[off].min() < lo - 1e-12 or vals[off].max() > hi + 1e-12:
            violations += 1
    worst_gap = 0.0
    for n, tau in [(2, 0.07), (4, 0.5), (8, 1.0), (16, 0.1)]:
        lo, hi = loss_bounds(n, tau)
        u = np.zeros(4)
        u[0] = 1.0
        z = np.tile(-u, (2 * n, 1))
        z[0] = z[1] = u
        batch = AugmentedBatch(z, interleaved_pairs(2 * n), np.zeros((1, 2 * n), dtype=int))
        worst_gap = max(worst_gap, abs(pair_loss_values(batch, tau).data[0, 1] - lo))
        z = np.tile(u, (2 * n, 1))
        z[1] = -u
        batch = AugmentedBatch(z, interleaved_pairs(2 * n), np.zeros((1, 2 * n), dtype=int))
        worst_gap = max(worst_gap, abs(pair_loss_values(batch, tau).data[0, 1] - hi))
    passed = violations == 0 and worst_gap <= 1e-6
    return FamilyResult(
        "loss_bounds",
        passed,
        f"containment violations = {violations}/{trials}, adversarial gap = {worst_gap:.1e}",
        time.time() - t0,
    )


# model seeds screened so no pre-activation sits within the step of a
# LeakyReLU kink, where central differences are invalid
_GRADCHECK_MODEL = ModelConfig(
    image_shape=(4, 4), num_classes=2, arch="dense", encoder_widths=(8, 4),
    head_hidden=6, embed_dim=4, decoder_width=6, skip_width=3, seed=3,
)


def check_gradients(configs: int = 5, seed: int = 33, tolerance: float = 1e-4) -> FamilyResult:
    """Analytic gradients of all five losses vs central finite differences.

    Configurations whose LeakyReLU pre-activations sit within 50 steps of the
    kink are redrawn: central differences are invalid across the kink, and
    the filter never looks at gradients, so a wrong backward rule still fails.
    """
    t0 = time.time()
    rng = np.random.default_rng(seed)
    step = 1e-5
    worst = 0.0
    failures = []
    trial = 0
    model_seed = 0
    while trial < configs:
        model_seed += 1
        cfg = ModelConfig(**{**_GRADCHECK_MODEL.__dict__, "seed": model_seed})
        model = ParamModel(cfg)
        # fan-in init at this depth leaves pre-normalization norms ~1e-2, and
        # d3(z/||z||) ~ 1/||z||^3 then turns finite-difference truncation into
        # spurious error; scale weights so embedding norms sit at O(1)
        model = ParamModel(
            cfg,
            {
                k: Tensor(v.data * 3.0, requires_grad=True, name=k) if k.endswith(".w") else v
                for k, v in model.params.items()
            },
        )
        images = rng.random((4, 4, 4))
        target = rng.integers(0, 2, size=(4, 4, 4))
        teacher_logits = rng.standard_normal((4, 4, 4, 2))
        labels = np.repeat(rng.integers(0, 2, size=4), 2)[None, :]
        pair = interleaved_pairs(8)
        per_image = per_image_labels(4)
        sp_cfg = SelfPacedConfig(tau=0.5, lambdas=(1.0,)).with_default_pace(4)
        gamma = 0.5 * (sp_cfg.gamma_start + sp_cfg.gamma_end)
        pair_imgs = rng.random((8, 4, 4))
        kink = min(
            min_kink_distance(lambda: model.segment_batch(images)),
            min_kink_distance(lambda: model.embed_batch(pair_imgs)),
        )
        if kink < 50 * step:
            continue
        trial += 1
        names = sorted(model.params)
        eh_names = [n for n in names if n.startswith(("enc.", "head."))]
        # the pairing and both label sets are fixed for the configuration
        unsup = PairStructure(pair, per_image)
        meta = PairStructure(pair, labels)

        def rebuild_full(ts):
            return ParamModel(cfg, dict(zip(names, ts)))

        def rebuild_eh(ts):
            params = dict(model.params)
            params.update(zip(eh_names, ts))
            return ParamModel(cfg, params)

        sp_coefs = None

        def frozen_sp(*ts):
            nonlocal sp_coefs
            batch = AugmentedBatch.from_structure(rebuild_eh(ts).embed_batch(pair_imgs), meta)
            if sp_coefs is None:
                masks, coefs = meta.select((0,))
                w = _dense(masks, sp_contrastive_loss(batch, (0,), gamma, sp_cfg)[1])
                sp_coefs = coefs * w
            return masked_mean_sum(pair_loss_values(batch, sp_cfg.tau), sp_coefs, [1.0])

        cases = {
            "unsup_con": lambda *ts: combined_sp_loss(
                AugmentedBatch.from_structure(rebuild_eh(ts).embed_batch(pair_imgs), unsup), gamma, sp_cfg,
                weighted=False,
            )[0],
            "meta_con": lambda *ts: combined_sp_loss(
                AugmentedBatch.from_structure(rebuild_eh(ts).embed_batch(pair_imgs), meta), gamma, sp_cfg,
                weighted=False,
            )[0],
            "sp_con_frozen_w": frozen_sp,
            "cross_entropy": lambda *ts: supervised_loss(rebuild_full(ts).segment_batch(images), target),
            "consistency": lambda *ts: consistency_loss(rebuild_full(ts).segment_batch(images), teacher_logits),
        }
        for case, f in cases.items():
            full = case in ("cross_entropy", "consistency")
            params = [model.params[n] for n in (names if full else eh_names)]
            report = finite_diff_check(f, params, step=step, tolerance=tolerance)
            worst = max(worst, report.max_rel_error)
            if not report.passed:
                failures.append(f"{case}@{trial}")
    return FamilyResult(
        "gradient_checks",
        not failures,
        f"max rel error = {worst:.2e} over {configs} configs x 5 losses"
        + (f"; failed: {failures}" if failures else ""),
        time.time() - t0,
    )


def check_equivalences(seed: int = 3) -> FamilyResult:
    """Per-image labels against the view-pair mean, hard-mode saturation, lambda dropping."""
    t0 = time.time()
    rng = np.random.default_rng(seed)
    problems = []
    for _ in range(20):
        n = int(rng.integers(2, 8))
        batch = _random_batch(rng, n)
        per_image = AugmentedBatch(batch.embeddings, batch.pair_of, per_image_labels(n))
        tau = float(rng.uniform(0.1, 1.0))
        values = pair_loss_values(batch, tau).data
        view_pairs = np.mean(values[np.arange(2 * n), batch.pair_of])
        if abs(_unweighted_loss(per_image, SelfPacedConfig(tau=tau)).item() - view_pairs) > 1e-12:
            problems.append("per-image-label loss is not the mean view-pair loss")
            break
    cfg = SelfPacedConfig(regularizer=HARD, tau=0.5)
    for _ in range(10):
        n = int(rng.integers(2, 6))
        batch = _random_batch(rng, n)
        _, hi = loss_bounds(n, 0.5)
        gamma = hi + 1.0
        loss, weights = combined_sp_loss(batch, gamma, cfg)
        if not np.all(weights == 1.0) or abs(loss.item() - (_unweighted_loss(batch, cfg).item() - gamma)) > 1e-10:
            problems.append("hard-mode saturation mismatch")
            break
    batch = _random_batch(rng, 4, classes=2)
    scrambled = AugmentedBatch(
        batch.embeddings,
        batch.pair_of,
        np.vstack([batch.meta_labels[0], np.roll(batch.meta_labels[0], 2)]),
    )
    both = AugmentedBatch(batch.embeddings, batch.pair_of, np.vstack([batch.meta_labels[0]] * 2))
    cfg2 = SelfPacedConfig(tau=0.5, lambdas=(1.0, 0.0), gamma_start=1.0, gamma_end=3.0)
    if combined_sp_loss(scrambled, 2.0, cfg2)[0].item() != combined_sp_loss(both, 2.0, cfg2)[0].item():
        problems.append("lambda=0 label not dropped")
    return FamilyResult(
        "equivalences",
        not problems,
        "; ".join(problems) if problems else "per-image = view-pair mean, hard saturation, lambda-drop all hold",
        time.time() - t0,
    )


def check_pace_schedule() -> FamilyResult:
    t0 = time.time()
    problems = []
    cfg = SelfPacedConfig(gamma_start=2.0, gamma_end=10.0, p=0.5)
    if pace_schedule(cfg, 25, 100) != 6.0:
        problems.append("hand value")
    if pace_schedule(cfg, 0, 40) != 2.0 or pace_schedule(cfg, 40, 40) != 10.0:
        problems.append("endpoints")
    gammas = [pace_schedule(cfg, e, 100) for e in range(101)]
    if any(b < a for a, b in zip(gammas, gammas[1:])):
        problems.append("monotonicity")
    slow = SelfPacedConfig(gamma_start=1e-9, gamma_end=1.0, p=2.0)
    fast = SelfPacedConfig(gamma_start=1e-9, gamma_end=1.0, p=0.5)
    if not pace_schedule(slow, 50, 100) < pace_schedule(fast, 50, 100):
        problems.append("exponent ordering")
    return FamilyResult(
        "pace_schedule",
        not problems,
        "; ".join(problems) if problems else "endpoints exact, monotone, exponent ordering holds",
        time.time() - t0,
    )


def check_weight_monotonicity(seed: int = 4) -> FamilyResult:
    t0 = time.time()
    rng = np.random.default_rng(seed)
    problems = []
    for regularizer in (HARD, LINEAR):
        losses = np.sort(rng.uniform(0.0, 12.0, size=200))
        w = optimal_weight(losses, 4.0, regularizer)
        if np.any(np.diff(w) > 1e-15):
            problems.append(f"{regularizer}: not non-increasing in loss")
        gammas = np.sort(rng.uniform(0.1, 12.0, size=200))
        w2 = np.array([optimal_weight(3.0, float(g), regularizer) for g in gammas])
        if np.any(np.diff(w2) < -1e-15):
            problems.append(f"{regularizer}: not non-decreasing in gamma")
        w3 = optimal_weight(rng.uniform(-2, 30, size=500), 2.5, regularizer)
        if np.any((w3 < 0) | (w3 > 1)):
            problems.append(f"{regularizer}: weight outside [0,1]")
        if regularizer == HARD and not set(np.unique(w3)) <= {0.0, 1.0}:
            problems.append("hard weights not binary")
    return FamilyResult(
        "weight_monotonicity",
        not problems,
        "; ".join(problems) if problems else "monotone in loss and pace, range respected",
        time.time() - t0,
    )


def check_normalization_and_tape(seed: int = 5) -> FamilyResult:
    t0 = time.time()
    rng = np.random.default_rng(seed)
    problems = []
    for _ in range(50):
        v = rng.standard_normal((1, 8))
        s = float(rng.uniform(1e-6, 1e6))
        if not np.allclose(l2_normalize_rows(v).data, l2_normalize_rows(s * v).data, atol=1e-12):
            problems.append("scale invariance")
            break
    # the training forward: an embedding pass fed into the contrastive objective
    model = ParamModel(_GRADCHECK_MODEL)
    images = rng.random((8, 4, 4))
    labels = np.repeat(rng.integers(0, 3, size=4), 2)[None, :]
    with GradTape() as tape:
        batch = AugmentedBatch(model.embed_batch(images), interleaved_pairs(8), labels)
        out = combined_sp_loss(batch, 1.0, SelfPacedConfig(tau=0.5, lambdas=(1.0,)))[0]
    if tape.replay() != out.data:
        problems.append("tape replay not bit-identical")
    c = Tensor(3.0)
    y = Tensor(2.0, requires_grad=True)
    with GradTape() as tape2:
        z = y * y + c * c
    (gy,) = tape2.gradient(z, [y])
    with GradTape() as tape3:
        z2 = c * c + Tensor(1.0) * y + Tensor(-1.0) * y
    (gy2,) = tape3.gradient(z2, [y], warn_disconnected=False)
    if gy != 4.0 or gy2 != 0.0:
        problems.append("constant gradient not zero")
    return FamilyResult(
        "normalization_and_tape",
        not problems,
        "; ".join(problems) if problems else "scale invariance, bit-exact replay, zero constant grads",
        time.time() - t0,
    )


def check_permutation_invariance(seed: int = 6) -> FamilyResult:
    t0 = time.time()
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(30):
        n = int(rng.integers(2, 7))
        batch = _random_batch(rng, n)
        perm = rng.permutation(2 * n)
        inv = np.empty(2 * n, dtype=int)
        inv[perm] = np.arange(2 * n)
        cfg = SelfPacedConfig(tau=float(rng.uniform(0.1, 1.0)))
        for labels in (batch.meta_labels, per_image_labels(n)):
            a = AugmentedBatch(batch.embeddings, batch.pair_of, labels)
            b = AugmentedBatch(batch.embeddings.data[perm], inv[batch.pair_of[perm]], labels[:, perm])
            worst = max(worst, abs(_unweighted_loss(a, cfg).item() - _unweighted_loss(b, cfg).item()))
    return FamilyResult(
        "permutation_invariance",
        worst <= 1e-12,
        f"max loss difference under permutation = {worst:.1e}",
        time.time() - t0,
    )


def run_verification(weight_fn=optimal_weight, fast: bool = False) -> VerificationReport:
    """All property families; pass a corrupted weight_fn to watch family 1 fail."""
    report = VerificationReport()
    report.families.append(check_closed_form_weights(weight_fn, trials=200 if fast else 1000))
    report.families.append(check_loss_bounds(trials=100 if fast else 300))
    report.families.append(check_gradients(configs=2 if fast else 5))
    report.families.append(check_equivalences())
    report.families.append(check_pace_schedule())
    report.families.append(check_weight_monotonicity())
    report.families.append(check_normalization_and_tape())
    report.families.append(check_permutation_invariance())
    return report
