"""Rectified-Adam parameter updates (variance warmup handled analytically)."""

from __future__ import annotations

import numpy as np

from .autodiff import _RAISE_FP, Tensor
from .errors import NonFiniteValue


# elements of v_hat computed at a time: 64 KB, so the pass stays in cache
_CHUNK = 8192


class RAdam:
    """Adaptive per-parameter steps with rectified variance; no warmup schedule.

    Falls back to un-adapted momentum steps while the variance estimate is
    untrustworthy (rho_t <= 4), then switches to Adam-style steps scaled by
    the rectification term.

    The state is flat: the first and second moments are float64 vectors over
    every parameter a step updates, laid out in the order of its gradients,
    and ``m[name]``/``v[name]`` are views of them. A step gathers the
    gradients into one fresh vector, updates the moments with in-place
    arithmetic into spare vectors (swapped in only when the whole update
    succeeds) and overwrites the fresh vector with the new parameters,
    frozen and handed out as a read-only view per parameter. Each element
    sees the same operations in the same order as a per-parameter update,
    so the bits are the same. The parameters are gathered again whenever a
    caller has rebound one since the last step.
    """

    def __init__(
        self,
        lr: float = 1e-3,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
        lr_scales: dict[str, float] | None = None,
    ):
        self.lr = float(lr)
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.eps = float(eps)
        # per-parameter lr multipliers by name prefix (e.g. smaller steps for
        # a pretrained encoder); longest matching prefix wins
        self.lr_scales = dict(lr_scales or {})
        self.t = 0
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}
        self._layout: tuple = ()  # ((name, shape), ...) the flat vectors follow
        self._spans: list[tuple[str, int, int]] = []  # (name, start, stop) in the flat vectors
        self._runs: list[tuple[int, int, float]] = []  # (start, stop, lr) of equal learning rates
        self._handed: dict[str, Tensor] = {}  # the Tensors the last step bound
        self._p: np.ndarray | None = None  # the flat parameters those Tensors view

    def _lr_for(self, name: str) -> float:
        best = ""
        for prefix in self.lr_scales:
            if name.startswith(prefix) and len(prefix) > len(best):
                best = prefix
        return self.lr * self.lr_scales.get(best, 1.0) if best else self.lr

    def _relayout(self, layout: tuple) -> None:
        """Flat state for a new set of parameters; a parameter seen before keeps its moments."""
        self._layout = layout
        self._spans, self._runs = [], []
        start = 0
        for name, shape in layout:
            stop = start + int(np.prod(shape))
            self._spans.append((name, start, stop))
            lr = self._lr_for(name)
            if self._runs and self._runs[-1][2] == lr:
                self._runs[-1] = (self._runs[-1][0], stop, lr)
            else:
                self._runs.append((start, stop, lr))
            start = stop
        self._scratch = np.empty(min(start, _CHUNK))
        m, v = np.zeros(start), np.zeros(start)
        for name, lo, hi in self._spans:
            if name in self.m and self.m[name].size == hi - lo:
                m[lo:hi] = self.m[name].reshape(-1)
                v[lo:hi] = self.v[name].reshape(-1)
        self._m, self._v = m, v
        self._m_spare, self._v_spare = np.empty(start), np.empty(start)
        self._views = {id(a): self._name_views(a) for a in (m, v, self._m_spare, self._v_spare)}
        self.m.update(self._views[id(m)])
        self.v.update(self._views[id(v)])
        self._handed, self._p = {}, None

    def _name_views(self, flat: np.ndarray) -> dict[str, np.ndarray]:
        return {name: flat[lo:hi].reshape(shape) for (name, lo, hi), (_, shape) in zip(self._spans, self._layout)}

    def _update(self, p, new, lo: int, hi: int, runs, t: int) -> None:
        """Moments into the spare vectors and the new parameters into ``new``, over [lo, hi).

        ``new`` holds the gradients on entry. Per element: v' = b2*v +
        (1-b2)*g*g, m' = b1*m + (1-b1)*g, and p - lr*rect*m_hat/(v_hat + eps)
        (p - lr*m_hat while rho_t <= 4). The spare m' vector is scratch until
        m' is computed, and v_hat goes through a small buffer a chunk at a
        time, so the update needs no other full-length vector.
        """
        b1, b2 = self.beta1, self.beta2
        g, m, v = new[lo:hi], self._m[lo:hi], self._v[lo:hi]
        m2, v2 = self._m_spare[lo:hi], self._v_spare[lo:hi]
        np.multiply(v, b2, out=v2)
        np.multiply(g, 1.0 - b2, out=m2)
        np.multiply(m2, g, out=m2)
        np.add(v2, m2, out=v2)
        np.multiply(g, 1.0 - b1, out=g)
        np.multiply(m, b1, out=m2)
        np.add(m2, g, out=m2)
        step = np.divide(m2, 1.0 - b1**t, out=g)  # m_hat
        rho_inf = 2.0 / (1.0 - b2) - 1.0
        rho_t = rho_inf - 2.0 * t * b2**t / (1.0 - b2**t)
        rect = 1.0  # lr * 1.0 is lr, bit for bit
        if rho_t > 4.0:
            rect = np.sqrt(
                ((rho_t - 4.0) * (rho_t - 2.0) * rho_inf) / ((rho_inf - 4.0) * (rho_inf - 2.0) * rho_t)
            )
        for start, stop, lr in runs:
            run = step[start - lo : stop - lo]
            np.multiply(run, lr * rect, out=run)
        if rho_t > 4.0:
            for a in range(0, hi - lo, _CHUNK):
                b = min(a + _CHUNK, hi - lo)
                v_hat = self._scratch[: b - a]
                np.divide(v2[a:b], 1.0 - b2**t, out=v_hat)
                np.sqrt(v_hat, out=v_hat)
                np.add(v_hat, self.eps, out=v_hat)
                np.divide(step[a:b], v_hat, out=step[a:b])
        np.subtract(p[lo:hi], step, out=step)

    def step(self, params: dict[str, Tensor], grads: dict[str, np.ndarray]) -> None:
        """One update; rebinds each entry of ``params`` to a fresh Tensor.

        Runs under the raising error state, and the new parameters are
        checked finite: an overflow in a moment or an update raises
        NonFiniteValue naming the parameter, and leaves the moments and the
        parameters as they were.
        """
        self.t += 1
        layout = tuple((name, params[name].shape) for name in grads)
        if layout != self._layout:
            self._relayout(layout)
        if self._p is not None and all(params[name] is self._handed[name] for name in grads):
            p = self._p
        else:
            p = np.concatenate([params[name].data.reshape(-1) for name in grads])
        new = np.concatenate([np.reshape(grads[name], -1) for name in grads])
        try:
            with np.errstate(**_RAISE_FP):
                self._update(p, new, 0, new.size, self._runs, self.t)
            failed = not np.isfinite(new).all()
        except FloatingPointError:
            failed = True
        if failed:
            raise NonFiniteValue(f"RAdam update of {self._failing(p, new, grads)!r} produced NaN/Inf")
        self._m, self._m_spare = self._m_spare, self._m
        self._v, self._v_spare = self._v_spare, self._v
        self.m.update(self._views[id(self._m)])
        self.v.update(self._views[id(self._v)])
        new.flags.writeable = False
        self._p = new
        self._handed = {
            name: Tensor(new[lo:hi].reshape(shape), requires_grad=True, name=name, _fresh=True)
            for (name, lo, hi), (_, shape) in zip(self._spans, self._layout)
        }
        params.update(self._handed)

    def _failing(self, p: np.ndarray, new: np.ndarray, grads: dict[str, np.ndarray]) -> str:
        """The first parameter whose own update overflows or comes out non-finite."""
        for name, lo, hi in self._spans:
            new[lo:hi] = np.reshape(grads[name], -1)  # the update overwrote it
            try:
                with np.errstate(**_RAISE_FP):
                    self._update(p, new, lo, hi, [(lo, hi, self._lr_for(name))], self.t)
                if not np.isfinite(new[lo:hi]).all():
                    return name
            except FloatingPointError:
                return name
        raise AssertionError("the flat update failed, but no parameter's own update does")
