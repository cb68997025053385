"""Rectified-Adam parameter updates (variance warmup handled analytically)."""

from __future__ import annotations

import numpy as np

from .autodiff import _RAISE_FP, Tensor
from .errors import NonFiniteValue


class RAdam:
    """Adaptive per-parameter steps with rectified variance; no warmup schedule.

    Falls back to un-adapted momentum steps while the variance estimate is
    untrustworthy (rho_t <= 4), then switches to Adam-style steps scaled by
    the rectification term.
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

    def _lr_for(self, name: str) -> float:
        best = ""
        for prefix in self.lr_scales:
            if name.startswith(prefix) and len(prefix) > len(best):
                best = prefix
        return self.lr * self.lr_scales.get(best, 1.0) if best else self.lr

    def step(self, params: dict[str, Tensor], grads: dict[str, np.ndarray]) -> None:
        """One update; rebinds each entry of ``params`` to a fresh Tensor.

        Runs under the raising error state: an overflow in a moment or an
        update raises NonFiniteValue naming the parameter.
        """
        self.t += 1
        b1, b2, t = self.beta1, self.beta2, self.t
        rho_inf = 2.0 / (1.0 - b2) - 1.0
        rho_t = rho_inf - 2.0 * t * b2**t / (1.0 - b2**t)
        bias1 = 1.0 - b1**t
        try:
            with np.errstate(**_RAISE_FP):
                for name, g in grads.items():
                    p = params[name]
                    lr = self._lr_for(name)
                    m = self.m.setdefault(name, np.zeros(p.shape))
                    v = self.v.setdefault(name, np.zeros(p.shape))
                    m = b1 * m + (1.0 - b1) * g
                    v = b2 * v + (1.0 - b2) * g * g
                    self.m[name], self.v[name] = m, v
                    m_hat = m / bias1
                    if rho_t > 4.0:
                        v_hat = np.sqrt(v / (1.0 - b2**t))
                        rect = np.sqrt(
                            ((rho_t - 4.0) * (rho_t - 2.0) * rho_inf)
                            / ((rho_inf - 4.0) * (rho_inf - 2.0) * rho_t)
                        )
                        update = lr * rect * m_hat / (v_hat + self.eps)
                    else:
                        update = lr * m_hat
                    params[name] = Tensor(p.data - update, requires_grad=True, name=name)
        except FloatingPointError:
            raise NonFiniteValue(f"RAdam update of {name!r} produced NaN/Inf") from None
