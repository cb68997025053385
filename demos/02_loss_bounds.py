"""Exact attainable range of the per-pair contrastive loss.

Every l_ij on unit-row batches lies in [log(1+2(N-1)e^{-2/tau}),
log(1+2(N-1)e^{2/tau})]; adversarial batches touch both ends.
"""
import numpy as np

from spcl import PairStructure, loss_bounds
from spcl.contrastive import pair_loss_values
from spcl.synth_data import interleaved_pairs

for n, tau in [(2, 1.0), (8, 0.5), (16, 0.1)]:
    lo, hi = loss_bounds(n, tau)
    structure = PairStructure(interleaved_pairs(2 * n), np.zeros((1, 2 * n), dtype=int))
    print(f"N={n:2d} tau={tau:4.2f}: bounds [{lo:8.4f}, {hi:8.4f}]")

    rng = np.random.default_rng(1)
    z = rng.standard_normal((2 * n, 8))
    z /= np.linalg.norm(z, axis=1, keepdims=True)
    vals = pair_loss_values(z, structure, tau).data
    off = ~np.eye(2 * n, dtype=bool)
    print(f"          random batch range [{vals[off].min():8.4f}, {vals[off].max():8.4f}]")

    u = np.zeros(8); u[0] = 1.0
    lo_z = np.tile(-u, (2 * n, 1)); lo_z[0] = lo_z[1] = u
    hi_z = np.tile(u, (2 * n, 1)); hi_z[1] = -u
    print(f"          adversarial pair losses {pair_loss_values(lo_z, structure, tau).data[0,1]:.6f} "
          f"and {pair_loss_values(hi_z, structure, tau).data[0,1]:.6f}")
