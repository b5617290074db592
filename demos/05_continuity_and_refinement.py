"""Continuity of the flow in time and stability under grid refinement.

Two experiments on circle grids:

* time continuity: the sup-norm difference of dtilde between t and t+delta
  shrinks to zero as delta does, and the semigroup bound
  dtilde_{t+delta} <= e^{-K delta} dtilde_t holds entrywise;
* refinement stability: circle grids of increasing resolution embed into the
  same circle, and dtilde at matched antipodal probes converges with order
  about two in the grid spacing.
"""
import numpy as np

import heatmetric as hm

_, space = hm.model_circle(2 * np.pi, 16)

rep = hm.time_continuity_report(space, 0.1, [0.16, 0.08, 0.04, 0.02, 0.01])
print("time continuity at t = 0.1 on the 16-node circle:")
print(f"{'delta':>8} {'sup |dtilde(t+d) - dtilde(t)|':>30}")
for d, s in zip(rep.deltas, rep.sup_differences):
    print(f"{d:8.3f} {s:30.3e}")
print(f"monotone decrease: {rep.decreasing}; semigroup bound excess: "
      f"{rep.semigroup_excess:.2e}")

print()
print("refinement study: antipodal probes, t = 0.1, grids doubling 64 -> 512")
rep = hm.refinement_stability(2 * np.pi, 0.1, [64, 128, 256, 512], [(0.0, 0.5)])
vals = rep.probe_values[0]
for n, v in zip(rep.grid_sizes, vals):
    print(f"  n={n:4d}: dtilde = {v:.8f}")
print(f"  successive differences: {[f'{d:.2e}' for d in rep.differences[0]]}")
print(f"  empirical orders: {np.round(rep.orders[0], 2).tolist()} (first order or better)")
