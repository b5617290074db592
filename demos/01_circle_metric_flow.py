"""The evolving metric on a circle, against its closed form.

On a circle of circumference L, the velocity potential of a unit tangent
vector integrates in closed form: phi' = v + C / rho_t with C fixed by
periodicity, which gives

    g_t(v, v) = |v|^2 (1 - L^2 / I_t),      I_t = loop integral of 1 / rho_t.

The script solves the weighted Poisson equation on the grid, compares with
the quadrature oracle, and shows that the gap 1 - g_t closes faster than any
power of t (the circle is flat, so the small-time slope of g_t is zero).
"""
import numpy as np
from scipy.integrate import quad

import heatmetric as hm
from heatmetric.heat import circle_kernel

L = 2 * np.pi
geom = hm.CircleGeometry(L=L, n=512)

print("circle L = 2 pi, n = 512")
print(f"{'t':>8} {'g_t (solver)':>14} {'g_t (oracle)':>14} {'rel diff':>10}")
for t in (0.5, 0.25, 0.1, 0.05):
    solved = hm.metric_gt(geom, t, v=1.0)
    I_t = quad(lambda s: 1.0 / circle_kernel(t, L, s), 0, L, limit=800)[0]
    oracle = 1 - L**2 / I_t
    print(f"{t:8.3f} {solved:14.10f} {oracle:14.10f} {abs(solved - oracle) / oracle:10.2e}")

print()
print("the deficit 1 - g_t vanishes superpolynomially as t -> 0:")
for t in (0.4, 0.3, 0.2):
    I_t = quad(lambda s: 1.0 / circle_kernel(t, L, s), 0, L, limit=800)[0]
    print(f"  t={t:4.2f}: 1 - g_t = {L**2 / I_t:10.3e}")

print()
print("exact time derivative vs finite differences (L = 2 keeps the signal large):")
snr = hm.CircleGeometry(L=2.0, n=512)
for t in (0.05, 0.1, 0.2):
    boch = hm.gt_derivative_bochner(snr, t, v=1.0)
    dt = t / 8
    fd1 = (hm.metric_gt(snr, t + dt, v=1.0) - hm.metric_gt(snr, t - dt, v=1.0)) / (2 * dt) / 2
    fd2 = (hm.metric_gt(snr, t + dt / 2, v=1.0) - hm.metric_gt(snr, t - dt / 2, v=1.0)) / dt / 2
    fd = (4 * fd2 - fd1) / 3  # one Richardson level on the centered stencil
    print(f"  t={t:5.2f}: quadrature {boch:+.6f}   centered FD {fd:+.6f}")

print()
print("metric speed: g_t(gamma', gamma') vs squared W2 difference quotients")
speed_geom = hm.CircleGeometry(L=L, n=256)
rep = hm.metric_speed_check(speed_geom, 0.2, 1e-3 * L)
print(f"  t=0.2, probe step {rep.h_effective:.4f} (snapped to the grid):")
print(f"  g_t = {rep.gt_value:.6f}, (W2/h)^2 = {rep.w2_quotient_sq:.6f}, "
      f"mismatch {rep.rel_mismatch:.2e}")
