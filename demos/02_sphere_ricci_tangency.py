"""Small-time slopes of g_t on the round sphere: the Ricci tangency.

On the unit sphere Ric(v, v) = |v|^2, so the slope of t -> g_t(v, v) at
t = 0 should be -2 for a unit vector. The flat torus and circle have zero
Ricci curvature and their slopes vanish. The script prints the slope tables,
the Richardson extrapolation, and two companion quantities: the Ricci
pairing against the transport plan, K g_t (which tends to Ric(v, v) = 1),
and the Hessian mass (reported only; its small-time limit is not asserted).
"""
import numpy as np

import heatmetric as hm

grid = [0.2, 0.1, 0.05, 0.025, 0.0125]

sphere = hm.SphereGeometry(1.0, 512, 120)
rep = hm.tangency_experiment(sphere, v=1.0, t_grid=grid)
print("unit sphere, |v| = 1, target slope -2")
print(f"{'t':>8} {'g_t':>12} {'slope':>10} {'hessian mass':>14}")
for row in rep.rows():
    print(f"{row['t']:8.4f} {row['g_t']:12.8f} {row['slope']:+10.5f} {row['hessian_mass']:14.6f}")
print(f"extrapolated slope: {rep.extrapolated_slope:+.5f} "
      f"(deviation {100 * rep.deviation:.2f}% of target)")

print()
print("Ricci pairing along the plan (tends to Ric(v,v) = 1):")
for t in (0.1, 0.05, 0.025):
    print(f"  t={t:6.3f}: {sphere.K * hm.metric_gt(sphere, t, v=1.0):.6f}")

print()
torus = hm.TorusGeometry(L1=2 * np.pi, L2=2 * np.pi, n1=128, n2=128)
rep_t = hm.tangency_experiment(torus, v=(0.6, 0.8), t_grid=[0.2, 0.1, 0.05, 0.025])
print(f"flat torus, |v| = 1: extrapolated slope {rep_t.extrapolated_slope:+.5f} (target 0)")

circle = hm.CircleGeometry(L=2 * np.pi, n=512)
rep_c = hm.tangency_experiment(circle, v=1.0, t_grid=grid)
print(f"circle:              extrapolated slope {rep_c.extrapolated_slope:+.5f} (target 0)")

print()
print("derivative bound d/dt (1/2) g_t <= -K g_t on the sphere (K = 1):")
for t in (0.1, 0.2):
    b = hm.gt_derivative_bochner(sphere, t, v=1.0)
    g = hm.metric_gt(sphere, t, v=1.0)
    print(f"  t={t:4.2f}: derivative {b:+.5f} <= -g_t = {-g:+.5f}")
