"""The coupled and intrinsic distances on finite metric-measure spaces.

Every point x embeds into Wasserstein space as the evolved point mass
H_t(delta_x). The chord distance of that embedding is dtilde_t, the induced
arc distance along graph curves is d_t. At t = 0 both equal the original
metric; for t > 0 they are genuine distances (the heat map is injective) and
contract under the declared curvature bound.
"""
import numpy as np

import heatmetric as hm

# two-point space with unit conductance: dtilde_t = a e^{-t} in closed form
space2 = hm.build_space(2, [(0, 1, 1.0)], [1.0, 1.0], K=0.0, conductances=[1.0])
hs2 = hm.spectral_decompose(space2)
print("two-point space, edge length 1, unit conductance:")
for t in (0.0, 0.25, 0.5, 1.0):
    fm = hm.flow_matrices(hs2, t)
    print(f"  t={t:5.2f}: dtilde = {fm.dtilde[0, 1]:.8f}   closed form {np.exp(-t):.8f}")

print()
_, circle = hm.model_circle(2 * np.pi, 16)
hs = hm.spectral_decompose(circle)
print("circle grid, n = 16: distances from node 0 at t = 0 and t = 0.25")
fm0 = hm.flow_matrices(hs, 0.0)
fm = hm.flow_matrices(hs, 0.25)
print("  node:   " + "  ".join(f"{j:6d}" for j in range(8)))
print("  d:      " + "  ".join(f"{fm0.dtilde[0, j]:6.3f}" for j in range(8)))
print("  dtilde: " + "  ".join(f"{fm.dtilde[0, j]:6.3f}" for j in range(8)))
print("  d_t:    " + "  ".join(f"{fm.dt[0, j]:6.3f}" for j in range(8)))
print(f"  axiom violation across both matrices: {fm.max_axiom_violation():.2e}")
print(f"  empirical distortion max d / d_t: {np.max(circle.dist[fm.dt > 0] / fm.dt[fm.dt > 0]):.4f}")

print()
print("contraction ratios W2(H_t mu, H_t nu) / W2(mu, nu) vs the bound e^{-Kt}:")
rep = hm.contraction_report(circle, [0.1, 0.5, 1.0], [(0, 8), (2, 5)])
for r in rep.records:
    print(f"  pair {r.pair}, t={r.t:4.2f}: ratio {r.ratio:.6f} <= bound {r.bound:.6f}")

print()
sphere = hm.SphereGeometry(1.0, 512, 120)
pairs = [
    (hm.ZonalMeasure.pole(sphere), hm.ZonalMeasure.pole(sphere, south=True)),
    (hm.ZonalMeasure.heat_kernel(sphere, 0.3),
     hm.ZonalMeasure.heat_kernel(sphere, 0.3, south=True)),
]
srep = hm.sphere_contraction_report(sphere, [0.05, 0.2, 0.5], pairs)
print("unit sphere (K = 1), rotation-symmetric measure pairs:")
for r in srep.records:
    print(f"  {r.pair[0]} vs {r.pair[1]}, t={r.t:4.2f}: "
          f"ratio {r.ratio:.6f} <= e^-t = {r.bound:.6f}")
