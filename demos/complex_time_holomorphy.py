"""Strong continuity along sector rays and holomorphy in the time variable.

Approaching zero time inside a sector, the evolved field converges to the
initial field; and as a map of complex time the evolution is holomorphic,
which shows up as second-order-vanishing Cauchy-Riemann defects and a
vanishing closed-contour integral.
"""

import numpy as np

from gausspoisson import (
    SpaceSpec,
    contour_residual,
    continuity_scan,
    field_rule,
    holomorphy_residuals,
    make_grid,
    sample,
)

grid = make_grid(1, 12.0, 1025)
space = SpaceSpec.make(0)
f = sample(grid, field_rule("wide_gaussian"))

print("continuity scan: residual of G(r e^{i ray}) f - f as r -> 0")
rays = (-np.pi / 4, 0.0, np.pi / 4)
radii = [2.0**-j for j in range(1, 11)]
scans = continuity_scan(f, space, np.pi / 3, rays, radii)
print("  radius   " + "".join(f"ray {r:+.2f}  " for r in rays))
for radius, row in zip(radii, zip(*scans)):
    print(f"  {radius:8.2e} " + " ".join(f"{v:9.2e}" for v in row))

print("\nCauchy-Riemann and derivative defects shrink at second order in h")
gaussian = sample(grid, field_rule("gaussian"))
hs = (2e-2, 1e-2, 5e-3)
for h, (cauchy_riemann, derivative_match) in zip(hs, holomorphy_residuals(gaussian, 1.0, hs, space)):
    print(f"  h = {h:.0e}: cauchy-riemann {cauchy_riemann:.3e}, derivative match {derivative_match:.3e}")

print("\nclosed contour integrals of zeta -> G(zeta) f vanish")
for m in (8, 16, 32, 64):
    res = contour_residual(gaussian, 1.0, 0.25, m, space)
    print(f"  {m:3d} nodes: |contour integral| = {res:.2e}")
