"""Evolve fields by convolution and by spectral multiplication, then check
both against the exactly solvable Gaussian family.

Gaussian mixtures evolve in closed form (each term keeps its center and
rescales amplitude and width), which gives an independent oracle for both
discretizations at real and complex times.
"""

import numpy as np

from gausspoisson import (
    GaussianMixture,
    Method,
    apply,
    interior_slices,
    make_grid,
    semigroup_law_residual,
    SpaceSpec,
)

grid = make_grid(1, 12.0, 1025)
mix = GaussianMixture(
    amplitudes=[[1.0], [0.5 - 0.25j]],
    widths=[1.0, 2.0],
    centers=[[0.0], [1.5]],
)
f = mix.sampled(grid)
window = interior_slices(grid, 0.25)

print("closed-form cross-validation, interior max error")
for zeta in (0.5, 2.0, 0.5 + 0.5j, np.exp(-1j * np.pi / 4)):
    exact = mix.evolved(zeta).sampled(grid)
    for method in Method:
        got = apply(zeta, f, method=method)
        err = np.max(np.abs(got.values[window] - exact.values[window]))
        print(f"  zeta = {complex(zeta):.4g}, {method.value:>10}: {err:.2e}")

print("\ncomposition law: two short steps equal one long step")
space = SpaceSpec.make(0)
for z1, z2 in ((0.3, 0.7), (0.5 * np.exp(1j * np.pi / 4), 0.5 * np.exp(-1j * np.pi / 4))):
    res = semigroup_law_residual(z1, z2, f, space)
    print(f"  zeta1 = {complex(z1):.4g}, zeta2 = {complex(z2):.4g}: residual {res:.2e}")

print("\nthe two discretizations agree wherever truncation is negligible")
zeta = 1.0 + 1.0j
quad = apply(zeta, f, method=Method.QUADRATURE)
spec = apply(zeta, f, method=Method.SPECTRAL)
gap = np.max(np.abs(quad.values[window] - spec.values[window]))
print(f"  zeta = {zeta}: interior max gap {gap:.2e}")
print(f"  kernel tail beyond L recorded with the result: {quad.meta['tail_bound']:.2e}")
