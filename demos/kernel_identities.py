"""Closed-form kernel identities checked by quadrature on auto-sized grids.

The complex-time Gaussian kernel has unit mass, a Gaussian Fourier symbol,
and a sector-uniform modulus bound; this script measures all three on grids
sized from the kernel's own tail bound.
"""

import numpy as np

from gausspoisson import (
    default_sector_angle,
    fourier_symbol_residual,
    grid_for_time,
    kernel_eval,
    kernel_mass,
    kernel_tail_bound,
    make_grid,
)

times = [0.25, 1.0, 4.0, np.exp(1j * np.pi / 4), 0.5 * np.exp(1j * np.pi / 3)]

print("unit mass on tail-sized grids")
for zeta in times:
    g = grid_for_time(zeta, n=1)
    mass = kernel_mass(zeta, g)
    print(
        f"  zeta = {complex(zeta):.4g}: grid [-{g.L:.1f}, {g.L:.1f}] with "
        f"N = {g.N}, |mass - 1| = {abs(mass - 1):.2e}"
    )

print("\nsector modulus bound (tail beyond radius R never exceeds the bound)")
zeta = np.exp(1j * np.pi / 4)
alpha = default_sector_angle(zeta)
for R in (2.0, 4.0, 8.0):
    bound = kernel_tail_bound(zeta, alpha, R, n=1, k=0)
    # brute-force the actual tail on a fine grid
    x = np.linspace(R, R + 40, 200001)
    tail = 2 * np.trapezoid(np.abs(kernel_eval(zeta, x[:, None], 1)), x)
    print(f"  R = {R}: measured tail {tail:.3e} <= bound {bound:.3e}")

print("\nFourier symbol exp(-zeta |xi|^2) against the rescaled DFT")
g = make_grid(1, 12.0, 1025)
for zeta in (1.0, 1.0 + 1.0j):
    res = fourier_symbol_residual(zeta, g)
    print(f"  zeta = {complex(zeta):.4g}: max symbol error {res:.2e}")
