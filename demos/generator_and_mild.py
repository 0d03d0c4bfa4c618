"""The generator is the Laplacian: derivative, integral, and pointwise forms.

Three views of the same fact: the time derivative of the evolution equals the
Laplacian of the evolved field (generator residuals), the time integral of
the evolution satisfies the integrated equation (mild identity), and along
real-time trajectories the samples satisfy the heat equation pointwise.
"""

import numpy as np

from gausspoisson import (
    classical_residual,
    difference_quotient_residual,
    field_rule,
    generator_residuals,
    make_grid,
    mild_identity_residual,
    sample,
    trajectory,
)

grid = make_grid(1, 12.0, 1025)
f = sample(grid, field_rule("gaussian"))

print("generator residuals at t = 0.5 (central difference in time)")
dts = (1e-2, 5e-3, 2.5e-3, 1.25e-3)
for dt, res in zip(dts, generator_residuals(f, 0.5, dts)):
    print(f"  dt = {dt:.2e}: r1 {res.r1:.3e}  r2 {res.r2:.3e}  r3 {res.r3:.3e}")

print("\ndifference quotient (G(h)f - f)/h converges to the Laplacian")
hs = (1e-2, 5e-3, 2.5e-3)
for h, res in zip(hs, difference_quotient_residual(f, hs)):
    print(f"  h = {h:.2e}: residual {res:.3e}")

print("\nmild identity: Laplacian of the time integral recovers G(t)f - f")
steps = (64, 128, 256, 512)
for n, res in zip(steps, mild_identity_residual(f, 1.0, steps)):
    print(f"  {n:4d} graded steps: residual {res:.3e}")

print("\npointwise heat equation along a trajectory (interior max residual)")
for dt, N in ((2e-2, 513), (1e-2, 1025), (5e-3, 2049)):
    g = make_grid(1, 12.0, N)
    u0 = sample(g, field_rule("gaussian"))
    times = np.arange(0.5, 1.5 + dt / 2, dt)
    traj = trajectory(u0, times)
    res = classical_residual(traj.times, traj.states)
    print(f"  dt = {dt:.0e}, N = {N:5d}: residual {res:.3e}")
