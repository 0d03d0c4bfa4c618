"""Run the full verification suite and show how checks guard each other.

The suite turns every identity into a residual-vs-tolerance check with a
deterministic seeded report.  To show the checks have teeth, the script
reruns the suite with a deliberately corrupted evolution multiplier and
counts how many checks object.
"""

import numpy as np

import gausspoisson.kernel
from gausspoisson import SuiteConfig, as_time, run_suite
from gausspoisson.grid_field import squared_norm

cfg = SuiteConfig()
report = run_suite(cfg)
print(report.to_text())

print("corrupting the spectral multiplier to exp(-2 zeta |xi|^2) ...")
original = gausspoisson.kernel.kernel_fourier


def wrong_symbol(zeta, Xi):
    return np.exp(-2.0 * as_time(zeta).value * squared_norm(Xi))


gausspoisson.kernel.kernel_fourier = wrong_symbol
try:
    mutated = run_suite(cfg)
finally:
    gausspoisson.kernel.kernel_fourier = original

failing = mutated.failures()
print(f"{len(failing)} of {len(mutated.results)} checks now fail, among them:")
for r in failing[:6]:
    print(f"  FAIL {r.name}  residual {r.residual:.3e}  tol {r.tolerance:.3e}")
