"""Chebyshev centers and farthest points on small sets.

Shows the two-point midpoint fact, the symmetric center of the three unit
vectors in lp^3 against its closed form s_p = 1/(1 + 2^(1/(p-1))), and the
independent brute-force grid oracle agreeing with the solver.
"""

import numpy as np

from ccflab import (
    PointSet,
    brute_force_center,
    chebyshev_center,
    diameter,
    farthest_set,
    pnorm,
    sp_closed_form,
    symmetric_line_minimize,
)

# Any norm: the midpoint of two points achieves half their distance.
pair = PointSet(pnorm(2, 1.5), [[1.0, 0.0], [-0.4, 0.8]])
res = chebyshev_center(pair)
print("two points:", res.center, "radius", res.radius, "= diameter/2 =", diameter(pair) / 2)

# Three unit vectors in lp^3: center is (s_p, s_p, s_p).
for p in (1.5, 3.0, 4.0):
    A0 = PointSet(pnorm(3, p), np.eye(3))
    res = chebyshev_center(A0)
    sp = sp_closed_form(p)
    print(f"p={p}: solver center {np.round(res.center, 6)}  closed form {sp:.6f}  "
          f"radius {res.radius:.6f}  certified gap {res.gap:.1e}")

    s, r = symmetric_line_minimize(A0, np.ones(3))
    print(f"      1-d scan along the diagonal: s* = {s:.10f}, |s* - s_p| = {abs(s - sp):.2e}")

# Independent oracle: exhaustive grid refinement, never touching the solver.
A0 = PointSet(pnorm(3, 4.0), np.eye(3))
oracle = brute_force_center(A0, (np.zeros(3), np.ones(3)))
print("grid oracle:", np.round(oracle.center, 4), "radius", round(oracle.radius, 6),
      "cell bound", round(oracle.gap, 5))

# Farthest-point queries return every achiever within tolerance.
fq = farthest_set(PointSet(pnorm(2, float("inf")), [[1, -1], [1, 0], [1, 1]]), [0.0, 0.0])
print("linf segment from origin: radius", fq.radius, "achievers", fq.achievers)
