"""Weighted discrete-measure Lp spaces and the lp^3 embedding.

Any discrete-measure Lp space with three atoms carries an isometric copy of
lp^3 (scale each atom indicator to unit norm) together with a norm-one
averaging projection back onto the span.  Transporting the lp^3 witness
through that isometry shows the weighted space has a CCF set too.

Also runs the truncated sequence-space benchmark, whose set is nearly
centerable with the origin as center.
"""

from ccflab import embed_lp3, example_c0_truncated, weighted_pnorm

norm = weighted_pnorm(3.0, (2.0, 0.5, 1.0, 3.0))
report = embed_lp3(norm, atoms=(0, 1, 2), test_vectors=1000, seed=0)
print(f"embedding into weighted Lp (weights {norm.family.weights}):")
for check in report.checks:
    print(f"  [{'ok' if check.passed else 'FAIL'}] {check.description}: {check.observed}")

trunc = example_c0_truncated(N=10)
print("\ntruncated sequence-space benchmark (N=10):")
for check in trunc.checks:
    print(f"  [{'ok' if check.passed else 'FAIL'}] {check.description}")
