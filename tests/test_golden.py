"""Pinned JSON text of the CLI outputs: key order, omitted keys and number
formatting, byte for byte.

The expected files under ``golden/`` were written by the code that each
refactor replaced: the first six by the hand-coded serializers that the
dataclass codec replaced, the embedding, ap-witness and cap-check files by
the trial-and-retry cap arc, the second farthest pass of the witness check
and the per-row embedding projection, and the finite-dim, sp-grid and
weighted embedding reports by the reports that stored their ``overall`` flag
and the embedding that took a separate space type, and the linf and l1.5
centers by the norm evaluators that dispatched on the family at every call,
and the reference-density scan by the kernels that reduced every row with one
numpy call and ranked all distances with a full sort.  The refactors must
reproduce them exactly.  The multi-round scan (``scan_rounds``) was written
by the solver that first screens each working-set round at a gap of 1e-3:
both of its cells take three rounds, whose screens add other points than
rounds solved to the full 1e-12 did, so its second r_hat differs from
theirs in the last digits, within the two gaps.  The 30-point center in
l2^10 (``center_dim10``) was written by the kernels that reduced long
narrow batches column by column, before point sets were stored in a layout
of their own.
"""

import json
import random
from pathlib import Path

import pytest

from ccflab.cli import main

GOLDEN = Path(__file__).with_name("golden")

EUCLID_PAIR = {
    "norm": {"dim": 2, "family": {"pnorm": 2}},
    "points": [[1.0, 0.0], [-1.0, 0.0]],
}

L1_SET = {
    "norm": {"dim": 2, "family": {"pnorm": 1}},
    "points": [[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]],
}

LINF_POINTS = [
    [1.0, 0.25, -0.5, 0.0],
    [-0.75, 0.5, 0.25, 1.0],
    [0.0, -1.0, 0.5, -0.25],
    [0.5, 0.75, -1.0, 0.5],
    [-0.5, 0.0, 0.75, -1.0],
    [0.25, -0.5, 0.0, 0.75],
]

L1P5_POINTS = [
    [1.0, 0.0, 0.5, -0.25, 0.0],
    [0.0, 1.0, -0.5, 0.25, 0.5],
    [-1.0, 0.5, 0.0, 0.5, -0.5],
    [0.25, -1.0, 0.75, 0.0, 0.25],
    [0.5, 0.25, -1.0, -0.5, 0.75],
    [-0.25, -0.5, 0.25, 1.0, -1.0],
    [0.75, 0.5, 0.5, 0.5, 0.5],
]

_DIM10 = random.Random(11)
DIM10_POINTS = [[_DIM10.uniform(-1.0, 1.0) for _ in range(10)] for _ in range(30)]

CASES = {
    "center": ["center", "--input", json.dumps(EUCLID_PAIR)],
    # Ten columns: numpy sums each row pairwise, as it does row-major; the
    # same points laid out column-major would sum them in order.
    "center_dim10": [
        "center",
        "--input",
        json.dumps({"norm": {"dim": 10, "family": {"pnorm": 2}}, "points": DIM10_POINTS}),
    ],
    # An exhausted budget writes the "flags" key that a converged center omits.
    "center_not_converged": [
        "center",
        "--input",
        json.dumps({**L1_SET, "points": [[1.0, 0.0], [0.0, 1.0], [0.3, -0.4]]}),
        "--max-iters",
        "2",
    ],
    # The solver's iterates on the linf and general p-norm kernels.
    "center_linf": [
        "center",
        "--input",
        json.dumps({"norm": {"dim": 4, "family": {"pnorm": "inf"}}, "points": LINF_POINTS}),
    ],
    "center_l1p5": [
        "center",
        "--input",
        json.dumps({"norm": {"dim": 5, "family": {"pnorm": 1.5}}, "points": L1P5_POINTS}),
    ],
    "farthest": ["farthest", "--input", json.dumps({"set": EUCLID_PAIR, "viewpoint": [0.0, 2.0]})],
    "ccf_verify": [
        "ccf-verify",
        "--input",
        json.dumps({"set": L1_SET, "center_index": 2, "viewpoint": [0.0, 0.0]}),
    ],
    "scan": [
        "scan",
        "--input",
        json.dumps({"norm": {"dim": 2, "family": {"pnorm": 2}}, "z_count": 1, "t_grid": [0.5], "samples": 400}),
    ],
    # Cells at the reference density of `reproduce all`: about 15k sample
    # points each, stored column-major.
    "scan_reference": [
        "scan",
        "--input",
        json.dumps({"norm": {"dim": 2, "family": {"pnorm": 3}}, "z_count": 2, "t_grid": [0.4, 1.0], "samples": 20000}),
    ],
    # Two cells whose solves take three working-set rounds each: the screened
    # rounds decide which points join, and so the last digits of r_hat.
    "scan_rounds": [
        "scan",
        "--input",
        json.dumps({"norm": {"dim": 2, "family": {"pnorm": 3}}, "z_count": 1, "t_grid": [0.4, 0.5], "samples": 20000}),
    ],
    "reproduce_c0": ["reproduce", "c0", "--trunc", "5"],
    "reproduce_finite_dim": ["reproduce", "finite-dim", "--n", "3"],
    "reproduce_sp_grid": ["reproduce", "sp-grid"],
    "reproduce_embedding": ["reproduce", "embedding"],
    # The embedding space built from --p and --weights rather than the default.
    "reproduce_embedding_weights": ["reproduce", "embedding", "--p", "1.5", "--weights", "1,2,3"],
    "reproduce_ap_witness": ["reproduce", "ap-witness", "--p", "3"],
    # A strictly convex chord whose cap turns clockwise from u to v.
    "cap_check": [
        "cap-check",
        "--input",
        json.dumps({
            "norm": {"dim": 2, "family": {"pnorm": 1.5}},
            "u": [1.0, 0.0],
            "v": [0.18889787040906986, -0.9444893520453493],
        }),
    ],
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_json_bytes(name, capsys):
    main(CASES[name])
    assert capsys.readouterr().out == (GOLDEN / f"{name}.json").read_text()
