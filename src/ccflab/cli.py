"""Command-line front end.

Each subcommand reads one JSON object (``--input``: a path, or inline JSON
starting with ``{``), decodes it with :mod:`ccflab.codec` into a record, runs
the solver / ccf machinery, and emits JSON (CSV for ``scan --format csv``).
Inputs are standard JSON: ``NaN``, ``Infinity`` and ``-Infinity`` are
rejected, and so is a ``--tol`` value that is not finite.
Exit codes separate mathematical verdicts from operational errors:

* 0: success / verdict positive
* 1: verdict negative (e.g. a witness was not confirmed, a reproduction
  check failed)
* 2: input error (malformed or non-standard JSON; a missing key, a value
  of the wrong type or a count below its minimum, which the error names;
  unknown norm family, bad arguments; a reproduction parameter or a result
  that leaves the float range, before anything is written)
* 3: solver indeterminate (non-convergence)

Outputs are deterministic for a fixed seed and are written atomically
(temp file + rename); inputs are never modified.  Each subcommand takes only
the flags it reads:

* all: ``--output`` and ``--seed`` (seeds sampling; commands that draw none
  ignore it), and ``--input`` except ``reproduce``;
* the commands that solve (``center``, ``ccf-verify``, ``scan``, and each
  ``reproduce`` target but ``sp-grid``): ``--max-iters`` (ellipsoid
  iterations per working-set round, at least 1), their only solver setting;
* ``cap-check``: ``--tol cap=`` (the excess that counts as contained);
* ``scan``: ``--format json|csv``; ``reproduce`` has one subcommand per
  target, and a target's flags follow it: ``finite-dim --n``,
  ``c0 --trunc``, ``ap-witness --p --t``, ``embedding --p --weights``.

Every other tolerance and sample count is a field of the input JSON.  The
counts must be positive: ``scan`` needs ``z_count`` and ``samples`` of at
least 1, ``cap-check`` ``samples`` of at least 3.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .ccf import (
    CcfWitness,
    INDETERMINATE,
    ScanResult,
    cap_containment_check,
    ccnf_scan,
    verify_ccf_witness,
)
from .codec import Record, json_text, write_text
from .norms import NormSpec, pnorm, weighted_pnorm
from .reproductions import (
    ExampleReport,
    ap_ccf_check,
    embed_lp3,
    example_c0_truncated,
    example_finite_dim,
    sp_grid_check,
)
from .sets import DEFAULT_ACHIEVER_TOL, PointSet, farthest_set
from .solver import chebyshev_center

EXIT_OK = 0
EXIT_VERDICT = 1
EXIT_INPUT = 2
EXIT_INDETERMINATE = 3

# The norm of the weighted discrete-measure space of the embedding
# reproduction, in ``reproduce all`` and by default in ``reproduce embedding``.
EMBEDDING_NORM = weighted_pnorm(3.0, (2.0, 0.5, 1.0, 3.0))


def _load_input(raw: str):
    """Parse --input as inline JSON (leading '{') or as a file path; standard
    JSON only, so NaN, Infinity and -Infinity are rejected."""
    if raw.lstrip().startswith("{"):
        text, origin = raw, "<inline>"
    else:
        try:
            text, origin = Path(raw).read_text(), raw
        except (OSError, UnicodeDecodeError) as e:
            raise ValueError(f"cannot read input file {raw}: {e}") from None

    def reject(constant: str):
        raise ValueError(f"{constant} in {origin} is not standard JSON")

    try:
        obj = json.loads(text, parse_constant=reject)
    except json.JSONDecodeError as e:
        raise ValueError(
            f"malformed JSON in {origin}: line {e.lineno} column {e.colno}: {e.msg}"
        ) from e
    if not isinstance(obj, dict):
        raise ValueError(f"input in {origin} must be a JSON object, got {type(obj).__name__}")
    return obj


def _emit(args, payload: dict | str) -> None:
    text = payload if isinstance(payload, str) else json_text(payload)
    if args.output:
        write_text(args.output, text)
    else:
        sys.stdout.write(text)


# --- the input object of each subcommand, decoded by ccflab.codec ------------


@dataclass(frozen=True, eq=False)
class FarthestInput(Record):
    set: PointSet
    viewpoint: np.ndarray
    tol: float = DEFAULT_ACHIEVER_TOL


@dataclass(frozen=True, eq=False)
class ScanInput(Record):
    norm: NormSpec
    z_count: int = 16
    t_grid: tuple[float, ...] = (0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0)
    samples: int = 4000


@dataclass(frozen=True, eq=False)
class CapInput(Record):
    norm: NormSpec
    u: np.ndarray
    v: np.ndarray
    samples: int = 256


# --- subcommand handlers -----------------------------------------------------


def _cmd_center(args) -> int:
    result = chebyshev_center(PointSet.from_dict(_load_input(args.input)), args.max_iters)
    _emit(args, result.to_dict())
    return EXIT_OK if result.converged else EXIT_INDETERMINATE


def _cmd_farthest(args) -> int:
    query = FarthestInput.from_dict(_load_input(args.input))
    _emit(args, farthest_set(query.set, query.viewpoint, query.tol).to_dict())
    return EXIT_OK


def _cmd_ccf_verify(args) -> int:
    witness = CcfWitness.from_dict(_load_input(args.input))
    verdict = verify_ccf_witness(witness, args.max_iters)
    _emit(args, verdict.to_dict())
    if verdict.status == INDETERMINATE:
        return EXIT_INDETERMINATE
    return EXIT_OK if verdict.confirmed else EXIT_VERDICT


def _cmd_scan(args) -> int:
    inp = ScanInput.from_dict(_load_input(args.input))
    scan = ccnf_scan(inp.norm, inp.z_count, inp.t_grid, inp.samples, args.seed, args.max_iters)
    _emit(args, scan.to_csv() if args.format == "csv" else scan.to_dict())
    return EXIT_OK


def _cmd_cap_check(args) -> int:
    inp = CapInput.from_dict(_load_input(args.input))
    excess = cap_containment_check(inp.norm, inp.u, inp.v, inp.samples)
    contained = excess <= args.tol
    _emit(args, {"excess": excess, "tolerance": args.tol, "contained": contained})
    return EXIT_OK if contained else EXIT_VERDICT


def reproduce_all(
    seed: int = 0, out_dir: str | Path | None = None, max_iters: int | None = None
) -> tuple[list[ExampleReport], dict[str, ScanResult], str]:
    """Run the full reproduction battery and the three reference scans.

    Each scan takes 12 unit directions, the t-grid ``ScanInput.t_grid`` and
    20 000 proposals per cell.  Returns (reports, scans, summary): ``scans``
    maps the labels l2, l3 and l1, in that order, to their ``ScanResult``,
    and the summary is a markdown table of both.  When ``out_dir`` is given,
    it receives ``reports/NN_name.json``, ``scan_<label>.csv`` and
    ``summary.md``.  Pass/fail outcomes are stable across seeds; only
    sampling coordinates move.  ``max_iters`` is passed to every solve.
    """
    reports = [example_finite_dim(n, max_iters) for n in (3, 4, 5)]
    reports.append(example_c0_truncated(10, max_iters))
    reports.append(sp_grid_check())
    for p in (1.5, 3.0, 4.0):
        reports.append(ap_ccf_check(p, 100.0, max_iters))
    reports.append(embed_lp3(EMBEDDING_NORM, (0, 1, 2), seed=seed, max_iters=max_iters))

    scans = {
        label: ccnf_scan(pnorm(2, p), 12, ScanInput.t_grid, 20000, seed=seed, max_iters=max_iters)
        for label, p in (("l2", 2.0), ("l3", 3.0), ("l1", 1.0))
    }

    lines = ["| report | parameters | checks passed | overall |", "| --- | --- | --- | --- |"]
    for rep in reports:
        params = ", ".join(f"{k}={v}" for k, v in rep.parameters.items())
        passed = sum(c.passed for c in rep.checks)
        lines.append(f"| {rep.name} | {params} | {passed}/{len(rep.checks)} | {'pass' if rep.overall else 'FAIL'} |")
    lines += ["", "", "| scan | max r_hat/t | verdict |", "| --- | --- | --- |"]  # two blank lines: summary.md's bytes
    lines += [f"| {label} | {scan.max_ratio:.6f} | {scan.verdict} |" for label, scan in scans.items()]
    lines.append(
        "\nScan verdicts are sampled evidence, not certificates: cells with"
        " r_hat/t near 1 indicate flat-face (CCF) behavior, clear separation"
        " below 1 is CCNF evidence, and weakly curved strictly convex norms"
        " can land in between (inconclusive) at this sampling density."
    )
    summary = "\n".join(lines) + "\n"

    if out_dir is not None:
        artifacts = {f"reports/{i:02d}_{rep.name}.json": json_text(rep.to_dict()) for i, rep in enumerate(reports)}
        artifacts.update({f"scan_{label}.csv": scan.to_csv() for label, scan in scans.items()})
        artifacts["summary.md"] = summary
        for name, text in artifacts.items():
            write_text(Path(out_dir) / name, text)

    return reports, scans, summary


def _cmd_reproduce(args) -> int:
    report = args.build(args)
    _emit(args, report.to_dict())
    return EXIT_OK if report.overall else EXIT_VERDICT


def _cmd_reproduce_all(args) -> int:
    reports, _, summary = reproduce_all(seed=args.seed, out_dir=args.output, max_iters=args.max_iters)
    if not args.output:
        sys.stdout.write(summary)
    return EXIT_OK if all(r.overall for r in reports) else EXIT_VERDICT


def _cap_tol(text: str) -> float:
    """argparse type of ``cap-check --tol cap=VALUE``."""
    key, sep, value = text.partition("=")
    if not sep or key.strip() != "cap":
        raise argparse.ArgumentTypeError(f"expected cap=VALUE, got {text!r}")
    try:
        tol = float(value)
    except ValueError:
        tol = np.nan
    if not np.isfinite(tol):
        raise argparse.ArgumentTypeError(f"cap: not a finite number: {value!r}")
    return tol


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ccflab",
        description="Chebyshev centers, farthest points, and CCF/CCNF diagnostics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, run, summary, *, parent=sub, solves=False, takes_input=True,
                output="output path (default: stdout)", **defaults):
        p = parent.add_parser(name, help=summary)
        p.set_defaults(run=run, **defaults)
        if takes_input:
            p.add_argument("--input", required=True, help="path to JSON input, or inline JSON")
        p.add_argument("--output", default=None, help=output)
        p.add_argument("--seed", type=int, default=0, help="seeds sampling (commands that draw none ignore it)")
        if solves:
            p.add_argument("--max-iters", type=int, default=None,
                           help="ellipsoid iterations per working-set round (default 1000 + 50 n^2 in dim n)")
        return p

    center = command("center", _cmd_center, "Chebyshev center of a point-set JSON", solves=True)
    # Retired multi-start knob, parsed and discarded: perfbench's witness warm-up passes it.
    center.add_argument("--starts", type=int, default=None, help=argparse.SUPPRESS)
    command("farthest", _cmd_farthest, "farthest-point query")
    command("ccf-verify", _cmd_ccf_verify, "verify a CCF witness", solves=True)
    scan = command("scan", _cmd_scan, "r_{t,z} scan over unit directions and a t-grid", solves=True)
    scan.add_argument("--format", choices=("json", "csv"), default="json")
    cap = command("cap-check", _cmd_cap_check, "planar cap containment check")
    cap.add_argument("--tol", type=_cap_tol, default=1e-9, metavar="cap=VALUE", help="tolerance (default %(default)g)")

    targets = sub.add_parser("reproduce", help="run a reproduction").add_subparsers(dest="target", required=True)

    def target(name, summary, run=_cmd_reproduce, solves=True, **defaults):
        return command(name, run, summary, parent=targets, solves=solves, takes_input=False, **defaults)

    dims = target("finite-dim", "the finite-dim CCF set", build=lambda a: example_finite_dim(a.n, a.max_iters))
    dims.add_argument("--n", type=int, default=3, help="dimension (default %(default)s)")
    c0 = target("c0", "the truncated c0 witness", build=lambda a: example_c0_truncated(a.trunc, a.max_iters))
    c0.add_argument("--trunc", type=int, default=10, help="truncation size (default %(default)s)")
    target("sp-grid", "s_p on a grid of exponents", solves=False, build=lambda a: sp_grid_check())
    ap = target("ap-witness", "the lp^3 CCF witness", build=lambda a: ap_ccf_check(a.p, a.t, a.max_iters))
    ap.add_argument("--p", type=float, default=1.5, help="exponent (default %(default)s)")
    ap.add_argument("--t", type=float, default=100.0, help="viewpoint scale (default %(default)s)")
    emb = target("embedding", "the lp^3 witness in a weighted lp", build=lambda a: embed_lp3(
        weighted_pnorm(a.p, a.weights.split(",")), (0, 1, 2), seed=a.seed, max_iters=a.max_iters))
    emb.add_argument("--p", type=float, default=EMBEDDING_NORM.family.p, help="exponent (default %(default)s)")
    emb.add_argument("--weights", default=",".join(f"{w:g}" for w in EMBEDDING_NORM.family.weights),
                     help="comma-separated atom weights (default %(default)s)")
    target("all", "every report and the reference scans", _cmd_reproduce_all,
           output="directory for reports/, the scan CSVs and summary.md (default: the summary to stdout)")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except ValueError as e:
        sys.stderr.write(f"error: {e}\n")
        return EXIT_INPUT


if __name__ == "__main__":
    raise SystemExit(main())
