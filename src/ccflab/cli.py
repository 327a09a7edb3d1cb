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
  unknown norm family, bad arguments)
* 3: solver indeterminate (non-convergence)

Outputs are deterministic for a fixed seed and are written atomically
(temp file + rename); inputs are never modified.  Each subcommand takes only
the flags it reads:

* all: ``--output`` and ``--seed`` (seeds sampling; commands that draw none
  ignore it), and ``--input`` except ``reproduce``;
* the commands that solve (``center``, ``ccf-verify``, ``scan``,
  ``reproduce``): ``--max-iters`` (ellipsoid iterations per working-set
  round, at least 1) and ``--tol solver=`` (the certified gap that counts
  as converged);
* ``cap-check``: ``--tol cap=`` (the excess that counts as contained);
* ``scan``: ``--format json|csv``; ``reproduce``: the target (one of
  ``REPRODUCE_TARGETS`` or ``all``), ``--n``, ``--trunc``, ``--p``, ``--t``
  and ``--weights``.

Every other tolerance and sample count is a field of the input JSON.  The
counts must be positive: ``scan`` needs ``z_count`` and ``samples`` of at
least 1, ``cap-check`` ``samples`` of at least 3.
"""

from __future__ import annotations

import argparse
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
    summary_markdown,
    write_reports,
)
from .sets import DEFAULT_ACHIEVER_TOL, PointSet, farthest_set
from .solver import SolverOptions, chebyshev_center

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


def _solver_options(args) -> SolverOptions:
    return SolverOptions(args.max_iters, args.tol)


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
    result = chebyshev_center(PointSet.from_dict(_load_input(args.input)), _solver_options(args))
    _emit(args, result.to_dict())
    return EXIT_OK if result.converged else EXIT_INDETERMINATE


def _cmd_farthest(args) -> int:
    query = FarthestInput.from_dict(_load_input(args.input))
    _emit(args, farthest_set(query.set, query.viewpoint, query.tol).to_dict())
    return EXIT_OK


def _cmd_ccf_verify(args) -> int:
    witness = CcfWitness.from_dict(_load_input(args.input))
    verdict = verify_ccf_witness(witness, _solver_options(args))
    _emit(args, verdict.to_dict())
    if verdict.status == INDETERMINATE:
        return EXIT_INDETERMINATE
    return EXIT_OK if verdict.confirmed else EXIT_VERDICT


def _cmd_scan(args) -> int:
    inp = ScanInput.from_dict(_load_input(args.input))
    scan = ccnf_scan(inp.norm, inp.z_count, inp.t_grid, inp.samples, args.seed, _solver_options(args))
    _emit(args, scan.to_csv() if args.format == "csv" else scan.to_dict())
    return EXIT_OK


def _cmd_cap_check(args) -> int:
    inp = CapInput.from_dict(_load_input(args.input))
    excess = cap_containment_check(inp.norm, inp.u, inp.v, inp.samples)
    contained = excess <= args.tol
    _emit(args, {"excess": excess, "tolerance": args.tol, "contained": contained})
    return EXIT_OK if contained else EXIT_VERDICT


def reproduce_all(
    seed: int = 0,
    out_dir: str | Path | None = None,
    scan_samples: int = 20000,
    scan_z_count: int = 12,
    scan_t_grid=None,
    opts: SolverOptions | None = None,
) -> tuple[list[ExampleReport], dict[str, ScanResult], str]:
    """Run the full reproduction battery and the three reference scans.

    Returns (reports, scans, markdown table); ``scans`` maps the labels l2,
    l3 and l1, in that order, to their ``ScanResult``.  When ``out_dir`` is
    given, JSON reports, scan CSVs, and the summary table are written there.
    Pass/fail outcomes are stable across seeds; only sampling coordinates
    move.  ``opts`` is passed to every solve.
    """
    t_grid = tuple(ScanInput.t_grid if scan_t_grid is None else scan_t_grid)
    reports = [example_finite_dim(n, opts) for n in (3, 4, 5)]
    reports.append(example_c0_truncated(10, opts))
    reports.append(sp_grid_check())
    for p in (1.5, 3.0, 4.0):
        reports.append(ap_ccf_check(p, 100.0, opts))
    reports.append(embed_lp3(EMBEDDING_NORM, (0, 1, 2), seed=seed, opts=opts))

    scans = {
        label: ccnf_scan(pnorm(2, p), scan_z_count, t_grid, scan_samples, seed=seed, opts=opts)
        for label, p in (("l2", 2.0), ("l3", 3.0), ("l1", 1.0))
    }

    lines = [summary_markdown(reports)]
    lines.append("\n| scan | max r_hat/t | verdict |\n| --- | --- | --- |")
    for label, scan in scans.items():
        lines.append(f"| {label} | {scan.max_ratio:.6f} | {scan.verdict} |")
    lines.append(
        "\nScan verdicts are sampled evidence, not certificates: cells with"
        " r_hat/t near 1 indicate flat-face (CCF) behavior, clear separation"
        " below 1 is CCNF evidence, and weakly curved strictly convex norms"
        " can land in between (inconclusive) at this sampling density."
    )
    summary = "\n".join(lines) + "\n"

    if out_dir is not None:
        out_dir = Path(out_dir)
        write_reports(reports, out_dir / "reports")
        for label, scan in scans.items():
            write_text(out_dir / f"scan_{label}.csv", scan.to_csv())
        write_text(out_dir / "summary.md", summary)

    return reports, scans, summary


# The single-report reproduce targets, each building its report from the
# parsed flags and the solver options; ``reproduce all`` runs reproduce_all.
REPRODUCE_TARGETS = {
    "finite-dim": lambda args, opts: example_finite_dim(args.n, opts),
    "c0": lambda args, opts: example_c0_truncated(args.trunc, opts),
    "sp-grid": lambda args, opts: sp_grid_check(),
    "ap-witness": lambda args, opts: ap_ccf_check(1.5 if args.p is None else args.p, args.t, opts),
    "embedding": lambda args, opts: embed_lp3(
        weighted_pnorm(EMBEDDING_NORM.family.p if args.p is None else args.p, args.weights.split(",")),
        (0, 1, 2), seed=args.seed, opts=opts,
    ),
}


def _cmd_reproduce(args) -> int:
    opts = _solver_options(args)
    if args.target == "all":
        reports, _, summary = reproduce_all(seed=args.seed, out_dir=args.output, opts=opts)
        if not args.output:
            sys.stdout.write(summary)
        return EXIT_OK if all(r.overall for r in reports) else EXIT_VERDICT
    report = REPRODUCE_TARGETS[args.target](args, opts)
    _emit(args, report.to_dict())
    return EXIT_OK if report.overall else EXIT_VERDICT


def _tol_arg(name: str):
    """argparse type of ``--tol name=VALUE``: each command takes one tolerance."""

    def parse(text: str) -> float:
        key, sep, value = text.partition("=")
        if not sep or key.strip() != name:
            raise argparse.ArgumentTypeError(f"expected {name}=VALUE, got {text!r}")
        try:
            tol = float(value)
        except ValueError:
            tol = np.nan
        if not np.isfinite(tol):
            raise argparse.ArgumentTypeError(f"{name}: not a finite number: {value!r}")
        return tol

    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ccflab",
        description="Chebyshev centers, farthest points, and CCF/CCNF diagnostics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, run, summary, *, solves=False, tol=None, takes_input=True):
        p = sub.add_parser(name, help=summary)
        p.set_defaults(run=run)
        if takes_input:
            p.add_argument("--input", required=True, help="path to JSON input, or inline JSON")
        p.add_argument("--output", default=None, help="output path (default: stdout)")
        p.add_argument("--seed", type=int, default=0, help="seeds sampling (commands that draw none ignore it)")
        if solves:
            p.add_argument("--max-iters", type=int, default=None,
                           help="ellipsoid iterations per working-set round (default 1000 + 50 n^2 in dim n)")
            tol = ("solver", SolverOptions.tol)
        if tol is not None:
            tol_name, default = tol
            p.add_argument("--tol", type=_tol_arg(tol_name), default=default, metavar=f"{tol_name}=VALUE",
                           help=f"tolerance (default {default:g})")
        return p

    center = command("center", _cmd_center, "Chebyshev center of a point-set JSON", solves=True)
    # Retired multi-start knob, parsed and discarded: perfbench's witness warm-up passes it.
    center.add_argument("--starts", type=int, default=None, help=argparse.SUPPRESS)
    command("farthest", _cmd_farthest, "farthest-point query")
    command("ccf-verify", _cmd_ccf_verify, "verify a CCF witness", solves=True)
    scan = command("scan", _cmd_scan, "r_{t,z} scan over unit directions and a t-grid", solves=True)
    scan.add_argument("--format", choices=("json", "csv"), default="json")
    command("cap-check", _cmd_cap_check, "planar cap containment check", tol=("cap", 1e-9))

    rep = command("reproduce", _cmd_reproduce, "run a benchmark reproduction", solves=True, takes_input=False)
    rep.add_argument("target", choices=(*REPRODUCE_TARGETS, "all"))
    rep.add_argument("--n", type=int, default=3, help="dimension for finite-dim")
    rep.add_argument("--trunc", type=int, default=10, help="truncation size for c0")
    rep.add_argument("--p", type=float, default=None,
                     help=f"exponent (ap-witness default 1.5, embedding default {EMBEDDING_NORM.family.p:g})")
    rep.add_argument("--t", type=float, default=100.0)
    rep.add_argument("--weights", default=",".join(f"{w:g}" for w in EMBEDDING_NORM.family.weights),
                     help="comma-separated atom weights for embedding (default %(default)s)")

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
