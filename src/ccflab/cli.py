"""Command-line front end.

Subcommands ingest norm/set JSON, run the solver / ccf machinery, and emit
JSON or CSV artifacts.  Exit codes separate mathematical verdicts from
operational errors:

* 0: success / verdict positive
* 1: verdict negative (e.g. a witness was not confirmed, a reproduction
  check failed)
* 2: input error (malformed JSON, unknown norm family, bad arguments)
* 3: solver indeterminate (non-convergence)

Outputs are deterministic for a fixed seed and are written atomically
(temp file + rename); inputs are never modified.  Every solve takes the same
two solver settings: ``--max-iters`` (ellipsoid iterations per working-set
round) and ``--tol solver=`` (the certified gap that counts as converged).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .ccf import (
    CcfWitness,
    INDETERMINATE,
    cap_containment_check,
    ccnf_scan,
    verify_ccf_witness,
)
from .codec import json_text, write_text
from .norms import norm_from_dict, pnorm
from .reproductions import (
    ExampleReport,
    WeightedLpSpace,
    ap_ccf_check,
    example_c0_truncated,
    example_finite_dim,
    sp_closed_form,
    embed_lp3,
    summary_markdown,
    write_reports,
    Check,
)
from .sets import PointSet, farthest_set
from .solver import SolverOptions, chebyshev_center, symmetric_line_minimize

EXIT_OK = 0
EXIT_VERDICT = 1
EXIT_INPUT = 2
EXIT_INDETERMINATE = 3


class InputError(Exception):
    pass


def _load_input(raw: str):
    """Parse --input as inline JSON (leading '{') or as a file path."""
    if raw.lstrip().startswith("{"):
        text, origin = raw, "<inline>"
    else:
        path = Path(raw)
        if not path.exists():
            raise InputError(f"input file not found: {raw}")
        text, origin = path.read_text(), raw
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as e:
        raise InputError(
            f"malformed JSON in {origin}: line {e.lineno} column {e.colno}: {e.msg}"
        ) from e
    if not isinstance(obj, dict):
        raise InputError(f"input in {origin} must be a JSON object, got {type(obj).__name__}")
    return obj


def _emit(args, payload: dict | str) -> None:
    text = payload if isinstance(payload, str) else json_text(payload)
    if args.output:
        write_text(args.output, text)
    else:
        sys.stdout.write(text)


def _tol_map(pairs) -> dict[str, float]:
    out: dict[str, float] = {}
    for item in pairs or []:
        if "=" not in item:
            raise InputError(f"--tol expects name=value, got {item!r}")
        name, _, value = item.partition("=")
        try:
            out[name.strip()] = float(value)
        except ValueError as e:
            raise InputError(f"--tol {name}: not a number: {value!r}") from e
    return out


def _solver_options(args, tols) -> SolverOptions:
    kwargs = {}
    if "solver" in tols:
        kwargs["tol"] = tols["solver"]
    if args.max_iters is not None:
        kwargs["max_iters"] = args.max_iters
    return SolverOptions(**kwargs)


# --- subcommand handlers -----------------------------------------------------


def _require_json_format(args) -> None:
    if args.format != "json":
        raise InputError(f"{args.command} emits JSON only; csv applies to scan")


def _cmd_center(args) -> int:
    _require_json_format(args)
    tols = _tol_map(args.tol)
    obj = _load_input(args.input)
    A = PointSet.from_dict(obj)
    result = chebyshev_center(A, _solver_options(args, tols))
    _emit(args, result.to_dict())
    return EXIT_INDETERMINATE if not result.converged else EXIT_OK


def _cmd_farthest(args) -> int:
    _require_json_format(args)
    tols = _tol_map(args.tol)
    obj = _load_input(args.input)
    if "set" not in obj or "viewpoint" not in obj:
        raise InputError('farthest input needs {"set": ..., "viewpoint": [...]}')
    A = PointSet.from_dict(obj["set"])
    tol = tols.get("achiever", float(obj.get("tol", 1e-9)))
    fq = farthest_set(A, np.asarray(obj["viewpoint"], dtype=float), tol)
    _emit(args, fq.to_dict())
    return EXIT_OK


def _cmd_ccf_verify(args) -> int:
    _require_json_format(args)
    tols = _tol_map(args.tol)
    witness = CcfWitness.from_dict(_load_input(args.input))
    overrides = {f"{k}_tol": tols[k] for k in ("center", "farthest") if k in tols}
    witness = replace(witness, **overrides)
    verdict = verify_ccf_witness(witness, _solver_options(args, tols))
    _emit(args, verdict.to_dict())
    if verdict.status == INDETERMINATE:
        return EXIT_INDETERMINATE
    return EXIT_OK if verdict.confirmed else EXIT_VERDICT


def _cmd_scan(args) -> int:
    tols = _tol_map(args.tol)
    obj = _load_input(args.input)
    if "norm" not in obj:
        raise InputError('scan input needs {"norm": ..., "z_count": n, "t_grid": [...]}')
    norm = norm_from_dict(obj["norm"])
    samples = args.samples or int(obj.get("samples", 4000))
    scan = ccnf_scan(
        norm,
        z_count=int(obj.get("z_count", 16)),
        t_grid=obj.get("t_grid", [0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0]),
        samples=samples,
        seed=args.seed,
        opts=_solver_options(args, tols),
    )
    _emit(args, scan.to_csv() if args.format == "csv" else scan.to_dict())
    return EXIT_OK


def _cmd_cap_check(args) -> int:
    _require_json_format(args)
    tols = _tol_map(args.tol)
    obj = _load_input(args.input)
    for key in ("norm", "u", "v"):
        if key not in obj:
            raise InputError('cap-check input needs {"norm": ..., "u": [...], "v": [...]}')
    norm = norm_from_dict(obj["norm"])
    samples = args.samples or int(obj.get("samples", 256))
    excess = cap_containment_check(
        norm,
        np.asarray(obj["u"], dtype=float),
        np.asarray(obj["v"], dtype=float),
        samples,
    )
    tol = tols.get("cap", 1e-9)
    _emit(args, {"excess": excess, "tolerance": tol, "contained": excess <= tol})
    return EXIT_OK if excess <= tol else EXIT_VERDICT


def _sp_grid_report() -> ExampleReport:
    ps = np.exp(np.linspace(np.log(1.1), np.log(10.0), 13))
    worst = 0.0
    for p in ps:
        A0 = PointSet(pnorm(3, float(p)), np.eye(3))
        s, _ = symmetric_line_minimize(A0, np.ones(3))
        worst = max(worst, float(abs(s - sp_closed_form(float(p)))))
    check = Check(
        description="line minimizer matches 1/(1 + 2^(1/(p-1))) on a log grid of p",
        expected="max |dev| <= 1e-8",
        observed=f"max |dev| = {worst:.2e}",
        passed=bool(worst <= 1e-8),
    )
    return ExampleReport(
        name="sp-grid",
        parameters={"p_grid": [round(float(p), 6) for p in ps]},
        checks=(check,),
        overall=check.passed,
    )


def reproduce_all(
    seed: int = 0,
    out_dir: str | Path | None = None,
    scan_samples: int = 20000,
    scan_z_count: int = 12,
    scan_t_grid=None,
) -> tuple[list[ExampleReport], list[dict], str]:
    """Run the full reproduction battery and the three reference scans.

    Returns (reports, scan summaries, markdown table).  When ``out_dir`` is
    given, JSON reports, scan CSVs, and the summary table are written there.
    Pass/fail outcomes are stable across seeds; only sampling coordinates
    move.
    """
    t_grid = list(scan_t_grid) if scan_t_grid is not None else [0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0]
    reports = [example_finite_dim(n) for n in (3, 4, 5)]
    reports.append(example_c0_truncated(10))
    reports.append(_sp_grid_report())
    for p in (1.5, 3.0, 4.0):
        reports.append(ap_ccf_check(p, 100.0))
    reports.append(embed_lp3(WeightedLpSpace(3.0, (2.0, 0.5, 1.0, 3.0)), (0, 1, 2), seed=seed))

    scans = []
    for label, p in (("l2", 2.0), ("l3", 3.0), ("l1", 1.0)):
        scan = ccnf_scan(pnorm(2, p), scan_z_count, t_grid, scan_samples, seed=seed)
        scans.append({"label": label, "scan": scan})

    lines = [summary_markdown(reports)]
    lines.append("\n| scan | max r_hat/t | verdict |\n| --- | --- | --- |")
    for entry in scans:
        scan = entry["scan"]
        lines.append(f"| {entry['label']} | {scan.max_ratio:.6f} | {scan.verdict} |")
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
        for entry in scans:
            write_text(out_dir / f"scan_{entry['label']}.csv", entry["scan"].to_csv())
        write_text(out_dir / "summary.md", summary)

    scan_dicts = [
        {"label": e["label"], "max_ratio": e["scan"].max_ratio, "verdict": e["scan"].verdict}
        for e in scans
    ]
    return reports, scan_dicts, summary


def _cmd_reproduce(args) -> int:
    _require_json_format(args)
    tols = _tol_map(args.tol)
    opts = _solver_options(args, tols)
    target = args.target
    if target == "all":
        reports, scans, summary = reproduce_all(seed=args.seed, out_dir=args.output)
        if not args.output:
            sys.stdout.write(summary)
        ok = all(r.overall for r in reports)
        return EXIT_OK if ok else EXIT_VERDICT

    if target == "finite-dim":
        report = example_finite_dim(args.n, opts)
    elif target == "c0":
        report = example_c0_truncated(args.trunc, opts)
    elif target == "sp-grid":
        report = _sp_grid_report()
    elif target == "ap-witness":
        report = ap_ccf_check(args.p if args.p is not None else 1.5, args.t, opts)
    elif target == "embedding":
        weights = tuple(float(w) for w in (args.weights or "2,0.5,1,3").split(","))
        space = WeightedLpSpace(args.p if args.p is not None else 3.0, weights)
        report = embed_lp3(space, (0, 1, 2), seed=args.seed, opts=opts)
    else:
        raise InputError(f"unknown reproduce target: {target!r}")
    _emit(args, report.to_dict())
    return EXIT_OK if report.overall else EXIT_VERDICT


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ccflab",
        description="Chebyshev centers, farthest points, and CCF/CCNF diagnostics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_input=True):
        if needs_input:
            p.add_argument("--input", required=True, help="path to JSON input, or inline JSON")
        p.add_argument("--output", default=None, help="output path (default: stdout)")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--tol", action="append", metavar="NAME=VALUE",
                       help="tolerance override (solver=, center=, farthest=, achiever=, cap=)")
        p.add_argument("--samples", type=int, default=None)
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--max-iters", type=int, default=None, dest="max_iters",
                       help="ellipsoid iterations per working-set round (default 1000 + 50 n^2 in dim n)")
        # Retired multi-start knob, parsed and discarded: perfbench's witness warm-up passes it.
        p.add_argument("--starts", type=int, default=None, help=argparse.SUPPRESS)

    common(sub.add_parser("center", help="Chebyshev center of a point-set JSON"))
    common(sub.add_parser("farthest", help="farthest-point query"))
    common(sub.add_parser("ccf-verify", help="verify a CCF witness"))
    common(sub.add_parser("scan", help="r_{t,z} scan over unit directions and a t-grid"))
    common(sub.add_parser("cap-check", help="planar cap containment check"))

    rep = sub.add_parser("reproduce", help="run a benchmark reproduction")
    rep.add_argument("target", choices=("finite-dim", "c0", "sp-grid", "ap-witness", "embedding", "all"))
    rep.add_argument("--n", type=int, default=3, help="dimension for finite-dim")
    rep.add_argument("--trunc", type=int, default=10, help="truncation size for c0")
    rep.add_argument("--p", type=float, default=None,
                     help="exponent (ap-witness default 1.5, embedding default 3.0)")
    rep.add_argument("--t", type=float, default=100.0)
    rep.add_argument("--weights", default=None, help="comma-separated atom weights for embedding")
    common(rep, needs_input=False)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "center": _cmd_center,
        "farthest": _cmd_farthest,
        "ccf-verify": _cmd_ccf_verify,
        "scan": _cmd_scan,
        "cap-check": _cmd_cap_check,
        "reproduce": _cmd_reproduce,
    }
    try:
        return handlers[args.command](args)
    except (InputError, ValueError) as e:
        sys.stderr.write(f"error: {e}\n")
        return EXIT_INPUT


if __name__ == "__main__":
    raise SystemExit(main())
