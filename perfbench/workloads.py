"""The benchmark's workloads: inputs made from the seed, operations, checks.

A workload runs in *units*, the smallest block of work whose mix of
operations is the same every time: a scan round (one request per norm) or a
witness pass (every request once).  The runner repeats whole units, so two
runs of one workload always measure the same mix.  Checks read the outputs
after the timed loop and never run inside it.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import os
import random
import statistics
import time
from collections import Counter
from dataclasses import dataclass, field

from tracer import package_modules

# Proposals per r_{t,z} cell: the reference density of `reproduce all`.
REFERENCE_SAMPLES = 20000
# Ends and middle of the reference t-grid of `reproduce all`.  Below t = 0.4
# the l2 lens tends to a half disc, whose ratio r/t tends to 1.
SCAN_T_GRID = (0.4, 0.7, 1.0)
SCAN_Z_COUNT = 2
SCAN_NORMS = (("l2", 2.0), ("l3", 3.0), ("l1", 1.0))
SCAN_ROUNDS = 64
RTZ_SLACK = 1e-9

# (dim, points) of the center and farthest sets of each norm family.  The
# shapes are fixed so that a pass costs about the same on every seed; the
# seed moves coordinates, weights, viewpoints and solver seeds.  Four shapes
# have dim <= 3, where the brute-force oracle checks the center.
SHAPES = {
    "l1": (3, 8),
    "l2": (2, 16),
    "l3": (2, 12),
    "linf": (4, 6),
    "l1.5": (5, 10),
    "sum": (6, 3),
    "sup_plus_wl2": (3, 16),
    "wlp": (4, 5),
}
REPRODUCTIONS = (
    ("finite-dim", "--n", "3"),
    ("finite-dim", "--n", "4"),
    ("finite-dim", "--n", "5"),
    ("c0",),
    ("sp-grid",),
    ("ap-witness", "--p", "1.5"),
    ("ap-witness", "--p", "3"),
    ("ap-witness", "--p", "4"),
    ("embedding",),
)
AP_EXPONENTS = (1.5, 3.0, 4.0)
# Viewpoint scales t of the ap witnesses: the reproduction's t = 100, and a
# seeded t from this range (the farthest margin is positive for t >= 50).
# The second set of ccf-verify calls also puts the witness pass's median
# inside a group of like operations rather than on the edge between two.
AP_VIEWPOINT_SCALE = 100.0
AP_SEEDED_SCALES = (50.0, 200.0)


@dataclass
class Unit:
    """One unit of work: latencies of the operations that completed (with
    the index of each one's request, where requests repeat from unit to
    unit), the number attempted, the raw outputs for the checks and
    gap / radius of every center solve made in it."""

    latencies: list = field(default_factory=list)
    requests: list = field(default_factory=list)
    attempted: int = 0
    outputs: list = field(default_factory=list)
    gaps: list = field(default_factory=list)


@dataclass
class CheckReport:
    """Failed checks by name (operations failing each) and the distinct
    operations that failed at least one check."""

    by_name: Counter = field(default_factory=Counter)
    failed_ops: set = field(default_factory=set)

    def fail(self, name: str, ops) -> None:
        ops = list(ops)
        if ops:
            self.by_name[name] += len(ops)
            self.failed_ops.update(ops)


@contextlib.contextmanager
def thread_count(n: int):
    """Set CCFLAB_THREADS, which ccnf_scan reads on every call."""
    old = os.environ.get("CCFLAB_THREADS")
    os.environ["CCFLAB_THREADS"] = str(n)
    try:
        yield
    finally:
        if old is None:
            os.environ.pop("CCFLAB_THREADS", None)
        else:
            os.environ["CCFLAB_THREADS"] = old


@contextlib.contextmanager
def wrapped(ccflab, layer: str, name: str, wrap):
    """Replace ``ccflab.<layer>.<name>`` by ``wrap(original)`` on every ccflab
    module that holds it, names imported with ``from .x import`` included,
    and put the original back afterwards."""
    original = getattr(getattr(ccflab, layer), name)
    replacement = functools.wraps(original)(wrap(original))
    holders = [
        (module, attr)
        for module in package_modules(ccflab)
        for attr, value in list(vars(module).items())
        if value is original
    ]
    for module, attr in holders:
        setattr(module, attr, replacement)
    try:
        yield
    finally:
        for module, attr in holders:
            setattr(module, attr, original)


def recording_gaps(gaps: list):
    """Wrapper for ``chebyshev_center`` that appends gap / radius of every
    result with a positive radius to ``gaps``."""

    def wrap(solve):
        def recorded(*args, **kwargs):
            result = solve(*args, **kwargs)
            if result.radius > 0.0:
                gaps.append(result.gap / result.radius)
            return result

        return recorded

    return wrap


def timing_into(times: list):
    """Wrapper that appends the wall time of every call to ``times``."""

    def wrap(fn):
        def timed(*args, **kwargs):
            t0 = time.perf_counter()
            result = fn(*args, **kwargs)
            times.append(time.perf_counter() - t0)
            return result

        return timed

    return wrap


def latency_samples(units: list[Unit]) -> list[float]:
    """Latency samples of a run: one per completed operation or, where
    units repeat the same requests, one per request, the median of its
    latencies over the run.

    Repeats of one request give byte-identical outputs, so their latencies
    differ only by the host, whose speed drifts by tens of percent over tens
    of seconds.  Counted as separate samples, they would make a tail out of
    whichever pass met a slow stretch.
    """
    if not any(unit.requests for unit in units):
        return [x for unit in units for x in unit.latencies]
    by_request: dict = {}
    for unit in units:
        for r, x in zip(unit.requests, unit.latencies):
            by_request.setdefault(r, []).append(x)
    return [statistics.median(xs) for xs in by_request.values()]


def max_rel_gap(units: list[Unit]) -> float:
    """Largest CenterResult.gap / radius over every solve of ``units``."""
    return max((g for unit in units for g in unit.gaps), default=0.0)


class ScanWorkload:
    """r_{t,z} cells on the planar l2, l3 and l1 norms.

    A request is one ``ccnf_scan`` of SCAN_Z_COUNT directions times
    SCAN_T_GRID; a round is one request per norm, so every norm gets the same
    number of cells.  One operation is one cell.  Cell latency comes from a
    timer around ``ccf.estimate_r_tz``, the function ``ccnf_scan`` calls per
    cell (on its pool threads when CCFLAB_THREADS > 1).
    """

    min_units = 1

    def __init__(self, ccflab, seed: int, threads: int, tiny: bool = False):
        self.ccflab = ccflab
        self.threads = threads
        self.samples = 500 if tiny else REFERENCE_SAMPLES
        self.z_count = 1 if tiny else SCAN_Z_COUNT
        self.t_grid = (0.7,) if tiny else SCAN_T_GRID
        self.cells = self.z_count * len(self.t_grid)
        rng = random.Random(f"scan/{seed}")
        self.rounds = [
            [(label, p, rng.randrange(2**31)) for label, p in SCAN_NORMS]
            for _ in range(SCAN_ROUNDS)
        ]
        self._cell_times: list[float] = []
        self._gaps: list[float] = []

    def norm(self, p: float):
        return self.ccflab.pnorm(2, p)

    @contextlib.contextmanager
    def session(self):
        with wrapped(self.ccflab, "ccf", "estimate_r_tz", timing_into(self._cell_times)), \
                wrapped(self.ccflab, "solver", "chebyshev_center", recording_gaps(self._gaps)), \
                thread_count(self.threads):
            yield

    def warm_up(self) -> None:
        for _, p in SCAN_NORMS:
            self.ccflab.ccnf_scan(self.norm(p), 1, (0.4,), 2000, seed=0)

    def _scan(self, p: float, seed: int):
        return self.ccflab.ccnf_scan(self.norm(p), self.z_count, self.t_grid, self.samples, seed=seed)

    def run_unit(self, index: int) -> Unit:
        unit = Unit()
        first_gap = len(self._gaps)
        for label, p, seed in self.rounds[index % len(self.rounds)]:
            before = len(self._cell_times)
            unit.attempted += self.cells
            try:
                result = self._scan(p, seed)
            except Exception as exc:  # a failed request is counted, never dropped
                unit.outputs.append((label, exc))
                continue
            unit.latencies.extend(self._cell_times[before:])
            unit.outputs.append((label, result))
        unit.gaps = self._gaps[first_gap:]
        return unit

    def _ops(self, u: int, r: int):
        return [(u, r, c) for c in range(self.cells)]

    def check(self, units: list[Unit]) -> CheckReport:
        ccf = self.ccflab.ccf
        report = CheckReport()
        by_norm: dict[str, tuple[list, list]] = {label: ([], []) for label, _ in SCAN_NORMS}
        for u, unit in enumerate(units):
            for r, (label, out) in enumerate(unit.outputs):
                if isinstance(out, Exception):
                    report.fail(f"error.{type(out).__name__}", self._ops(u, r))
                    continue
                rows, ops = by_norm[label]
                rows.extend(out.rows)
                ops.extend(self._ops(u, r))
                report.fail(
                    "scan.r_hat_le_t",
                    [(u, r, c) for c, row in enumerate(out.rows) if not row.r_hat <= row.t + RTZ_SLACK],
                )
        # The l3 verdict changes with the seed, so it is not checked.
        for label, expected in (("l2", "ccnf-evidence"), ("l1", "ccf-signal")):
            rows, ops = by_norm[label]
            if not rows:
                continue
            union = ccf.ScanResult(
                norm=self.norm(dict(SCAN_NORMS)[label]),
                rows=tuple(rows),
                t_grid=self.t_grid,
                samples=self.samples,
                seed=0,
                ccnf_threshold=ccf.CCNF_EVIDENCE_MAX_RATIO,
                ccf_threshold=ccf.CCF_SIGNAL_MIN_RATIO,
            )
            if union.verdict != expected:
                report.fail(f"scan.{label}_verdict_{expected.replace('-', '_')}", ops)
        self._check_threads(units[0], report)
        return report

    def _check_threads(self, first: Unit, report: CheckReport) -> None:
        """Scan the first round again with the other thread count: results
        must be equal, since every cell has its own Philox stream."""
        other = 1 if self.threads > 1 else 2
        with thread_count(other):
            for r, (label, p, seed) in enumerate(self.rounds[0]):
                out = first.outputs[r][1]
                if isinstance(out, Exception):
                    continue
                try:
                    again = self._scan(p, seed)
                except Exception as exc:
                    report.fail(f"error.{type(exc).__name__}", self._ops(0, r))
                    continue
                if again != out:
                    report.fail("determinism.threads", self._ops(0, r))

    def differing_ops(self, a: Unit, b: Unit) -> int:
        """Operations whose output differs between two runs of one unit."""
        return self.cells * sum(
            isinstance(x, Exception) or isinstance(y, Exception) or x != y
            for (_, x), (_, y) in zip(a.outputs, b.outputs)
        )

    def bytes_written(self, units: list[Unit]) -> int:
        return 0


def _sp(p: float) -> float:
    """Coordinate of the symmetric lp^3 center: 1 / (1 + 2^(1/(p-1)))."""
    return 1.0 / (1.0 + 2.0 ** (1.0 / (p - 1.0)))


def _norm_json(kind: str, dim: int, rng: random.Random) -> dict:
    if kind == "sum":
        return {
            "dim": dim,
            "family": {"sum": [[1.0, _norm_json("l1", dim, rng)], [0.5, _norm_json("l2", dim, rng)]]},
        }
    if kind == "sup_plus_wl2":
        return {"dim": dim, "family": {"sup_plus_wl2": [rng.uniform(0.25, 4.0) for _ in range(dim)]}}
    if kind == "wlp":
        weights = [rng.uniform(0.25, 4.0) for _ in range(dim)]
        return {"dim": dim, "family": {"wlp": {"p": 3.0, "weights": weights}}}
    p = {"l1": 1.0, "l2": 2.0, "l3": 3.0, "linf": "inf", "l1.5": 1.5}[kind]
    return {"dim": dim, "family": {"pnorm": p}}


def _random_set(kind: str, rng: random.Random) -> dict:
    dim, m = SHAPES[kind]
    return {
        "norm": _norm_json(kind, dim, rng),
        "points": [[rng.uniform(-1.0, 1.0) for _ in range(dim)] for _ in range(m)],
    }


def witness_requests(seed: int, tiny: bool = False) -> list[dict]:
    """Every CLI request of one witness pass, made from ``seed``.

    Each request is {"label", "argv", "set"}; ``set`` is the point set of a
    ``center`` request (for the brute-force check) and None otherwise.
    """
    rng = random.Random(f"witness/{seed}")
    reqs = []
    for target in () if tiny else REPRODUCTIONS:
        reqs.append({
            "label": "reproduce:" + "".join(target),
            "argv": ["reproduce", *target, "--seed", str(seed)],
            "set": None,
        })
    for p, t in [] if tiny else [
        (p, t) for p in AP_EXPONENTS for t in (AP_VIEWPOINT_SCALE, rng.uniform(*AP_SEEDED_SCALES))
    ]:
        s = _sp(p)
        sign = 1.0 if p < 2.0 else -1.0
        witness = {
            "set": {
                "norm": {"dim": 3, "family": {"pnorm": p}},
                "points": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [s, s, s]],
            },
            "center_index": 3,
            "viewpoint": [sign * t] * 3,
        }
        reqs.append({
            "label": f"ccf-verify:ap{p:g}@{t:g}",
            "argv": ["ccf-verify", "--input", json.dumps(witness), "--seed", str(seed)],
            "set": None,
        })
    for kind in ("l2", "l1") if tiny else SHAPES:
        center_set = _random_set(kind, rng)
        reqs.append({
            "label": f"center:{kind}",
            "argv": ["center", "--input", json.dumps(center_set), "--seed", str(rng.randrange(1000))],
            "set": center_set,
        })
        far_set = _random_set(kind, rng)
        query = {
            "set": far_set,
            "viewpoint": [rng.uniform(-3.0, 3.0) for _ in range(far_set["norm"]["dim"])],
        }
        reqs.append({"label": f"farthest:{kind}", "argv": ["farthest", "--input", json.dumps(query)], "set": None})
    if tiny:
        reqs.append({"label": "reproduce:sp-grid", "argv": ["reproduce", "sp-grid"], "set": None})
    return reqs


class WitnessWorkload:
    """Small-set requests through ``ccflab.cli.main`` in this process.

    A unit is one pass over every request.  At least three passes run: each
    JSON output is compared byte for byte across passes, and a pass count
    that only a faster program raises keeps the mix of one run like the next.
    """

    min_units = 3

    threads = 1

    def __init__(self, ccflab, seed: int, tiny: bool = False):
        self.ccflab = ccflab
        self.requests = witness_requests(seed, tiny)
        self._gaps: list[float] = []

    @contextlib.contextmanager
    def session(self):
        with wrapped(self.ccflab, "solver", "chebyshev_center", recording_gaps(self._gaps)), \
                thread_count(self.threads):
            yield

    def _call(self, argv: list[str]) -> tuple[int, str]:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = self.ccflab.cli.main(argv)
        return rc, buf.getvalue()

    def warm_up(self) -> None:
        small = {"norm": {"dim": 2, "family": {"pnorm": 1.0}}, "points": [[0.0, 0.0], [1.0, 0.5], [0.2, 1.0]]}
        self._call(["center", "--input", json.dumps(small), "--max-iters", "20", "--starts", "1"])
        self._call(["farthest", "--input", json.dumps({"set": small, "viewpoint": [2.0, 2.0]})])
        self._call(["reproduce", "sp-grid"])

    def run_unit(self, index: int) -> Unit:
        unit = Unit()
        first_gap = len(self._gaps)
        for r, req in enumerate(self.requests):
            unit.attempted += 1
            t0 = time.perf_counter()
            try:
                rc, text = self._call(req["argv"])
            except Exception as exc:  # a failed request is counted, never dropped
                unit.outputs.append(exc)
                continue
            unit.latencies.append(time.perf_counter() - t0)
            unit.requests.append(r)
            unit.outputs.append((rc, text))
        unit.gaps = self._gaps[first_gap:]
        return unit

    def check(self, units: list[Unit]) -> CheckReport:
        report = CheckReport()
        first = units[0].outputs
        agreement = {}
        for u, unit in enumerate(units):
            for r, (req, out) in enumerate(zip(self.requests, unit.outputs)):
                op = [(u, r)]
                if isinstance(out, Exception):
                    report.fail(f"error.{type(out).__name__}", op)
                    continue
                rc, text = out
                if rc != 0:
                    report.fail("cli.exit_code", op)
                try:
                    obj = json.loads(text)
                except json.JSONDecodeError:
                    report.fail("cli.output_json", op)
                    continue
                kind = req["label"].split(":")[0]
                if kind == "reproduce" and obj.get("overall") is not True:
                    report.fail("reproduce.overall", op)
                if kind == "ccf-verify" and obj.get("verdict") != "confirmed":
                    report.fail("ccf_verify.confirmed", op)
                if req["set"] is not None and req["set"]["norm"]["dim"] <= 3:
                    if r not in agreement:
                        agreement[r] = self._agrees_with_brute_force(req["set"], obj)
                    if not agreement[r]:
                        report.fail("center.brute_force_agreement", op)
                if u > 0 and out != first[r]:
                    report.fail("determinism.witness_bytes", op)
        return report

    def _agrees_with_brute_force(self, set_json: dict, out: dict) -> bool:
        """The solver radius is within the grid oracle's gap of the oracle's.

        The oracle searches the box where every center lies: within
        r / c (c = linf_lower_constant) of each point in every coordinate,
        padded by a quarter so the grid does not sit on its edge.
        """
        c = self.ccflab
        A = c.PointSet.from_dict(set_json)
        pad = 1.25 * out["radius"] / c.norms.linf_lower_constant(A.norm)
        columns = list(zip(*set_json["points"]))
        lo = [max(col) - pad for col in columns]
        hi = [min(col) + pad for col in columns]
        oracle = c.brute_force_center(A, (lo, hi))
        return abs(out["radius"] - oracle.radius) <= oracle.gap + 1e-9

    def differing_ops(self, a: Unit, b: Unit) -> int:
        return sum(isinstance(x, Exception) or x != y for x, y in zip(a.outputs, b.outputs))

    def bytes_written(self, units: list[Unit]) -> int:
        return sum(
            len(out[1].encode()) for unit in units for out in unit.outputs if not isinstance(out, Exception)
        )


def scan_threads() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def threads_for(name: str) -> int:
    """CCFLAB_THREADS of a workload: nproc for scan_threads, else 1."""
    return scan_threads() if name == "scan_threads" else 1


def make_workload(name: str, ccflab, seed: int, tiny: bool = False):
    if name in ("scan", "scan_threads"):
        return ScanWorkload(ccflab, seed, threads=threads_for(name), tiny=tiny)
    if name == "witness":
        return WitnessWorkload(ccflab, seed, tiny=tiny)
    raise ValueError(f"unknown workload: {name!r}")


WORKLOADS = ("scan", "scan_threads", "witness")
