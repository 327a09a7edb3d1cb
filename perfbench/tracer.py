"""Span tracer that times ccflab's layers from outside the package.

``Tracer.install`` replaces every public function of the layer modules
(``__all__`` of norms, sampling, sets, solver, ccf and reproductions, plus
``cli.main``) with a timing wrapper, on every ccflab module that holds it.
That includes the names a module imported with ``from .x import y``, so a
call from ``ccf`` into ``solver.chebyshev_center`` is recorded as well.
``uninstall`` puts every original back.

Each call records a span: id, parent id, name, start and end.  Spans stay in
compact arrays until the run ends.  A span opened on a thread with nothing
open (a ``ccnf_scan`` pool worker) takes the innermost open span of the
thread that installed the tracer as its parent, because the benchmark is a
single caller.
"""

from __future__ import annotations

import functools
import gzip
import itertools
import sys
import threading
import time
import types
from array import array
from collections import defaultdict

LAYERS = ("norms", "sampling", "sets", "solver", "ccf", "reproductions", "cli")
MARK = "_perfbench_traced"


def layer_functions(package):
    """Yield (span name, function) for every public function of each layer."""
    for layer in LAYERS:
        module = sys.modules[f"{package.__name__}.{layer}"]
        names = ("main",) if layer == "cli" else module.__all__
        for name in names:
            fn = getattr(module, name)
            if isinstance(fn, types.FunctionType) and fn.__module__ == module.__name__:
                yield f"{layer}.{name}", fn


def package_modules(package):
    prefix = package.__name__ + "."
    return [m for n, m in list(sys.modules.items()) if n == package.__name__ or n.startswith(prefix)]


class Tracer:
    """Records spans and counters for the calls made while installed.

    ``observers`` maps a span name to ``f(counters, args, kwargs, result)``,
    called under the tracer's lock after a call returns, to count work the
    span's result reveals (rows evaluated, proposals drawn, ...).
    """

    def __init__(self, package, observers=None):
        self.package = package
        self.observers = dict(observers or {})
        self.names: list[str] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._lock = threading.Lock()
        self._ids = itertools.count()
        self._local = threading.local()
        self._patched: list[tuple] = []
        self._root_stack: list = []
        self.t0 = time.perf_counter()
        # One entry per closed span.
        self.span_id = array("q")
        self.parent_id = array("q")
        self.name_id = array("i")
        self.parent_name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.adopted = array("b")

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        self._root_stack = self._stack()
        wrappers = {}
        for span_name, fn in layer_functions(self.package):
            wrappers[id(fn)] = (fn, self._wrap(span_name, fn))
        for module in package_modules(self.package):
            for attr, value in list(vars(module).items()):
                entry = wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(module, attr, entry[1])
                    self._patched.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    @property
    def patched(self) -> list[tuple]:
        return list(self._patched)

    def _wrap(self, span_name: str, fn):
        nid = len(self.names)
        self.names.append(span_name)
        observe = self.observers.get(span_name)
        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent, parent_nid = stack[-1]
                adopted = 0
            elif tracer._root_stack:
                parent, parent_nid = tracer._root_stack[-1]
                adopted = 1
            else:
                parent, parent_nid, adopted = -1, -1, 0
            sid = next(tracer._ids)
            stack.append((sid, nid))
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                with tracer._lock:
                    tracer.span_id.append(sid)
                    tracer.parent_id.append(parent)
                    tracer.name_id.append(nid)
                    tracer.parent_name_id.append(parent_nid)
                    tracer.start.append(t0)
                    tracer.end.append(t1)
                    tracer.adopted.append(adopted)
            if observe is not None:
                with tracer._lock:
                    observe(tracer.counters, args, kwargs, result)
            return result

        setattr(traced, MARK, True)
        return traced

    def __len__(self) -> int:
        return len(self.end)

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total_s (summed durations) and self_s.

        Self time is a span's duration minus the part of it that its child
        spans cover.  Children on the span's own thread never overlap, so
        their durations are summed; children adopted from pool threads can
        overlap, so their union is taken.
        """
        calls = [0] * len(self.names)
        total = [0.0] * len(self.names)
        covered = [0.0] * len(self.names)
        adopted_by_parent: dict[int, tuple[int, list]] = {}
        for nid, pnid, pid, s, e, adopted in zip(
            self.name_id, self.parent_name_id, self.parent_id, self.start, self.end, self.adopted
        ):
            d = e - s
            calls[nid] += 1
            total[nid] += d
            if adopted:
                adopted_by_parent.setdefault(pid, (pnid, []))[1].append((s, e))
            elif pnid >= 0:
                covered[pnid] += d
        for pnid, intervals in adopted_by_parent.values():
            covered[pnid] += _union_length(intervals)
        return {
            name: {"calls": calls[i], "total_s": total[i], "self_s": total[i] - covered[i]}
            for i, name in enumerate(self.names)
        }

    def child_time(self, parent: str, child: str) -> float:
        """Summed durations of ``child`` spans whose parent is a ``parent`` span."""
        pnid, cnid = self.names.index(parent), self.names.index(child)
        return sum(
            e - s
            for nid, p, s, e in zip(self.name_id, self.parent_name_id, self.start, self.end)
            if nid == cnid and p == pnid
        )

    def write(self, path) -> None:
        """Write every span as gzip'd CSV: id, parent, name, start_s, end_s."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("id,parent,name,start_s,end_s\n")
            for sid, pid, nid, s, e in zip(
                self.span_id, self.parent_id, self.name_id, self.start, self.end
            ):
                fh.write(f"{sid},{pid},{self.names[nid]},{s - self.t0:.9f},{e - self.t0:.9f}\n")


def _union_length(intervals: list) -> float:
    length = 0.0
    cur_s = cur_e = None
    for s, e in sorted(intervals):
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                length += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        length += cur_e - cur_s
    return length
