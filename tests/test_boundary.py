"""Inputs are checked once, where they enter.

``eval_norm`` and ``norm_subgradient`` are the checked entry points for
callers outside the package.  Inside it, the layers call each norm family's
unchecked kernels ``family.dist`` / ``family.subgrad`` on arrays that
``PointSet``, ``TwoBallSet``, ``CcfWitness``, the codec or a public
function's ``as_vector`` already checked, so the array rule (``_as_batch``)
runs a fixed number of times per call, whatever the iteration count.

Files are read and written at one boundary too: only ``codec`` (the one
writer) and ``cli`` (which reads ``--input`` and writes every artifact) do
file I/O.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

import ccflab
from ccflab import PointSet, SolverOptions, chebyshev_center, estimate_r_tz, pnorm

PACKAGE = Path(ccflab.__file__).parent
LAYER_FILES = sorted(p for p in PACKAGE.glob("*.py") if p.name not in ("norms.py", "__init__.py"))
CHECKED_EVALUATORS = {"eval_norm", "norm_subgradient"}
IO_FREE_FILES = sorted(p for p in PACKAGE.glob("*.py") if p.name not in ("codec.py", "cli.py"))
FILE_IO_NAMES = {"open", "Path", "write_text", "mkdir", "os", "tempfile"}


def test_every_layer_file_is_collected():
    assert {"sets.py", "solver.py", "sampling.py", "ccf.py", "reproductions.py", "cli.py"} <= {
        p.name for p in LAYER_FILES
    }
    assert {"norms.py", "sets.py", "solver.py", "sampling.py", "ccf.py", "reproductions.py"} <= {
        p.name for p in IO_FREE_FILES
    }


def _names(path: Path) -> set[str]:
    """Every name, attribute and imported name in a module."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names


@pytest.mark.parametrize("path", LAYER_FILES, ids=lambda p: p.name)
def test_layers_name_no_checked_evaluator(path):
    assert not _names(path) & CHECKED_EVALUATORS


@pytest.mark.parametrize("path", IO_FREE_FILES, ids=lambda p: p.name)
def test_only_codec_and_cli_do_file_io(path):
    assert not _names(path) & FILE_IO_NAMES


@pytest.fixture
def array_checks(monkeypatch):
    """The arguments of every ``_as_batch`` call, from ``as_vector`` and
    ``eval_norm`` (in norms) and from ``PointSet`` (in sets)."""
    calls = []
    check = ccflab.norms._as_batch

    def counted(*args, **kwargs):
        calls.append(args)
        return check(*args, **kwargs)

    for module in (ccflab.norms, ccflab.sets):
        monkeypatch.setattr(module, "_as_batch", counted)
    return calls


def test_witness_solve_checks_each_input_once(array_checks):
    # The 4-point lp^3 witness at p = 3: the unit vectors and (s, s, s), s = s_p.
    s = 1.0 / (1.0 + 2.0**0.5)
    points = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [s, s, s]]
    counts, iterations = [], []
    for opts in (SolverOptions(), SolverOptions(max_iters=20)):
        array_checks.clear()
        res = chebyshev_center(PointSet(pnorm(3, 3), points), opts, extra_starts=[points[3]])
        counts.append(len(array_checks))
        iterations.append(res.iterations)
    assert iterations[0] > 100 and iterations[1] == 20
    # The points, in PointSet, and the extra start.
    assert counts == [2, 2]


def test_scan_cell_checks_each_input_once(array_checks):
    counts = []
    for samples in (400, 4000):
        array_checks.clear()
        estimate_r_tz(pnorm(2, 3), np.array([1.0, 0.0]), 0.5, samples)
        counts.append(len(array_checks))
    # z on the unit sphere; c and y in TwoBallSet and again in the public
    # sampler; the sample's PointSet; z as the solver's extra start.
    assert counts == [7, 7]
