import collections
import contextlib
import hashlib
import importlib
import io
import json
import logging
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import ccflab
from ccflab import CenterResult, ExampleReport, FarthestQuery, WitnessVerdict, norm_to_dict, pnorm
from ccflab import cli, reproductions
from ccflab.ccf import ccnf_scan
from ccflab.cli import main, reproduce_all
from ccflab.sampling import rejection_sample_two_balls, rng_stream

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.append(str(REPO_ROOT / "perfbench"))
import workloads  # noqa: E402  (perfbench/workloads.py, which builds the benchmark's CLI requests)

EUCLID_PAIR = {
    "norm": {"dim": 2, "family": {"pnorm": 2}},
    "points": [[1.0, 0.0], [-1.0, 0.0]],
}

L1_WITNESS = {
    "set": {
        "norm": {"dim": 2, "family": {"pnorm": 1}},
        "points": [[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]],
    },
    "center_index": 2,
    "viewpoint": [0.0, 0.0],
}

EUCLID_BAD_WITNESS = {
    "set": {
        "norm": {"dim": 2, "family": {"pnorm": 2}},
        "points": [[1.0, 0.0], [-1.0, 0.0], [0.0, 0.0]],
    },
    "center_index": 2,
    "viewpoint": [0.0, 5.0],
}


CAP_INPUT = {"norm": norm_to_dict(pnorm(2, 4)), "u": [1.0, 0.0], "v": [0.0, 1.0]}

# Three points in R^6 under l1 + l2/2 whose center has all three as achievers;
# multi-start subgradient descent stopped at radius 2.0937767 with one.
SUM_6D_SET = {
    "norm": {"dim": 6, "family": {"sum": [[1.0, {"dim": 6, "family": {"pnorm": 1.0}}],
                                          [0.5, {"dim": 6, "family": {"pnorm": 2.0}}]]}},
    "points": [
        [0.2867569048280434, 0.01667186339359339, 0.6239194224572531,
         -0.5012939670251642, -0.14898544806264358, -0.07611468437369906],
        [0.5695570753346626, -0.3115095786730675, -0.8009045298342277,
         -0.03262367285646062, 0.36275875144429004, -0.3657598380479967],
        [0.5734962886343806, -0.1834733071760115, 0.44111504421905834,
         -0.10063226637402756, -0.9379597878197119, 0.09282133248391067],
    ],
}


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestExitCodes:
    def test_center_two_points(self, capsys):
        code, out, _ = run(capsys, "center", "--input", json.dumps(EUCLID_PAIR))
        assert code == 0
        payload = json.loads(out)
        assert payload["radius"] == pytest.approx(1.0, abs=1e-12)

    def test_witness_confirmed_exit_zero(self, capsys):
        code, out, _ = run(capsys, "ccf-verify", "--input", json.dumps(L1_WITNESS))
        assert code == 0
        assert json.loads(out)["verdict"] == "confirmed"

    def test_witness_negative_exit_one(self, capsys):
        code, out, _ = run(capsys, "ccf-verify", "--input", json.dumps(EUCLID_BAD_WITNESS))
        assert code == 1
        assert json.loads(out)["verdict"] == "farthest_fails"

    def test_six_dim_sum_norm_center_converges(self, capsys):
        code, out, _ = run(capsys, "center", "--input", json.dumps(SUM_6D_SET), "--seed", "51")
        assert code == 0
        payload = json.loads(out)
        assert payload["radius"] <= 2.0934261
        assert payload["achievers"] == [0, 1, 2]

    def test_malformed_json_exit_two_with_position(self, capsys):
        code, _, err = run(capsys, "center", "--input", '{"norm": {"dim": 2,, }}')
        assert code == 2
        assert "line 1" in err and "column" in err

    def test_unknown_family_exit_two(self, capsys):
        bad = {"norm": {"dim": 2, "family": {"qnorm": 2}}, "points": [[0.0, 0.0]]}
        code, _, err = run(capsys, "center", "--input", json.dumps(bad))
        assert code == 2
        assert "unknown norm family" in err

    def test_missing_file_exit_two(self, capsys):
        code, _, err = run(capsys, "center", "--input", "/nonexistent/input.json")
        assert code == 2

    def test_unreadable_input_exit_two(self, tmp_path, capsys):
        code, out, err = run(capsys, "center", "--input", str(tmp_path))
        assert code == 2
        assert out == ""
        assert f"cannot read input file {tmp_path}" in err

    # Chords inside a flat face of l1 or linf exited 2 ("could not identify
    # the far-side cap arc"); their cap is the chord itself.
    @pytest.mark.parametrize("p, u, v", [
        (1, [1.0, 0.0], [0.0, 1.0]),
        (1, [0.75, 0.25], [0.25, 0.75]),
        ("inf", [1.0, -0.5], [1.0, 0.5]),
    ])
    def test_flat_face_chord_contained(self, capsys, p, u, v):
        chord = {"norm": {"dim": 2, "family": {"pnorm": p}}, "u": u, "v": v}
        code, out, _ = run(capsys, "cap-check", "--input", json.dumps(chord))
        assert code == 0
        assert json.loads(out)["contained"] is True

    @pytest.mark.parametrize("missing", ["center_index", "viewpoint"])
    def test_witness_missing_key_exit_two(self, capsys, missing):
        witness = {k: v for k, v in L1_WITNESS.items() if k != missing}
        code, _, err = run(capsys, "ccf-verify", "--input", json.dumps(witness))
        assert code == 2
        assert repr(missing) in err

    @pytest.mark.parametrize("command", ["farthest", "scan"])
    def test_non_object_input_exit_two(self, tmp_path, capsys, command):
        in_file = tmp_path / "five.json"
        in_file.write_text("5")
        code, _, err = run(capsys, command, "--input", str(in_file))
        assert code == 2
        assert "JSON object" in err

    def test_indeterminate_exit_three(self, capsys):
        witness = {
            "set": {
                "norm": {"dim": 2, "family": {"pnorm": 1}},
                "points": [[1.0, 0.0], [0.0, 1.0], [0.3, -0.4]],
            },
            "center_index": 0,
            "viewpoint": [0.0, 0.0],
        }
        code, out, _ = run(
            capsys,
            "ccf-verify", "--input", json.dumps(witness),
            "--max-iters", "2",
        )
        assert code == 3
        assert json.loads(out)["verdict"] == "indeterminate"

    def test_scan_honours_max_iters(self, capsys):
        scan_input = {"norm": norm_to_dict(pnorm(2, 2)), "z_count": 1, "t_grid": [0.5], "samples": 400}
        _, out, _ = run(capsys, "scan", "--input", json.dumps(scan_input))
        assert json.loads(out)["rows"][0]["flags"] == []
        code, out, _ = run(capsys, "scan", "--input", json.dumps(scan_input), "--max-iters", "1")
        assert code == 0
        assert "solver_not_converged" in json.loads(out)["rows"][0]["flags"]

    def test_retired_starts_flag_parsed_and_ignored(self, capsys):
        _, plain, _ = run(capsys, "center", "--input", json.dumps(EUCLID_PAIR))
        code, out, _ = run(capsys, "center", "--input", json.dumps(EUCLID_PAIR), "--starts", "1")
        assert code == 0
        assert out == plain

    def test_no_polish_flag_removed(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["center", "--input", json.dumps(EUCLID_PAIR), "--no-polish"])
        assert exc.value.code == 2


    @pytest.mark.parametrize("command, payload, key", [
        ("farthest", {"set": EUCLID_PAIR, "viewpoint": [0.0, 2.0], "tol": None}, "tol"),
        ("farthest", {"set": EUCLID_PAIR, "viewpoint": [0.0, 2.0], "tol": "tight"}, "tol"),
        ("farthest", {"set": EUCLID_PAIR}, "viewpoint"),
        ("scan", {"norm": norm_to_dict(pnorm(2, 2)), "t_grid": 5}, "t_grid"),
        ("scan", {"norm": norm_to_dict(pnorm(2, 2)), "z_count": None}, "z_count"),
        ("scan", {"z_count": 1}, "norm"),
        ("cap-check", {"norm": norm_to_dict(pnorm(2, 4)), "u": [1.0, 0.0]}, "v"),
        ("cap-check", {"norm": norm_to_dict(pnorm(2, 4)), "u": [1.0, 0.0], "v": [0.0, 1.0],
                       "samples": None}, "samples"),
        ("scan", {"norm": norm_to_dict(pnorm(2, 2)), "z_count": 1, "t_grid": [0.5], "samples": 0}, "samples"),
        ("scan", {"norm": norm_to_dict(pnorm(2, 2)), "z_count": 0}, "z_count"),
        ("scan", {"norm": norm_to_dict(pnorm(2, 2)), "z_count": -2}, "z_count"),
        ("cap-check", {"norm": norm_to_dict(pnorm(2, 4)), "u": [1.0, 0.0], "v": [0.0, 1.0],
                       "samples": -5}, "samples"),
        # Wrong-typed scalars are rejected, not coerced.
        ("ccf-verify", {**L1_WITNESS, "center_index": 2.7}, "center_index"),
        ("ccf-verify", {**L1_WITNESS, "center_index": "2"}, "center_index"),
        ("ccf-verify", {**L1_WITNESS, "center_index": True}, "center_index"),
        ("scan", {"norm": norm_to_dict(pnorm(2, 2)), "z_count": 1.9, "t_grid": [0.5], "samples": 400}, "z_count"),
        ("scan", {"norm": norm_to_dict(pnorm(2, 2)), "z_count": 1, "t_grid": [0.5], "samples": 400.7}, "samples"),
        ("farthest", {"set": EUCLID_PAIR, "viewpoint": [0.0, 2.0], "tol": "0.5"}, "tol"),
        ("farthest", {"set": EUCLID_PAIR, "viewpoint": [0.0, 2.0], "tol": True}, "tol"),
        ("center", {**EUCLID_PAIR, "norm": {"dim": 2.5, "family": {"pnorm": 2}}}, "norm"),
        ("center", {**EUCLID_PAIR, "norm": {"dim": 2, "family": {"pnorm": True}}}, "norm"),
        ("ccf-verify", {**L1_WITNESS, "set": 5}, "set"),
        # Norm objects that decode to no NormSpec.
        ("center", {**EUCLID_PAIR, "norm": {"dim": 2}}, "norm"),
        ("center", {**EUCLID_PAIR, "norm": {"dim": 0, "family": {"pnorm": 2}}}, "norm"),
        ("center", {**EUCLID_PAIR, "norm": {"dim": 2, "family": 5}}, "norm"),
        ("center", {**EUCLID_PAIR, "norm": {"dim": 2, "family": {"pnorm": 2, "sup_plus_wl2": [1.0, 1.0]}}}, "norm"),
        ("center", {**EUCLID_PAIR, "norm": {"dim": 2, "family": {"sum": []}}}, "norm"),
    ])
    def test_bad_input_key_exit_two(self, capsys, command, payload, key):
        code, out, err = run(capsys, command, "--input", json.dumps(payload))
        assert code == 2
        assert out == ""
        assert repr(key) in err

    # Array entries are JSON numbers only: a boolean or a numeric string is
    # rejected, not read as 1.0 or 0.0, at any depth.
    @pytest.mark.parametrize("command, payload, keys", [
        ("farthest", {"set": {**EUCLID_PAIR, "points": [[True, "0"], [-1, 0]]}, "viewpoint": ["0", True]},
         ["set", "points"]),
        ("center", {**EUCLID_PAIR, "points": [[1.0, 0.0], [-1.0, False]]}, ["points"]),
        ("center", {**EUCLID_PAIR, "points": [[1.0, 0.0], ["-1", 0.0]]}, ["points"]),
        ("ccf-verify", {**L1_WITNESS, "viewpoint": [0.0, True]}, ["viewpoint"]),
        ("ccf-verify", {**L1_WITNESS, "viewpoint": ["0.0", 0.0]}, ["viewpoint"]),
        ("cap-check", {**CAP_INPUT, "u": [True, 0.0]}, ["u"]),
        ("cap-check", {**CAP_INPUT, "u": ["1", 0.0]}, ["u"]),
    ])
    def test_non_number_array_entry_exit_two(self, capsys, command, payload, keys):
        code, out, err = run(capsys, command, "--input", json.dumps(payload))
        assert code == 2
        assert out == ""
        assert "expected float" in err
        assert all(repr(key) in err for key in keys)

    def test_farthest_viewpoint_of_wrong_length_names_viewpoint(self, capsys):
        query = {"set": EUCLID_PAIR, "viewpoint": [0.0, 2.0, 1.0]}
        code, out, err = run(capsys, "farthest", "--input", json.dumps(query))
        assert code == 2
        assert out == ""
        assert "viewpoint must be a 1-axis array of dimension 2, got shape (3,)" in err

    def test_flat_dim_one_point_list_exit_two(self, capsys):
        flat = {"norm": {"dim": 1, "family": {"pnorm": 2}}, "points": [0.0, 1.0, 3.0]}
        code, out, err = run(capsys, "center", "--input", json.dumps(flat))
        assert code == 2
        assert out == ""
        assert "points must be a 2-axis array of dimension 1" in err
        nested = {**flat, "points": [[0.0], [1.0], [3.0]]}
        assert run(capsys, "center", "--input", json.dumps(nested))[0] == 0

    @pytest.mark.parametrize("key, value", [("center_tol", 0.0), ("farthest_tol", -1e-9)])
    def test_nonpositive_witness_tolerance_exit_two(self, capsys, key, value):
        code, out, err = run(capsys, "ccf-verify", "--input", json.dumps({**L1_WITNESS, key: value}))
        assert code == 2
        assert out == ""
        assert "tolerances must be positive" in err

    @pytest.mark.parametrize("index", [3, -1])
    def test_center_index_out_of_range_exit_two(self, capsys, index):
        code, out, err = run(capsys, "ccf-verify", "--input", json.dumps({**L1_WITNESS, "center_index": index}))
        assert code == 2
        assert out == ""
        assert f"center_index {index} out of range" in err

    @pytest.mark.parametrize("max_iters", ["0", "-5"])
    def test_nonpositive_max_iters_exit_two(self, capsys, max_iters):
        code, out, err = run(capsys, "center", "--input", json.dumps(EUCLID_PAIR), "--max-iters", max_iters)
        assert code == 2
        assert out == ""
        assert "max_iters must be at least 1" in err

    @pytest.mark.parametrize("missing", ["p", "weights"])
    @pytest.mark.parametrize("command", ["center", "scan"])
    def test_wlp_norm_missing_key_exit_two(self, capsys, command, missing):
        family = {"wlp": {k: v for k, v in {"p": 3, "weights": [2.0, 0.5]}.items() if k != missing}}
        norm = {"dim": 2, "family": family}
        payload = {"norm": norm, "points": [[0.0, 0.0], [1.0, 0.0]]} if command == "center" else {"norm": norm}
        code, _, err = run(capsys, command, "--input", json.dumps(payload))
        assert code == 2
        assert repr(missing) in err

    # Parameters whose powers leave the float range exit 2 and name the flag,
    # rather than raising OverflowError (exit 1, the code of a negative verdict).
    @pytest.mark.parametrize("argv, names", [
        (["ap-witness", "--p", "155"], ("p = 155.0", "t = 100.0")),
        (["ap-witness", "--p", "1.0001"], ("p = 1.0001",)),
        (["ap-witness", "--p", "1.5", "--t", "1e250"], ("p = 1.5", "t = 1e+250")),
        (["embedding", "--p", "1.0001"], ("p = 1.0001",)),
    ], ids=lambda v: " ".join(v) if isinstance(v, list) else "")
    def test_reproduction_parameter_beyond_float_range_exit_two(self, capsys, argv, names):
        code, out, err = run(capsys, "reproduce", *argv)
        assert code == 2
        assert out == ""
        assert "leaves the float range" in err
        assert all(name in err for name in names)

    @settings(derandomize=True, max_examples=25, deadline=None)
    @given(p=st.floats(1.0001, 400.0), t=st.floats(1.5, 1e300))
    def test_ap_witness_parameters_end_in_an_exit_code(self, p, t):
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main(["reproduce", "ap-witness", "--p", repr(p), "--t", repr(t)])
        assert code in (0, 1, 2, 3)


class TestArtifacts:
    def test_output_dir_created_and_atomic(self, tmp_path, capsys):
        out_file = tmp_path / "made" / "by" / "cli" / "result.json"
        code, _, _ = run(capsys, "center", "--input", json.dumps(EUCLID_PAIR), "--output", str(out_file))
        assert code == 0
        assert out_file.exists()
        assert not list(out_file.parent.glob("*.tmp"))

    def test_input_file_not_mutated(self, tmp_path, capsys):
        in_file = tmp_path / "input.json"
        text = json.dumps(EUCLID_PAIR, indent=1)
        in_file.write_text(text)
        code, _, _ = run(capsys, "center", "--input", str(in_file))
        assert code == 0
        assert in_file.read_text() == text

    def test_center_json_round_trips(self, capsys):
        code, out, _ = run(capsys, "center", "--input", json.dumps(EUCLID_PAIR))
        payload = json.loads(out)
        rebuilt = CenterResult.from_dict(payload)
        assert CenterResult.from_dict(rebuilt.to_dict()) == rebuilt

    def test_farthest_round_trips(self, capsys):
        query = {"set": EUCLID_PAIR, "viewpoint": [0.0, 2.0]}
        code, out, _ = run(capsys, "farthest", "--input", json.dumps(query))
        assert code == 0
        fq = FarthestQuery.from_dict(json.loads(out))
        assert fq.achievers == (0, 1)

    def test_verdict_round_trips(self, capsys):
        _, out, _ = run(capsys, "ccf-verify", "--input", json.dumps(L1_WITNESS))
        verdict = WitnessVerdict.from_dict(json.loads(out))
        assert verdict.confirmed

    def test_scan_csv_format(self, tmp_path, capsys):
        scan_input = {
            "norm": norm_to_dict(pnorm(2, 2)),
            "z_count": 2,
            "t_grid": [0.5, 1.0],
            "samples": 400,
        }
        out_file = tmp_path / "scan.csv"
        code, _, _ = run(
            capsys, "scan", "--input", json.dumps(scan_input),
            "--format", "csv", "--output", str(out_file),
        )
        assert code == 0
        lines = out_file.read_text().strip().split("\n")
        assert lines[0] == "z_1,z_2,t,r_hat,ratio,samples,accept_ratio"
        assert len(lines) == 5

    def test_scan_deterministic_bytes(self, capsys):
        scan_input = {
            "norm": norm_to_dict(pnorm(2, 2)),
            "z_count": 2,
            "t_grid": [0.5],
            "samples": 400,
        }
        _, out1, _ = run(capsys, "scan", "--input", json.dumps(scan_input), "--seed", "3")
        _, out2, _ = run(capsys, "scan", "--input", json.dumps(scan_input), "--seed", "3")
        assert out1 == out2

    def test_cap_check_pass_and_fail_codes(self, capsys):
        good = {"norm": norm_to_dict(pnorm(2, 4)), "u": [1.0, 0.0], "v": [0.0, 1.0]}
        code, out, _ = run(capsys, "cap-check", "--input", json.dumps(good))
        assert code == 0
        assert json.loads(out)["contained"] is True


# The witness workload's warm-up set.
SMALL_L1 = {"norm": {"dim": 2, "family": {"pnorm": 1.0}}, "points": [[0.0, 0.0], [1.0, 0.5], [0.2, 1.0]]}


def _benchmark_argv():
    """Every request the benchmark's witness workload passes to cli.main, with
    the exit code it gets: the requests of a full and of a tiny pass made from
    seed 7, built by perfbench/workloads.py and each exiting 0, and the
    warm-up's center request on a small witness set, which exits 3."""
    rows = [pytest.param(["center", "--input", json.dumps(SMALL_L1), "--max-iters", "20", "--starts", "1"], 3,
                         id="center --max-iters 20 --starts 1")]
    for tiny in (False, True):
        for req in workloads.witness_requests(7, tiny):
            argv = req["argv"]
            name = req["label"] + " tiny" * tiny if argv[1:2] == ["--input"] else " ".join(argv)
            rows.append(pytest.param(argv, 0, id=name))
    return rows


def _argv_id(argv):
    """The argv with any inline JSON input left out."""
    return " ".join(argv[:1] + argv[3:] if argv[1:2] == ["--input"] else argv)


SCAN_INPUT = {"norm": norm_to_dict(pnorm(2, 2)), "z_count": 1, "t_grid": [0.5], "samples": 400}


class TestFlags:
    @pytest.mark.parametrize("argv, code", _benchmark_argv())
    def test_benchmark_argv_keeps_exit_code(self, capsys, argv, code):
        assert run(capsys, *argv)[0] == code

    @pytest.mark.parametrize("argv", [
        ["center", "--input", json.dumps(EUCLID_PAIR), "--samples", "10"],
        ["scan", "--input", json.dumps(SCAN_INPUT), "--samples", "10"],
        ["cap-check", "--input", json.dumps(CAP_INPUT), "--samples", "10"],
        ["center", "--input", json.dumps(EUCLID_PAIR), "--format", "json"],
        ["reproduce", "sp-grid", "--format", "json"],
        ["farthest", "--input", json.dumps({"set": EUCLID_PAIR, "viewpoint": [0.0, 2.0]}), "--max-iters", "5"],
        ["cap-check", "--input", json.dumps(CAP_INPUT), "--max-iters", "5"],
        ["farthest", "--input", json.dumps({"set": EUCLID_PAIR, "viewpoint": [0.0, 2.0]}), "--tol", "achiever=1e-3"],
        ["scan", "--input", json.dumps(SCAN_INPUT), "--starts", "1"],
        ["ccf-verify", "--input", json.dumps(L1_WITNESS), "--tol", "center=1e-3"],
        ["ccf-verify", "--input", json.dumps(L1_WITNESS), "--tol", "farthest=1e-3"],
        ["center", "--input", json.dumps(EUCLID_PAIR), "--tol", "cap=1e-3"],
        ["cap-check", "--input", json.dumps(CAP_INPUT), "--tol", "solver=1e-3"],
        ["center", "--input", json.dumps(EUCLID_PAIR), "--tol", "solver"],
        ["center", "--input", json.dumps(EUCLID_PAIR), "--tol", "solver=tight"],
        # The solver takes no tolerance: --tol solver= is gone from every command.
        ["center", "--input", json.dumps(EUCLID_PAIR), "--tol", "solver=1e-3"],
        ["center", "--input", json.dumps(EUCLID_PAIR), "--tol", "solver=inf"],
        ["center", "--input", json.dumps(EUCLID_PAIR), "--tol", "solver=-inf"],
        ["ccf-verify", "--input", json.dumps(L1_WITNESS), "--tol", "solver=1e-3"],
        ["scan", "--input", json.dumps(SCAN_INPUT), "--tol", "solver=1e-3"],
        ["reproduce", "all", "--tol", "solver=1e-3"],
        # Each reproduce target takes only its own flags.
        ["reproduce", "sp-grid", "--p", "4"],
        ["reproduce", "sp-grid", "--max-iters", "5"],
        ["reproduce", "finite-dim", "--trunc", "5"],
        ["reproduce", "c0", "--n", "4"],
        ["reproduce", "ap-witness", "--weights", "1,2,3"],
        ["reproduce", "embedding", "--t", "50"],
        ["reproduce", "all", "--n", "4"],
    ], ids=_argv_id)
    def test_removed_flag_or_tol_name_exits_two(self, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2

    def test_cap_tol_sets_tolerance(self, capsys):
        code, out, _ = run(capsys, "cap-check", "--input", json.dumps(CAP_INPUT), "--tol", "cap=0.5")
        assert code == 0
        assert json.loads(out)["tolerance"] == 0.5

    @pytest.mark.parametrize("argv", [
        ["cap-check", "--input", json.dumps(CAP_INPUT), "--tol", "cap=nan"],
        ["cap-check", "--input", json.dumps(CAP_INPUT), "--tol", "cap=abc"],
    ], ids=_argv_id)
    def test_non_finite_tol_exits_two(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "not a finite number" in capsys.readouterr().err


# The Euclidean plane has no CCF set, so this witness is refuted; infinite
# tolerances would let it pass both checks.
EUCLID_TRIPLE_WITNESS = {
    "set": {"norm": {"dim": 2, "family": {"pnorm": 2}}, "points": [[1, 0], [0, 1], [0.2, 0.2]]},
    "center_index": 2,
    "viewpoint": [-5, -5],
}


class TestStandardJson:
    """The CLI reads standard JSON only: NaN, Infinity and -Infinity exit 2."""

    def test_infinite_witness_tolerances_exit_two(self, capsys):
        assert run(capsys, "ccf-verify", "--input", json.dumps(EUCLID_TRIPLE_WITNESS))[0] == 1
        text = json.dumps(EUCLID_TRIPLE_WITNESS)[:-1] + ', "center_tol": Infinity, "farthest_tol": Infinity}'
        code, out, err = run(capsys, "ccf-verify", "--input", text)
        assert code == 2
        assert out == ""
        assert "Infinity in <inline> is not standard JSON" in err

    def test_infinite_farthest_tol_exit_two(self, capsys):
        text = json.dumps({"set": EUCLID_PAIR, "viewpoint": [0.0, 2.0]})[:-1] + ', "tol": Infinity}'
        code, out, err = run(capsys, "farthest", "--input", text)
        assert code == 2
        assert out == ""
        assert "Infinity" in err

    @pytest.mark.parametrize("constant", ["NaN", "-Infinity"])
    def test_non_finite_point_entry_exit_two(self, tmp_path, capsys, constant):
        in_file = tmp_path / "set.json"
        in_file.write_text('{"norm": {"dim": 2, "family": {"pnorm": 2}}, "points": [[1, 0], [%s, 0]]}' % constant)
        code, out, err = run(capsys, "center", "--input", str(in_file))
        assert code == 2
        assert out == ""
        assert f"{constant} in {in_file} is not standard JSON" in err

    # A number beyond the float range exits 2 and names its key, rather than
    # raising OverflowError (an integer too large for a float) or being read
    # as infinity (a float literal that overflows).
    @pytest.mark.parametrize("command, text, key", [
        ("farthest", json.dumps({"set": EUCLID_PAIR, "viewpoint": [0.0, 2.0]})[:-1] + ', "tol": 1%s}' % ("0" * 400),
         "tol"),
        ("farthest", json.dumps({"set": EUCLID_PAIR, "viewpoint": [0.0, 2.0]})[:-1] + ', "tol": 1e999}', "tol"),
        ("center", json.dumps(EUCLID_PAIR).replace("-1.0", "-1%s" % ("0" * 400)), "points"),
        ("ccf-verify", json.dumps(L1_WITNESS)[:-1] + ', "center_tol": 1e999}', "center_tol"),
    ], ids=["farthest huge-int tol", "farthest 1e999 tol", "center huge-int point", "ccf-verify 1e999 center_tol"])
    def test_number_beyond_float_range_exit_two(self, capsys, command, text, key):
        code, out, err = run(capsys, command, "--input", text)
        assert code == 2
        assert out == ""
        assert repr(key) in err and "out of the finite float range" in err

    # A count beyond the int64 range exits 2 and names its key, rather than
    # reaching numpy, whose "Maximum allowed dimension exceeded" names none.
    @pytest.mark.parametrize("count", [10**400, 2**63], ids=["1e400", "2^63"])
    @pytest.mark.parametrize("command, payload, key", [
        ("scan", {"norm": norm_to_dict(pnorm(2, 2)), "z_count": 1, "t_grid": [0.5]}, "samples"),
        ("scan", {"norm": norm_to_dict(pnorm(2, 2)), "t_grid": [0.5], "samples": 400}, "z_count"),
        ("cap-check", CAP_INPUT, "samples"),
    ], ids=["scan samples", "scan z_count", "cap-check samples"])
    def test_count_beyond_int64_range_exit_two(self, capsys, command, payload, key, count):
        code, out, err = run(capsys, command, "--input", json.dumps({**payload, key: count}))
        assert code == 2
        assert out == ""
        assert f"key {key!r}: expected int, got a number out of the int64 range" in err

    # Distances beyond the float range exit 2 before anything is written,
    # rather than printing Infinity, NaN or a radius that underflowed to 0.
    # numpy warns where a distance overflows; pytest would raise the warning.
    @pytest.mark.parametrize("command, payload, overflows", [
        ("center", {"norm": {"dim": 2, "family": {"pnorm": 100}},
                    "points": [[2000.0, 0.0], [-2000.0, 0.0], [0.0, 2000.0]]}, True),
        ("center", {"norm": {"dim": 2, "family": {"pnorm": 100}},
                    "points": [[2e-5, 0.0], [-2e-5, 0.0], [0.0, 2e-5]]}, False),
        ("farthest", {"set": {"norm": {"dim": 2, "family": {"pnorm": 2}}, "points": [[1e200, 0.0], [0.0, 0.0]]},
                      "viewpoint": [-1e200, 0.0]}, True),
        ("ccf-verify", {"set": {"norm": {"dim": 2, "family": {"pnorm": 1}},
                                "points": [[1e308, 0.0], [0.0, 1e308], [5e307, 5e307]]},
                        "center_index": 2, "viewpoint": [-1e308, -1e308]}, True),
    ], ids=["center overflow", "center underflow", "farthest overflow", "ccf-verify overflow"])
    def test_result_beyond_float_range_exit_two(self, tmp_path, capsys, command, payload, overflows):
        out_file = tmp_path / "out.json"
        with pytest.warns(RuntimeWarning) if overflows else contextlib.nullcontext():
            code, out, err = run(capsys, command, "--input", json.dumps(payload))
            assert run(capsys, command, "--input", json.dumps(payload), "--output", str(out_file))[0] == 2
        assert code == 2
        assert out == ""
        assert "left the float range" in err
        assert not out_file.exists()


class TestModuleEntryPoint:
    """``python -m ccflab`` is ``cli.main`` in a process of its own."""

    @staticmethod
    def _run_module(*argv):
        src = str(Path(ccflab.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        return subprocess.run([sys.executable, "-m", "ccflab", *argv], env=env, capture_output=True,
                              text=True, timeout=60)

    def test_same_bytes_and_exit_code_as_main(self, capsys):
        argv = ["farthest", "--input", json.dumps({"set": SMALL_L1, "viewpoint": [2.0, 2.0]})]
        code, out, _ = run(capsys, *argv)
        done = self._run_module(*argv)
        assert code == 0
        assert (done.returncode, done.stdout) == (code, out)

    def test_malformed_input_exit_two(self):
        done = self._run_module("farthest", "--input", '{"set": {"norm": ')
        assert done.returncode == 2
        assert done.stdout == ""
        assert "malformed JSON in <inline>" in done.stderr


# The spans perfbench/run.py reads in layer_metrics and OBSERVERS.  Its tracer
# times each public function of a layer (the names in its __all__, and
# cli.main), so a span whose function leaves __all__ silently reads zero.
# The layers call the norm kernels, not eval_norm / norm_subgradient, so the
# norms.* spans see only callers outside the package and read about 0 on
# the scan and witness workloads.
BENCHMARK_SPANS = (
    "norms.eval_norm", "norms.norm_subgradient", "sampling.rejection_sample_two_balls",
    "sets.outer_radius", "sets.farthest_set", "sets.diameter",
    "solver.chebyshev_center", "solver.symmetric_line_minimize",
    "ccf.estimate_r_tz", "ccf.verify_ccf_witness", "ccf.ccnf_scan", "cli.main",
)


# Exit code and SHA-256 of stdout and stderr of every request of the
# benchmark's seed-1 witness pass, in order, as the code before the solver
# screened its working-set rounds wrote them.  A change that claims the
# witness outputs byte-identical keeps this file as it is.
WITNESS_DIGESTS = json.loads((Path(__file__).with_name("golden") / "witness_requests_seed1.json").read_text())


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class TestBenchmarkContract:
    def test_witness_digests_cover_every_request(self):
        assert [row["label"] for row in WITNESS_DIGESTS] == [req["label"] for req in workloads.witness_requests(1)]

    @pytest.mark.parametrize("index", range(len(WITNESS_DIGESTS)), ids=[row["label"] for row in WITNESS_DIGESTS])
    def test_witness_request_bytes(self, capsys, index):
        code, out, err = run(capsys, *workloads.witness_requests(1)[index]["argv"])
        assert WITNESS_DIGESTS[index] == {
            "label": WITNESS_DIGESTS[index]["label"],
            "exit": code,
            "stdout_sha256": _sha256(out),
            "stderr_sha256": _sha256(err),
        }

    @pytest.mark.parametrize("span", BENCHMARK_SPANS)
    def test_traced_span_is_a_public_function(self, span):
        layer, name = span.split(".")
        module = importlib.import_module(f"ccflab.{layer}")
        fn = getattr(module, name)
        assert isinstance(fn, types.FunctionType)
        assert fn.__module__ == module.__name__
        assert layer == "cli" or name in module.__all__

    def test_scan_result_takes_benchmark_keywords(self):
        # perfbench/workloads.py rebuilds a ScanResult from the rows of several scans.
        scan = ccnf_scan(pnorm(2, 2), 1, (0.5,), 400)
        union = ccflab.ccf.ScanResult(
            norm=scan.norm, rows=scan.rows, t_grid=scan.t_grid, samples=scan.samples, seed=0,
            ccnf_threshold=ccflab.ccf.CCNF_EVIDENCE_MAX_RATIO, ccf_threshold=ccflab.ccf.CCF_SIGNAL_MIN_RATIO,
        )
        assert union == scan

    def test_sampler_result_is_what_the_benchmark_counts(self):
        # perfbench/run.py's tracer wraps the sampler, and its observer unpacks
        # the result as (points, accepted, proposals).
        observe = importlib.import_module("run")._observe_sampler
        body = ccflab.TwoBallSet(c=[1.0, 0.0], r=0.5, y=[0.0, 0.0], R=1.0, norm=pnorm(2, 3))
        result = rejection_sample_two_balls(body, 400, rng_stream(0, "observed"))
        counters = collections.Counter()
        observe(counters, (body, 400), {}, result)
        assert counters == {"sampling.accepted": len(result[0]), "sampling.proposals": 400}

    def test_benchmark_selftest_passes(self):
        # perfbench/run.py records scipy's version in each run's environment.
        pytest.importorskip("scipy", reason="perfbench/run.py imports scipy")
        done = subprocess.run([sys.executable, "perfbench/selftest.py"], cwd=REPO_ROOT,
                              capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stdout + done.stderr

    def test_library_names_benchmark_calls(self):
        for name in ("pnorm", "ccnf_scan", "PointSet", "brute_force_center"):
            assert name in ccflab.__all__
        assert ccflab.norms.linf_lower_constant(pnorm(2, 2)) == 1.0

    def test_package_exports_every_layer_name_once(self):
        layers = ("norms", "sets", "solver", "ccf", "reproductions")
        names = [name for layer in layers for name in getattr(ccflab, layer).__all__]
        assert ccflab.__all__ == names
        assert len(set(names)) == len(names)
        assert all(hasattr(ccflab, name) for name in names)


class TestReproduceCommand:
    def test_finite_dim_target(self, capsys):
        code, out, _ = run(capsys, "reproduce", "finite-dim", "--n", "3")
        assert code == 0
        assert json.loads(out)["overall"] is True

    def test_ap_witness_target(self, capsys):
        code, out, _ = run(capsys, "reproduce", "ap-witness", "--p", "4", "--t", "100")
        assert code == 0

    def test_c0_target_writes_report(self, tmp_path, capsys):
        out_file = tmp_path / "c0.json"
        code, _, _ = run(capsys, "reproduce", "c0", "--trunc", "5", "--output", str(out_file))
        assert code == 0
        assert json.loads(out_file.read_text())["overall"] is True

    @pytest.mark.parametrize("argv, message", [
        (["ap-witness", "--t", "1"], "requires t > 1, got 1.0"),
        (["embedding", "--weights", "1,-2,3"], "weighted p-norm weights must all be positive"),
        (["embedding", "--p", "1"], "weighted p-norm requires 1 < p < inf, got 1.0"),
        (["ap-witness", "--p", "inf"], "requires p in (1,2) or (2,inf), got inf"),
    ], ids=" ".join)
    def test_bad_target_argument_exit_two(self, capsys, argv, message):
        code, out, err = run(capsys, "reproduce", *argv)
        assert code == 2
        assert out == ""
        assert message in err


def light_scan(norm, z_count, t_grid, samples, *, seed, max_iters):
    """``ccnf_scan`` below the reference density of ``reproduce all``: 6
    directions, t in (0.5, 0.8) and 2500 proposals per cell."""
    return ccnf_scan(norm, 6, (0.5, 0.8), 2500, seed=seed, max_iters=max_iters)


# SHA-256 of every file that `reproduce all --seed 0 --output` writes, as
# the kernels that reduced long narrow batches column by column wrote them.
# A change that claims the battery's output byte-identical keeps this file.
REPRODUCE_ALL_DIGESTS = json.loads((Path(__file__).with_name("golden") / "reproduce_all_seed0.json").read_text())


class TestReproduceAll:
    def test_seed_zero_output_bytes(self, tmp_path, capsys):
        code, out, _ = run(capsys, "reproduce", "all", "--seed", "0", "--output", str(tmp_path))
        assert code == 0 and out == ""
        written = sorted(p for p in tmp_path.rglob("*") if p.is_file())
        digests = {p.relative_to(tmp_path).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest() for p in written}
        assert digests == REPRODUCE_ALL_DIGESTS

    def test_help_describes_the_output_directory(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["reproduce", "all", "--help"])
        assert exc.value.code == 0
        out = " ".join(capsys.readouterr().out.split())
        assert ("--output OUTPUT directory for reports/, the scan CSVs and summary.md"
                " (default: the summary to stdout)") in out
        assert "output path" not in out

    def test_light_battery_and_seed_stability(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "ccnf_scan", light_scan)
        out_dir = tmp_path / "nested" / "out0"
        reports0, scans0, summary0 = reproduce_all(seed=0, out_dir=out_dir)
        reports1, scans1, _ = reproduce_all(seed=1)

        # all benchmark reports pass, and the pass/fail pattern is seed-stable
        assert all(r.overall for r in reports0)
        assert [r.overall for r in reports0] == [r.overall for r in reports1]

        # the l1 scan flags near-t cells; the Euclidean scan stays clearly below
        for scans in (scans0, scans1):
            assert list(scans) == ["l2", "l3", "l1"]
            assert scans["l2"].verdict == "ccnf-evidence"
            assert scans["l1"].max_ratio >= 0.99
            assert scans["l3"].max_ratio < 1.0

        # the summary tables every report, none failing
        assert summary0.startswith("| report | parameters | checks passed | overall |\n")
        assert all(f"| {r.name} |" in summary0 for r in reports0)
        assert "FAIL" not in summary0

        # artifacts written, out_dir created two levels down
        assert (out_dir / "summary.md").read_text() == summary0
        for label, scan in scans0.items():
            assert (out_dir / f"scan_{label}.csv").read_text() == scan.to_csv()
        names = ["finite-dim"] * 3 + ["c0-truncated", "sp-grid"] + ["ap-witness"] * 3 + ["embedding"]
        paths = sorted((out_dir / "reports").iterdir())
        assert [p.name for p in paths] == [f"{i:02d}_{name}.json" for i, name in enumerate(names)]
        for path, report in zip(paths, reports0):
            data = json.loads(path.read_text())
            assert data["overall"] is True
            assert ExampleReport.from_dict(data) == report

    def test_max_iters_reaches_every_solve(self, monkeypatch):
        scans, densities = [], []

        def recording_scan(*args, **kwargs):
            densities.append(args[1:])
            scans.append(light_scan(*args, **kwargs))
            return scans[-1]

        monkeypatch.setattr(cli, "ccnf_scan", recording_scan)
        reports, _, _ = reproduce_all(max_iters=1)
        assert not all(r.overall for r in reports)
        # the reference scans, which light_scan thins out
        assert densities == [(12, (0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0), 20000)] * 3
        for scan in scans:
            assert all("solver_not_converged" in row.flags for row in scan.rows)

    def test_cli_passes_solver_flags(self, monkeypatch, capsys):
        seen = {}

        def fake_reproduce_all(**kwargs):
            seen.update(kwargs)
            return [], [], ""

        monkeypatch.setattr(cli, "reproduce_all", fake_reproduce_all)
        code, _, _ = run(capsys, "reproduce", "all", "--max-iters", "1")
        assert code == 0
        assert seen["max_iters"] == 1


class TestSolverLog:
    def test_ccf_verify_logs_its_start_certificate(self, capsys, caplog):
        # The lp^3 witness at p = 3: the claimed center (s_p, s_p, s_p) ties
        # the three unit vectors and closes the solve before the first cut.
        _, _, points, viewpoint = reproductions._lp3_witness(3.0, 100.0)
        witness = {"set": {"norm": norm_to_dict(pnorm(3, 3)), "points": points.tolist()},
                   "center_index": 3, "viewpoint": viewpoint.tolist()}
        argv = ("ccf-verify", "--input", json.dumps(witness))
        plain = run(capsys, *argv)
        caplog.set_level(logging.DEBUG, logger="ccflab")
        assert run(capsys, *argv) == plain and plain[0] == 0  # the record stays out of the payload
        (record,) = caplog.records
        assert record.name == "ccflab" and record.levelno == logging.DEBUG
        assert record.getMessage().startswith("start certificate: 3 tied points, 3 weights, |rho| ")
        assert record.getMessage().endswith(", closed True")


class TestImportFootprint:
    def test_import_loads_no_scipy(self):
        src = str(Path(ccflab.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        probe = "import sys, ccflab, ccflab.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
        assert done.stdout.strip() == "[]"
