"""The record codec: JSON keys derived from the dataclass fields, JSON
scalars and array entries checked by type rather than coerced, and the one
JSON and CSV writers."""

import dataclasses
import os

import numpy as np
import pytest

from ccflab import PointSet, ccnf_scan, pnorm
from ccflab.cli import CapInput, ScanInput  # importing cli defines every CLI input record
from ccflab.codec import Record, _schema, csv_text, write_text
from ccflab.reproductions import Check
from ccflab.sets import FarthestQuery


def _records(cls=Record):
    for sub in cls.__subclasses__():
        yield sub
        yield from _records(sub)


RECORDS = sorted(_records(), key=lambda cls: cls.__name__)


def test_every_record_is_collected():
    assert len(RECORDS) >= 14


# A record that lists its keys by hand must still read and write every field,
# once, under one key each.
@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_keys_cover_each_field_once(cls):
    schema = _schema(cls)
    keys = [key for key, _, _, _ in schema]
    attrs = [attr for _, attr, _, _ in schema]
    assert len(set(keys)) == len(keys)
    for f in dataclasses.fields(cls):
        assert attrs.count(f.name) == 1, f.name


def test_keys_default_to_fields_in_order():
    payload = CapInput.from_dict({"norm": {"dim": 2, "family": {"pnorm": 2}}, "u": [1, 0], "v": [0, 1]}).to_dict()
    assert list(payload) == ["norm", "u", "v", "samples"]


@pytest.mark.parametrize("cls, obj, key", [
    (FarthestQuery, {"viewpoint": [0.0], "radius": "1", "achievers": [0], "tolerance": 1e-9}, "radius"),
    (FarthestQuery, {"viewpoint": [0.0], "radius": 1.0, "achievers": [True], "tolerance": 1e-9}, "achievers"),
    (FarthestQuery, {"viewpoint": [0.0], "radius": 1.0, "achievers": [0.0], "tolerance": 1e-9}, "achievers"),
    (Check, {"description": "d", "expected": "e", "observed": 1.5, "passed": True}, "observed"),
    (Check, {"description": "d", "expected": "e", "observed": "o", "passed": 1}, "passed"),
])
def test_wrong_typed_scalar_names_its_key(cls, obj, key):
    with pytest.raises(ValueError, match=f"key {key!r}: expected"):
        cls.from_dict(obj)


def test_integer_accepted_for_float_field():
    fq = FarthestQuery.from_dict({"viewpoint": [0.0], "radius": 1, "achievers": [0], "tolerance": 1e-9})
    assert type(fq.radius) is float and fq.radius == 1.0


L2 = {"dim": 2, "family": {"pnorm": 2}}


@pytest.mark.parametrize("cls, obj, key", [
    (FarthestQuery, {"viewpoint": [True], "radius": 1.0, "achievers": [0], "tolerance": 1e-9}, "viewpoint"),
    (FarthestQuery, {"viewpoint": ["0.5"], "radius": 1.0, "achievers": [0], "tolerance": 1e-9}, "viewpoint"),
    (PointSet, {"norm": L2, "points": [[0.0, 1.0], [False, 0.0]]}, "points"),
    (PointSet, {"norm": L2, "points": [[0.0, 1.0], [1.0, "0"]]}, "points"),
    (PointSet, {"norm": L2, "points": [[0.0, 1.0], [None, 0.0]]}, "points"),
])
def test_array_entry_must_be_a_number(cls, obj, key):
    with pytest.raises(ValueError, match=f"key {key!r}: expected float, got"):
        cls.from_dict(obj)


# A number beyond the float range is rejected, not rounded to infinity: an
# integer too large for a float, and a float literal such as 1e999 that
# json.loads reads as inf.  p = inf is written as the string "inf".
@pytest.mark.parametrize("cls, obj, key", [
    (FarthestQuery, {"viewpoint": [0.0], "radius": 10**400, "achievers": [0], "tolerance": 1e-9}, "radius"),
    (FarthestQuery, {"viewpoint": [0.0], "radius": 1.0, "achievers": [0], "tolerance": float("inf")}, "tolerance"),
    (PointSet, {"norm": L2, "points": [[0.0, 1.0], [10**400, 0.0]]}, "points"),
    (PointSet, {"norm": L2, "points": [[0.0, 1.0], [-float("inf"), 0.0]]}, "points"),
    (PointSet, {"norm": {"dim": 2, "family": {"pnorm": float("inf")}}, "points": [[0.0, 1.0]]}, "norm"),
])
def test_number_beyond_float_range_names_its_key(cls, obj, key):
    with pytest.raises(ValueError, match=f"key {key!r}: expected float, got a number out of the finite float range"):
        cls.from_dict(obj)


# An integer field takes the int64 range and nothing beyond it, so a count
# too large for numpy is rejected under its key.
@pytest.mark.parametrize("key, value", [
    ("samples", 10**400), ("samples", 2**63), ("z_count", 10**400), ("z_count", 2**63), ("z_count", -(2**63) - 1),
], ids=["samples 1e400", "samples 2^63", "z_count 1e400", "z_count 2^63", "z_count -2^63-1"])
def test_integer_beyond_int64_range_names_its_key(key, value):
    with pytest.raises(ValueError, match=f"ScanInput key {key!r}: expected int, got a number out of the int64 range"):
        ScanInput.from_dict({"norm": L2, key: value})


def test_integer_field_takes_the_int64_range():
    scan = ScanInput.from_dict({"norm": L2, "samples": 2**63 - 1, "z_count": -(2**63)})
    assert (scan.samples, scan.z_count) == (2**63 - 1, -(2**63))


def test_array_takes_integers():
    A = PointSet.from_dict({"norm": L2, "points": [[0, 1], [2, -3]]})
    assert A.points.dtype == float and A.points.tolist() == [[0.0, 1.0], [2.0, -3.0]]
    fq = FarthestQuery.from_dict({"viewpoint": [1, 0], "radius": 1.0, "achievers": [0], "tolerance": 1e-9})
    assert fq.viewpoint.tolist() == [1.0, 0.0]


def test_record_equality():
    a = FarthestQuery(np.array([0.0, 1.0]), 2.0, (0,), 1e-9)
    assert a == FarthestQuery(np.array([0.0, 1.0]), 2.0, (0,), 1e-9)
    assert a != FarthestQuery(np.array([0.0, 1.5]), 2.0, (0,), 1e-9)  # an array field differs
    assert a != FarthestQuery(np.array([0.0, 1.0]), 2.5, (0,), 1e-9)  # a scalar field differs
    assert a.__eq__("not a record") is NotImplemented
    assert a != "not a record"


def test_write_text_failure_leaves_target_and_no_temp_file(tmp_path, monkeypatch):
    target = tmp_path / "out.json"
    target.write_text("old\n")

    def failing_replace(src, dst):
        raise OSError("replace failed")

    monkeypatch.setattr(os, "replace", failing_replace)
    with pytest.raises(OSError, match="replace failed"):
        write_text(target, "new\n")
    assert target.read_text() == "old\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.json"]


def test_csv_text_cells():
    assert csv_text([["a", "b|c"], [0, 0.1, 1e-20, -2.5]]) == "a,b|c\n0,0.1,1e-20,-2.5\n"
    assert csv_text([]) == ""


# The bytes of the scan CSV, as written before it used csv_text.
SCAN_CSV = (
    "z_1,z_2,t,r_hat,ratio,samples,accept_ratio\n"
    "-0.5852130642474351,0.928155107619747,0.5,0.4433107350064404,0.8866214700128808,300,0.7166666666666667\n"
    "-0.5852130642474351,0.928155107619747,1.0,0.726191776570668,0.726191776570668,300,0.8266666666666667\n"
    "-0.9999987720153641,0.015444406298563756,0.5,0.4843952511974745,0.968790502394949,300,0.8333333333333334\n"
    "-0.9999987720153641,0.015444406298563756,1.0,0.9318416669082428,0.9318416669082428,300,0.8\n"
)
# The l1 scan, as written before its cells were sampled as TwoBallSet bodies;
# t = 1 puts the cell's second anchor (1 - t)z at the origin.
L1_SCAN_CSV = (
    "z_1,z_2,t,r_hat,ratio,samples,accept_ratio\n"
    "-0.38669576585940996,0.6133042341405901,0.4,0.39312138689688253,0.9828034672422062,300,0.27\n"
    "-0.38669576585940996,0.6133042341405901,1.0,0.8786144225576908,0.8786144225576908,300,0.37666666666666665\n"
    "-0.9847904770760211,0.015209522923978975,0.4,0.20748050122345033,0.5187012530586258,300,0.29333333333333333\n"
    "-0.9847904770760211,0.015209522923978975,1.0,0.5086829951244509,0.5086829951244509,300,0.2833333333333333\n"
)


def test_csv_artifact_bytes():
    assert ccnf_scan(pnorm(2, 3), 2, (0.5, 1.0), 300, seed=7).to_csv() == SCAN_CSV
    assert ccnf_scan(pnorm(2, 1), 2, (0.4, 1.0), 300, seed=7).to_csv() == L1_SCAN_CSV
