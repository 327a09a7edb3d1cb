"""The record codec: JSON keys derived from the dataclass fields, and JSON
scalars checked by type rather than coerced."""

import dataclasses

import pytest

from ccflab.cli import CapInput  # also defines the other CLI input records
from ccflab.codec import Record, _schema
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
