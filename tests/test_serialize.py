"""Binary field format."""

import numpy as np
import pytest

from affinebv import GridFunction, GridSpec
from affinebv.errors import GridError
from affinebv.serialize import read_afg, write_afg


def test_round_trip_bit_identical(tmp_path):
    spec = GridSpec(dim=2, shape=(8, 6), spacing=0.125, origin=(-1.0, 2.0))
    rng = np.random.default_rng(1)
    u = GridFunction(spec, rng.normal(size=spec.shape))
    path = tmp_path / "field.afg"
    write_afg(path, u)
    v = read_afg(path)
    assert v.spec == spec
    assert np.array_equal(v.values, u.values)


def test_round_trip_3d(tmp_path):
    spec = GridSpec(dim=3, shape=(4, 5, 6), spacing=0.25,
                    origin=(0.0, 0.0, 0.0))
    u = GridFunction(spec, np.arange(120, dtype=float).reshape(spec.shape))
    path = tmp_path / "field3.afg"
    write_afg(path, u)
    v = read_afg(path)
    assert v.spec == spec
    assert np.array_equal(v.values, u.values)


def test_magic_header(tmp_path):
    spec = GridSpec(dim=2, shape=(4, 4), spacing=1.0, origin=(0.0, 0.0))
    path = tmp_path / "field.afg"
    write_afg(path, GridFunction.zeros(spec))
    assert path.read_bytes()[:8] == b"AFGRID1\0"


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "junk.afg"
    path.write_bytes(b"NOTAGRID" + b"\0" * 64)
    with pytest.raises(GridError):
        read_afg(path)

