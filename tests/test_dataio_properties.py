"""Property tests for the dataset readers: a truncated or corrupted file
fails only with the toolkit's own one-line errors, never a traceback of
some other type, and any finite record round-trips bit for bit."""

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gauss_tomo import (
    AngleProtocol,
    CovMat,
    DataFormatError,
    DetectionModel,
    StateSpec,
    UnknownScheme,
    read_dataset,
    sample_heterodyne,
    sample_homodyne,
    thermalize_heterodyne,
    verify_file,
    wigner_cov,
    write_dataset,
)
from gauss_tomo.sampling import HeterodyneDataset

G_W = wigner_cov(StateSpec(2.0, 3.0, 0.5))
DET = DetectionModel(0.9, CovMat(0.01, 0.0, 0.02))
# derandomized and without an example database, so every run draws the same cases
SETTINGS = settings(max_examples=300, deadline=None, derandomize=True, database=None)


def _write_all():
    datasets = {
        "hom": sample_homodyne(G_W, DET, AngleProtocol(4, 0.11), 3, 12),
        # thermalized, so the header also carries the "thermalized" field
        "het": thermalize_heterodyne(sample_heterodyne(G_W, DET, 6, 13), 5),
    }
    files = {}
    with tempfile.TemporaryDirectory() as d:
        for scheme, dataset in datasets.items():
            for fmt in ("csv", "bin"):
                path = Path(d) / f"{scheme}.{fmt}"
                write_dataset(path, dataset, fmt)
                files[f"{scheme}.{fmt}"] = path.read_bytes()
    return files


FILES = _write_all()


@pytest.fixture(scope="module")
def path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "d"


def _assert_fails_cleanly(path):
    """read_dataset and verify_file either succeed or raise a one-line
    DataFormatError/UnknownScheme; verify may also report a mismatch."""
    for call in (read_dataset, verify_file):
        try:
            result = call(path)
        except (DataFormatError, UnknownScheme) as exc:
            assert "\n" not in str(exc)
        else:
            if call is verify_file:
                ok, message = result
                assert isinstance(ok, bool) and "\n" not in message


def _name_and_offset(draw_extra):
    return st.sampled_from(sorted(FILES)).flatmap(
        lambda name: st.tuples(st.just(name), st.integers(0, len(FILES[name]) - 1), draw_extra)
    )


def test_fixtures_are_valid(path):
    for raw in FILES.values():
        path.write_bytes(raw)
        read_dataset(path)
        assert verify_file(path)[0]


@SETTINGS
@given(_name_and_offset(st.just(None)))
def test_truncation_fails_cleanly(path, case):
    name, cut, _ = case
    path.write_bytes(FILES[name][:cut])
    _assert_fails_cleanly(path)


@SETTINGS
@given(_name_and_offset(st.integers(1, 255)))
def test_byte_flip_fails_cleanly(path, case):
    name, at, mask = case
    raw = bytearray(FILES[name])
    raw[at] ^= mask
    path.write_bytes(bytes(raw))
    _assert_fails_cleanly(path)


_FINITE = st.floats(allow_nan=False, allow_infinity=False)


@settings(SETTINGS, max_examples=100)
@given(st.lists(st.tuples(_FINITE, _FINITE), min_size=1, max_size=20), st.sampled_from(["csv", "bin"]))
def test_finite_pairs_round_trip_bit_for_bit(path, pairs, fmt):
    meta = {"scheme": "het", "seed": 0, "eta": 1.0}
    write_dataset(path, HeterodyneDataset(np.array(pairs, dtype=float), dict(meta)), fmt)
    back = read_dataset(path)
    assert back.pairs.tobytes() == np.array(pairs, dtype=float).tobytes()
    assert back.meta == meta
    assert verify_file(path)[0]
