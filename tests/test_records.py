"""Record containers and file round-trips."""

import numpy as np
import pytest

from photodyne.numerics import RngStream, TimeGrid
from photodyne.records import (
    FLOAT_FMT,
    CountRecord,
    PhotocurrentRecord,
    load_count_record,
    load_photocurrent,
    read_table,
    save_count_record,
    save_photocurrent,
    write_table,
)


def test_count_record_basic():
    rec = CountRecord(np.array([0.5, 1.25, 3.0]), t0=0.0, t1=4.0)
    assert rec.n_events == 3
    assert rec.duration == pytest.approx(4.0)
    assert rec.rate() == pytest.approx(0.75)


def test_count_record_validation():
    with pytest.raises(ValueError):
        CountRecord(np.array([1.0, 0.5]), 0.0, 2.0)  # not increasing
    with pytest.raises(ValueError):
        CountRecord(np.array([1.0, 1.0]), 0.0, 2.0)  # ties forbidden
    with pytest.raises(ValueError):
        CountRecord(np.array([-0.1]), 0.0, 2.0)
    with pytest.raises(ValueError):
        CountRecord(np.array([2.5]), 0.0, 2.0)
    with pytest.raises(ValueError):
        CountRecord(np.array([]), 1.0, 0.0)
    # empty record in a valid window is fine
    assert CountRecord(np.array([]), 0.0, 1.0).n_events == 0


def test_count_record_round_trip(tmp_path):
    ts = np.sort(RngStream(3, 0).uniform(200)) * 9.0 + 0.5
    ts = np.unique(ts)
    rec = CountRecord(ts, t0=0.0, t1=10.0, meta={"source": "unit", "stream": "3"})
    path = tmp_path / "counts.txt"
    save_count_record(path, rec)
    back = load_count_record(path)
    assert np.array_equal(back.timestamps, rec.timestamps)  # 17 digits: exact
    assert back.t0 == rec.t0 and back.t1 == rec.t1
    assert back.meta["source"] == "unit"


def test_photocurrent_validation():
    grid = TimeGrid(0.0, 0.02, 100)
    with pytest.raises(ValueError):
        PhotocurrentRecord(grid, np.zeros(99), bandwidth=1.0)
    with pytest.raises(ValueError):
        PhotocurrentRecord(grid, np.zeros(100), bandwidth=30.0)  # above Nyquist
    with pytest.raises(ValueError):
        PhotocurrentRecord(grid, np.zeros(100), bandwidth=0.0)
    rec = PhotocurrentRecord(grid, np.ones(100), bandwidth=25.0)
    assert rec.mean() == pytest.approx(1.0)


def test_photocurrent_round_trip(tmp_path):
    grid = TimeGrid(2.0, 0.05, 64)
    samples = RngStream(4, 0).gaussian(64)
    rec = PhotocurrentRecord(grid, samples, bandwidth=3.0, meta={"tag": "rt"})
    path = tmp_path / "current.csv"
    save_photocurrent(path, rec)
    back = load_photocurrent(path)
    assert np.array_equal(back.samples, rec.samples)
    assert back.grid == rec.grid
    assert back.bandwidth == rec.bandwidth
    assert back.meta["tag"] == "rt"


def test_files_match_row_by_row_text(tmp_path):
    # the one-join writers and the numpy reader against the plain per-row
    # FLOAT_FMT text and float() parse
    grid = TimeGrid(2.0, 0.05, 300)
    samples = RngStream(5, 0).gaussian(300) * 7.0
    samples[:6] = [-0.0, 5e-324, 1e-310, -1.7e308, np.pi, 1.0]
    rec = PhotocurrentRecord(grid, samples, bandwidth=3.0, meta={"tag": "rt"})
    path = tmp_path / "current.csv"
    save_photocurrent(path, rec)
    rows = [FLOAT_FMT.format(t) + "," + FLOAT_FMT.format(v) for t, v in zip(grid.times, samples)]
    head = f"# bandwidth={FLOAT_FMT.format(3.0)}\n# dt={FLOAT_FMT.format(0.05)}\n"
    head += f"# n_samples=300\n# t_start={FLOAT_FMT.format(2.0)}\n# tag=rt\nt,i\n"
    assert path.read_text() == head + "".join(r + "\n" for r in rows)
    parsed = np.array([float(r.split(",")[1]) for r in rows])
    assert load_photocurrent(path).samples.tobytes() == parsed.tobytes()

    ts = np.unique(RngStream(6, 0).uniform(50)) * 10.0
    path = tmp_path / "counts.txt"
    save_count_record(path, CountRecord(ts, 0.0, 10.0))
    head = f"# t0={FLOAT_FMT.format(0.0)}\n# t1={FLOAT_FMT.format(10.0)}\n"
    assert path.read_text() == head + "".join(FLOAT_FMT.format(t) + "\n" for t in ts)


def test_write_read_table(tmp_path):
    path = tmp_path / "table.csv"
    a = np.array([1.0, 2.0, 3.0])
    b = np.array([0.1, np.pi, -7.0])
    write_table(path, {"alpha": "1", "beta": "two"}, "a,b", [a, b])
    meta, header, cols = read_table(path)
    assert header == "a,b"
    assert meta["alpha"] == "1" and meta["beta"] == "two"
    assert np.array_equal(cols[0], a)
    assert np.array_equal(cols[1], b)
