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


def test_write_table_refuses_ragged_columns(tmp_path):
    path = tmp_path / "table.csv"
    with pytest.raises(ValueError, match="differ in length"):
        write_table(path, {}, "a,b", [[1.0, 2.0, 3.0], [4.0]])
    assert not path.exists()


# The codec: exact against '%.16e' % x and float() -----------------------

from fractions import Fraction  # noqa: E402

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from photodyne import records  # noqa: E402


def _format(values) -> str:
    return records._text(records._encode(np.asarray(values, dtype=float))).decode()


def _parse(text: str) -> np.ndarray:
    return records._parse(text.encode(), "mem", 1)[0]


def test_pow10_table_is_exact_to_2_pow_minus_98():
    for k, q in enumerate(range(-records._Q, records._Q + 1)):
        h, l, b = Fraction(records._H[k]), Fraction(records._L[k]), int(records._B[k])
        exact = Fraction(10) ** q
        assert 1 <= h < 2 and abs(l) <= Fraction(records._H[k]) * Fraction(2) ** -53
        error = (h + l) * Fraction(2) ** b - exact
        assert abs(error) < exact * Fraction(2) ** -98, q
        # the sign of l places 10**q above or below the double h * 2**b
        assert (l > 0) == (exact > h * Fraction(2) ** b), q


def test_decade_table_gives_the_decimal_exponent():
    for e in range(records._MIN_E, 1025):
        e0 = int(records._decade_floor(e))
        two = Fraction(2) ** (e - 1)
        assert Fraction(10) ** e0 <= two < Fraction(10) ** (e0 + 1), e
        m = records._DECADE[e - records._MIN_E]
        assert Fraction(m) * 2 * two >= Fraction(10) ** (e0 + 1) > Fraction(np.nextafter(m, 0.0)) * 2 * two, e


# i + j / 2**k with j odd has k decimals; with 18 - k integer digits its
# 18th significant digit is a 5: a tie at the 17th
_ties = st.one_of(
    st.builds(lambda i, j: i + j / 8, st.integers(10**14, 10**15), st.sampled_from(range(1, 8, 2))),
    st.builds(lambda i, j: i + j / 16, st.integers(10**13, 10**14 - 1), st.sampled_from(range(1, 16, 2))),
)
_powers = st.integers(-323, 308).map(lambda k: float(f"1e{k}"))
_doubles = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    _ties,
    _powers,
    _powers.map(lambda x: float(np.nextafter(x, 0.0))),
    st.floats(min_value=-1e-300, max_value=1e-300),  # subnormals and 3-digit exponents
    st.sampled_from([0.0, -0.0, 5e-324, 1.7976931348623157e308, 100000000000000.125]),
)


def test_every_power_of_ten_and_its_neighbours():
    # among them the doubles just below 1e-14, 1e98 and 12 more powers, whose
    # 17 digits round up into the next decade
    tens = np.array([float(f"1e{k}") for k in range(-323, 309)])
    xs = np.concatenate([tens, np.nextafter(tens, 0.0), np.nextafter(tens, np.inf), -tens])
    text = "".join("%.16e\n" % x for x in xs.tolist())
    assert _format(xs) == text
    assert _parse(text).tobytes() == xs.tobytes()


def test_table_fallback_fields_on_both_sides_of_a_chunk_boundary(tmp_path):
    # fields the fast path leaves to '%.16e', in every column of the rows
    # around the first _ROWS boundary; the third chunk has none
    n = 2 * records._ROWS + 5
    special = [np.nan, np.inf, -np.inf, 5e-324, 100000000000000.125]
    cols = [RngStream(7, j).gaussian(n) * 10.0 ** (3 * j) for j in range(3)]
    for j, col in enumerate(cols):
        for k, x in enumerate(special):
            col[records._ROWS - 3 + 2 * k - j] = x
    path = tmp_path / "table.csv"
    write_table(path, {"a": "1"}, "x,y,z", cols)
    rows = "".join("%.16e,%.16e,%.16e\n" % row for row in zip(*(c.tolist() for c in cols)))
    assert path.read_text() == "# a=1\nx,y,z\n" + rows
    _, _, back = read_table(path)
    assert all(b.tobytes() == c.tobytes() for b, c in zip(back, cols))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.lists(_doubles, min_size=1, max_size=40))
def test_format_is_percent_16e(xs):
    assert _format(xs) == "".join("%.16e\n" % x for x in xs)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.lists(_doubles, min_size=1, max_size=40))
def test_parse_of_formatted_text_is_exact(xs):
    text = "".join("%.16e\n" % x for x in xs)
    assert _parse(text).tobytes() == np.array(xs, dtype=float).tobytes()


_texts = st.one_of(
    _doubles.map(repr),
    st.tuples(_doubles, st.integers(0, 25)).map(lambda t: "%.*e" % (t[1], t[0])),
    st.tuples(_doubles, st.integers(1, 25)).map(lambda t: "%.*g" % (t[1], t[0])),
    st.from_regex(r"[+-]?[0-9]{1,20}(\.[0-9]{0,20})?([eE][+-]?[0-9]{1,3})?", fullmatch=True),
    st.from_regex(r"[0-9]\.[0-9]{16}e[+-][0-9]{2}", fullmatch=True),  # the writer's form, any digits
    # integers between 2**53 and 2**57, a quarter of them midway between two doubles
    st.integers(10**16, 10**17 - 1).map(lambda n: f"{str(n)[0]}.{str(n)[1:]}e+16"),
    st.sampled_from(["inf", "-inf", "nan", "+1.5", " 7 ", "1_000", "-2E-3", "1.0000000000000000E+00",
                     "1.8014398509481983e+16", "9.0071992547409930e+15"]),  # 2**54 - 1, 2**53 + 1
)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.lists(_texts, min_size=1, max_size=40))
def test_parse_of_any_float_text_is_float(texts):
    expected = np.array([float(t) for t in texts])
    assert _parse("".join(t + "\n" for t in texts)).tobytes() == expected.tobytes()


@pytest.mark.parametrize("rows", [0, 1, 10])
def test_few_rows_read_as_float_of_each_field(tmp_path, rows):
    # as written, and one hand-written field in the longest body
    fields = ["%.16e" % x for x in RngStream(4, rows).uniform(rows) * 50.0]
    fields[3:4] = ["7.5"] * (rows > 3)
    expected = np.array([float(f) for f in fields])
    path = tmp_path / "counts.txt"
    path.write_text("# t0=0\n# t1=50\n" + "".join(f + "\n" for f in sorted(fields, key=float)))
    assert load_count_record(path).timestamps.tobytes() == np.sort(expected).tobytes()
    if rows:  # a table must have rows
        path = tmp_path / "table.csv"
        path.write_text("tau,value\n" + "".join(f"{k},{f}\n" for k, f in enumerate(fields)))
        _, _, (tau, value) = read_table(path)
        assert tau.tobytes() == np.arange(rows, dtype=float).tobytes()
        assert value.tobytes() == expected.tobytes()


@pytest.mark.parametrize("text, width, message", [
    ("1.0\n2.0,3.0\n", 1, "data row 2 has 2 fields, not 1"),
    ("1.0\n\n2.0\nx\n", 1, "data row 3: 'x' is not a number"),
    ("1.0\x0c,2.0\n", 2, "data row 1 has 1 fields, not 2"),  # \x0c ends a line for str.splitlines
    ("1.0\n\x0c\n2.0\n \n", 1, None),
    ("1.0\n\x1c2.0\n", 1, None),
])
def test_few_rows_keep_the_messages_and_blank_lines(text, width, message):
    if message:
        with pytest.raises(ValueError, match=message):
            records._parse(text.encode(), "mem", width)
    else:
        assert records._parse(text.encode(), "mem", width)[0].tolist() == [1.0, 2.0]


def test_hand_edited_files_read_as_float_of_each_field(tmp_path):
    # CRLF endings, blank and whitespace-only lines, short floats and a
    # 3-digit exponent, in a count, a current and a table file
    fields = ["1.5", "+7", "-2E-3", "2.5e-300", "1.0000000000000000e+01"]
    expected = np.array([float(f) for f in fields])
    blank = "\r\n  \t\r\n"

    path = tmp_path / "counts.txt"
    path.write_bytes(("# t0=-1\r\n# t1=20\r\n" + blank + "\r\n".join(sorted(fields, key=float)) + blank).encode())
    assert load_count_record(path).timestamps.tobytes() == np.sort(expected).tobytes()

    path = tmp_path / "current.csv"
    head = "# bandwidth=0.1\r\n# dt=1\r\n# n_samples=5\r\n# t_start=0\r\n\r\nt,i\r\n"
    body = "".join(f"{k},{f}\r\n" + blank * (k == 1) for k, f in enumerate(fields))
    path.write_bytes((head + body).encode())
    assert load_photocurrent(path).samples.tobytes() == expected.tobytes()

    path = tmp_path / "table.csv"
    path.write_bytes(("# a=1\r\ntau,value\r\n" + "".join(f"{f},{f}\r\n" + blank for f in fields)).encode())
    _, header, cols = read_table(path)
    assert header == "tau,value"
    assert all(c.tobytes() == expected.tobytes() for c in cols)


@pytest.mark.parametrize("kind", ["counts", "current", "table"])
def test_malformed_value_names_file_and_row(tmp_path, kind):
    path = tmp_path / f"{kind}.txt"
    text = {
        "counts": "# t0=0\n# t1=9\n1.0\n\n2.0\nabc\n",
        "current": "# bandwidth=0.1\n# dt=1\n# n_samples=3\n# t_start=0\nt,i\n0,1.0\n1,abc\n2,3.0\n",
        "table": "tau,value\n1,2\n3,4\n5,abc\n",
    }[kind]
    path.write_text(text)
    load = {"counts": load_count_record, "current": load_photocurrent, "table": read_table}[kind]
    row = {"counts": 3, "current": 2, "table": 3}[kind]
    with pytest.raises(ValueError, match=rf"{kind}\.txt: data row {row}: 'abc' is not a number"):
        load(path)
