"""Record containers and their on-disk formats.

Both engines emit the same two record types so the analyzers stay
source-agnostic: CountRecord (photoelectron timestamps) and
PhotocurrentRecord (uniformly sampled difference current). Files are plain
text with '#' metadata headers and every float written as '%.16e' (17
significant digits, enough to round-trip a double), which makes
strict-deterministic reruns byte-identical.

One codec converts the numbers of every record and series file, a whole
column at a time on uint8 buffers; the text is the same as one '%.16e' or
float() call per value would give, byte for byte and bit for bit.
- _encode takes the 17 digits of |x| * 10**(16 - E) from an error-free
  double-double product (Dekker) against a table of 10**q, whose head and
  tail are rounded from exact integers, and turns them into bytes through
  a 4-digit lookup table; _text joins the fields.
- _parse gathers the 17 digits and the exponent of each field in that form
  and scales them by the same table.
- Both fast paths are exact. A field they do not cover is left to '%.16e'
  or float(): a non-finite value, a 3-digit exponent, a value within the
  error bound of a rounding tie, and, when reading, any text not in the
  writer's form (1.5, +7, -2E-3, spaces). The writer formats each chunk of
  _ROWS rows that holds such a field wholly with '%.16e'.

One reader, _read_text, opens every record and series file. A count file's
header must hold t0 and t1, a current file's t_start, dt, n_samples and
bandwidth; a missing key is a ValueError naming file and key, and a value
that is not a number is a ValueError naming file and data row.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .numerics import TimeGrid

FLOAT_FMT = "{:.16e}"

# Double-double arithmetic. numpy rounds every operation on its own (it never
# fuses a multiply and an add), which Dekker's error-free product needs.
_SPLITTER = 134217729.0  # 2**27 + 1


def _split(a):
    """a = hi + lo exactly, each with at most 26 significant bits."""
    c = _SPLITTER * a
    hi = c - (c - a)
    return hi, a - hi


_Q = 340  # 10**q for |q| <= 340 scales every finite double to 17 digits and back


def _pow10_table():
    """10**q = (h + l) * 2**b for q in [-_Q, _Q]: 10**q = num / den * 2**b with
    exact integers num / den in [1, 2), h = num / den and l = num / den - h,
    each correctly rounded by int / int."""
    rows = []
    for q in range(-_Q, _Q + 1):
        n = 10**abs(q)
        e = n.bit_length() - 1
        num, den, b = (n, 1 << e, e) if q >= 0 else (2 << e, n, -1 - e)
        h = num / den
        m = int(h * 2**52)
        rows.append((h, ((num << 52) - m * den) / (den << 52), b))
    h, l, b = (np.array(c) for c in zip(*rows))
    hh, hl = _split(h)
    return h, l, hh, hl, b


_H, _L, _HH, _HL, _B = _pow10_table()
_MIN_E = -1073  # np.frexp exponent of the smallest subnormal


def _decade_floor(e):
    """floor((e - 1) * log10(2)): the decimal exponent of 2**(e - 1), for |e| < 2**11."""
    return ((e - 1) * 78913) >> 18


def _decade_table():
    """Per frexp exponent e, the least double m with m * 2**e >= 10**(_decade_floor(e) + 1)."""
    e = np.arange(_MIN_E, 1025)
    i = _decade_floor(e) + 1 + _Q
    h = np.where(_L[i] > 0, np.nextafter(_H[i], 2.0), _H[i])
    return np.ldexp(h, _B[i] - e)


_DECADE = _decade_table()
# Rows per vectorized step: each step's arrays then stay in cache, and malloc
# serves them from its heap instead of fresh pages from the OS.
_ROWS = 4096
_BLOCK = 1 << 17  # bytes of text per parsing step
_TIE = 2.0**-30  # far above the codec's error (~2**-40 of a unit in the 17th digit)
_DIGITS4 = (np.arange(10000)[:, None] // [1000, 100, 10, 1] % 10 + 48).astype(np.uint8).view("<u4").ravel()
_EXP = np.arange(256) - 99  # E in -99..99 at index E + 99; the rest is never written
_EXP_WORD = (ord("e") + (ord("+") + 2 * (_EXP < 0) << 8)
             + (48 + np.abs(_EXP) // 10 % 10 << 16) + (48 + np.abs(_EXP) % 10 << 24)).astype("<u4")
# a '%.16e' field in 23 bytes and a last one for its separator; the sign is
# NUL for a positive value
_FIELD = np.dtype({"names": ["sign", "lead", "g1", "g2", "g3", "g4", "exp"],
                   "formats": ["u1", "<u2", "<u4", "<u4", "<u4", "<u4", "<u4"],
                   "offsets": [0, 1, 3, 7, 11, 15, 19], "itemsize": 24})


def _encode(values) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(values, fields, rest): the '%.16e' fields of a float column, and the
    indices of those the fast path leaves to '%.16e' itself."""
    x = np.asarray(values, dtype=np.float64)
    a = np.abs(x)
    finite = np.isfinite(a)
    if not finite.all():
        a[~finite] = 0.0
    m, e = np.frexp(a)
    e = e.astype(np.int64)
    E = _decade_floor(e) + (m >= _DECADE[e - _MIN_E])
    i = (16 + _Q) - E
    # y = |x| * 10**(16 - E) in [1e16, 1e17] as p + t: p = m * h, an integer
    # once scaled, and t its exact error plus m * l
    p = m * _H[i]
    mh, ml = _split(m)
    hh, hl = _HH[i], _HL[i]
    t = ((mh * hh - p) + mh * hl + ml * hh) + ml * hl + m * _L[i]
    scale = ((e + _B[i] + 1023) << 52).view(np.float64)  # 2**(e + b)
    p *= scale
    t *= scale
    whole = np.floor(t)
    t -= whole
    n = p.astype(np.int64) + whole.astype(np.int64)
    n += t > 0.5
    carry = n == 10**17
    n -= carry * (9 * 10**16)
    E += carry
    E += m == 0  # zero is written e+00
    rest = np.flatnonzero(~finite | (np.abs(t - 0.5) < _TIE) | (np.abs(E) > 99))
    lead = n // 10**16
    n -= lead * 10**16
    hi = n // 10**8
    lo = n - hi * 10**8
    fields = np.empty(x.size, _FIELD)
    fields["sign"] = np.signbit(x).view(np.uint8) * np.uint8(ord("-"))
    fields["lead"] = lead + (ord(".") << 8 | ord("0"))
    q = hi // 10000
    fields["g1"] = _DIGITS4[q]
    fields["g2"] = _DIGITS4[hi - q * 10000]
    q = lo // 10000
    fields["g3"] = _DIGITS4[q]
    fields["g4"] = _DIGITS4[lo - q * 10000]
    fields["exp"] = _EXP_WORD[(E + 99) & 255]
    return x, fields, rest


def _text(*columns) -> bytes:
    """Rows of the encoded columns' fields, ','-separated and '\n'-terminated."""
    n = columns[0][1].size
    if any(rest.size for _, _, rest in columns):
        row = ",".join(["%.16e"] * len(columns)) + "\n"
        return (row * n % tuple(np.column_stack([x for x, _, _ in columns]).ravel().tolist())).encode()
    # a column without a negative value drops its sign byte, the others mark a
    # positive value's with NUL, which the final replace removes
    widths = [24 if fields["sign"].any() else 23 for _, fields, _ in columns]
    ends = np.cumsum(widths)
    rows = np.empty((n, ends[-1]), np.uint8)
    for (_, fields, _), w, end in zip(columns, widths, ends):
        rows[:, end - w:end] = fields.view(np.uint8).reshape(n, 24)[:, 24 - w:]
        rows[:, end - 1] = ord(",")
    rows[:, -1] = ord("\n")
    return rows.tobytes().replace(b"\0", b"")


def _chunks(values):
    """The encoded pieces of a float column, _ROWS values each."""
    x = np.asarray(values, dtype=np.float64)
    return (_encode(x[lo:lo + _ROWS]) for lo in range(0, x.size, _ROWS))


def _write_rows(fh, *columns) -> None:
    """Write the rows of equally long chunked columns."""
    for pieces in zip(*columns):
        fh.write(_text(*pieces))


@functools.lru_cache(maxsize=4)
def _time_column(t_start: float, dt: float, n_samples: int):
    """The encoded time column of a current file; all records of a run share one grid."""
    return tuple(_chunks(TimeGrid(t_start, dt, n_samples).times))


@dataclass
class CountRecord:
    """Ordered photoelectric detection timestamps over a window [t0, t1]."""

    timestamps: np.ndarray
    t0: float
    t1: float
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        ts = np.asarray(self.timestamps, dtype=float)
        self.timestamps = ts
        if self.t1 < self.t0:
            raise ValueError("window must satisfy t1 >= t0")
        if ts.size:
            if not np.all(np.diff(ts) > 0):
                raise ValueError("timestamps must be strictly increasing")
            if ts[0] < self.t0 or ts[-1] > self.t1:
                raise ValueError("timestamps must lie inside the window")

    @property
    def n_events(self) -> int:
        return int(self.timestamps.size)

    @property
    def duration(self) -> float:
        return self.t1 - self.t0


@dataclass
class PhotocurrentRecord:
    """Sampled homodyne difference current with its post-detection bandwidth."""

    grid: TimeGrid
    samples: np.ndarray
    bandwidth: float
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        s = np.asarray(self.samples, dtype=float)
        self.samples = s
        if s.size != self.grid.n_samples:
            raise ValueError(
                f"sample count {s.size} does not match grid ({self.grid.n_samples})"
            )
        nyquist = 0.5 / self.grid.dt
        if self.bandwidth > nyquist:
            raise ValueError(
                f"bandwidth {self.bandwidth} exceeds the grid Nyquist {nyquist}"
            )
        if self.bandwidth <= 0:
            raise ValueError("bandwidth must be positive")

    def mean(self) -> float:
        return float(self.samples.mean())


# The parser's view of a field in the writer's form: [-]d.ddddddddddddddddde±dd
_ZEROS8 = np.uint64(0x3030303030303030)
_OVER9 = np.uint64(0x7676767676767676)  # + a byte of 10 or more sets its top bit
_TOPS = np.uint64(0x8080808080808080)
_MASK8, _MASK16, _MASK32 = (np.uint64(m) for m in (0x00FF00FF00FF00FF, 0x0000FFFF0000FFFF, 0xFFFFFFFF))
_EXP_BITS, _MANT_BITS = np.uint64(0x7FF0000000000000), np.uint64(2**52 - 1)
_EXP_VALUE = np.full(1 << 16, -1, np.int64)  # two exponent digits, read as a little-endian u2
_EXP_VALUE[48 + _EXP[99:199] // 10 | 48 + _EXP[99:199] % 10 << 8] = _EXP[99:199]


def _words(a, offsets):
    """The little-endian 8-byte words of a that start at the given byte offsets."""
    return np.ndarray((a.size - 7,), "<u8", a, 0, (1,))[offsets]


def _values(a, starts, ends) -> tuple[np.ndarray, np.ndarray]:
    """The doubles of the fields a[starts:ends], and the indices of those the
    fast path leaves to float(). a holds at least 23 bytes."""
    neg = a[starts] == ord("-")
    s = starts + neg
    ok = ends - s == 22
    s = np.minimum(s, a.size - 23)  # a field past this point is short, hence not ok
    w0, w1, w2 = (_words(a, s + k) for k in (0, 8, 14))  # bytes 0-7, 8-15 and 14-21
    lead = (w0 & 0xFFFF) - (ord(".") << 8 | ord("0"))  # d0 in 0..9 and '.'
    tail = w2 >> np.uint64(32)  # 'e', sign, two digits
    E = _EXP_VALUE[tail >> 16]
    # digits 1-8 and 9-16, less '0' each, the first digit in the lowest byte
    t = np.stack([(w0 >> np.uint64(16)) | (w1 << np.uint64(48)),
                  (w1 >> np.uint64(16)) | (w2 >> np.uint64(16) << np.uint64(48))]) - _ZEROS8
    ok &= (((t + _OVER9) | t) & _TOPS).sum(axis=0, dtype=np.uint64) == 0
    ok &= (lead <= 9) & (E >= 0) & ((((tail & 0xFFFF) - 0x2B65) | 0x200) == 0x200)  # e+ or e-
    t = (t * np.uint64(10) + (t >> np.uint64(8))) & _MASK8
    t = (t * np.uint64(100) + (t >> np.uint64(16))) & _MASK16
    t = (t * np.uint64(10000) + (t >> np.uint64(32))) & _MASK32
    N = (lead * np.uint64(10**16) + t[0] * np.uint64(10**8) + t[1]) * ok
    N = N.view(np.int64)
    E *= ok * ((tail >> 9 & 1).astype(np.int64) * 2 - 1)  # bit 1 of '+' is 1, of '-' 0
    i = E + (_Q - 16)
    # N * 10**(E - 16) = (nh + nl) * (h + l) * 2**b: r1 + r2, exact to ~2**-98
    nh = N.astype(np.float64)
    nl = (N - nh.astype(np.int64)).astype(np.float64)
    h = _H[i]
    p = nh * h
    ah, al = _split(nh)
    hh, hl = _HH[i], _HL[i]
    err = ((ah * hh - p) + ah * hl + al * hh) + al * hl + (nh * _L[i] + nl * h)
    r1 = p + err
    r2 = err - (r1 - p)
    # r1 rounds r1 + r2 correctly unless that lies at a midpoint between doubles,
    # which is half an ulp away, or a quarter below a power of two
    bits = r1.view(np.uint64)
    ulp = ((bits & _EXP_BITS) - np.uint64(52 << 52)).view(np.float64)
    below_pow2 = ((bits & _MANT_BITS) == 0) & (r2 < 0)
    rest = ~ok | (np.abs(np.abs(r2) - ulp * (0.5 - 0.25 * below_pow2)) < _TIE * ulp)
    r1 *= ((_B[i] + 1023 | neg.astype(np.int64) << 11) << 52).view(np.float64)  # ±2**b
    return r1, np.flatnonzero(rest)


def _line_end(a, i: int) -> int:
    """The index just past the first '\n' in a at or after i, or a.size."""
    while i < a.size:
        hit = np.flatnonzero(a[i:i + 256] == ord("\n"))
        if hit.size:
            return i + int(hit[0]) + 1
        i += 256
    return a.size


def _lines(body) -> bytes:
    """body without blank lines, each line ending in '\n'; str.splitlines
    decides what ends a line."""
    return "".join(line + "\n" for line in bytes(body).decode().splitlines() if line.strip()).encode()


def _parse(body, path, width: int, columns=None) -> list[np.ndarray]:
    """The columns (all by default) of a body of rows of width ','-separated
    numbers, each row ending in '\n'. Blank lines are skipped: a body with
    a row or field that may hold one is read again through _lines."""
    a = np.frombuffer(body, np.uint8)
    if a.size < 23:
        a = np.concatenate([a, np.zeros(23, np.uint8)])
        body = bytes(body)
    wanted = range(width) if columns is None else columns
    out = [[] for _ in wanted]
    lo = row = 0
    while lo < len(body):  # whole lines of about _BLOCK bytes at a time
        hi = _line_end(a, lo + _BLOCK)
        blk = a[lo:hi]
        ends = np.flatnonzero((blk == ord(",")) | (blk == ord("\n"))) + lo
        per_row = np.diff(np.flatnonzero(a[ends] == ord("\n")), prepend=-1)
        if np.any(per_row != width):
            if (lines := _lines(body)) != body:
                return _parse(lines, path, width, columns)
            n = int(np.argmax(per_row != width))
            raise ValueError(f"{path}: data row {row + n + 1} has {per_row[n]} fields, not {width}")
        starts = np.concatenate([[lo], ends[:-1] + 1])
        for col, j in zip(out, wanted):
            col_starts, col_ends = starts[j::width], ends[j::width]
            values, rest = _values(a, col_starts, col_ends)
            for f in rest.tolist():
                text = a[col_starts[f]:col_ends[f]].tobytes().decode(errors="replace")
                if (text.splitlines() != [text] or not text.strip()) and (lines := _lines(body)) != body:
                    return _parse(lines, path, width, columns)
                try:
                    values[f] = float(text)
                except ValueError:
                    raise ValueError(f"{path}: data row {row + f + 1}: {text!r} is not a number") from None
            col.append(values)
        lo, row = hi, row + per_row.size
    return [np.concatenate(col) if col else np.zeros(0) for col in out]


def _header(meta: dict) -> bytes:
    return "".join(f"# {k}={meta[k]}\n" for k in sorted(meta)).encode()


def _read_text(path, *required: str):
    """The '#' key=value header of a file, which must hold every required
    key, and the bytes below it, ending in '\n'. As in text mode, '\r\n'
    and a lone '\r' end a line."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if b"\r" in raw:
        raw = raw.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    meta: dict = {}
    pos = 0
    while raw.startswith(b"#", pos):
        end = raw.find(b"\n", pos)
        end = len(raw) if end < 0 else end
        k, eq, v = raw[pos + 1:end].decode().partition("=")
        if eq:
            meta[k.strip()] = v.strip()
        pos = end + 1
    for key in required:
        if key not in meta:
            raise ValueError(f"{path}: header has no '{key}=' line")
    body = memoryview(raw)[pos:]
    if body and body[-1] != ord("\n"):
        body = bytes(body) + b"\n"
    return meta, body


def save_count_record(path, rec: CountRecord) -> None:
    """'#' header (window plus any meta), then one timestamp per line."""
    window = {"t0": FLOAT_FMT.format(float(rec.t0)), "t1": FLOAT_FMT.format(float(rec.t1))}
    with open(path, "wb") as fh:
        fh.write(_header({**rec.meta, **window}))
        _write_rows(fh, _chunks(rec.timestamps))


def load_count_record(path) -> CountRecord:
    meta, body = _read_text(path, "t0", "t1")
    t0 = float(meta.pop("t0"))
    t1 = float(meta.pop("t1"))
    return CountRecord(_parse(body, path, 1)[0], t0, t1, meta=meta)


def save_photocurrent(path, rec: PhotocurrentRecord) -> None:
    """CSV t,i with '#' header carrying grid and bandwidth."""
    g = rec.grid
    grid = {k: FLOAT_FMT.format(float(v)) for k, v in
            (("t_start", g.t_start), ("dt", g.dt), ("bandwidth", rec.bandwidth))}
    with open(path, "wb") as fh:
        fh.write(_header({**rec.meta, **grid, "n_samples": str(g.n_samples)}) + b"t,i\n")
        _write_rows(fh, _time_column(g.t_start, g.dt, g.n_samples), _chunks(rec.samples))


def load_photocurrent(path) -> PhotocurrentRecord:
    meta, body = _read_text(path, "t_start", "dt", "n_samples", "bandwidth")
    grid = TimeGrid(
        t_start=float(meta.pop("t_start")),
        dt=float(meta.pop("dt")),
        n_samples=int(meta.pop("n_samples")),
    )
    bandwidth = float(meta.pop("bandwidth"))
    if body[:4] != b"t,i\n":
        body = _lines(body)
    if body[:4] != b"t,i\n":
        raise ValueError(f"{path}: no 't,i' column line under the header")
    # only the current column is read; the time column is never converted
    vals = _parse(body[4:], path, 2, columns=[1])[0]
    return PhotocurrentRecord(grid, vals, bandwidth, meta=meta)


def write_table(path, meta: dict, header: str, columns) -> None:
    """Generic '#'-meta CSV used by the series formats (tau,value,... etc);
    refuses columns of unequal length."""
    cols = [np.asarray(c, dtype=float) for c in columns]
    if len({c.size for c in cols}) > 1:
        raise ValueError(f"{path}: columns differ in length: {[c.size for c in cols]}")
    with open(path, "wb") as fh:
        fh.write(_header(meta) + (header + "\n").encode())
        _write_rows(fh, *(_chunks(c) for c in cols))


def read_table(path) -> tuple[dict, str, list[np.ndarray]]:
    """Inverse of write_table; refuses a file without header or rows, or with a ragged row."""
    meta, body = _read_text(path)
    body = _lines(body)  # series tables are short
    if not body:
        raise ValueError(f"{path}: no header line")
    header, _, rows = bytes(body).partition(b"\n")
    if not rows:
        raise ValueError(f"{path}: no rows under the header")
    header = header.decode()
    return meta, header, _parse(rows, path, header.count(",") + 1)
