"""Deterministic file emission.

All output files are written atomically (temp file in the destination
directory, then rename) and byte-identically across runs with the same
config and seed.  CSV cells are rendered as bytes in numpy; float cells
are byte-identical to ``repr``, the shortest string that round-trips the
exact double, so re-parsing an emitted file recovers bit-identical
values.  JSON objects are emitted with sorted keys; non-finite floats,
which strict JSON cannot carry, are rendered as the strings "inf",
"-inf", and "nan".
"""

from __future__ import annotations

import contextlib
import csv
import functools
import hashlib
import itertools
import json
import math
import os
import warnings
from types import SimpleNamespace
from typing import Any, Iterable, Sequence

import numpy as np

from .errors import DomainError, require
from .parallel import forked_map

# Contractual column orders.
PATH_COLUMNS = ("t", "k", "L_S", "L_U", "Y", "w_U", "w_S")
PANEL_COLUMNS = (
    "family_id",
    "period",
    "maturity",
    "labor",
    "effective_weight",
    "tech_window",
    "org_window",
)


# Rows rendered and written per step, so a large table never exists as one
# byte string.  65,536-row chunks wrote no faster.
CHUNK_ROWS = 16384


def _atomic_write(path: str, parts: Iterable[bytes]) -> dict[str, Any]:
    """Write ``parts`` to ``path`` atomically, hashing each as it is written,
    and return the file's manifest entry: its name, sha256 and size."""
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    # Named before it is created, so that a signal (SIGTERM) landing as it is
    # created finds it to remove; the pid keeps concurrent runs apart.
    tmp, digest, size = f"{path}.{os.getpid()}.tmp", hashlib.sha256(), 0
    try:
        with open(tmp, "wb") as handle:
            for part in parts:
                digest.update(part)
                size += handle.write(part)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    return {"path": os.path.basename(path), "sha256": digest.hexdigest(), "bytes": size}


# Cells are rendered as bytes.  A chunk of rows is one matrix of 8-byte
# words in which each column owns a fixed-width slot.  A slot holds its
# cell's characters at fixed places and NUL bytes elsewhere, and its last
# byte is the column's "," or "\n"; deleting the NULs from the matrix's
# bytes yields the chunk's text.  The matrix is filled word-major, one
# contiguous array of rows per slot word, and transposed as it is copied
# out.  A negative's "-" is ORed into its slot's first byte, which the cell
# leaves NUL.  A boolean slot is one word.  An integer slot is three: 20
# digit places, enough for 2**64 - 1 (the first is 0, as 2**63 < 10**19),
# and three NULs.  A float slot is six words, a place for each repr character:
#   0      "-"
#   1-5    "0.000", the lead of a value below 1
#   6-39   17 digits, each followed by a "."
#   40-44  "e", the exponent's sign and three exponent digits
_SLOT_WORDS = {"b": 1, "i": 3, "u": 3, "f": 6}
_RENDER_DTYPES = {"b": np.bool_, "i": np.int64, "u": np.uint64, "f": np.float64}
_BOOL_WORDS = np.array([b"0", b"1"], dtype="S8").view(np.uint64)

# Schubfach (Giulietti, "The Schubfach way to render doubles", 2020) on
# uint64 arrays.  A finite nonzero normal double is c * 2**q with
# 2**52 <= c < 2**53 and -1074 <= q <= 971, whose decimal exponents k lie
# in [_K_MIN, _K_MAX].
_K_MIN, _K_MAX = -324, 292
_M32 = np.uint64(2**32 - 1)
_M63 = np.uint64(2**63 - 1)


def _flog10pow2(q):
    """floor(q * log10(2)), exact for the exponents of a double."""
    return q * 661_971_961_083 >> 41


def _flog10_three_quarters_pow2(q):
    """floor(q * log10(2) + log10(3/4)), exact for the exponents of a double."""
    return (q * 661_971_961_083 - 274_743_187_321) >> 41


def _flog2pow10(e):
    """floor(e * log2(10)), exact for the decimal exponents of a double."""
    return e * 913_124_641_741 >> 38


@functools.cache
def _digit_groups() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each of 0..9999 as its four ASCII digits in a uint64's low half, as
    "d.d.d.d." packed in a uint64, and its number of trailing zeros (4 for 0)."""
    digits = np.indices((10, 10, 10, 10), dtype=np.uint8).reshape(4, -1).T
    chars = np.ascontiguousarray(digits + ord("0"))
    dotted = np.full((10000, 8), ord("."), dtype=np.uint8)
    dotted[:, ::2] = chars
    zeros = np.cumprod(digits[:, ::-1] == 0, axis=1, dtype=np.uint8).sum(axis=1, dtype=np.uint8)
    return chars.view(np.uint32).ravel().astype(np.uint64), dotted.view(np.uint64).ravel(), zeros


def _groups(values: np.ndarray, count: int) -> list[np.ndarray]:
    """The ``count`` base-10,000 digits of a uint64 array below 10000**count,
    most significant first, as int64 arrays."""
    parts = []
    for _ in range(count - 1):
        high = values // 10000
        parts.append((values - high * 10000).view(np.int64))
        values = high
    return [values.view(np.int64), *parts[::-1]]


@functools.cache
def _float_tables() -> SimpleNamespace:
    """Lookup tables of the float renderer, built on its first use.

    Row e = bq + 2048 * (c == 2**52) of k, h and down, for the biased
    exponent bq and the significand c of a normal double, holds the decimal
    exponent k, the shift h of Schubfach's operands and log2 of the step
    down to the rounding interval's lower end in units of 2**h (1, or 0 at a
    power of two, where the gap below is half the gap above).  Rows of other
    exponents hold valid but unused values.  Row k - _K_MIN of g holds g1,
    g0 and the limbs g1 >> 32, g1 & M32, g0 >> 32, g0 & M32 of g = g1 *
    2**63 + g0 = floor(10**-k * 2**(125 - flog2pow10(-k))) + 1.

    Row decpt + 323 of suffix and template, for a cell that reads
    0.d1d2... * 10**decpt, holds the slot's last word, "e-324" ... "e+308"
    (the exponent is decpt - 1), and the row of mask for a cell with 17
    significant digits.  A cell with n significant digits takes row
    template[decpt + 323] + n - 17 of mask, whose 374 (layout, n) rows hold
    the 0x00/0xFF masks of the slot's bytes, the sign's byte always 0x00.
    The layout is decpt + 3 for the positional form (-3 <= decpt <= 16),
    20 for the exponent form with a two-digit exponent and 21 for a
    three-digit one.  Entry d of lead is the slot's first word, NUL "0.000d.".
    """
    # g for k = 0, -1, ..., _K_MIN and then 1, ..., _K_MAX, with p = 10**|k|.
    powers, p = [], 1
    for k in range(0, _K_MIN - 1, -1):
        e = 125 - _flog2pow10(-k)
        powers.append((p << e if e >= 0 else p >> -e) + 1)
        p *= 10
    powers, p = powers[::-1], 10
    for k in range(1, _K_MAX + 1):
        powers.append((1 << (125 - _flog2pow10(-k))) // p + 1)
        p *= 10
    g1 = np.array([g >> 63 for g in powers], dtype=np.uint64)
    g0 = np.array([g & (2**63 - 1) for g in powers], dtype=np.uint64)

    bq = np.arange(4096) % 2048
    uneven = (np.arange(4096) >= 2048) & (bq > 1)
    q = np.maximum(bq, 1) - 1075
    k = np.where(uneven, _flog10_three_quarters_pow2(q), _flog10pow2(q))
    h = q + _flog2pow10(-k) + 2

    decpt = np.arange(-323, 310)
    layout = np.where((decpt >= -3) & (decpt <= 16), decpt + 3, np.where(np.abs(decpt - 1) < 100, 20, 21))
    suffix = np.zeros((len(decpt), 8), dtype=np.uint8)
    suffix[:, 0] = ord("e")
    suffix[:, 1] = np.where(decpt < 1, ord("-"), ord("+"))
    suffix[:, 2:5] = _digit_groups()[0].view(np.uint8).reshape(-1, 8)[np.abs(decpt - 1), 1:4]

    # The kept bytes of each (layout, n), by broadcasting over the three axes.
    lay = np.arange(22)[:, None, None]
    n = np.arange(1, 18)[None, :, None]
    point = lay - 3
    positional = lay < 20
    j = np.arange(17)
    mask = np.zeros((22, 17, 48), dtype=bool)
    mask[..., 1:3] = positional & (point <= 0)
    mask[..., 3:6] = positional & (np.arange(3) < -point)
    # Digits past the significant ones are zeros, which "100.0" shows.
    mask[..., 6:40:2] = (j < n) | (positional & (j <= point))
    mask[..., 7:40:2] = np.where(positional, j == point - 1, (j == 0) & (n > 1))
    mask[..., 40:42] = ~positional
    mask[..., 42:43] = lay == 21
    mask[..., 43:45] = ~positional
    return SimpleNamespace(
        k=k,
        h=h.astype(np.uint64),
        down=np.where(uneven, 0, 1).astype(np.uint64),
        g=(g1, g0, g1 >> 32, g1 & _M32, g0 >> 32, g0 & _M32),
        suffix=suffix.view(np.uint64).ravel(),
        template=layout * 17 + 16,
        mask=(mask.reshape(-1, 48).astype(np.uint8) * 0xFF).view(np.uint64).T.copy(),
        lead=np.array([f"\x000.000{d}." for d in range(10)], dtype="S8").view(np.uint64),
    )


def _mul(ah, al, bh, bl):
    """The high and low 64 bits of the product of ah * 2**32 + al and
    bh * 2**32 + bl, for ah < 2**31 and bh < 2**28, whose cross products
    sum without overflow."""
    low = al * bl
    cross = al * bh + ah * bl
    mid = (low >> 32) + (cross & _M32)
    return ah * bh + (cross >> 32) + (mid >> 32), (mid << 32) | (low & _M32)


def _shift_add(a, v, e, sign):
    """a + sign * v * 2**e for a 128-bit a, given as its (high, low) 64-bit
    halves, v < 2**63 and 0 < e < 64, in the same form."""
    high, low = v >> (64 - e), v << e
    if sign > 0:
        total = a[1] + low
        return a[0] + high + (total < low), total
    return a[0] - high - (a[1] < low), a[1] - low


def _rop(y, x):
    """Schubfach's rounding product floor(g * cp / 2**127), for g = g1 *
    2**63 + g0, from y = g1 * cp and x = g0 * cp as (high, low) halves; its
    lowest bit is set when the bits below, as far as Schubfach computes
    them, are not all zero."""
    z = (y[1] >> 1) + x[0]
    return (y[0] + (z >> 63)) | ((z & _M63) != 0)


def _shortest(bits: np.ndarray, tables: SimpleNamespace) -> tuple[np.ndarray, np.ndarray]:
    """Schubfach's shortest decimal f * 10**k of each normal double (given
    by its bits) that rounds to it, the nearest one if several do; f has 16
    or 17 digits, with trailing zeros where the shortest has fewer.  Other
    values give meaningless results."""
    bq = bits >> 52 & np.uint64(0x7FF)
    t = bits & np.uint64(2**52 - 1)
    row = (bq + np.uint64(2048) * (t == 0)).view(np.int64)
    h = tables.h.take(row)
    k = tables.k.take(row)
    g1, g0, g1h, g1l, g0h, g0l = (column.take(k - _K_MIN) for column in tables.g)
    c = t | np.uint64(2**52)
    cp = c << (h + 2)
    ch, cl = cp >> 32, cp & _M32
    y, x = _mul(g1h, g1l, ch, cl), _mul(g0h, g0l, ch, cl)
    vb = _rop(y, x)
    # The interval's ends are cp - 2**(h + down) and cp + 2**(h + 1), so g
    # times either is g * cp minus or plus g shifted left.
    low, high = h + tables.down.take(row), h + 1
    vbl = _rop(_shift_add(y, g1, low, -1), _shift_add(x, g0, low, -1))
    vbr = _rop(_shift_add(y, g1, high, 1), _shift_add(x, g0, high, 1))

    # vbl and vbr are the interval's ends, times four, included if c is
    # even.  Take its one multiple of ten at this scale if there is one, or
    # else s or s + 1, the two nearest to the value, whichever lies in it or,
    # with both in, is nearer, s on a tie if s is even.
    odd = c & 1
    lower = vbl + odd
    upper = vbr - odd
    s = vb >> 2
    sp10 = s // 10 * 10
    upin = lower <= sp10 << 2
    wpin = (sp10 << 2) + 40 <= upper
    uin = lower <= s << 2
    win = (s << 2) + 4 <= upper
    # s + 1 is nearer when vb & 3 is 3, or 2 with s odd: vb & 7 is 3, 6 or 7, the set bits of 0xC8.
    nearer_t = (np.uint64(0xC8) >> (vb & 7)) & 1
    f = np.where(upin != wpin, sp10 + np.uint64(10) * wpin, s + np.where(uin != win, win, nearer_t))
    return f, k


def _render_floats(x: np.ndarray, out: np.ndarray) -> None:
    """A column of doubles into ``out``, six slot words by its rows,
    byte-identical to ``repr``: Schubfach's shortest decimal, its bytes
    masked by template.  Zeros are laid out as 0 * 10**1; subnormals,
    infinities and NaNs are rendered by ``repr`` itself."""
    tables = _float_tables()
    bits = x.view(np.uint64)
    f, k = _shortest(bits, tables)
    # The 17 digits d1...d17, the decimal point's place and the significant digits.
    short = f < 10**16
    zero = (bits << 1) == 0
    digits = np.where(zero, 0, np.where(short, f * 10, f))
    decpt = np.where(zero, 1, k + 17 - short) + 323
    lead = digits // 10**16
    parts = _groups(digits - lead * 10**16, 4)
    _, dotted, trailing = _digit_groups()
    zeros = trailing.take(parts[3])
    for i in range(1, 4):
        zeros += (zeros == 4 * i) * trailing.take(parts[3 - i])
    template = tables.template.take(decpt) - zeros

    words = [tables.lead.take(lead.view(np.int64))]
    words += [dotted.take(part) for part in parts]
    words.append(tables.suffix.take(decpt))
    for word, chars, mask in zip(out, words, tables.mask):
        np.bitwise_and(chars, mask.take(template), out=word)
    out[0] |= np.signbit(x) * np.uint64(ord("-"))

    bq = bits >> 52 & np.uint64(0x7FF)
    special = (bq == 0x7FF) | ((bq == 0) & ~zero)
    if special.any():
        cells = np.flatnonzero(special)
        text = np.array([repr(v) for v in x[cells].tolist()], dtype="S48")
        out[:, cells] = text.view(np.uint64).reshape(-1, 6).T


@functools.cache
def _int_masks() -> np.ndarray:
    """Row w, column d: word w of the integer slot mask that keeps digit places 20 - d ... 19."""
    places = np.arange(24)
    keep = (places >= 20 - np.arange(21)[:, None]) & (places < 20)
    return (keep.astype(np.uint8) * 0xFF).view(np.uint64).T.copy()


def _render_ints(values: np.ndarray, out: np.ndarray) -> None:
    """A column of int64 or uint64 integers in decimal into ``out``, three slot words by rows:
    five digit groups with the leading zeros masked off, and a negative's sign."""
    # abs(-2**63) wraps to itself, which is 2**63 as a uint64.
    magnitude = np.abs(values).view(np.uint64)
    # Powers and groups go only as far as the widest magnitude needs; the groups above are "0000".
    width = len(str(magnitude.max()))
    digits = 1 + sum(magnitude >= 10**j for j in range(1, width))
    chars = _digit_groups()[0]
    count = -(-width // 4)
    groups = [chars[0]] * (5 - count) + [chars.take(part) for part in _groups(magnitude, count)]
    words = (groups[0] | groups[1] << 32, groups[2] | groups[3] << 32, groups[4])
    for word, group, mask in zip(out, words, _int_masks()):
        np.bitwise_and(group, mask.take(digits), out=word)
    out[0] |= (values < 0) * np.uint64(ord("-"))


def _render(column: np.ndarray, out: np.ndarray) -> None:
    """Render a bool, int64, uint64 or float64 column into ``out``, its slot's words by rows:
    booleans as 1/0, integers in decimal, floats byte-identical to ``repr``."""
    kind = column.dtype.kind
    if kind == "b":
        out[0] = _BOOL_WORDS.take(column.view(np.uint8))
    elif kind == "f":
        _render_floats(column, out)
    else:
        _render_ints(column, out)


def write_csv(path: str, header: Sequence[str], columns: Sequence[Any]) -> dict[str, Any]:
    """Write a CSV file atomically from parallel columns and return its manifest entry.

    Columns must be one-dimensional, of equal length, and of boolean,
    integer or float dtype, floats at most as wide as a double.  Booleans
    are written as 1/0, integers in decimal and floats byte-identical to
    ``repr`` of the double.  Rows are rendered as bytes in chunks of
    ``CHUNK_ROWS``, in forked worker processes when there are several
    chunks and CPUs (:func:`~structlabor.parallel.forked_map`), and
    written in order, so the file does not depend on the number of
    workers.
    """
    cols = [np.asarray(c) for c in columns]
    require(len(cols) == len(header), f"{len(cols)} columns do not match header width {len(header)}")
    n = cols[0].shape[0] if cols and cols[0].ndim == 1 else 0
    for name, col in zip(header, cols):
        require(col.shape == (n,), f"column {name} has shape {col.shape}, expected ({n},)")
        # A float wider than a double would lose digits in its cells.
        formattable = col.dtype.kind in "biu" or col.dtype.kind == "f" and col.dtype.itemsize <= 8
        require(formattable, f"cannot format column {name} of dtype {col.dtype}")
    # Column i's slot is words [starts[i], ends[i]) of a row.
    ends = np.cumsum([_SLOT_WORDS[c.dtype.kind] for c in cols])
    starts = np.r_[0, ends[:-1]]
    separators = np.array([[ord(",")]] * (len(cols) - 1) + [[ord("\n")]], dtype=np.uint8)

    def render(chunk: int) -> bytes:
        lo = chunk * CHUNK_ROWS
        words = np.empty((ends[-1], min(CHUNK_ROWS, n - lo)), dtype=np.uint64)
        for col, start, end in zip(cols, starts, ends):
            _render(np.asarray(col[lo : lo + CHUNK_ROWS], dtype=_RENDER_DTYPES[col.dtype.kind]), words[start:end])
        words.view(np.uint8).reshape(*words.shape, 8)[ends - 1, :, 7] = separators
        return words.T.tobytes().translate(None, b"\0")

    head = (",".join(header) + "\n").encode("utf-8")
    return _atomic_write(path, itertools.chain([head], forked_map(render, -(-n // CHUNK_ROWS))))


def _sanitize(obj: Any) -> Any:
    """Convert to plain JSON-serializable data, stringifying non-finite floats and
    writing a record (a ``NamedTuple``) as an object of its fields."""
    if isinstance(obj, dict):
        return {str(k): _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        if hasattr(obj, "_asdict"):
            return _sanitize(obj._asdict())
        return [_sanitize(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_sanitize(v) for v in obj.tolist()]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        f = float(obj)
        return f if math.isfinite(f) else str(f)  # "inf", "-inf" or "nan"
    return obj


def write_json(path: str, obj: Any) -> dict[str, Any]:
    """Write a JSON file atomically with sorted keys and stable floats; return its manifest entry."""
    text = json.dumps(_sanitize(obj), indent=2, sort_keys=True, allow_nan=False)
    return _atomic_write(path, [text.encode("utf-8"), b"\n"])


def sha256_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(65536), b""):
            h.update(block)
    return h.hexdigest()


def config_digest(config: dict) -> str:
    """SHA-256 over the canonical JSON form of a resolved configuration."""
    canonical = json.dumps(_sanitize(config), sort_keys=True, separators=(",", ":"), allow_nan=False)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def write_manifest(
    out_dir: str,
    command: str,
    seed: int,
    digest: str,
    outputs: Sequence[dict[str, Any]],
    started_utc: str,
    elapsed_seconds: float,
    version: str,
) -> str:
    """Write run.manifest.json describing a run and its outputs, given by
    the entries their writers returned, listed by name.

    The timing fields vary between runs by design; byte-level run
    comparison should compare the listed output digests instead.
    """
    manifest = {
        "command": command,
        "config_sha256": digest,
        "elapsed_seconds": elapsed_seconds,
        "outputs": sorted(outputs, key=lambda entry: entry["path"]),
        "seed": seed,
        "started_utc": started_utc,
        "tool_version": version,
    }
    path = os.path.join(out_dir, "run.manifest.json")
    write_json(path, manifest)
    return path


# Field types of a panel row, in column order.  Boolean cells are read as
# bytes, one longer than the longest spelling, so that a longer cell cannot
# truncate to one.  labor and effective_weight are counted but not parsed.
_PANEL_DTYPE = np.dtype(list(zip(PANEL_COLUMNS, (np.int64, np.int64, float, "S1", "S1", "S6", "S6"))))
_TRUE, _FALSE = ("1", "true", "True"), ("0", "false", "False")


def _parse_bool(text: str) -> bool:
    if text in _TRUE:
        return True
    if text in _FALSE:
        return False
    raise ValueError(f"invalid boolean {text!r}")


@contextlib.contextmanager
def _panel_reader(path: str):
    # Undecodable bytes become U+FFFD, a bad header or a bad row's line, not a
    # bare UnicodeDecodeError.  A record past the csv module's field limit is
    # refused at its line; the limit is process-wide, so it is not raised.
    with open(path, "r", encoding="utf-8", errors="replace", newline="") as handle:
        reader = csv.reader(handle)
        try:
            yield reader
        except csv.Error as exc:
            raise DomainError(f"{path}:{reader.line_num}: {exc}") from None


def _raise_first_bad_row(path: str) -> None:
    """Raise a :class:`DomainError` naming the physical line of the first
    row of a panel file that does not parse; return if every row parses.

    Runs only after the fast reader has refused the file, to turn its
    error into a ``path:line:`` message.  The parsed values are discarded.
    """
    with _panel_reader(path) as reader:
        next(reader)
        for row in filter(None, reader):
            line = reader.line_num
            require(len(row) == len(PANEL_COLUMNS), f"{path}:{line}: expected {len(PANEL_COLUMNS)} columns")
            try:
                # As numpy reads a number: stripped (\x1c-\x1f too), ASCII, no "_", int64 if an int.
                for parse, cell in zip((int, int, float), row):
                    value = parse(cell.strip())
                    if not cell.isascii() or "_" in cell or parse is int and not -(2**63) <= value < 2**63:
                        raise ValueError(f"invalid number {cell!r}")
                for cell in row[5:]:
                    _parse_bool(cell)
                # What the byte scan refused can now only be in the two unparsed cells.
                require(all(cell.isascii() and "\0" not in cell for cell in row[3:5]), "NUL or non-ASCII byte")
            except ValueError as exc:
                raise DomainError(f"{path}:{line}: {exc}") from None


def _spelled(cells: np.ndarray, spellings: tuple[str, ...]) -> np.ndarray:
    """Where a column of byte cells holds one of ``spellings``.  Compared
    on the strided column in place: ``np.isin`` would first copy it, which
    raised ``estimate``'s peak RSS on a 667k-row panel by 1.8 MiB."""
    return functools.reduce(np.logical_or, [cells == s.encode() for s in spellings])


def _parse_panel(path: str) -> dict[str, np.ndarray]:
    """The five columns ``read_panel_csv`` returns, from one ``np.loadtxt``
    pass; raise ValueError if a cell does not parse."""
    # numpy drops an S cell's trailing NULs ("1\0" reads as "1") and reads some
    # non-ASCII letters as digits ("\u01fe" as 462); a valid panel is ASCII.
    with open(path, "rb") as handle:
        if any(b"\0" in block or not block.isascii() for block in iter(lambda: handle.read(1 << 20), b"")):
            raise ValueError("NUL or non-ASCII byte")
    with warnings.catch_warnings():
        # A file without rows is refused by the caller, from the row count.
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        table = np.loadtxt(
            path, dtype=_PANEL_DTYPE, delimiter=",", quotechar='"', comments=None, skiprows=1,
            encoding="utf-8", ndmin=1,
        )
    columns = {name: table[name] for name in PANEL_COLUMNS[:3]}
    for name in PANEL_COLUMNS[5:]:
        cells = table[name]
        truth = _spelled(cells, _TRUE)
        known = truth | _spelled(cells, _FALSE)
        if not known.all():
            raise ValueError(f"invalid boolean {cells[~known][0]!r}")
        columns[name] = truth
    return columns


def read_panel_csv(path: str) -> dict[str, np.ndarray]:
    """Read the five columns ``estimate`` uses from a maturity panel CSV, the fields
    of ``MaturityPanel``: ``family_id``, ``period``, ``maturity``, ``tech_window``, ``org_window``.

    The header must equal ``PANEL_COLUMNS``.  A data row has seven cells:
    two integers, a float, the ``labor`` and ``effective_weight`` cells,
    which are not parsed, and two booleans, spelled ``1``/``true``/``True``
    or ``0``/``false``/``False``.  Cells may be double-quoted, and a quoted
    cell may hold a newline.  Empty lines are skipped; a line of only
    whitespace is a bad row, and there is no comment syntax.

    Values are parsed once, by ``np.loadtxt`` with no Python callback.  Its
    float parse is correctly rounded, so a file written by :func:`write_csv`
    reads back bit-identically.  Boolean cells are read as byte strings in
    the same pass and mapped to ``bool`` arrays in numpy; the numbers are
    views of one structured array.  If the file does not parse, holds a NUL
    or non-ASCII byte or has a boolean cell of another spelling, it is
    rescanned row by row so that the error names the physical line the
    first bad row ends on.  Only the header and the rescan go through the
    ``csv`` module, so its field limit binds there alone.
    """
    with _panel_reader(path) as reader:
        header = next(reader, None)
    require(header is not None, f"{path}: empty panel file")
    require(tuple(header) == PANEL_COLUMNS, f"{path}: header {header!r} does not match panel schema")
    try:
        columns = _parse_panel(path)
    except ValueError as exc:
        _raise_first_bad_row(path)
        raise DomainError(f"{path}: {exc}") from None
    require(columns["period"].size > 0, f"{path}: panel has no data rows")
    return columns
