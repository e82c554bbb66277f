"""Deterministic file emission.

All output files are written atomically (temp file in the destination
directory, then rename) and byte-identically across runs with the same
config and seed.  Floats are rendered with ``repr``, the shortest string
that round-trips the exact double, so re-parsing an emitted file
recovers bit-identical values.  JSON objects are emitted with sorted
keys; non-finite floats, which strict JSON cannot carry, are rendered as
the strings "inf", "-inf", and "nan".
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import tempfile
from typing import Any, Iterable, Sequence

import numpy as np

from .errors import DomainError, require

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


# Rows rendered and written per step, so a large table never exists as one string.
CHUNK_ROWS = 65536


def _atomic_write(path: str, parts: Iterable[str]) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as handle:
            handle.writelines(parts)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _cells(column: np.ndarray) -> list[str]:
    """One column's cells: booleans as 1/0, integers in decimal, floats by ``repr``."""
    kind = column.dtype.kind
    if kind == "b":
        return np.where(column, "1", "0").tolist()
    if kind == "f":
        return list(map(repr, column.tolist()))
    return list(map(str, column.tolist()))


def write_csv(path: str, header: Sequence[str], columns: Sequence[Any]) -> None:
    """Write a CSV file atomically from parallel columns, formatted by dtype.

    Columns must be one-dimensional, of equal length, and of boolean,
    integer or float dtype.  Rows are rendered and written in chunks of
    ``CHUNK_ROWS``.
    """
    cols = [np.asarray(c) for c in columns]
    require(len(cols) == len(header), f"{len(cols)} columns do not match header width {len(header)}")
    n = cols[0].shape[0] if cols and cols[0].ndim == 1 else 0
    for name, col in zip(header, cols):
        require(col.shape == (n,), f"column {name} has shape {col.shape}, expected ({n},)")
        require(col.dtype.kind in "biuf", f"cannot format column {name} of dtype {col.dtype}")

    def parts():
        yield ",".join(header) + "\n"
        for lo in range(0, n, CHUNK_ROWS):
            cells = [_cells(c[lo : lo + CHUNK_ROWS]) for c in cols]
            yield "\n".join(map(",".join, zip(*cells))) + "\n"

    _atomic_write(path, parts())


def _sanitize(obj: Any) -> Any:
    """Convert to plain JSON-serializable data, stringifying non-finite floats."""
    if isinstance(obj, dict):
        return {str(k): _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_sanitize(v) for v in obj.tolist()]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        f = float(obj)
        if math.isnan(f):
            return "nan"
        if math.isinf(f):
            return "inf" if f > 0 else "-inf"
        return f
    return obj


def write_json(path: str, obj: Any) -> None:
    """Write a JSON file atomically with sorted keys and stable floats."""
    text = json.dumps(_sanitize(obj), indent=2, sort_keys=True, allow_nan=False)
    _atomic_write(path, [text, "\n"])


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
    outputs: Sequence[str],
    started_utc: str,
    elapsed_seconds: float,
    version: str,
) -> str:
    """Write run.manifest.json describing a run and its output digests.

    The timing fields vary between runs by design; byte-level run
    comparison should compare the listed output digests instead.
    """
    entries = []
    for name in sorted(outputs):
        full = os.path.join(out_dir, name)
        entries.append(
            {"path": name, "sha256": sha256_file(full), "bytes": os.path.getsize(full)}
        )
    manifest = {
        "command": command,
        "config_sha256": digest,
        "elapsed_seconds": elapsed_seconds,
        "outputs": entries,
        "seed": seed,
        "started_utc": started_utc,
        "tool_version": version,
    }
    path = os.path.join(out_dir, "run.manifest.json")
    write_json(path, manifest)
    return path


# Field types of a panel row, in column order.
_PANEL_DTYPE = np.dtype(list(zip(PANEL_COLUMNS, (np.int64, np.int64, float, float, float, bool, bool))))


def _parse_bool(text: str) -> bool:
    if text in ("1", "true", "True"):
        return True
    if text in ("0", "false", "False"):
        return False
    raise ValueError(f"invalid boolean {text!r}")


def _open_panel(path: str):
    # Undecodable bytes become U+FFFD, which neither the header nor any cell
    # accepts, so they are reported as a bad header or a bad row's line
    # instead of escaping as a bare UnicodeDecodeError.
    return open(path, "r", encoding="utf-8", errors="replace", newline="")


def _raise_first_bad_row(path: str) -> None:
    """Raise a :class:`DomainError` naming the physical line of the first
    row of a panel file that does not parse; return if every row parses.

    Runs only after the fast reader has refused the file, to turn its
    error into a ``path:line:`` message.  The parsed values are discarded.
    """
    with _open_panel(path) as handle:
        reader = csv.reader(handle)
        next(reader)
        for row in reader:
            if not row:
                continue
            line = reader.line_num
            require(len(row) == len(PANEL_COLUMNS), f"{path}:{line}: expected {len(PANEL_COLUMNS)} columns")
            try:
                for parse, cell in zip((int, int, float, float, float, _parse_bool, _parse_bool), row):
                    parse(cell)
            except ValueError as exc:
                raise DomainError(f"{path}:{line}: {exc}") from None


def read_panel_csv(path: str) -> dict[str, np.ndarray]:
    """Read a maturity panel CSV back into parallel arrays.

    The header must equal ``PANEL_COLUMNS``.  A data row has two integer,
    three float and two boolean cells; booleans are spelled ``1``/``true``/
    ``True`` or ``0``/``false``/``False``.  Cells may be double-quoted, and a
    quoted cell may hold a newline.  Empty lines are skipped; a line of only
    whitespace is a bad row, and there is no comment syntax.

    Values are parsed once, by ``np.loadtxt``, whose float parse is
    correctly rounded, so a file written by :func:`write_csv` reads back
    bit-identically; the columns are views of one structured array.  If the
    file does not parse, it is rescanned row by row so that the error names
    the physical line the first bad row ends on.
    """
    with _open_panel(path) as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise DomainError(f"{path}: empty panel file") from None
        require(tuple(header) == PANEL_COLUMNS, f"{path}: header {header!r} does not match panel schema")
        # Checked before parsing, as np.loadtxt warns on input without rows.
        require(any(reader), f"{path}: panel has no data rows")
    try:
        table = np.loadtxt(
            path, dtype=_PANEL_DTYPE, delimiter=",", quotechar='"', comments=None, skiprows=1,
            converters={5: _parse_bool, 6: _parse_bool}, encoding="utf-8", ndmin=1,
        )
    except ValueError as exc:
        _raise_first_bad_row(path)
        raise DomainError(f"{path}: {exc}") from None
    return {name: table[name] for name in PANEL_COLUMNS}
