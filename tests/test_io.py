import json
import math
import os
import warnings
from dataclasses import replace
from decimal import Decimal, localcontext
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest

from structlabor import io as io_module
from structlabor.core import simulate_transition, steady_state
from structlabor.errors import DomainError
from structlabor.io import (
    CHUNK_ROWS,
    PANEL_COLUMNS,
    PATH_COLUMNS,
    config_digest,
    read_panel_csv,
    sha256_file,
    write_csv,
    write_json,
    write_manifest,
)
from structlabor.portfolio import PowerCodification, run_portfolio_scenario

from defaults import DEFAULTS


def _one_cell(tmp_path, column):
    path = str(tmp_path / "cell.csv")
    write_csv(path, ("v",), [column])
    with open(path, encoding="utf-8") as fh:
        return fh.read().splitlines()[1]


def test_format_value_cases(tmp_path):
    # Cells are formatted by column dtype: booleans as 1/0, integers as plain
    # decimals, floats as repr; anything else is refused.
    assert _one_cell(tmp_path, [True]) == "1"
    assert _one_cell(tmp_path, [False]) == "0"
    assert _one_cell(tmp_path, np.array([True], dtype=np.bool_)) == "1"
    assert _one_cell(tmp_path, [3]) == "3"
    assert _one_cell(tmp_path, np.array([-7], dtype=np.int64)) == "-7"
    assert _one_cell(tmp_path, [0.1]) == "0.1"
    assert _one_cell(tmp_path, [1 / 3]) == "0.3333333333333333"
    assert _one_cell(tmp_path, np.array([2.5], dtype=np.float64)) == "2.5"
    assert _one_cell(tmp_path, [math.inf]) == "inf"
    for column in (["plain"], [object()], [[1.0]]):
        with pytest.raises(DomainError):
            write_csv(str(tmp_path / "bad.csv"), ("v",), [column])


SPECIAL_FLOATS = [math.inf, -math.inf, math.nan, -0.0, 5e-324, 0.1, 1 / 3, 2.5, 1e16, 1e-5]


def _specials_table(n):
    """Wide-range integers, booleans, and floats with the special values at
    the start and across the first chunk edge, with the text write_csv
    must produce for them: repr for floats, str for integers, 1/0 for
    booleans."""
    rng = np.random.Generator(np.random.Philox(key=1))
    ints = rng.integers(-(2**62), 2**62, size=n, dtype=np.int64)
    flags = rng.uniform(size=n) < 0.5
    floats = rng.uniform(-1e6, 1e6, size=n)
    floats[: len(SPECIAL_FLOATS)] = SPECIAL_FLOATS[:n]
    edge = floats[CHUNK_ROWS - 3 : CHUNK_ROWS + 7]
    edge[:] = SPECIAL_FLOATS[: len(edge)]
    expected = "i,b,f\n" + "".join(
        f"{i},{'1' if b else '0'},{f!r}\n" for i, b, f in zip(ints.tolist(), flags.tolist(), floats.tolist())
    )
    return [ints, flags, floats], expected


def test_format_value_round_trips_doubles(tmp_path):
    # Longer than one chunk, so chunk seams are covered.
    columns, expected = _specials_table(2 * CHUNK_ROWS + 17)
    path = str(tmp_path / "table.csv")
    write_csv(path, ("i", "b", "f"), columns)
    with open(path, "rb") as fh:
        assert fh.read() == expected.encode("utf-8")
    back = np.array([float(line.rsplit(",", 1)[1]) for line in expected.splitlines()[1:]])
    assert np.array_equal(back.view(np.int64), columns[2].view(np.int64))


@pytest.mark.parametrize("n", [CHUNK_ROWS - 1, CHUNK_ROWS, CHUNK_ROWS + 1, 2 * CHUNK_ROWS + 17])
def test_write_csv_bytes_do_not_depend_on_workers(tmp_path, cpus, n):
    columns, expected = _specials_table(n)
    path = str(tmp_path / "table.csv")
    write_csv(path, ("i", "b", "f"), columns)
    with open(path, "rb") as fh:
        assert fh.read() == expected.encode("utf-8")


@pytest.mark.parametrize("n", [CHUNK_ROWS - 1, CHUNK_ROWS + 1])
def test_narrow_integer_columns_are_written_in_decimal(tmp_path, cpus, n):
    # Columns spanning few values: at the bottom and top of their dtypes,
    # int8 spanning -100..100, whose differences overflow int8, and
    # one-digit columns (all zeros, one value), in which no power of ten is
    # compared.
    rng = np.random.Generator(np.random.Philox(key=2))
    columns = [
        np.arange(n, dtype=np.int64) % 200,
        np.arange(n, dtype=np.int64) // 200 - 40,
        rng.integers(-100, 101, size=n, dtype=np.int8),
        np.iinfo(np.int64).min + rng.integers(0, 300, size=n),
        np.uint64(2**64 - 1) - rng.integers(0, 300, size=n).astype(np.uint64),
        np.full(n, 7, dtype=np.uint8),
        np.zeros(n, dtype=np.int64),
        np.full(n, -3, dtype=np.int64),
    ]
    path = str(tmp_path / "ints.csv")
    write_csv(path, tuple("abcdefgh"), columns)
    expected = "a,b,c,d,e,f,g,h\n" + "".join(",".join(map(str, row)) + "\n" for row in zip(*(c.tolist() for c in columns)))
    with open(path, "rb") as fh:
        assert fh.read() == expected.encode("utf-8")


def test_a_failed_chunk_leaves_no_file(tmp_path, cpus, monkeypatch):
    # A chunk whose rendering raises, in a worker or in this process, fails
    # the write with that error and leaves neither the file nor a temp file.
    render = io_module._render

    def cells(column, out):
        if column.dtype.kind == "i" and column[0] == CHUNK_ROWS:
            raise DomainError("bad second chunk")
        render(column, out)

    monkeypatch.setattr(io_module, "_render", cells)
    with pytest.raises(DomainError, match="^bad second chunk$"):
        write_csv(str(tmp_path / "t.csv"), ("i",), [np.arange(3 * CHUNK_ROWS)])
    assert os.listdir(tmp_path) == []


@pytest.fixture(scope="module")
def repr_doubles():
    """Doubles on which a shortest-digit renderer is easy to get wrong, and
    200,000 random bit patterns, with their reprs."""
    with np.errstate(over="ignore"):
        powers = np.concatenate([np.ldexp(1.0, np.arange(-1074, 1024)), [float(f"1e{e}") for e in range(-323, 309)]])
        powers = np.concatenate([powers, np.nextafter(powers, np.inf), np.nextafter(powers, -np.inf)])
    tiny = np.finfo(np.float64).tiny
    special = [
        9.999999999999999e-05, 0.0001, 9999999999999998.0, 1e16, 1e-05, 0.001, 1e15, 123456789012345.67,
        tiny, np.nextafter(tiny, 0), tiny / 2, 5e-324, 1e-323, np.finfo(np.float64).max,
        0.0, -0.0, math.inf, -math.inf, math.nan, 0.1, 1 / 3, 2.5, 100.0, 2.0**53, 2.0**53 + 2,
    ]
    rng = np.random.Generator(np.random.Philox(key=5))
    integral = np.concatenate([np.arange(-1000, 1000), rng.integers(-(2**53), 2**53, size=2000)]).astype(np.float64)
    subnormal = rng.integers(1, 1 << 52, size=2000, dtype=np.uint64).view(np.float64)
    bits = rng.integers(0, 2**64 - 1, size=200_000, dtype=np.uint64, endpoint=True).view(np.float64)
    values = np.concatenate([powers, special, integral, subnormal, bits])
    values = np.concatenate([values, -values[: -len(bits)]])
    return values, [repr(v).encode() for v in values.tolist()]


def test_float_cells_equal_repr(tmp_path, cpus, repr_doubles):
    # Every float cell is the repr of the double, byte for byte, across
    # chunk seams, in one process and in two workers.
    values, expected = repr_doubles
    assert len(values) > 2 * CHUNK_ROWS
    path = str(tmp_path / "floats.csv")
    write_csv(path, ("f",), [values])
    with open(path, "rb") as fh:
        assert fh.read().splitlines() == [b"f", *expected]


def test_integer_float16_float32_and_strided_cells(tmp_path, cpus):
    # Integer columns of every digit count, with each count's bounds,
    # float16 and float32 columns (written as the repr of the widened
    # double) and strided columns, across a chunk seam whose second chunk
    # is short.
    n = CHUNK_ROWS + 129
    rng = np.random.Generator(np.random.Philox(key=6))
    info64 = np.iinfo(np.int64)
    int64 = rng.integers(info64.min, info64.max, size=n, dtype=np.int64, endpoint=True)
    uint64 = rng.integers(0, 2**64 - 1, size=n, dtype=np.uint64, endpoint=True)
    # The bounds of each digit count: +-(10**k - 1) and +-10**k.
    bounds = [sign * (10**k - d) for k in range(19) for d in (1, 0) for sign in (1, -1)]
    for lo in (0, CHUNK_ROWS):
        int64[lo : lo + 80] = [info64.min, info64.max, 0, -1, *bounds]
        uint64[lo : lo + 42] = [2**64 - 1, 0, 10**19, 10**19 - 1, *bounds[::2]]
    # The 129-row second chunk holds 0..127 and -128; -128..-1 and 127
    # are written on their own below.
    int8 = rng.integers(-128, 128, size=n, dtype=np.int8)
    int8[CHUNK_ROWS:] = np.r_[0:128, -128]
    widened = np.concatenate([rng.lognormal(0, 10, size=n - 8), [0.0, -0.0, math.inf, -math.inf, math.nan, 1e-40, 1e5, 65504.0]])
    with np.errstate(over="ignore"):
        float32, float16 = widened.astype(np.float32), widened.astype(np.float16)
    table = np.zeros(n, dtype=[("pad", np.int8), ("x", np.float64), ("k", np.int64)])
    table["x"] = rng.uniform(-1e9, 1e9, size=n)
    table["k"] = int64[::-1]
    columns = [int64, uint64, int8, float32, float16, table["x"], table["k"], widened[::-1]]
    path = str(tmp_path / "kinds.csv")
    write_csv(path, tuple("abcdefgh"), columns)
    text = [[str(v) for v in c.tolist()] if c.dtype.kind in "iu" else [repr(float(v)) for v in c.tolist()] for c in columns]
    with open(path, "rb") as fh:
        assert fh.read().splitlines()[1:] == [",".join(row).encode() for row in zip(*text)]
    low = np.r_[-128:0, 127].astype(np.int8)
    write_csv(path, ("a",), [low])
    with open(path, "rb") as fh:
        assert fh.read().splitlines()[1:] == [str(v).encode() for v in low.tolist()]


@pytest.mark.parametrize("n", [40, CHUNK_ROWS // 3])
def test_adjacent_columns_of_one_kind_render_as_blocks(tmp_path, cpus, n):
    # A short table that mixes every kind, with adjacent columns of one
    # kind and of several widths: special values sit in every float column,
    # one of them float32, and the integer columns mix dtypes and digit
    # counts.
    rng = np.random.Generator(np.random.Philox(key=7))
    floats = []
    for j in range(5):
        column = rng.lognormal(0, 20, size=n) * rng.choice([-1.0, 1.0], size=n)
        column[j : j + 6] = [math.inf, -math.inf, math.nan, -0.0, 5e-324, 1e16]
        floats.append(column.astype(np.float32) if j == 3 else column)
    ints = [np.arange(n, dtype=np.int8) % 100, rng.integers(-(2**63), 2**63 - 1, size=n, dtype=np.int64), np.arange(n) - 3]
    unsigned = [np.full(n, 2**64 - 1, dtype=np.uint64), np.arange(n, dtype=np.uint32)]
    flags = [rng.uniform(size=n) < 0.5, np.ones(n, dtype=bool)]
    columns = [*flags, *ints, *floats, *unsigned]
    path = str(tmp_path / "blocks.csv")
    write_csv(path, [f"c{i}" for i in range(len(columns))], columns)
    text = [
        [str(int(v)) for v in c.tolist()] if c.dtype.kind in "biu" else [repr(float(v)) for v in c.tolist()]
        for c in columns
    ]
    with open(path, "rb") as fh:
        assert fh.read().splitlines()[1:] == [",".join(row).encode() for row in zip(*text)]


def test_write_csv_round_trip(tmp_path):
    path = str(tmp_path / "table.csv")
    write_csv(path, ("a", "b", "c"), [[1, 2], [0.5, 1 / 3], [True, False]])
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    assert lines == ["a,b,c", "1,0.5,1", "2,0.3333333333333333,0"]


def test_write_csv_rejects_ragged_rows(tmp_path):
    # Columns of unequal length, a two-dimensional column, or fewer columns than the header.
    path = str(tmp_path / "bad.csv")
    for columns in ([[1, 2], [3]], [[1, 2], [[3, 4], [5, 6]]], [[1, 2]]):
        with pytest.raises(DomainError):
            write_csv(path, ("a", "b"), columns)
    assert os.listdir(tmp_path) == []


def test_write_csv_rejects_unsupported_dtypes(tmp_path):
    path = str(tmp_path / "bad.csv")
    for column in (["x", "y"], [object(), object()], [1 + 2j, 3j]):
        with pytest.raises(DomainError, match="cannot format column b"):
            write_csv(path, ("a", "b"), [[1, 2], column])
    assert os.listdir(tmp_path) == []


@pytest.mark.skipif(np.dtype(np.longdouble).itemsize <= 8, reason="long double is a double on this platform")
def test_write_csv_refuses_floats_wider_than_a_double(tmp_path):
    # Their cells could not be the repr of the stored value.
    with pytest.raises(DomainError, match="cannot format column b"):
        write_csv(str(tmp_path / "bad.csv"), ("a", "b"), [[1, 2], np.array([0.1, 0.2], dtype=np.longdouble)])
    assert os.listdir(tmp_path) == []


def test_writes_are_atomic(tmp_path):
    path = str(tmp_path / "data.csv")
    write_csv(path, ("a",), [[1]])
    before = Path(path).read_text(encoding="utf-8")
    # A failing write must leave the previous file intact and no temp files.
    with pytest.raises(DomainError):
        write_csv(path, ("a",), [[object()]])
    assert Path(path).read_text(encoding="utf-8") == before
    assert [f for f in os.listdir(tmp_path) if f.endswith(".tmp")] == []


def test_write_json_sorted_keys_and_nonfinite(tmp_path):
    path = str(tmp_path / "blob.json")
    write_json(path, {"z": 1, "a": {"d": math.inf, "c": math.nan, "b": -math.inf}})
    text = Path(path).read_text(encoding="utf-8")
    assert text.index('"a"') < text.index('"z"')
    data = json.loads(text)
    assert data["a"] == {"b": "-inf", "c": "nan", "d": "inf"}
    assert text.endswith("\n")


def test_write_json_handles_arrays_and_numpy_scalars(tmp_path):
    path = str(tmp_path / "arr.json")
    write_json(path, {"v": np.array([1.5, 2.5]), "n": np.int64(3), "f": np.float64(0.25), "b": np.bool_(True)})
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    assert data == {"b": True, "f": 0.25, "n": 3, "v": [1.5, 2.5]}


def test_write_json_writes_a_record_as_its_fields(tmp_path):
    # A NamedTuple record is a JSON object, byte for byte its _asdict(), not an array.
    class Cell(NamedTuple):
        mean: float
        count: int

    ss = steady_state(DEFAULTS.baseline)
    path = simulate_transition(DEFAULTS.baseline, k0=0.02, L_S0=0.01, T=3, damping=0.5, tol=1e-16)
    records = {"cells": [Cell(math.inf, 2)], "ss": ss, "path": path}
    write_json(str(tmp_path / "records.json"), records)
    fields = {"cells": [{"mean": math.inf, "count": 2}], "ss": ss._asdict(), "path": path._asdict()}
    write_json(str(tmp_path / "fields.json"), fields)
    text = (tmp_path / "records.json").read_bytes()
    assert text == (tmp_path / "fields.json").read_bytes()
    assert json.loads(text)["cells"] == [{"count": 2, "mean": "inf"}]
    assert list(json.loads(text)["ss"]) == sorted(ss._fields)


def test_sha256_file(tmp_path):
    path = str(tmp_path / "x.txt")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("abc")
    assert sha256_file(path) == "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"


def test_config_digest_is_key_order_invariant():
    a = {"x": 1, "y": {"p": 2.5, "q": [1, 2]}}
    b = {"y": {"q": [1, 2], "p": 2.5}, "x": 1}
    assert config_digest(a) == config_digest(b)
    assert config_digest(a) != config_digest({"x": 2, "y": {"p": 2.5, "q": [1, 2]}})


def test_write_manifest_structure(tmp_path):
    out = str(tmp_path)
    outputs = [write_csv(os.path.join(out, "b.csv"), ("a",), [[1]]), write_json(os.path.join(out, "a.json"), {"k": 1})]
    path = write_manifest(
        out, command="simulate", seed=5, digest="d" * 64,
        outputs=outputs, started_utc="2026-01-01T00:00:00Z",
        elapsed_seconds=0.25, version="1.0.0",
    )
    manifest = json.loads(Path(path).read_text(encoding="utf-8"))
    assert manifest["command"] == "simulate"
    assert manifest["seed"] == 5
    assert manifest["config_sha256"] == "d" * 64
    names = [e["path"] for e in manifest["outputs"]]
    assert names == ["a.json", "b.csv"]
    for entry in manifest["outputs"]:
        full = os.path.join(out, entry["path"])
        assert entry["sha256"] == sha256_file(full)
        assert entry["bytes"] == os.path.getsize(full)


def test_path_csv_header_and_round_trip(tmp_path):
    path = simulate_transition(
        DEFAULTS.baseline, k0=0.02, L_S0=0.01, T=5, damping=DEFAULTS.transition.damping, tol=1e-16
    )
    csv_path = str(tmp_path / "path.csv")
    write_csv(csv_path, PATH_COLUMNS, [getattr(path, name) for name in PATH_COLUMNS])
    lines = Path(csv_path).read_text(encoding="utf-8").splitlines()
    assert lines[0] == ",".join(PATH_COLUMNS)
    assert len(lines) == len(path.t) + 1
    first = lines[1].split(",")
    assert first[0] == "0"
    assert float(first[1]) == path.k[0]


def _labor_and_weight(path):
    # read_panel_csv does not parse these two columns, so the writer's
    # round trip reads them with np.loadtxt, correctly rounded as well.
    labor, weight = np.loadtxt(path, delimiter=",", skiprows=1, usecols=(3, 4), unpack=True, ndmin=2)
    return {"labor": labor, "effective_weight": weight}


def test_panel_csv_round_trip_is_bitwise(tmp_path):
    tech = PowerCodification(beta=0.5)
    p = replace(
        DEFAULTS.portfolio.initial, omega=np.ones(3), delta=np.full(3, 0.1), k=1.0 + np.arange(3),
        born_at=np.zeros(3, dtype=np.int64), aggregator=DEFAULTS.portfolio.initial.aggregator, tech=tech,
    )
    scenario = run_portfolio_scenario(p, 1.0, replace(DEFAULTS.portfolio.entry, mu=0.3), T=8, seed=13)
    csv_path = str(tmp_path / "panel.csv")
    write_csv(csv_path, PANEL_COLUMNS, [getattr(scenario, name) for name in PANEL_COLUMNS])
    lines = Path(csv_path).read_text(encoding="utf-8").splitlines()
    assert lines[0] == ",".join(PANEL_COLUMNS)
    back = read_panel_csv(csv_path)
    assert np.array_equal(back["family_id"], scenario.family_id)
    assert np.array_equal(back["period"], scenario.period)
    # Bit-exact floats thanks to shortest round-trip formatting.
    assert np.array_equal(back["maturity"], scenario.maturity)
    unread = _labor_and_weight(csv_path)
    assert np.array_equal(unread["labor"], scenario.labor)
    assert np.array_equal(unread["effective_weight"], scenario.effective_weight)
    assert np.array_equal(back["tech_window"], scenario.tech_window)
    assert np.array_equal(back["org_window"], scenario.org_window)


def test_read_panel_csv_error_reporting(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(DomainError):
        read_panel_csv(str(empty))

    header_only = tmp_path / "header.csv"
    header_only.write_text(",".join(PANEL_COLUMNS) + "\n\n")
    with pytest.raises(DomainError, match=r"header\.csv: panel has no data rows"):
        read_panel_csv(str(header_only))

    wrong = tmp_path / "wrong.csv"
    wrong.write_text("a,b\n1,2\n")
    with pytest.raises(DomainError, match="does not match panel schema"):
        read_panel_csv(str(wrong))

    bad_bool = tmp_path / "bool.csv"
    bad_bool.write_text(
        ",".join(PANEL_COLUMNS) + "\n" + "0,0,1.0,0.5,2.0,yes,0\n"
    )
    with pytest.raises(DomainError, match=r"bool\.csv:2"):
        read_panel_csv(str(bad_bool))

    bad_float = tmp_path / "float.csv"
    bad_float.write_text(
        ",".join(PANEL_COLUMNS) + "\n" + "0,0,oops,0.5,2.0,1,0\n"
    )
    with pytest.raises(DomainError, match=r"float\.csv:2"):
        read_panel_csv(str(bad_float))

    short_row = tmp_path / "short.csv"
    short_row.write_text(",".join(PANEL_COLUMNS) + "\n" + "0,0,1.0\n")
    with pytest.raises(DomainError, match="expected 7 columns"):
        read_panel_csv(str(short_row))


def test_read_panel_csv_skips_blank_lines_and_reads_bool_spellings(tmp_path):
    path = tmp_path / "panel.csv"
    path.write_text(
        ",".join(PANEL_COLUMNS) + "\n"
        + "0,0,1.0,0.5,2.0,true,False\n"
        + "\n"
        + "1,0,2.0,0.5,2.0,True,false\n"
        + "\n\n"
        + "0,1,0.5,0.25,1.5,0,1\r\n"
        + '1,1,0.5,0.25,1.5,"1","False"\n',
        newline="",
    )
    back = read_panel_csv(str(path))
    assert back["family_id"].tolist() == [0, 1, 0, 1]
    assert back["period"].tolist() == [0, 0, 1, 1]
    assert back["maturity"].tolist() == [1.0, 2.0, 0.5, 0.5]
    assert back["tech_window"].tolist() == [True, True, False, True]
    assert back["org_window"].tolist() == [False, False, True, False]
    assert back["tech_window"].dtype == back["org_window"].dtype == bool


def test_read_panel_csv_parses_booleans_without_a_python_callback(tmp_path, monkeypatch):
    def refuse(text):
        raise AssertionError(f"_parse_bool called on {text!r}")

    monkeypatch.setattr(io_module, "_parse_bool", refuse)
    path = tmp_path / "panel.csv"
    path.write_text(",".join(PANEL_COLUMNS) + "\n0,0,1.0,0.5,2.0,1,0\n1,0,2.0,0.5,2.0,0,1\n")
    back = read_panel_csv(str(path))
    assert back["tech_window"].tolist() == [True, False]
    assert back["org_window"].tolist() == [False, True]


@pytest.mark.parametrize(
    "bad_row, message",
    [
        ("0,2,oops,0.5,2.0,1,0", "could not convert"),
        ("x,2,1.0,0.5,2.0,1,0", "invalid literal"),
        ("0,2,1.0,0.5,2.0,1,maybe", "invalid boolean"),
        ("0,2,1.0", "expected 7 columns"),
        ("0,2,1.0,0.5,2.0,1", "expected 7 columns"),
        ("0,2,1.0,0.5,2.0,1,0,9", "expected 7 columns"),
    ]
    # Spellings that an integer or truncating byte parse of a boolean cell would accept.
    + [
        (f"0,2,1.0,0.5,2.0,{cell},0", "invalid boolean")
        for cell in (" 1", "1 ", "\t1", "+1", "01", "00", "+0", "2", "-0", "", "1\x00", "falsey", "Truely", "\u20ac")
    ],
)
def test_read_panel_csv_reports_later_line_numbers(tmp_path, bad_row, message):
    path = tmp_path / "late.csv"
    good = ["0,0,1.0,0.5,2.0,1,0", "0,1,1.0,0.5,2.0,0,0"]
    path.write_text("\n".join([",".join(PANEL_COLUMNS), *good, "", bad_row]) + "\n", encoding="utf-8")
    with pytest.raises(DomainError, match=rf"late\.csv:5: .*{message}"):
        read_panel_csv(str(path))


def test_read_panel_csv_counts_physical_lines(tmp_path):
    # The quoted cell spans lines 2 and 3, so the bad cell sits on line 4.
    path = tmp_path / "quoted.csv"
    path.write_text("\n".join([",".join(PANEL_COLUMNS), '0,0,"1.0\n",0.5,2.0,1,0', "0,1,x,0.5,2.0,1,0"]) + "\n")
    with pytest.raises(DomainError, match=r"quoted\.csv:4: "):
        read_panel_csv(str(path))


def _adversarial_doubles() -> np.ndarray:
    # Values where a reader that is not correctly rounded goes wrong: the
    # subnormal range and its ends, both sides of DBL_MIN, the largest
    # double, values whose shortest repr needs 17 digits, every one's
    # nextafter neighbours, and random bit patterns over the whole exponent
    # range.
    special = np.array([
        5e-324, 1e-323, 2.2250738585072011e-308, 2.2250738585072014e-308,
        2.225073858507201e-308, 4.9406564584124654e-324, 1.7976931348623157e308,
        0.1, 1 / 3, 2 / 3, 0.30000000000000004, 9007199254740993.0, 1e23, 8.98846567431158e307,
        5.0000000000000011, 0.49999999999999994, 1.0000000000000002, 123456789012345.67,
    ])
    rng = np.random.Generator(np.random.Philox(key=3))
    bits = rng.integers(1, 0x7FF0000000000000, size=4000, dtype=np.int64).view(np.float64)
    subnormal = rng.integers(1, 1 << 52, size=500, dtype=np.int64).view(np.float64)
    seventeen = np.array([x for x in rng.uniform(-1e3, 1e3, size=4000) if len(repr(abs(x)).replace(".", "").lstrip("0")) >= 17])
    base = np.concatenate([special, bits, subnormal, seventeen])
    base = np.concatenate([base, -base])
    with np.errstate(over="ignore"):
        neighbours = [np.nextafter(base, np.inf), np.nextafter(base, -np.inf)]
    return np.concatenate([base, *neighbours, [0.0, -0.0]])


def test_panel_csv_round_trip_of_adversarial_doubles_is_bitwise(tmp_path):
    values = _adversarial_doubles()
    n = len(values)
    rng = np.random.Generator(np.random.Philox(key=4))
    columns = [
        rng.integers(-(2**63), 2**63 - 1, size=n, dtype=np.int64, endpoint=True),
        np.arange(n, dtype=np.int64),
        values,
        rng.permutation(values),
        values[::-1].copy(),
        rng.uniform(size=n) < 0.5,
        rng.uniform(size=n) < 0.5,
    ]
    path = str(tmp_path / "adversarial.csv")
    write_csv(path, PANEL_COLUMNS, columns)
    back = {**read_panel_csv(path), **_labor_and_weight(path)}
    for name, column in zip(PANEL_COLUMNS, columns):
        assert back[name].dtype == column.dtype
        assert back[name].tobytes() == column.tobytes(), name


def test_read_panel_csv_rounds_long_decimals_like_float(tmp_path):
    # Decimal forms that repr never writes: the exact midpoints between
    # adjacent doubles (ties to even), a hair either side of them, and 21
    # significant digits, after a few classic hard cases (the DBL_MIN-edge
    # string that hung some parsers, half the smallest subnormal, the
    # overflow edge).  Each cell must read as Python's float() reads it.
    doubles = _adversarial_doubles()[:600]
    doubles = doubles[(doubles > 0) & (doubles < np.finfo(float).max)]
    cells = [
        "2.2250738585072011e-308", "2.2250738585072012e-308", "4.9406564584124654e-324",
        "2.4703282292062327e-324", "2.4703282292062328e-324", "1.7976931348623158e308",
        "1.7976931348623159e308", "0.1000000000000000055511151231257827", "9007199254740993",
    ]
    with localcontext() as ctx:
        ctx.prec = 1200
        for x in doubles.tolist():
            lo, hi = Decimal(x), Decimal(float(np.nextafter(x, np.inf)))
            mid = (lo + hi) / 2
            tiny = (hi - lo) / 10**30
            cells += [f"{mid:e}", f"{mid + tiny:e}", f"{mid - tiny:e}", f"{lo:.20e}"]
    path = tmp_path / "decimals.csv"
    path.write_text(",".join(PANEL_COLUMNS) + "\n" + "".join(f"0,{i},{c},{c},1.0,1,0\n" for i, c in enumerate(cells)))
    back = read_panel_csv(str(path))
    expected = np.array([float(c) for c in cells])
    assert back["maturity"].tobytes() == expected.tobytes()
    assert _labor_and_weight(str(path))["labor"].tobytes() == expected.tobytes()


@pytest.mark.parametrize(
    "bad_line, message",
    [
        ("#c,1,2,3,4,1,0", "invalid literal for int\\(\\) with base 10: '#c'"),
        ("   ", "expected 7 columns"),
        ("\t", "expected 7 columns"),
    ],
    ids=["comment", "spaces", "tab"],
)
def test_read_panel_csv_has_no_comments_and_refuses_whitespace_lines(tmp_path, bad_line, message):
    path = tmp_path / "q2.csv"
    path.write_text("\n".join([",".join(PANEL_COLUMNS), "0,0,1.0,0.5,2.0,1,0", bad_line, "0,1,1.0,0.5,2.0,1,0"]) + "\n")
    with pytest.raises(DomainError, match=rf"q2\.csv:3: {message}"):
        read_panel_csv(str(path))


def test_read_panel_csv_header_only_raises_without_warning(tmp_path):
    for text in ("\n", "", "\n\r\n\n"):
        path = tmp_path / "header.csv"
        path.write_text(",".join(PANEL_COLUMNS) + text, newline="")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(DomainError, match=r"header\.csv: panel has no data rows"):
                read_panel_csv(str(path))
        assert caught == []


def test_read_panel_csv_reads_a_cell_past_the_csv_field_limit_on_any_data_line(tmp_path):
    # The csv module reads only the header, so an unparsed labor cell longer
    # than its field limit reads alike on the first data line and a later one.
    rows = ["0,0,1.0,0.25,2.0,1,0", "0,1,0.5,0.25,2.0,0,1"]
    clean = tmp_path / "clean.csv"
    clean.write_text("\n".join([",".join(PANEL_COLUMNS), *rows]) + "\n")
    expected = read_panel_csv(str(clean))
    for line in (2, 3):
        long_rows = list(rows)
        long_rows[line - 2] = long_rows[line - 2].replace(",0.25,", "," + "9" * 200_000 + ",")
        path = tmp_path / f"long{line}.csv"
        path.write_text("\n".join([",".join(PANEL_COLUMNS), *long_rows]) + "\n")
        got = read_panel_csv(str(path))
        assert got.keys() == expected.keys()
        for name in expected:
            np.testing.assert_array_equal(got[name], expected[name])


@pytest.mark.parametrize(
    "bad_cell, message",
    [
        ("1_0", "invalid number '1_0'"),
        ("9223372036854775808", "invalid number '9223372036854775808'"),
    ],
)
def test_read_panel_csv_refuses_what_only_python_int_accepts(tmp_path, bad_cell, message):
    # Digit grouping and integers beyond int64 fail the line-by-line rescan
    # as they fail the fast reader, so the error names the line.
    path = tmp_path / "wide.csv"
    path.write_text(",".join(PANEL_COLUMNS) + f"\n0,0,1.0,0.5,2.0,1,0\n{bad_cell},1,1.0,0.5,2.0,1,0\n")
    with pytest.raises(DomainError, match=rf"wide\.csv:3: {message}"):
        read_panel_csv(str(path))


@pytest.mark.parametrize("column", ["period", "maturity"])
@pytest.mark.parametrize(
    "cell, spelled",
    [
        ("\u01fe", None), ("\u01fe1", None), ("\u0661", None), ("\uff11", None), ("1_000", None),
        ("1_0.5", None), ("\xa01", None), ("\x1c0", 0), ("1\x1f", 1),
    ],
    ids=ascii,
)
def test_read_panel_csv_reads_a_number_cell_as_its_ascii_text_or_names_its_line(tmp_path, cell, spelled, column):
    # numpy reads "\u01fe" in an integer cell as 462 and strips \x1c-\x1f
    # around a number; Python's int and float read "\u0661" and "1_000" and
    # refuse "\x1c0".  A cell is read as the ASCII number it spells, or the
    # file is refused at its line.
    row = dict(zip(PANEL_COLUMNS, ["0", "1", "1.0", "0.5", "2.0", "1", "0"]), **{column: cell})
    path = tmp_path / "odd.csv"
    path.write_text(",".join(PANEL_COLUMNS) + "\n0,0,1.0,0.5,2.0,1,0\n" + ",".join(row.values()) + "\n", encoding="utf-8")
    if spelled is None:
        with pytest.raises(DomainError, match=r"odd\.csv:3: "):
            read_panel_csv(str(path))
    else:
        assert read_panel_csv(str(path))[column].tolist() == [1 if column == "maturity" else 0, spelled]


def test_read_panel_csv_names_the_bad_row_after_a_stripped_cell(tmp_path):
    # Line 3 reads (numpy strips the \x1c), so the rescan must pass it and
    # name line 5.
    path = tmp_path / "p.csv"
    rows = ["0,0,1.0,0.5,2.0,1,0", "1,\x1c0,1.0,0.5,2.0,1,0", "2,0,1.0,0.5,2.0,1,0", "3,x,1.0,0.5,2.0,1,0"]
    path.write_text("\n".join([",".join(PANEL_COLUMNS), *rows]) + "\n")
    with pytest.raises(DomainError, match=r"p\.csv:5: invalid literal for int\(\) with base 10: 'x'$"):
        read_panel_csv(str(path))


def test_read_panel_csv_reports_undecodable_bytes_by_line(tmp_path):
    path = tmp_path / "bytes.csv"
    path.write_bytes((",".join(PANEL_COLUMNS) + "\n0,0,1.0,0.5,2.0,1,0\n0,1,1.\xff,0.5,2.0,1,0\n").encode("latin-1"))
    with pytest.raises(DomainError, match=r"bytes\.csv:3: could not convert string to float"):
        read_panel_csv(str(path))


@pytest.mark.parametrize("cell", ["\u20ac", "1\x00", "\xa0"], ids=ascii)
@pytest.mark.parametrize("column", [3, 4])
def test_read_panel_csv_names_the_line_of_a_bad_byte_in_an_unparsed_cell(tmp_path, cell, column):
    # labor and effective_weight are not parsed, but the file must still be
    # ASCII without NUL, and the error still names the line.
    row = ["0", "1", "1.0", "0.5", "2.0", "1", "0"]
    row[column] = cell
    path = tmp_path / "unparsed.csv"
    path.write_text(",".join(PANEL_COLUMNS) + "\n0,0,1.0,0.5,2.0,1,0\n" + ",".join(row) + "\n", encoding="utf-8")
    with pytest.raises(DomainError, match=r"unparsed\.csv:3: NUL or non-ASCII byte$"):
        read_panel_csv(str(path))


def test_column_constants():
    assert PATH_COLUMNS == ("t", "k", "L_S", "L_U", "Y", "w_U", "w_S")
    assert PANEL_COLUMNS == (
        "family_id", "period", "maturity", "labor",
        "effective_weight", "tech_window", "org_window",
    )
