import json
import math
import os
import warnings
from decimal import Decimal, localcontext
from pathlib import Path

import numpy as np
import pytest

from structlabor.core import BaselineParams, simulate_transition
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
from structlabor.portfolio import AggregatorSpec, EntryConfig, Portfolio, PowerCodification, run_portfolio_scenario


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


def test_format_value_round_trips_doubles(tmp_path):
    # Longer than one chunk, so chunk seams are covered; each cell must read
    # as repr for floats, str for integers and 1/0 for booleans.
    n = 2 * CHUNK_ROWS + 17
    rng = np.random.Generator(np.random.Philox(key=1))
    ints = rng.integers(-(2**62), 2**62, size=n, dtype=np.int64)
    flags = rng.uniform(size=n) < 0.5
    floats = rng.uniform(-1e6, 1e6, size=n)
    special = [math.inf, -math.inf, math.nan, -0.0, 5e-324, 0.1, 1 / 3, 2.5, 1e16, 1e-5]
    floats[: len(special)] = special
    floats[CHUNK_ROWS - 3 : CHUNK_ROWS + 7] = special
    path = str(tmp_path / "table.csv")
    write_csv(path, ("i", "b", "f"), [ints, flags, floats])
    expected = "i,b,f\n" + "".join(
        f"{i},{'1' if b else '0'},{f!r}\n" for i, b, f in zip(ints.tolist(), flags.tolist(), floats.tolist())
    )
    with open(path, "rb") as fh:
        assert fh.read() == expected.encode("utf-8")
    back = np.array([float(line.rsplit(",", 1)[1]) for line in expected.splitlines()[1:]])
    assert np.array_equal(back.view(np.int64), floats.view(np.int64))


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
    write_csv(os.path.join(out, "b.csv"), ("a",), [[1]])
    write_json(os.path.join(out, "a.json"), {"k": 1})
    path = write_manifest(
        out, command="simulate", seed=5, digest="d" * 64,
        outputs=["b.csv", "a.json"], started_utc="2026-01-01T00:00:00Z",
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
    params = BaselineParams(alpha=0.36, gamma=0.05, r=0.04, delta_k=0.15, eta=0.2)
    path_points = simulate_transition(params, k0=0.02, L_S0=0.01, T=5, tol=1e-16).points
    csv_path = str(tmp_path / "path.csv")
    write_csv(csv_path, PATH_COLUMNS, [[getattr(p, name) for p in path_points] for name in PATH_COLUMNS])
    lines = Path(csv_path).read_text(encoding="utf-8").splitlines()
    assert lines[0] == ",".join(PATH_COLUMNS)
    assert len(lines) == len(path_points) + 1
    first = lines[1].split(",")
    assert first[0] == "0"
    assert float(first[1]) == path_points[0].k


def test_panel_csv_round_trip_is_bitwise(tmp_path):
    tech = PowerCodification(beta=0.5)
    p = Portfolio(
        id=np.arange(3), omega=np.ones(3), delta=np.full(3, 0.1), k=1.0 + np.arange(3),
        born_at=np.zeros(3, dtype=np.int64), aggregator=AggregatorSpec(kind="ces", rho=0.5), tech=tech,
    )
    scenario = run_portfolio_scenario(p, 1.0, EntryConfig(mu=0.3), T=8, seed=13)
    csv_path = str(tmp_path / "panel.csv")
    write_csv(csv_path, PANEL_COLUMNS, [getattr(scenario, name) for name in PANEL_COLUMNS])
    lines = Path(csv_path).read_text(encoding="utf-8").splitlines()
    assert lines[0] == ",".join(PANEL_COLUMNS)
    back = read_panel_csv(csv_path)
    assert np.array_equal(back["family_id"], scenario.family_id)
    assert np.array_equal(back["period"], scenario.period)
    # Bit-exact floats thanks to shortest round-trip formatting.
    assert np.array_equal(back["maturity"], scenario.maturity)
    assert np.array_equal(back["labor"], scenario.labor)
    assert np.array_equal(back["effective_weight"], scenario.effective_weight)
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
        + "0,1,0.5,0.25,1.5,0,1\n"
    )
    back = read_panel_csv(str(path))
    assert back["family_id"].tolist() == [0, 1, 0]
    assert back["period"].tolist() == [0, 0, 1]
    assert back["maturity"].tolist() == [1.0, 2.0, 0.5]
    assert back["tech_window"].tolist() == [True, True, False]
    assert back["org_window"].tolist() == [False, False, True]


@pytest.mark.parametrize(
    "bad_row, message",
    [
        ("0,2,oops,0.5,2.0,1,0", "could not convert"),
        ("x,2,1.0,0.5,2.0,1,0", "invalid literal"),
        ("0,2,1.0,0.5,2.0,1,maybe", "invalid boolean"),
        ("0,2,1.0", "expected 7 columns"),
    ],
)
def test_read_panel_csv_reports_later_line_numbers(tmp_path, bad_row, message):
    path = tmp_path / "late.csv"
    good = ["0,0,1.0,0.5,2.0,1,0", "0,1,1.0,0.5,2.0,0,0"]
    path.write_text("\n".join([",".join(PANEL_COLUMNS), *good, "", bad_row]) + "\n")
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
    back = read_panel_csv(path)
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
    assert back["labor"].tobytes() == expected.tobytes()


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


@pytest.mark.parametrize(
    "bad_cell, message",
    [
        ("1_0", "could not convert string '1_0' to int64"),
        ("9223372036854775808", "could not convert string '9223372036854775808' to int64"),
    ],
)
def test_read_panel_csv_refuses_what_only_python_int_accepts(tmp_path, bad_cell, message):
    # Digit grouping and integers beyond int64 pass the line-by-line rescan,
    # so the error carries the fast reader's own message, as a DomainError.
    path = tmp_path / "wide.csv"
    path.write_text(",".join(PANEL_COLUMNS) + f"\n0,0,1.0,0.5,2.0,1,0\n{bad_cell},1,1.0,0.5,2.0,1,0\n")
    with pytest.raises(DomainError, match=rf"wide\.csv: {message}"):
        read_panel_csv(str(path))


def test_read_panel_csv_reports_undecodable_bytes_by_line(tmp_path):
    path = tmp_path / "bytes.csv"
    path.write_bytes((",".join(PANEL_COLUMNS) + "\n0,0,1.0,0.5,2.0,1,0\n0,1,1.\xff,0.5,2.0,1,0\n").encode("latin-1"))
    with pytest.raises(DomainError, match=r"bytes\.csv:3: could not convert string to float"):
        read_panel_csv(str(path))


def test_column_constants():
    assert PATH_COLUMNS == ("t", "k", "L_S", "L_U", "Y", "w_U", "w_S")
    assert PANEL_COLUMNS == (
        "family_id", "period", "maturity", "labor",
        "effective_weight", "tech_window", "org_window",
    )
