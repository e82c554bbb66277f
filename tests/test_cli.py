import hashlib
import json
import os
import re
import signal
import subprocess
import sys
import time
import warnings
from dataclasses import fields

import numpy as np
import pytest

from structlabor.cli import main
from structlabor.estimators import MaturityPanel
from structlabor.io import read_panel_csv, sha256_file
from structlabor.parallel import _cpu_count
from structlabor.rng import derive_seed
from structlabor.schema import MAX_PERIODS

TINY_ROY = {
    "roy": {
        "n_initial": 3, "T": 6, "eval_window": 3, "n_workers": 40,
        "replications": 2, "factor": 2.0,
    }
}

SMALL_PORTFOLIO = {
    "portfolio": {"n_families": 3, "T": 10, "entry": {"mu": 0.3}},
    "priors": {"n_draws": 500},
}

# About 667k panel rows, whose panel.csv is written for a few tenths of a second.
LARGE_PORTFOLIO = {
    "portfolio": {"n_families": 200, "T": 1000, "entry": {"mu": 1.0}, "drift": {"enabled": True}},
}


def write_config(tmp_path, data, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def read_json(out, name):
    with open(os.path.join(out, name), encoding="utf-8") as fh:
        return json.load(fh)


def test_steady_state_writes_golden_values(tmp_path, capsys):
    out = str(tmp_path / "out")
    assert main(["steady-state", "--out", out]) == 0
    blob = read_json(out, "steady_state.json")
    assert blob["steady_state"]["s_star"] == 0.05809450038729667
    assert blob["steady_state"]["k_star"] == 0.0774593338497289
    assert blob["comparative_statics"]["ds_dgamma"] == 1.0943905882409413
    assert blob["params"]["alpha"] == 0.36
    printed = capsys.readouterr().out
    assert "s* = 0.058095" in printed
    assert "wrote" in printed


def test_manifest_lists_correct_digests(tmp_path):
    out = str(tmp_path / "out")
    assert main(["steady-state", "--out", out, "--quiet"]) == 0
    manifest = read_json(out, "run.manifest.json")
    assert manifest["command"] == "steady-state"
    assert manifest["seed"] == 0
    assert len(manifest["config_sha256"]) == 64
    for entry in manifest["outputs"]:
        assert entry["sha256"] == sha256_file(os.path.join(out, entry["path"]))


def test_manifest_entries_are_the_bytes_each_writer_wrote(tmp_path, monkeypatch):
    # No output is read back to be hashed.
    def refuse(path):
        raise AssertionError(f"{path} was read back to be hashed")

    monkeypatch.setattr("structlabor.io.sha256_file", refuse)
    cfg = write_config(tmp_path, SMALL_PORTFOLIO)
    out = tmp_path / "out"
    assert main(["portfolio", "--config", cfg, "--out", str(out), "--format", "both", "--quiet"]) == 0
    outputs = read_json(out, "run.manifest.json")["outputs"]
    assert [e["path"] for e in outputs] == sorted(p.name for p in out.iterdir() if p.name != "run.manifest.json")
    for entry in outputs:
        data = (out / entry["path"]).read_bytes()
        assert (entry["sha256"], entry["bytes"]) == (hashlib.sha256(data).hexdigest(), len(data))


def test_one_config_into_two_directories_gives_one_manifest(tmp_path):
    # The config digest leaves run.out out, so only the timing fields differ.
    cfg = write_config(tmp_path, SMALL_PORTFOLIO)
    manifests = []
    for name in ("a", "b"):
        out = str(tmp_path / name)
        assert main(["portfolio", "--config", cfg, "--out", out, "--quiet"]) == 0
        manifest = read_json(out, "run.manifest.json")
        del manifest["elapsed_seconds"], manifest["started_utc"]
        manifests.append(manifest)
    assert manifests[0] == manifests[1]


def test_quiet_suppresses_stdout(tmp_path, capsys):
    out = str(tmp_path / "out")
    assert main(["steady-state", "--out", out, "--quiet"]) == 0
    assert capsys.readouterr().out == ""


def test_calibrate_derives_its_stream_seed(tmp_path):
    cfg = write_config(tmp_path, {"priors": {"n_draws": 2000}})
    out = str(tmp_path / "out")
    assert main(["calibrate", "--config", cfg, "--out", out, "--quiet"]) == 0
    blob = read_json(out, "calibration.json")
    assert blob["stream_seed"] == derive_seed(0, "calibration")
    assert blob["stream_seed"] == 8611252015350264022
    assert blob["n_draws"] == 2000
    assert blob["stats"]["min"] >= blob["attainable_range_pct"][0]
    assert blob["stats"]["max"] <= blob["attainable_range_pct"][1]


def test_simulate_defaults_start_at_half_the_long_run(tmp_path):
    out = str(tmp_path / "out")
    assert main(["simulate", "--out", out, "--quiet"]) == 0
    blob = read_json(out, "transition.json")
    assert blob["initial"]["k0"] == pytest.approx(0.5 * blob["steady_state"]["k_star"])
    assert blob["converged"] is True
    assert blob["periods_to_converge"] == 38
    with open(os.path.join(out, "path.csv"), encoding="utf-8") as fh:
        header = fh.readline().strip()
    assert header == "t,k,L_S,L_U,Y,w_U,w_S"


def test_simulate_non_convergence_still_exits_zero(tmp_path, capsys):
    # Written as 1.5e-14 so the YAML scalar resolver reads it as a float.
    cfg = write_config(tmp_path, {"transition": {"T": 3, "tol": 1.5e-14}})
    out = str(tmp_path / "out")
    assert main(["simulate", "--config", cfg, "--out", out]) == 0
    blob = read_json(out, "transition.json")
    assert blob["converged"] is False
    assert blob["periods_to_converge"] is None
    assert "did not converge" in capsys.readouterr().out


def test_format_both_writes_csv_and_json(tmp_path):
    cfg = write_config(tmp_path, SMALL_PORTFOLIO)
    out = str(tmp_path / "out")
    assert main(["portfolio", "--config", cfg, "--out", out, "--format", "both", "--quiet"]) == 0
    for name in ("panel.csv", "panel.json", "capability.csv", "capability.json", "portfolio.json"):
        assert os.path.exists(os.path.join(out, name))
    panel = read_json(out, "panel.json")
    assert panel["columns"][:3] == ["family_id", "period", "maturity"]
    meta = read_json(out, "portfolio.json")
    assert meta["n_families_initial"] == 3
    assert meta["n_families_final"] >= 3


def test_roy_command_reports_paired_arms(tmp_path):
    cfg = write_config(tmp_path, TINY_ROY)
    out = str(tmp_path / "out")
    assert main(["roy", "--config", cfg, "--out", out, "--quiet"]) == 0
    blob = read_json(out, "roy.json")
    assert blob["treatment"] == "mu"
    assert blob["replications"] == 2
    assert len(blob["per_replication"]) == 2
    rep = blob["per_replication"][0]
    assert rep["variance_diff"] == pytest.approx(
        rep["treated"]["log_wage_variance"] - rep["base"]["log_wage_variance"]
    )
    for arm in ("base", "treated"):
        assert set(rep[arm]) == {
            "mean_wage", "log_wage_variance", "p90_p10", "top_decile_share",
            "n_families", "gap_max", "residual_max", "tied_workers_max", "newton_steps",
        }
        assert 0.0 <= rep[arm]["gap_max"] <= 1e-9 * 40
        assert 0.0 <= rep[arm]["residual_max"] <= 1e-9 * 40
        assert isinstance(rep[arm]["tied_workers_max"], int)
        assert "converged" not in rep[arm]


def read_csv(out, name):
    """(header, rows) of a CSV output, every cell a string."""
    with open(os.path.join(out, name), encoding="utf-8") as fh:
        header, *rows = (line.split(",") for line in fh.read().splitlines())
    return header, rows


def test_estimate_pipeline_mode_writes_indices(tmp_path):
    L_bar = 2.5
    cfg = write_config(tmp_path, {
        "baseline": {"L_bar": L_bar},
        "portfolio": {
            "n_families": 20, "T": 60, "entry": {"mu": 0.5},
            "drift": {"enabled": True},
        },
    })
    out, pf_out = str(tmp_path / "out"), str(tmp_path / "portfolio")
    assert main(["estimate", "--config", cfg, "--out", out, "--quiet"]) == 0
    blob = read_json(out, "hazard.json")
    assert blob["delta_hat"] > 0.0
    assert set(blob["components"]) == {"env", "tech", "org"}
    assert "tech=0,org=0" in blob["cells"]
    header, rows = read_csv(out, "births.csv")
    assert header == ["t", "births"]
    assert rows[0] == ["0", "20"]

    # indices.csv is the scenario's series: the portfolio command's capability
    # at the same config and seed, its labor over L_bar, and its panel's rows.
    assert main(["portfolio", "--config", cfg, "--out", pf_out, "--quiet"]) == 0
    header, rows = read_csv(out, "indices.csv")
    assert header == ["t", "capability", "maintenance_share", "n_families"]
    capability_header, capability_rows = read_csv(pf_out, "capability.csv")
    assert capability_header == ["t", "capability", "labor_budget"]
    assert [row[:2] for row in rows] == [row[:2] for row in capability_rows]
    assert [float(row[2]) for row in rows] == [float(row[2]) / L_bar for row in capability_rows]
    panel_header, panel_rows = read_csv(pf_out, "panel.csv")
    periods = [int(row[panel_header.index("period")]) for row in panel_rows]
    assert [int(row[3]) for row in rows] == np.bincount(periods).tolist()
    assert len(set(int(row[3]) for row in rows)) > 1


def test_estimate_panel_file_mode(tmp_path):
    # First produce a panel, then estimate from the file alone.
    cfg = write_config(tmp_path, {
        "portfolio": {"n_families": 15, "T": 40, "entry": {"mu": 0.0}, "drift": {"enabled": True}},
    })
    out1 = str(tmp_path / "first")
    assert main(["portfolio", "--config", cfg, "--out", out1, "--quiet"]) == 0

    cfg2 = write_config(tmp_path, {
        "estimate": {"panel": os.path.join(out1, "panel.csv")},
    }, name="second.json")
    out2 = str(tmp_path / "second")
    assert main(["estimate", "--config", cfg2, "--out", out2, "--quiet"]) == 0
    blob = read_json(out2, "hazard.json")
    assert blob["n_obs"] > 0
    # File mode has no weights, so no indices series.
    assert not os.path.exists(os.path.join(out2, "indices.csv"))
    assert os.path.exists(os.path.join(out2, "births.csv"))


@pytest.mark.parametrize(
    "portfolio, seed, periods",
    [({"n_families": 8, "T": 50, "entry": {"mu": 0.4}}, "5", 51), ({}, "2", 101)],
    ids=["small", "default"],
)
def test_estimate_modes_agree(tmp_path, portfolio, seed, periods):
    # Births and hazards from a panel file match those rebuilt from the
    # scenario, also when the file's rows come in another order; with drift
    # on, on a small portfolio and on the default one.
    base = {"portfolio": {**portfolio, "drift": {"enabled": True}}}
    cfg = write_config(tmp_path, base)
    pf_out = str(tmp_path / "portfolio")
    run = ["--seed", seed, "--format", "both", "--quiet"]
    assert main(["portfolio", "--config", cfg, "--out", pf_out, *run]) == 0
    panel_csv = os.path.join(pf_out, "panel.csv")
    with open(panel_csv, encoding="utf-8") as fh:
        header, *rows = fh.read().splitlines()
    order = np.random.default_rng(1).permutation(len(rows))
    shuffled_csv = tmp_path / "shuffled.csv"
    shuffled_csv.write_text("\n".join([header] + [rows[i] for i in order]) + "\n", encoding="utf-8")

    def outputs(name, panel):
        config = write_config(tmp_path, {**base, "estimate": {"panel": panel}}, name=f"{name}.json")
        out = tmp_path / name
        assert main(["estimate", "--config", config, "--out", str(out), *run]) == 0
        return [(out / file).read_bytes() for file in ("hazard.json", "births.csv", "births.json")]

    scenario = outputs("scenario", None)
    assert scenario[1].count(b"\n") == periods + 1
    assert outputs("file", panel_csv) == scenario
    assert outputs("shuffled", str(shuffled_csv)) == scenario


def test_estimate_missing_panel_is_a_runtime_error(tmp_path, capsys):
    cfg = write_config(tmp_path, {"estimate": {"panel": str(tmp_path / "nowhere.csv")}})
    out = str(tmp_path / "out")
    assert main(["estimate", "--config", cfg, "--out", out, "--quiet"]) == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["kind"] == "io"


def test_bad_panel_cell_is_a_runtime_error(tmp_path, capsys):
    panel = tmp_path / "panel.csv"
    panel.write_text(
        "family_id,period,maturity,labor,effective_weight,tech_window,org_window\n"
        "0,0,1.0,0.5,1.0,0,0\n"
        "1,0,oops,0.5,1.0,0,0\n",
        encoding="utf-8",
    )
    cfg = write_config(tmp_path, {"estimate": {"panel": str(panel)}})
    assert main(["estimate", "--config", cfg, "--out", str(tmp_path / "out"), "--quiet"]) == 3
    err = json.loads(capsys.readouterr().err)["error"]
    assert err["kind"] == "runtime"
    assert err["path"] == ""
    assert err["message"].startswith(f"{panel}:3:")


def test_header_only_panel_is_a_runtime_error(tmp_path, capsys):
    panel = tmp_path / "panel.csv"
    panel.write_text("family_id,period,maturity,labor,effective_weight,tech_window,org_window\n")
    cfg = write_config(tmp_path, {"estimate": {"panel": str(panel)}})
    assert main(["estimate", "--config", cfg, "--out", str(tmp_path / "out"), "--quiet"]) == 3
    err = json.loads(capsys.readouterr().err)["error"]
    assert err["kind"] == "runtime"
    assert err["message"].startswith(f"{panel}:")


@pytest.mark.parametrize("junk", ["x", ""], ids=["x", "empty"])
def test_estimate_reads_neither_labor_nor_effective_weight(tmp_path, junk):
    # estimate uses five of the panel's seven columns; the other two cells
    # are counted but not parsed, so junk there changes no output.
    cfg = write_config(tmp_path, SMALL_PORTFOLIO)
    pf_out = tmp_path / "portfolio"
    assert main(["portfolio", "--config", cfg, "--out", str(pf_out), "--quiet"]) == 0
    header, *rows = (pf_out / "panel.csv").read_text(encoding="utf-8").splitlines()
    junk_csv = tmp_path / "junk.csv"
    junked = [",".join([*cells[:3], junk, junk, *cells[5:]]) for cells in (row.split(",") for row in rows)]
    junk_csv.write_text("\n".join([header, *junked]) + "\n", encoding="utf-8")

    def outputs(name, panel):
        config = write_config(tmp_path, {**SMALL_PORTFOLIO, "estimate": {"panel": str(panel)}}, name=f"{name}.json")
        out = tmp_path / name
        assert main(["estimate", "--config", config, "--out", str(out), "--quiet"]) == 0
        return [(out / file).read_bytes() for file in ("hazard.json", "births.csv")]

    assert outputs("junk", junk_csv) == outputs("clean", pf_out / "panel.csv")
    assert set(read_panel_csv(str(junk_csv))) == {f.name for f in fields(MaturityPanel) if f.init}


@pytest.mark.parametrize("line", [1, 2, 3], ids=["header", "first-row", "later-row"])
def test_a_record_past_the_csv_field_limit_is_a_runtime_error(tmp_path, capsys, line):
    # The csv module refuses a field of more than 131,072 characters; the
    # reader reports it at its line, without raising the process-wide limit.
    lines = ["family_id,period,maturity,labor,effective_weight,tech_window,org_window", *["0,0,1.0,0.5,1.0,0,0"] * 2]
    lines[line - 1] = "x" * 200_000 + ("" if line == 1 else ",0,1.0,0.5,1.0,0,0")
    panel = tmp_path / "panel.csv"
    panel.write_text("\n".join(lines) + "\n", encoding="utf-8")
    cfg = write_config(tmp_path, {"estimate": {"panel": str(panel)}})
    out = tmp_path / "out"
    assert main(["estimate", "--config", cfg, "--out", str(out), "--quiet"]) == 3
    (record,) = capsys.readouterr().err.splitlines()
    err = json.loads(record)["error"]
    assert err["kind"] == "runtime"
    assert err["message"] == f"{panel}:{line}: field larger than field limit (131072)"
    assert os.listdir(out) == []


def test_far_off_panel_period_is_a_runtime_error(tmp_path, capsys):
    # Births are counted densely over periods 0..T, and 10**12 + 1 counts
    # do not fit in memory.
    panel = tmp_path / "panel.csv"
    panel.write_text(
        "family_id,period,maturity,labor,effective_weight,tech_window,org_window\n"
        "0,0,1.0,0.5,1.0,0,0\n"
        "0,1,1.0,0.5,1.0,0,0\n"
        "1,1000000000000,1.0,0.5,1.0,0,0\n",
        encoding="utf-8",
    )
    cfg = write_config(tmp_path, {"estimate": {"panel": str(panel)}})
    out = tmp_path / "out"
    assert main(["estimate", "--config", cfg, "--out", str(out), "--quiet"]) == 3
    err = json.loads(capsys.readouterr().err)["error"]
    assert err["kind"] == "runtime"
    assert "T = 1000000000000" in err["message"]
    assert not {"hazard.json", "births.csv", "run.manifest.json"} & set(os.listdir(out))


@pytest.mark.parametrize(
    "entry, message",
    [
        ({"mu": 1.0, "omega_sigma": 1000.0}, "omega must be finite"),
        ({"mu": 1.0, "omega_median": 1.5e-320, "omega_sigma": 10.0}, "omega must be positive"),
    ],
    ids=["weight-overflow", "weight-underflow"],
)
def test_entrant_weights_out_of_range_are_a_runtime_error(tmp_path, capsys, entry, message):
    # The config is valid, but some entrant's exp(omega_sigma * z) leaves
    # the floating-point range.
    cfg = write_config(tmp_path, {"portfolio": {"entry": entry}})
    assert main(["portfolio", "--config", cfg, "--out", str(tmp_path / "out"), "--quiet"]) == 3
    err = json.loads(capsys.readouterr().err)["error"]
    assert err["kind"] == "runtime"
    assert err["message"] == message


def test_ces_index_out_of_range_is_a_runtime_error(tmp_path, capsys):
    # The config is valid, but the CES index's power (sum omega k^rho)^((1 - rho)/rho)
    # leaves the floating-point range when the effective weights are taken.
    cfg = tmp_path / "config.yaml"
    cfg.write_text("portfolio:\n  omega: 1.0e+300\n  rho: 0.1\n")
    assert main(["portfolio", "--config", str(cfg), "--out", str(tmp_path / "out"), "--quiet"]) == 3
    err = json.loads(capsys.readouterr().err)["error"]
    assert err["kind"] == "runtime"
    assert err["message"] == "effective weights out of range: the CES index overflows"


@pytest.mark.parametrize(
    "command, text",
    [
        ("portfolio", "portfolio:\n  omega: 1.0e+300\n"),
        ("portfolio", "portfolio:\n  rho: 1.0\n  Lambda: 1.0e+300\n  omega: 1.0e+300\n"),
        ("estimate", "portfolio:\n  omega: 1.0e+300\n"),
        ("roy", "roy:\n  omega: 1.0e+300\n  replications: 1\n"),
    ],
    ids=["ces", "additive", "estimate", "roy"],
)
def test_weight_overflow_is_one_json_error(tmp_path, capsys, command, text):
    # The config is valid, but the effective weights overflow; no numpy
    # warning reaches stderr ahead of the error record.
    cfg = tmp_path / "config.yaml"
    cfg.write_text(text)
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "out"), "--quiet"]) == 3
    err = json.loads(capsys.readouterr().err)["error"]
    assert err["kind"] == "runtime"
    assert err["message"] == "effective weights out of range: the labor split overflows"


@pytest.mark.parametrize(
    "command, data, message",
    [
        ("steady-state", {"baseline": {"r": sys.float_info.max}}, "comparative statics out of range: D**2 overflows"),
        ("portfolio", {"portfolio": {"k0": sys.float_info.max}}, "capability index out of range: the CES index overflows"),
        ("estimate", {"portfolio": {"k0": sys.float_info.max}}, "capability index out of range: the CES index overflows"),
        ("estimate", {"baseline": {"L_bar": 5e-324}}, "maintenance share out of range: labor_total / L_bar overflows"),
        ("portfolio", {"portfolio": {"rho": -400.0}}, "effective weights out of range: the CES index overflows"),
        ("portfolio", {"portfolio": {"omega": sys.float_info.max}}, "effective weights out of range: the CES index overflows"),
        (
            "roy",
            {"roy": {"sigma_young": 1e12, "replications": 1, "T": 6, "eval_window": 3, "n_workers": 50}},
            "skill draws out of range: exp(sigma * z) leaves the float range; lower sigma_young",
        ),
        (
            "roy",
            {"roy": {"omega": 1e-8, "beta": 5e-324, "replications": 1, "T": 6, "eval_window": 3, "n_workers": 50}},
            "Roy supply out of range: beta * w / Lambda underflows to 0; raise beta or omega",
        ),
    ],
    ids=[
        "comparative-statics", "capability", "estimate-capability", "maintenance-share", "ces-inner-sum", "ces-omega",
        "skill-draws", "roy-supply",
    ],
)
def test_float_range_overflow_names_what_overflowed(tmp_path, capsys, pin_cpus, command, data, message):
    # A valid config whose values take one quantity beyond the float range:
    # one JSON error that names it, and no numpy warning ahead of it.
    pin_cpus(1)
    cfg = write_config(tmp_path, data)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([command, "--config", cfg, "--out", str(tmp_path / "out"), "--quiet"]) == 3
    err = json.loads(capsys.readouterr().err)["error"]
    assert (err["kind"], err["message"]) == ("runtime", message)


@pytest.mark.parametrize(
    "baseline",
    [
        {"r": sys.float_info.max},
        {"gamma": 1.5e-300, "eta": 1.5e-10},
        {"gamma": 1.5e-170, "eta": 1.5e-170, "L_bar": 1.5e300},
    ],
    ids=["r", "eta-gamma", "eta-gamma-underflows"],
)
def test_overflowing_default_damping_is_a_runtime_error(tmp_path, capsys, baseline):
    # A damping of 0 would write a path that never moves; the run stops
    # before writing anything and names the field that sets the damping,
    # and with that field set the same run goes through.
    cfg = write_config(tmp_path, {"baseline": baseline})
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out", str(out), "--quiet"]) == 3
    err = json.loads(capsys.readouterr().err)["error"]
    assert err == {
        "kind": "runtime",
        "path": "",
        "message": "default damping is 0 as the labor response eta * c overflows; set transition.damping",
    }
    assert os.listdir(out) == []
    cfg = write_config(tmp_path, {"baseline": baseline, "transition": {"damping": 0.5}})
    assert main(["simulate", "--config", cfg, "--out", str(out), "--quiet"]) == 0


STEADY_STATE_UNDERFLOWS = "steady state out of range: gamma * delta_k and (1 - alpha) * (r + delta_k) both underflow to 0"


@pytest.mark.parametrize(
    "command, tiny, message",
    [
        ("steady-state", 5e-324, STEADY_STATE_UNDERFLOWS),
        ("simulate", 5e-324, STEADY_STATE_UNDERFLOWS),
        ("steady-state", 1e-200, "comparative statics out of range: D**2 underflows"),
    ],
    ids=["steady-state-D", "simulate-D", "steady-state-D-squared"],
)
def test_closed_form_underflow_is_a_runtime_error(tmp_path, capsys, command, tiny, message):
    # At alpha just below 1 and tiny r and delta_k, D = gamma * delta_k +
    # (1 - alpha) * (r + delta_k) underflows to 0 at 5e-324, and D**2 does
    # at 1e-200: one JSON error and no outputs, not a ZeroDivisionError.
    cfg = write_config(tmp_path, {"baseline": {"alpha": 0.9999999999999999, "r": tiny, "delta_k": tiny}})
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out), "--quiet"]) == 3
    err = json.loads(capsys.readouterr().err)["error"]
    assert (err["kind"], err["message"]) == ("runtime", message)
    assert os.listdir(out) == []


@pytest.mark.parametrize(
    "command, data",
    [
        ("portfolio", {"portfolio": {"n_families": 10_000, "T": 2000}}),
        ("estimate", {"portfolio": {"n_families": 1, "T": 1000, "entry": {"mu": 500.0}}}),
        ("roy", {"roy": {"n_initial": 10_000, "T": 2000, "eval_window": 1, "replications": 1}}),
    ],
    ids=["portfolio", "estimate-entry", "roy-arm"],
)
def test_a_panel_beyond_the_row_bound_is_a_runtime_error(tmp_path, capsys, pin_cpus, command, data):
    # Each scenario would record more than MAX_PANEL_ROWS rows: 10,000
    # families over 2,001 periods, or, with entry, about 250 t**2 rows by
    # period t.  It is refused before its panel is allocated.
    pin_cpus(1)
    cfg = write_config(tmp_path, data)
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out), "--quiet"]) == 3
    err = json.loads(capsys.readouterr().err)["error"]
    assert (err["kind"], err["message"]) == ("runtime", "panel out of range: the scenario would record more than 20,000,000 rows")
    assert os.listdir(out) == []


def test_a_prior_corner_whose_share_is_zero_over_zero_is_a_runtime_error(tmp_path, capsys):
    # The lower corner's gamma * delta_k and (1 - alpha) * (r + delta_k) both
    # underflow; the draws, with delta_k and gamma up to 0.5, do not.
    priors = {"alpha": [0.9999999999999999] * 2, "r": [5e-324] * 2, "delta_k": [5e-324, 0.5], "gamma": [5e-324, 0.5]}
    cfg = write_config(tmp_path, {"priors": {**priors, "n_draws": 1000}})
    out = tmp_path / "out"
    assert main(["calibrate", "--config", cfg, "--out", str(out), "--quiet"]) == 3
    err = json.loads(capsys.readouterr().err)["error"]
    assert err["kind"] == "runtime" and err["message"].startswith("share bounds out of range")
    assert os.listdir(out) == []


@pytest.mark.parametrize(
    "data",
    [{"transition": {"tol": 1e-12}}, {"baseline": {"alpha": 0.9999999999999999, "r": 1e-200, "delta_k": 1e-200}}],
    ids=["tol", "D-squared-underflows"],
)
def test_simulate_runs_at_json_exponent_floats(tmp_path, data):
    # json.dumps writes 1e-12 and 1e-200 without a dot, which YAML 1.1 reads
    # as strings.  Where only D**2 underflows, simulate still runs: it needs
    # no comparative statics.
    cfg = write_config(tmp_path, data)
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "out"), "--quiet"]) == 0


def test_stdout_closed_by_its_reader_exits_zero(tmp_path):
    # The summary is printed last, after every output and the manifest are
    # written; a reader that has gone by then loses only the summary.
    read_end, write_end = os.pipe()
    os.close(read_end)
    out = tmp_path / "out"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "structlabor.cli", "portfolio", "--seed", "1", "--out", str(out)],
            stdout=write_end, stderr=subprocess.PIPE, env=env, text=True, timeout=120,
        )
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (0, "")
    outputs = read_json(out, "run.manifest.json")["outputs"]
    assert sorted(e["path"] for e in outputs) == ["capability.csv", "panel.csv", "portfolio.json"]


def test_sigterm_mid_write_leaves_no_temporary_file_or_worker(tmp_path):
    # A large portfolio is sent SIGTERM once its panel.csv is being written
    # (a temporary file is in the output directory): the run exits with 143,
    # its temporary file removed and its forked workers reaped.
    cfg = write_config(tmp_path, LARGE_PORTFOLIO)
    out = tmp_path / "out"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    proc = subprocess.Popen(
        [sys.executable, "-m", "structlabor.cli", "portfolio", "--config", cfg, "--out", str(out), "--quiet"],
        stderr=subprocess.PIPE, env=env, text=True, start_new_session=True,
    )
    try:
        deadline = time.monotonic() + 120
        while not list(out.glob("*.tmp")) and proc.poll() is None and time.monotonic() < deadline:
            time.sleep(0.001)
        assert list(out.glob("*.tmp")), "the run wrote no temporary file while it was watched"
        os.kill(proc.pid, signal.SIGTERM)
        stderr = proc.communicate(timeout=120)[1]
    finally:
        proc.kill()
        proc.wait()
    assert (proc.returncode, stderr) == (143, "")
    assert not list(out.glob("*.tmp"))
    # The run was its own process group, so none of its workers is left in it.
    with pytest.raises(ProcessLookupError):
        os.killpg(proc.pid, 0)


@pytest.mark.skipif(
    _cpu_count() < 2 or not os.path.isdir("/proc/self/task"),
    reason="panel.csv is rendered in forked workers with 2+ CPUs, found here through /proc",
)
def test_killed_worker_exits_three_with_one_json_error(tmp_path):
    # One forked worker of a large portfolio's panel.csv write is sent
    # SIGKILL: the run reports an io error (exit 3, one JSON object on
    # stderr), its temporary file removed and its other workers reaped.
    cfg = write_config(tmp_path, LARGE_PORTFOLIO)
    out = tmp_path / "out"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    proc = subprocess.Popen(
        [sys.executable, "-m", "structlabor.cli", "portfolio", "--config", cfg, "--out", str(out), "--quiet"],
        stderr=subprocess.PIPE, env=env, text=True, start_new_session=True,
    )
    try:
        children, workers = f"/proc/{proc.pid}/task/{proc.pid}/children", []
        deadline = time.monotonic() + 120
        while not workers and proc.poll() is None and time.monotonic() < deadline:
            if list(out.glob("*.tmp")):
                with open(children, encoding="ascii") as fh:
                    workers = fh.read().split()
            time.sleep(0.001)
        assert workers, "the run forked no worker while its panel.csv was watched"
        os.kill(int(workers[0]), signal.SIGKILL)
        stderr = proc.communicate(timeout=120)[1]
    finally:
        proc.kill()
        proc.wait()
    assert proc.returncode == 3
    [line] = stderr.splitlines()
    error = json.loads(line)["error"]
    assert error["kind"] == "io"
    assert re.fullmatch("forked worker [0-9]+ exited without a result", error["message"])
    assert not list(out.glob("*.tmp"))
    with pytest.raises(ProcessLookupError):
        os.killpg(proc.pid, 0)


def test_main_restores_the_sigterm_handler(tmp_path):
    previous = signal.getsignal(signal.SIGTERM)
    assert main(["steady-state", "--out", str(tmp_path / "out"), "--quiet"]) == 0
    assert signal.getsignal(signal.SIGTERM) is previous


def test_bad_config_value_exits_two_with_json_error(tmp_path, capsys):
    cfg = write_config(tmp_path, {"baseline": {"gamma": 1.5}})
    assert main(["steady-state", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["kind"] == "config"
    assert err["error"]["path"] == "baseline.gamma"
    assert "gamma must lie in (0, 1)" in err["error"]["message"]


def nested(path, value):
    """A config mapping that sets one dotted path."""
    for key in reversed(path.split(".")):
        value = {key: value}
    return value


# One out-of-range or wrong-type value for every config field.
BAD_VALUES = [
    ("run.seed", -1),
    ("run.out", ""),
    ("run.format", "xml"),
    ("baseline.alpha", 1.5),
    ("baseline.gamma", 0.0),
    ("baseline.r", 0.0),
    ("baseline.delta_k", 1.0),
    ("baseline.eta", -0.2),
    ("baseline.A_bar", 0.0),
    ("baseline.K", "big"),
    ("baseline.L_bar", True),
    ("priors.alpha", [0.3, 1.2]),
    ("priors.r", [0.0, 0.05]),
    ("priors.delta_k", [0.08]),
    ("priors.gamma", "wide"),
    ("priors.n_draws", 0),
    ("transition.k0", -1.0),
    ("transition.L_S0", -0.5),
    ("transition.T", 2.5),
    ("transition.damping", 5.0),
    ("transition.tol", 0.0),
    ("portfolio.n_families", 0),
    ("portfolio.omega", [1.0, -1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0]),
    ("portfolio.delta_j", 1.5),
    ("portfolio.k0", -1.0),
    ("portfolio.rho", 0.0),
    ("portfolio.epsilon_floor", 0.0),
    ("portfolio.beta", 1.0),
    ("portfolio.Lambda", 0.0),
    ("portfolio.labor_budget", -1.0),
    ("portfolio.T", 0),
    ("portfolio.entry.mu", -0.1),
    ("portfolio.entry.k_seed", -1.0),
    ("portfolio.entry.omega_median", 0.0),
    ("portfolio.entry.omega_sigma", -0.5),
    ("portfolio.entry.delta_j", [0.0, 0.25]),
    ("portfolio.drift.enabled", "yes"),
    ("portfolio.drift.env_hazard", 1.5),
    ("portfolio.drift.tech_hazard", -0.1),
    ("portfolio.drift.org_hazard", 2.0),
    ("portfolio.drift.tech_start", -1),
    ("portfolio.drift.tech_every", 0),
    ("portfolio.drift.org_start", 1.5),
    ("portfolio.drift.org_every", 0),
    ("portfolio.drift.drop_frac", 1.0),
    ("roy.n_initial", 0),
    ("roy.initial_k", -1.0),
    ("roy.omega", 0.0),
    ("roy.delta_j", [0.08, 1.0]),
    ("roy.rho", 0.0),
    ("roy.beta", 1.5),
    ("roy.Lambda", -1.0),
    ("roy.epsilon_floor", 0.0),
    ("roy.labor_budget", -1.0),
    ("roy.T", 0),
    ("roy.mu", -0.25),
    ("roy.k_seed", -0.001),
    ("roy.omega_sigma", -0.5),
    ("roy.n_workers", 1),
    ("roy.sigma_young", -1.5),
    ("roy.sigma_mature", -0.2),
    ("roy.k_ref", 0.0),
    ("roy.tol", -1.0),
    ("roy.eval_window", 0),
    ("roy.treatment", "sigma"),
    ("roy.factor", 0.0),
    ("roy.replications", 0),
    ("estimate.panel", ""),
    ("estimate.rel_drop", 1.0),
    ("estimate.horizon", 0),
]

NULLABLE = {"transition.k0", "transition.L_S0", "transition.damping", "estimate.panel"}

# Values that break a rule spanning fields, and the one path each reports.
CROSS_FIELD = [
    ({"priors": {"gamma": [0.08, 0.02]}}, "priors.gamma"),
    ({"portfolio": {"entry": {"delta_j": [0.25, 0.08]}}}, "portfolio.entry.delta_j"),
    ({"roy": {"delta_j": [0.25, 0.08]}}, "roy.delta_j"),
    ({"transition": {"L_S0": 5.0}}, "transition.L_S0"),
    ({"baseline": {"L_bar": 2.0}, "transition": {"L_S0": 3.0}}, "transition.L_S0"),
    ({"roy": {"T": 5, "eval_window": 7}}, "roy.eval_window"),
    ({"roy": {"sigma_mature": 2.0}}, "roy.sigma_mature"),
    (
        {"portfolio": {"drift": {"env_hazard": 0.5, "tech_hazard": 0.4, "org_hazard": 0.3}}},
        "portfolio.drift.env_hazard",
    ),
    ({"portfolio": {"n_families": 3, "omega": [1.0, 2.0]}}, "portfolio.omega"),
    ({"portfolio": {"n_families": 2, "delta_j": [0.1, 0.2, 0.3]}}, "portfolio.delta_j"),
    ({"portfolio": {"k0": [1.0]}}, "portfolio.k0"),
    # A one-period experiment, so that a missing rule fails fast at run time.
    ({"roy": {"mu": 300.0, "factor": 2.0, "T": 1, "eval_window": 1, "replications": 1}}, "roy.factor"),
]

# Second bad values: entry intensities beyond the Poisson sampler's limit, a
# family count whose per-family broadcast would overflow a list, draw, worker
# and initial Roy family counts whose arrays could not be allocated, a
# degradation horizon beyond the int64 periods, more Roy replications than
# the experiment may hold, more portfolio periods than the drift windows
# built at load may cover, more transition periods than a path that does
# not converge may run, and more Roy periods than a portfolio scenario may run.
BEYOND_LIMIT = [
    ({"portfolio": {"entry": {"mu": 600.0}}}, "portfolio.entry.mu"),
    ({"roy": {"mu": 600.0}}, "roy.mu"),
    ({"portfolio": {"n_families": 10**30}}, "portfolio.n_families"),
    ({"priors": {"n_draws": 10**12}}, "priors.n_draws"),
    # A one-period experiment, so that a missing bound fails fast at run time.
    ({"roy": {"n_workers": 10**12, "T": 1, "eval_window": 1, "replications": 1}}, "roy.n_workers"),
    ({"roy": {"n_initial": 10**30, "T": 1, "eval_window": 1, "replications": 1}}, "roy.n_initial"),
    # The experiment holds every arm's inputs before its solves, so an
    # unbounded count would fill memory rather than merely run long.
    ({"roy": {"replications": 10**12}}, "roy.replications"),
    ({"estimate": {"horizon": 10**30}}, "estimate.horizon"),
    # One family and no entrants, so that a missing bound fails in seconds at run time.
    ({"portfolio": {"T": MAX_PERIODS + 1, "n_families": 1, "entry": {"mu": 0.0}}}, "portfolio.T"),
    ({"transition": {"T": MAX_PERIODS + 1}}, "transition.T"),
    # One family, no entrants and one evaluated period: without the bound this runs about 20 s and exits 0.
    ({"roy": {"T": MAX_PERIODS + 1, "n_initial": 1, "mu": 0.0, "eval_window": 1, "replications": 1}}, "roy.T"),
]

# Integer literals too large for a float, as a scalar, in a pair and in a per-family list.
HUGE = 10**400
HUGE_LITERALS = [
    ({"baseline": {"alpha": HUGE}}, "baseline.alpha"),
    ({"priors": {"r": [0.01, HUGE]}}, "priors.r"),
    ({"portfolio": {"omega": [1.0] * 7 + [HUGE]}}, "portfolio.omega"),
]

# The command that would consume each section.
COMMAND = {
    "run": "steady-state", "baseline": "steady-state", "priors": "calibrate", "transition": "simulate",
    "portfolio": "portfolio", "roy": "roy", "estimate": "estimate",
}

BAD_CASES = (
    [pytest.param(nested(p, v), p, id=f"{p}={v!r}") for p, v in BAD_VALUES]
    + [pytest.param(nested(p, None), p, id=f"{p}=null") for p, _ in BAD_VALUES if p not in NULLABLE]
    + [pytest.param(c, p, id=f"rule:{p}:{json.dumps(c)}") for c, p in CROSS_FIELD]
    + [pytest.param(c, p, id=f"limit:{p}") for c, p in BEYOND_LIMIT]
)


def test_bad_values_cover_every_field():
    from structlabor.config import FIELDS

    assert sorted(p for p, _ in BAD_VALUES) == sorted(f.path for f in FIELDS)
    assert len(FIELDS) == 70


@pytest.mark.parametrize("data, path", BAD_CASES)
def test_every_bad_value_exits_two_with_its_dotted_path(tmp_path, capsys, data, path):
    out = tmp_path / "o"
    cfg = write_config(tmp_path, data)
    assert main([COMMAND[path.split(".")[0]], "--config", cfg, "--out", str(out), "--quiet"]) == 2
    err = json.loads(capsys.readouterr().err)["error"]
    assert err["kind"] == "config"
    assert err["path"] == path
    assert not out.exists()


@pytest.mark.parametrize("data, path", HUGE_LITERALS, ids=[p for _, p in HUGE_LITERALS])
def test_huge_integer_literals_are_not_finite(tmp_path, capsys, data, path):
    cfg = write_config(tmp_path, data)
    out = tmp_path / "o"
    assert main([COMMAND[path.split(".")[0]], "--config", cfg, "--out", str(out), "--quiet"]) == 2
    err = json.loads(capsys.readouterr().err)["error"]
    assert (err["kind"], err["path"], err["message"]) == ("config", path, "must be finite")
    assert not out.exists()


# The index is CES only, and rho: 1 is the additive index, so there is no aggregator kind to choose.
@pytest.mark.parametrize("path, value", [("portfolio.entry.mus", 0.1), ("portfolio.aggregator", "ces")])
def test_unknown_key_error_names_the_path(tmp_path, capsys, path, value):
    cfg = write_config(tmp_path, nested(path, value))
    assert main(["portfolio", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = json.loads(capsys.readouterr().err)["error"]
    assert (err["kind"], err["path"], err["message"]) == ("config", path, "unknown key")


def test_usage_errors_follow_the_json_contract(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
    err = json.loads(capsys.readouterr().err.splitlines()[-1])
    assert err["error"]["kind"] == "config"


def test_seed_override_changes_outputs(tmp_path):
    cfg = write_config(tmp_path, SMALL_PORTFOLIO)
    out_a = str(tmp_path / "a")
    out_b = str(tmp_path / "b")
    out_c = str(tmp_path / "c")
    assert main(["portfolio", "--config", cfg, "--out", out_a, "--quiet"]) == 0
    assert main(["portfolio", "--config", cfg, "--out", out_b, "--quiet", "--seed", "1"]) == 0
    assert main(["portfolio", "--config", cfg, "--out", out_c, "--quiet"]) == 0
    same = sha256_file(os.path.join(out_a, "panel.csv"))
    assert sha256_file(os.path.join(out_c, "panel.csv")) == same
    assert sha256_file(os.path.join(out_b, "panel.csv")) != same
    # The recorded config digest moves with the seed.
    da = read_json(out_a, "run.manifest.json")["config_sha256"]
    db = read_json(out_b, "run.manifest.json")["config_sha256"]
    assert da != db


def test_out_env_var_supplies_the_default_directory(tmp_path, monkeypatch):
    target = str(tmp_path / "from_env")
    monkeypatch.setenv("STRUCTLABOR_OUT", target)
    assert main(["steady-state", "--quiet"]) == 0
    assert os.path.exists(os.path.join(target, "steady_state.json"))
    # An explicit flag still wins.
    explicit = str(tmp_path / "explicit")
    assert main(["steady-state", "--quiet", "--out", explicit]) == 0
    assert os.path.exists(os.path.join(explicit, "steady_state.json"))


def test_out_directory_collision_is_an_io_error(tmp_path, capsys):
    blocker = tmp_path / "blocked"
    blocker.write_text("a file, not a directory")
    assert main(["steady-state", "--out", str(blocker), "--quiet"]) == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["kind"] == "io"


def test_identical_runs_are_byte_identical(tmp_path):
    cfg = write_config(tmp_path, SMALL_PORTFOLIO)
    outs = [str(tmp_path / n) for n in ("r1", "r2")]
    for out in outs:
        assert main(["portfolio", "--config", cfg, "--out", out, "--quiet", "--format", "both"]) == 0
    m1 = read_json(outs[0], "run.manifest.json")
    m2 = read_json(outs[1], "run.manifest.json")
    assert [e["sha256"] for e in m1["outputs"]] == [e["sha256"] for e in m2["outputs"]]


# Output digests at --seed 7 for the two commands whose outputs the README
# states are identical on every numpy build.  Neither file holds a path.
BUILD_INDEPENDENT_DIGESTS = {
    "steady-state": {"steady_state.json": "cbaa9ef9b6c6f5e0d536f01272e59bdfc5c39ae593aa14bbcf40e0268a47a9a0"},
    "calibrate": {"calibration.json": "0af66231f26e88e20dcdbfec74f858f967d82bc5bad3cbd8423d2b1e3540c3f2"},
}
# The default config's digest: a change to the config's keys or defaults re-pins it on purpose.
DEFAULT_CONFIG_SHA256 = "21e3397d68ed31927251fceb1fed4301ee2ef7358e91c6135fb637c85996e718"


@pytest.mark.parametrize("command", sorted(BUILD_INDEPENDENT_DIGESTS))
def test_build_independent_outputs_keep_their_digests(tmp_path, command):
    cfg = write_config(tmp_path, {"priors": {"n_draws": 2000}})
    out = str(tmp_path / "out")
    assert main([command, "--config", cfg, "--seed", "7", "--out", out, "--quiet"]) == 0
    manifest = read_json(out, "run.manifest.json")
    assert {e["path"]: e["sha256"] for e in manifest["outputs"]} == BUILD_INDEPENDENT_DIGESTS[command]


def test_the_default_config_keeps_its_digest(tmp_path):
    out = str(tmp_path / "out")
    assert main(["steady-state", "--out", out, "--quiet"]) == 0
    assert read_json(out, "run.manifest.json")["config_sha256"] == DEFAULT_CONFIG_SHA256


def _dispatched_targets():
    """The SIMD targets this numpy dispatches at run time on this CPU, or None where that cannot be read."""
    try:
        from numpy._core import _multiarray_umath as umath

        return [t for t in umath.__cpu_dispatch__ if umath.__cpu_features__.get(t)]
    except (ImportError, AttributeError):
        return None


def test_build_independent_outputs_match_with_simd_dispatch_off(tmp_path):
    # The outputs the README calls build-independent, from the default
    # config, are byte-identical when every SIMD target numpy dispatches is
    # switched off: a second code path of the same build.
    targets = _dispatched_targets()
    if targets is None:
        pytest.skip("numpy's dispatch list cannot be read")
    if not targets:
        pytest.skip("numpy dispatches no SIMD target on this CPU, so there is no second code path")
    env = {k: v for k, v in os.environ.items() if k != "NPY_DISABLE_CPU_FEATURES"}
    env["PYTHONPATH"] = os.pathsep.join(sys.path)
    off = {**env, "NPY_DISABLE_CPU_FEATURES": " ".join(targets)}
    probe = "from numpy._core import _multiarray_umath as m; print(any(m.__cpu_features__[t] for t in m.__cpu_dispatch__))"
    run = subprocess.run([sys.executable, "-c", probe], env=off, capture_output=True, text=True, check=True, timeout=60)
    assert run.stdout.strip() == "False"  # the switch took

    def outputs(label, environment):
        files = {}
        for command in ("steady-state", "calibrate", "simulate"):
            out = tmp_path / label / command
            args = [sys.executable, "-m", "structlabor.cli", command, "--out", str(out), "--format", "both", "--quiet"]
            subprocess.run(args, env=environment, check=True, timeout=120)
            files.update({p.name: p.read_bytes() for p in out.iterdir() if p.name != "run.manifest.json"})
        return files

    on, dispatch_off = outputs("on", env), outputs("off", off)
    assert sorted(on) == ["calibration.json", "path.csv", "path.json", "steady_state.json", "transition.json"]
    assert sorted(dispatch_off) == sorted(on)
    for name, data in on.items():
        assert dispatch_off[name] == data, name


def test_outputs_do_not_depend_on_workers(tmp_path, pin_cpus):
    # A panel of more than one CSV chunk, written serially and by two forked
    # workers; calibrate runs in one process, so its outputs must not move either.
    cfg = write_config(tmp_path, {"portfolio": {"n_families": 60, "T": 400}, "priors": {"n_draws": 300_000}})
    outputs = {}
    for cpus in (1, 2):
        pin_cpus(cpus)
        for command in ("portfolio", "calibrate"):
            out = str(tmp_path / f"{command}-{cpus}")
            assert main([command, "--config", cfg, "--out", out, "--quiet"]) == 0
            outputs[command, cpus] = read_json(out, "run.manifest.json")["outputs"]
    with open(os.path.join(tmp_path, "portfolio-1", "panel.csv"), encoding="utf-8") as fh:
        assert sum(1 for _ in fh) > 16_384 + 1
    for command in ("portfolio", "calibrate"):
        assert outputs[command, 1] == outputs[command, 2]


# The error contract swept over the config table: every float-valued field,
# one at a time, at each of these values (a pair or per-family field in every
# entry), and the CES exponent at large negative values, under every command
# that reads the field's section, over a small base config.
SWEEP_VALUES = (0.0, 5e-324, 1e12, 1e300, sys.float_info.max, -1.0)
SWEEP_RHO = (-1.0, -60.0, -400.0, -1e300)
SWEEP_BASE = {
    "priors": {"n_draws": 2000},
    "transition": {"T": 200},
    "portfolio": {"T": 30, "drift": {"enabled": True}},
    "roy": {"replications": 1, "T": 6, "eval_window": 3, "n_workers": 50},
}
# The commands that read each section; estimate reads baseline.L_bar for its indices.
READERS = {
    "baseline": ("steady-state", "simulate", "estimate"),
    "priors": ("calibrate",),
    "transition": ("simulate",),
    "portfolio": ("portfolio", "estimate"),
    "roy": ("roy",),
    "estimate": ("estimate",),
}


def _sweep_cases():
    from structlabor.config import FIELDS, PAIR, PER_FAMILY

    for f in FIELDS:
        if f.kind in (float, PAIR, PER_FAMILY):
            for v in SWEEP_VALUES:
                yield pytest.param(f.path, [v, v] if f.kind is PAIR else v, id=f"{f.path}={v!r}")
    for v in SWEEP_RHO:
        yield pytest.param("portfolio.rho", v, id=f"portfolio.rho={v!r}")


def _merged(base, over):
    out = dict(base)
    for key, value in over.items():
        out[key] = _merged(base.get(key, {}), value) if isinstance(value, dict) else value
    return out


@pytest.mark.parametrize("path, value", list(_sweep_cases()))
def test_error_contract_holds_at_the_edges_of_the_float_range(tmp_path, capsys, pin_cpus, path, value):
    # Exit 0, 2 or 3 with at most one JSON error object on stderr: no
    # traceback, and no numpy warning ahead of the record (warnings raise
    # here, and every command runs in this process, Roy arms included).
    pin_cpus(1)
    cfg = write_config(tmp_path, _merged(SWEEP_BASE, nested(path, value)))
    for command in READERS[path.split(".")[0]]:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main([command, "--config", cfg, "--out", str(tmp_path / command), "--quiet"])
        err = capsys.readouterr().err.splitlines()
        assert code in (0, 2, 3), command
        assert len(err) <= 1 and (code == 0) == (err == []), (command, err)
        assert all(set(json.loads(line)) == {"error"} for line in err), command
