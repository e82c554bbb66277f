import ast
import dataclasses
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

from structlabor import schema
from structlabor.calibration import PriorSpec, sample_parameters, sample_shares
from structlabor.config import AppConfig, load_config, serialize
from structlabor.core import BaselineParams, simulate_transition
from structlabor.estimators import MaturityPanel, detect_degradation
from structlabor.errors import ConfigError, DomainError
from structlabor.portfolio import AggregatorSpec, DriftConfig, EntryConfig, Portfolio, PowerCodification
from structlabor.roy import RoyExperiment, maturity_skill_sigma, solve_roy
from structlabor.schema import (
    MAX_DRAWS,
    MAX_FAMILIES,
    MAX_HORIZON,
    MAX_INITIAL,
    MAX_PERIODS,
    MAX_REPLICATIONS,
    MAX_WORKERS,
)


def test_empty_config_gives_documented_defaults():
    cfg = AppConfig({})
    assert cfg.run.seed == 0
    assert cfg.run.out == "out"
    assert cfg.run.format == "csv"
    assert cfg.baseline.alpha == 0.36
    assert cfg.baseline.gamma == 0.05
    assert cfg.baseline.r == 0.04
    assert cfg.baseline.delta_k == 0.15
    assert cfg.baseline.eta == 0.2
    assert cfg.priors.alpha == (0.33, 0.40)
    assert cfg.priors.r == (0.03, 0.05)
    assert cfg.priors.delta_k == (0.08, 0.25)
    assert cfg.priors.gamma == (0.02, 0.08)
    assert cfg.priors.n_draws == 200_000
    assert cfg.transition.T == 500
    assert cfg.transition.damping is None
    assert cfg.portfolio.n_families == 8
    assert cfg.portfolio.rho == 0.5
    assert cfg.roy.treatment == "mu"
    assert cfg.roy.replications == 10
    assert cfg.estimate.rel_drop == 0.2
    assert cfg.estimate.horizon == 1
    assert serialize(cfg) == serialize(AppConfig())


def test_none_config_equals_empty_config():
    assert serialize(AppConfig(None)) == serialize(AppConfig({}))


def test_serialize_parse_round_trip():
    cfg = AppConfig({
        "run": {"seed": 9, "format": "both"},
        "baseline": {"gamma": 0.06},
        "portfolio": {"n_families": 3, "rho": -0.5, "entry": {"mu": 0.7}},
        "roy": {"treatment": "delta", "factor": 3.0},
    })
    blob = serialize(cfg)
    again = serialize(AppConfig(blob))
    assert again == blob


def test_dump_yaml_round_trip():
    cfg = AppConfig({"run": {"seed": 4}, "transition": {"T": 50}})
    text = yaml.safe_dump(serialize(cfg), sort_keys=True, default_flow_style=False)
    back = AppConfig(yaml.safe_load(text))
    assert serialize(back) == serialize(cfg)


def test_unknown_keys_carry_dotted_paths():
    with pytest.raises(ConfigError) as err:
        AppConfig({"runn": {}})
    assert err.value.path == "runn"
    with pytest.raises(ConfigError) as err:
        AppConfig({"run": {"sed": 1}})
    assert err.value.path == "run.sed"
    with pytest.raises(ConfigError) as err:
        AppConfig({"portfolio": {"entry": {"mus": 0.1}}})
    assert err.value.path == "portfolio.entry.mus"
    # The Roy solver's step is a constant in the code, not a config field.
    with pytest.raises(ConfigError) as err:
        AppConfig({"roy": {"damping": 0.3}})
    assert err.value.path == "roy.damping"


def test_type_errors_are_rejected():
    with pytest.raises(ConfigError):
        AppConfig({"run": {"seed": 1.5}})
    with pytest.raises(ConfigError):
        AppConfig({"run": {"seed": True}})
    with pytest.raises(ConfigError):
        AppConfig({"baseline": {"gamma": "high"}})
    with pytest.raises(ConfigError):
        AppConfig({"baseline": {"gamma": True}})
    with pytest.raises(ConfigError):
        AppConfig({"transition": {"T": 2.5}})
    with pytest.raises(ConfigError):
        AppConfig({"run": "fast"})


def test_choice_fields_are_validated():
    with pytest.raises(ConfigError) as err:
        AppConfig({"run": {"format": "xml"}})
    assert err.value.path == "run.format"
    with pytest.raises(ConfigError):
        AppConfig({"roy": {"treatment": "sigma"}})


def test_out_of_range_values_surface_the_reason():
    with pytest.raises(ConfigError) as err:
        AppConfig({"baseline": {"gamma": 1.5}})
    assert "gamma must lie in (0, 1)" in str(err.value)
    with pytest.raises(ConfigError):
        AppConfig({"run": {"seed": -1}})
    with pytest.raises(ConfigError):
        AppConfig({"run": {"seed": 2**64}})
    with pytest.raises(ConfigError) as err:
        AppConfig({"priors": {"gamma": [0.08, 0.02]}})
    assert (err.value.path, err.value.message) == ("priors.gamma", "gamma must have lo <= hi")
    with pytest.raises(ConfigError):
        AppConfig({"estimate": {"rel_drop": 1.0}})


def test_portfolio_list_lengths_must_match():
    with pytest.raises(ConfigError):
        AppConfig({"portfolio": {"n_families": 3, "omega": [1.0, 2.0]}})
    cfg = AppConfig({"portfolio": {"n_families": 2, "omega": [1.0, 2.0], "k0": [0.5, 0.7]}})
    p = cfg.portfolio.initial
    assert list(p.omega) == [1.0, 2.0]
    assert list(p.k) == [0.5, 0.7]


def test_drift_numbers_validated_even_when_disabled():
    with pytest.raises(ConfigError):
        AppConfig({"portfolio": {"drift": {"enabled": False, "drop_frac": 1.5}}})
    cfg = AppConfig({"portfolio": {"drift": {"enabled": True, "env_hazard": 0.02}}})
    assert cfg.portfolio.drift.env_hazard == 0.02
    assert AppConfig({}).portfolio.drift is None


def test_roy_section_flows_into_experiment():
    cfg = AppConfig({"roy": {"n_workers": 60, "T": 12, "eval_window": 4}})
    assert cfg.roy.n_workers == 60
    assert cfg.roy.T == 12
    assert cfg.roy.eval_window == 4
    # Defaults for fields not mentioned come from the experiment itself.
    base = AppConfig({})
    assert base.roy.sigma_young == 1.5
    assert base.roy.epsilon_floor == 0.25
    assert base.roy.eval_window == 12


def test_entry_intensities_load_up_to_the_sampler_limit():
    # The treated intensity mu * factor is bounded only under treatment mu.
    cfg = AppConfig({"roy": {"mu": 300.0, "factor": 2.0, "treatment": "delta"}})
    assert (cfg.roy.mu, cfg.roy.factor, cfg.roy.treatment) == (300.0, 2.0, "delta")
    assert AppConfig({"portfolio": {"entry": {"mu": 500.0}}}).portfolio.entry.mu == 500.0


def test_family_count_loads_up_to_its_bound():
    # The bound is checked before any per-family value is broadcast.
    assert AppConfig({"portfolio": {"n_families": MAX_FAMILIES}}).portfolio.initial.size == MAX_FAMILIES
    for n in (MAX_FAMILIES + 1, 10**30):
        with pytest.raises(ConfigError) as exc:
            AppConfig({"portfolio": {"n_families": n}})
        assert exc.value.path == "portfolio.n_families"
        assert str(MAX_FAMILIES) in str(exc.value)


@pytest.mark.parametrize(
    "section, key, bound",
    [
        ("priors", "n_draws", MAX_DRAWS),
        ("roy", "n_workers", MAX_WORKERS),
        ("roy", "replications", MAX_REPLICATIONS),
        ("portfolio", "T", MAX_PERIODS),
        ("transition", "T", MAX_PERIODS),
        ("roy", "T", MAX_PERIODS),
    ],
)
def test_draw_and_worker_counts_load_up_to_their_bounds(section, key, bound):
    # Loading allocates nothing per draw, worker, replication, transition or
    # Roy period, and per portfolio period only the drift windows (about T/5
    # + T/7 ints), so the bound itself loads; each count is checked before
    # anything is built.
    assert getattr(getattr(AppConfig({section: {key: bound}}), section), key) == bound
    for n in (bound + 1, 2**60):
        with pytest.raises(ConfigError) as exc:
            AppConfig({section: {key: n}})
        assert exc.value.path == f"{section}.{key}"
        assert str(bound) in str(exc.value)


@pytest.mark.parametrize(
    "section, key, bound",
    [("roy", "n_initial", MAX_INITIAL), ("estimate", "horizon", MAX_HORIZON)],
)
def test_initial_families_and_horizon_load_up_to_their_bounds(section, key, bound):
    # A Roy solve holds J x J matrices over its families; a horizon must fit
    # the int64 periods.  Loading allocates nothing for either.
    assert getattr(getattr(AppConfig({section: {key: bound}}), section), key) == bound
    for n in (bound + 1, 10**30):
        with pytest.raises(ConfigError) as exc:
            AppConfig({section: {key: n}})
        assert exc.value.path == f"{section}.{key}"
        assert str(bound) in str(exc.value)


def test_the_library_takes_every_config_fed_value():
    # AppConfig() is the one source of defaults for what a config row feeds;
    # PriorSpec.seed is no config field, and the CLI replaces it.
    fed = [
        BaselineParams, PriorSpec, PowerCodification, AggregatorSpec, Portfolio, EntryConfig, DriftConfig,
        RoyExperiment, simulate_transition, detect_degradation, solve_roy, sample_shares, sample_parameters,
    ]
    defaults = {
        target.__name__: [name for name, p in inspect.signature(target).parameters.items() if p.default is not p.empty]
        for target in fed
    }
    assert {name: given for name, given in defaults.items() if given} == {"PriorSpec": ["seed"]}


# Values that are no real number, alone and as a pair; a boolean is none
# either, as the config refuses it, nor a column where one number belongs.
NOT_REAL = ["x", None, 1j, [[1.0]], object(), True, np.array([0.5, 0.6, 0.7])]
NOT_REAL += [(v, v) for v in NOT_REAL]


def _library_calls():
    """(label, call taking one field's value, the schema rows of its fields)
    for every validating class and the functions that take schema rows."""
    cfg = AppConfig({"portfolio": {"drift": {"enabled": True}}})
    exp = dataclasses.replace(cfg.roy, n_initial=2, T=3, eval_window=2, n_workers=5)
    panel = MaturityPanel(
        family_id=np.zeros(2, dtype=np.int64), period=np.arange(2), maturity=np.array([1.0, 0.5]),
        tech_window=np.zeros(2, dtype=bool), org_window=np.zeros(2, dtype=bool),
    )
    objects = [
        (cfg.baseline, schema.BASELINE), (cfg.priors, schema.PRIORS), (cfg.portfolio.initial.tech, schema.CODIFICATION),
        (cfg.portfolio.initial.aggregator, schema.AGGREGATOR), (cfg.portfolio.initial, schema.PORTFOLIO),
        (cfg.portfolio.entry, schema.ENTRY), (cfg.portfolio.drift, schema.DRIFT), (exp, schema.ROY),
    ]
    for obj, rows in objects:
        yield type(obj).__name__, lambda name, value, obj=obj: dataclasses.replace(obj, **{name: value}), rows
    functions = [
        (solve_roy, {"a": np.ones((3, 2)), "w": np.ones(2), "tech": cfg.portfolio.initial.tech, "Lambda": 1.0, "tol": 1e-9},
         {name: schema.ROY[name] for name in ("Lambda", "tol")}),
        (maturity_skill_sigma, {"maturity": np.ones(2), "sigma_young": 0.5, "sigma_mature": 0.2, "k_ref": 1.0},
         {name: schema.ROY[name] for name in ("sigma_young", "sigma_mature", "k_ref")}),
        (detect_degradation, {"panel": panel, "rel_drop": 0.3, "horizon": 1}, schema.DETECTION),
    ]
    for fn, given, rows in functions:
        fn(**given)
        yield fn.__name__, lambda name, value, fn=fn, given=given: fn(**{**given, name: value}), rows


def test_the_library_refuses_what_is_no_real_number_with_a_domain_error():
    # Direct callers get the library's error, never a TypeError from deep
    # inside a check; a scalar value names its field and says "a real
    # number", or for an integer row "an integer".
    for label, call, rows in _library_calls():
        for name, domain in rows.items():
            for value in NOT_REAL:
                with pytest.raises(DomainError) as err:
                    call(name, value)
                if np.ndim(value) == 0 and domain.real and not domain.array:
                    assert str(err.value) == f"{name} must be a real number", (label, name, value)
                if domain.wording.startswith("must be an integer"):
                    assert str(err.value) == f"{name} {domain.wording}", (label, name, value)


def test_a_panel_refuses_columns_that_are_no_numbers_with_a_domain_error():
    # A panel has no schema rows: its number columns are converted to their
    # dtypes once they are known to hold real numbers.
    columns = {
        "family_id": np.zeros(2, dtype=np.int64), "period": np.arange(2), "maturity": np.array([1.0, 0.5]),
        "tech_window": np.zeros(2, dtype=bool), "org_window": np.zeros(2, dtype=bool),
    }
    for name in ("family_id", "period", "maturity"):
        for value in NOT_REAL:
            with pytest.raises(DomainError):
                MaturityPanel(**{**columns, name: value})
        with pytest.raises(DomainError, match=f"^{name} must hold real numbers$"):
            MaturityPanel(**{**columns, name: ["x", "y"]})


def test_a_value_that_cannot_be_judged_is_refused_like_one_out_of_range():
    with pytest.raises(DomainError, match="^alpha must be a real number$"):
        dataclasses.replace(AppConfig().baseline, alpha="x")
    with pytest.raises(DomainError, match=r"^alpha must be a \[lo, hi\] pair$"):
        dataclasses.replace(AppConfig().priors, alpha=([[0.3]], 0.4))
    with pytest.raises(DomainError, match="^omega must hold real numbers$"):
        dataclasses.replace(AppConfig().portfolio.initial, omega=["1.0"] * 8)
    # A column for a single value, within a cross-field rule's domain.
    with pytest.raises(DomainError, match="^sigma_young must be a real number$"):
        dataclasses.replace(AppConfig().roy, sigma_young=np.array([0.5, 0.6]))


def test_each_section_class_takes_exactly_its_section():
    # AppConfig passes these sections to their classes as parsed, so each
    # class's fields are the section's keys: a key added on one side only
    # fails here rather than at the first run that reads it.
    resolved = serialize(AppConfig())
    sections = {
        BaselineParams: set(resolved["baseline"]),
        PriorSpec: set(resolved["priors"]) | {"seed"},
        EntryConfig: set(resolved["portfolio"]["entry"]),
        RoyExperiment: set(resolved["roy"]),
    }
    for cls, keys in sections.items():
        assert {f.name for f in dataclasses.fields(cls)} == keys, cls.__name__


def test_validation_names_no_library_module():
    # The table, its rules and the resolver read only the schema rows, so a
    # config can be validated without the modules the commands run on.
    import structlabor.config as config

    tree = ast.parse(inspect.getsource(config))
    library = {"calibration", "core", "estimators", "portfolio", "roy", "rng"}
    imported = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.module in library
        for alias in node.names
    }
    assert imported  # the classes AppConfig builds
    validation = [
        node for node in tree.body
        if isinstance(node, ast.Assign) and {t.id for t in node.targets} & {"FIELDS", "RULES"}
        or isinstance(node, ast.FunctionDef) and node.name in ("_flatten", "_typed", "_coerce", "_node", "_resolve")
    ]
    assert len(validation) == 7
    for node in validation:
        assert not {n.id for n in ast.walk(node) if isinstance(n, ast.Name)} & imported


def test_with_overrides():
    cfg = AppConfig({})
    out = load_config(None, {"run": {"seed": 77, "out": "elsewhere", "format": "json"}})
    assert out.run.seed == 77
    assert out.run.out == "elsewhere"
    assert out.run.format == "json"
    # Untouched fields survive.
    assert out.baseline == cfg.baseline
    with pytest.raises(ConfigError):
        load_config(None, {"run": {"seed": -5}})
    with pytest.raises(ConfigError):
        load_config(None, {"run": {"format": "xml"}})
    with pytest.raises(ConfigError) as err:
        load_config(None, {"run": {"sed": 1}})
    assert err.value.path == "run.sed"


def test_load_config_reads_yaml_and_json(tmp_path):
    y = tmp_path / "conf.yaml"
    y.write_text("run:\n  seed: 3\nbaseline:\n  gamma: 0.04\n")
    cfg = load_config(str(y))
    assert cfg.run.seed == 3
    assert cfg.baseline.gamma == 0.04
    # Overrides replace the file's leaves and keep the rest.
    over = load_config(str(y), {"run": {"seed": 5}})
    assert (over.run.seed, over.baseline.gamma) == (5, 0.04)
    # A file value is checked even where an override replaces it.
    bad = tmp_path / "bad.yaml"
    bad.write_text("run:\n  seed: -1\n")
    with pytest.raises(ConfigError) as err:
        load_config(str(bad), {"run": {"seed": 5}})
    assert err.value.path == "run.seed"

    j = tmp_path / "conf.json"
    j.write_text('{"run": {"seed": 8}}')
    assert load_config(str(j)).run.seed == 8

    assert load_config(None).run.seed == 0


def test_json_configs_never_import_yaml(tmp_path):
    # The module is imported only for a file that is not JSON, so the CLI
    # and a JSON or absent config leave it out of the process.
    path = tmp_path / "conf.json"
    path.write_text('{"run": {"seed": 8}}')
    code = (
        "import sys\n"
        "import structlabor.cli\n"
        "from structlabor.config import load_config\n"
        f"assert load_config({str(path)!r}).run.seed == 8\n"
        "assert load_config(None).run.seed == 0\n"
        "print('yaml' in sys.modules)\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True, timeout=120)
    assert result.stdout.strip() == "False"


def test_json_dump_of_the_defaults_loads_back(tmp_path):
    # json.dumps writes the default transition.tol as 1e-10, which YAML 1.1
    # reads as a string; a JSON file is read as JSON.
    path = tmp_path / "defaults.json"
    path.write_text(json.dumps(serialize(AppConfig())))
    assert serialize(load_config(str(path))) == serialize(AppConfig())


def test_load_config_failure_modes(tmp_path):
    with pytest.raises(ConfigError):
        load_config(str(tmp_path / "missing.yaml"))
    broken = tmp_path / "broken.yaml"
    broken.write_text("run: [unclosed\n")
    with pytest.raises(ConfigError):
        load_config(str(broken))
    undecodable = tmp_path / "undecodable.yaml"
    undecodable.write_bytes(b"run: {seed: 1}\n\xff\xfe\n")
    with pytest.raises(ConfigError, match="^cannot read config file"):
        load_config(str(undecodable))


def test_serialized_config_is_plain_data():
    blob = serialize(AppConfig({}))
    # Everything must survive a YAML dump (no custom objects).
    yaml.safe_dump(blob)
    assert blob["roy"]["delta_j"] == [0.08, 0.25]
    assert blob["portfolio"]["entry"]["delta_j"] == [0.08, 0.25]


def _matches_readme(documented, actual):
    """Compare a README value with the code's, reading ``[...]`` as a wildcard."""
    if documented == ["..."]:
        return True
    if isinstance(documented, dict) and isinstance(actual, dict):
        return documented.keys() == actual.keys() and all(
            _matches_readme(documented[k], actual[k]) for k in documented
        )
    return documented == actual


def test_readme_default_block_matches_the_code():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Configuration", 1)[1]
    block = section.split("```yaml\n", 1)[1].split("```", 1)[0]
    documented = yaml.safe_load(block)
    actual = serialize(AppConfig({}))
    assert documented.keys() == actual.keys()
    for name in actual:
        assert _matches_readme(documented[name], actual[name]), name
