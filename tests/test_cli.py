import copy
import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings
from hypothesis import strategies as st

import eqcausal
from eqcausal import cli, dataio, fixedpoint, modelzoo
from eqcausal.cli import (_config_from_obj, build_model, config_hash, load_config, main,
                          run_experiment)
from eqcausal.errors import DimensionMismatch, NegativeEntry, ParseError, SchemaError
from eqcausal.fixedpoint import SolverConfig
from eqcausal.optimize import AdamConfig, SamplingConfig

from ._models import inject_state_jacobian


def write_config(path, obj):
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


# --- CSV ingestion ---

def test_iotable_roundtrip_bit_exact(tmp_path):
    table = modelzoo.leontief_synthetic(5)
    a, y, r = tmp_path / "A.csv", tmp_path / "y.csv", tmp_path / "R.csv"
    dataio.write_iotable_csv(table, a, y, r)
    loaded = dataio.load_iotable_csv(a, y, r)
    assert loaded.A.tobytes() == table.A.tobytes()
    assert loaded.R.tobytes() == table.R.tobytes()
    assert loaded.y.tobytes() == table.y.tobytes()
    assert loaded.sectors == table.sectors
    assert loaded.impacts == table.impacts


def test_negative_entry_names_the_cell(tmp_path):
    a = tmp_path / "A.csv"
    y = tmp_path / "y.csv"
    a.write_text("s0,s1\n0.1,0.2\n0.3,-0.4\n", encoding="utf-8")
    y.write_text("1.0\n1.0\n", encoding="utf-8")
    with pytest.raises(NegativeEntry, match=r"A\[1, 1\]"):
        dataio.load_iotable_csv(a, y)


def test_dimension_mismatch_between_files(tmp_path):
    a = tmp_path / "A.csv"
    y = tmp_path / "y.csv"
    a.write_text("s0,s1\n0.1,0.2\n0.3,0.4\n", encoding="utf-8")
    y.write_text("1.0\n1.0\n1.0\n", encoding="utf-8")
    with pytest.raises(DimensionMismatch):
        dataio.load_iotable_csv(a, y)


def test_parse_error_reports_location(tmp_path):
    a = tmp_path / "A.csv"
    y = tmp_path / "y.csv"
    a.write_text("s0,s1\n0.1,zap\n0.3,0.4\n", encoding="utf-8")
    y.write_text("1.0\n1.0\n", encoding="utf-8")
    with pytest.raises(ParseError, match="line 2"):
        dataio.load_iotable_csv(a, y)


GOOD_CSV = {"A": "s0,s1\n0.1,0.2\n0.3,0.4\n", "y": "1.0\n1.0\n", "R": "impact,s0,s1\nghg,1.0,2.0\n"}


@pytest.mark.parametrize("name, text, error, message", [
    # the messages of the per-cell loader, which named the first failure in reading order
    ("A", "s0,s1\n0.1,0.2\n0.3\n", ParseError, "expected 2 columns (line 3)"),
    ("A", "s0,s1\n0.1,0.2,0.5\n-0.3,0.4\n", ParseError, "expected 2 columns (line 2)"),
    ("A", "s0,s1\n0.1,zap\n0.3\n", ParseError, "'zap' is not a number (line 2, column 2)"),
    ("A", "s0,s1\n-0.1,zap\n0.3,0.4\n", NegativeEntry, "A[0, 0] = -0.1 is negative"),
    ("A", "s0,s1\n0.1,0.2\n0.3,-0.4\n", NegativeEntry, "A[1, 1] = -0.4 is negative"),
    ("y", "1.0,2.0\n1.0\n", ParseError, "expected one value per row (line 1)"),
    ("y", "1.0\n\n", ParseError, "expected one value per row (line 2)"),
    ("y", "1.0\nabc\n", ParseError, "'abc' is not a number (line 2, column 1)"),
    ("y", "1.0\n-1.0\n", NegativeEntry, "y[1] = -1.0 is negative"),
    ("R", "impact,s0,s1\nghg,1.0\n", ParseError, "expected 3 columns (line 2)"),
    ("R", "impact,s0,s1\nghg,1.0,x\n", ParseError, "'x' is not a number (line 2, column 3)"),
    ("R", "impact,s0,s1\nghg,1.0,2.0\njobs,-2,1\n", NegativeEntry, "R[1, 0] = -2.0 is negative"),
    # non-finite cells, which loaded before and failed the first solve with NonFiniteIterate
    ("A", "s0,s1\n0.1,0.2\nnan,0.4\n", ParseError, "'nan' is not a finite number (line 3, column 1)"),
    ("A", "s0,s1\n0.1,1e400\n0.3,0.4\n", ParseError, "'1e400' is not a finite number (line 2, column 2)"),
    ("y", "1.0\ninf\n", ParseError, "'inf' is not a finite number (line 2, column 1)"),
    ("R", "impact,s0,s1\nghg,1.0,-inf\n", ParseError, "'-inf' is not a finite number (line 2, column 3)"),
])
def test_bad_cells_name_the_first_failure(tmp_path, name, text, error, message):
    paths = {key: tmp_path / f"{key}.csv" for key in GOOD_CSV}
    for key, path in paths.items():
        path.write_text(text if key == name else GOOD_CSV[key], encoding="utf-8")
    with pytest.raises(error) as info:
        dataio.load_iotable_csv(paths["A"], paths["y"], paths["R"])
    assert str(info.value) == f"{paths[name]}: {message}"


def test_hawkins_simon_check_runs_once_per_build_and_warns_once(tmp_path, monkeypatch):
    table = modelzoo.IoTable(A=np.array([[0.0, 1.2], [1.2, 0.0]]), R=np.ones((2, 2)), y=np.ones(2),
                             sectors=("a", "b"), impacts=("ghg", "employment"))
    dataio.write_iotable_csv(table, tmp_path / "A.csv", tmp_path / "y.csv", tmp_path / "R.csv")
    cfg = load_config(write_config(tmp_path / "c.json", {
        "command": "pareto", "model": {"a_csv": "A.csv", "y_csv": "y.csv", "r_csv": "R.csv"},
        "loss": {"lambdas": [0.0]}}))
    calls = []
    check = modelzoo.hawkins_simon_check
    monkeypatch.setattr(modelzoo, "hawkins_simon_check", lambda A: calls.append(A) or check(A))
    with pytest.warns(UserWarning) as record:
        build_model(cfg)
    assert len(calls) == 1
    assert [str(w.message) for w in record] == [
        "table fails the Hawkins-Simon check; forward iteration may diverge"]


# --- config loading ---

def test_minimal_config_gets_defaults(tmp_path):
    cfg = load_config(write_config(tmp_path / "c.json",
                                   {"command": "solve", "model": "motivating-example"}))
    assert cfg.solver.m == 8
    assert cfg.solver.beta == 1.0
    assert cfg.solver.tol == 1e-4
    assert cfg.solver.max_iter == 5000
    assert cfg.adam.learning_rate == 0.001
    assert cfg.adam.iterations == 10000


def test_unknown_field_rejected(tmp_path):
    with pytest.raises(SchemaError):
        load_config(write_config(tmp_path / "c.json",
                                 {"command": "solve", "model": "motivating-example", "typo": 1}))


def test_lambda_list_only_valid_for_pareto(tmp_path):
    with pytest.raises(SchemaError, match="lambda list"):
        load_config(write_config(tmp_path / "c.json", {
            "command": "optimize", "model": "leontief-synthetic-4",
            "loss": {"lambdas": [0.1, 0.2]},
        }))


def test_pareto_lambda_list_must_be_nonempty():
    with pytest.raises(SchemaError) as info:
        _config_from_obj({"command": "pareto", "model": "leontief-synthetic-4", "loss": {"lambdas": []}})
    assert info.value.pointer == "/loss/lambdas"


BAD_VALUES = [
    ("solver", {"beta": -1}), ("solver", {"method": "forward"}), ("solver", {"m": 0}),
    ("solver", {"tol": 0}), ("solver", {"ridge": -1e-8}),
    ("adam", {"learning_rate": 0}), ("adam", {"beta1": 1.0}), ("adam", {"iterations": 0}),
    ("adam", {"plateau_window": 0}),
    ("sampling", {"u_low": -1.0}), ("sampling", {"u_low": 2.0, "u_high": 1.0}),
    ("sampling", {"samples_per_step": 0}),
    ("adam", {"eps": -1.0}), ("adam", {"eps": 0.0}), ("adam", {"plateau_rtol": -5.0}),
    ("sampling", {"theta_stddev": [-0.2]}),
]


@pytest.mark.parametrize("section,values", BAD_VALUES)
def test_bad_config_value_is_a_schema_error(tmp_path, section, values):
    obj = {"command": "solve", "model": "motivating-example", section: values}
    with pytest.raises(SchemaError) as info:
        _config_from_obj(obj)
    assert info.value.pointer == f"/{section}"
    path = write_config(tmp_path / "c.json", obj)
    result = CliRunner().invoke(main, ["solve", "--config", path, "--out", str(tmp_path / "out")])
    assert result.exit_code == 2
    assert "config error" in result.output


NAN, INF = float("nan"), float("inf")
NON_FINITE = [
    ({"command": "solve", "model": "motivating-example", "solver": {"tol": NAN}}, "/solver/tol"),
    ({"command": "optimize", "model": "leontief-synthetic-4", "intervention": {"targets": [0]},
      "adam": {"learning_rate": INF}}, "/adam/learning_rate"),
    ({"command": "pareto", "model": "leontief-synthetic-4", "loss": {"lambdas": [0.0, NAN]}},
     "/loss/lambdas/1"),
    ({"command": "optimize", "model": "leontief-synthetic-4",
      "intervention": {"targets": [0], "bounds": [-INF, 2.0]}}, "/intervention/bounds/0"),
    ({"command": "bench", "model": "motivating-example", "bench": {"spectral_radius": INF}},
     "/bench/spectral_radius"),
    ({"command": "invariant", "model": "rebound-3sector", "sampling": {"theta_stddev": [NAN]}},
     "/sampling/theta_stddev/0"),
]


@pytest.mark.parametrize("obj,pointer", NON_FINITE)
def test_non_finite_config_number_is_a_schema_error(obj, pointer):
    with pytest.raises(SchemaError, match="is not a finite number") as info:
        _config_from_obj(obj)
    assert info.value.pointer == pointer


@pytest.mark.parametrize("cls,field", [
    (SolverConfig, "m"), (SolverConfig, "tol"), (SolverConfig, "max_iter"), (SolverConfig, "beta"),
    (SolverConfig, "ridge"), (AdamConfig, "learning_rate"), (AdamConfig, "beta1"),
    (AdamConfig, "iterations"), (AdamConfig, "eps"), (AdamConfig, "plateau_rtol"),
    (SamplingConfig, "u_low"), (SamplingConfig, "u_high"),
    (SamplingConfig, "samples_per_step"),
])
def test_config_checks_reject_nan(cls, field):
    with pytest.raises(ValueError):
        cls(**{field: NAN})


def test_non_finite_config_exits_2_from_the_command_line(tmp_path):
    path = tmp_path / "c.json"
    path.write_text('{"command": "solve", "model": "motivating-example", "solver": {"tol": NaN}}',
                    encoding="utf-8")
    env = {**os.environ, "PYTHONPATH": str(Path(eqcausal.__file__).resolve().parents[1])}
    proc = subprocess.run([sys.executable, "-m", "eqcausal.cli", "solve", "--config", str(path),
                           "--out", str(tmp_path / "out")], capture_output=True, text=True, env=env,
                          timeout=120)
    assert proc.returncode == 2
    assert "config error: /solver/tol: nan is not a finite number" in proc.stderr
    assert "Traceback" not in proc.stdout + proc.stderr
    assert not (tmp_path / "out").exists()


def test_integer_valued_float_exits_2_from_the_command_line(tmp_path):
    path = write_config(tmp_path / "c.json", {"command": "solve", "model": "motivating-example",
                                              "solver": {"max_iter": 50.0}})
    env = {**os.environ, "PYTHONPATH": str(Path(eqcausal.__file__).resolve().parents[1])}
    proc = subprocess.run([sys.executable, "-m", "eqcausal.cli", "solve", "--config", path,
                           "--out", str(tmp_path / "out")], capture_output=True, text=True, env=env,
                          timeout=120)
    assert proc.returncode == 2
    assert "config error: /solver/max_iter: 50.0 is not of type 'integer'" in proc.stderr
    assert "Traceback" not in proc.stdout + proc.stderr
    assert not (tmp_path / "out").exists()


def test_config_validation_does_not_import_jsonschema():
    code = ("import sys; sys.modules['jsonschema'] = None; from eqcausal import cli; "
            "cli._config_from_obj({'command': 'solve', 'model': 'motivating-example'})")
    env = {**os.environ, "PYTHONPATH": str(Path(eqcausal.__file__).resolve().parents[1])}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr


BAD_INTERVENTIONS = [
    ("optimize", {"targets": [0], "values": [0.0]}, "/intervention/values"),
    ("solve", {"targets": [0], "values": [0.0]}, "/intervention/values"),
    ("optimize", {"targets": [0], "bounds": [-1.0, 2.0]}, "/intervention/bounds"),
    ("optimize", {"targets": [0], "bounds": [2.0, 0.5]}, "/intervention/bounds"),
    ("pareto", {"targets": [0], "bounds": [-1.0, 2.0]}, "/intervention/bounds"),
    ("pareto", {"group": "additive", "targets": [0], "bounds": [-1.0, 2.0]}, "/intervention/group"),
    ("solve", {"targets": [0, 0], "values": [0.5, 2.0]}, "/intervention/targets"),
    ("invariant", {"builtin_values": []}, "/intervention/builtin_values"),
    ("invariant", {"builtin_values": [-0.5]}, "/intervention/builtin_values"),
    # keys the command does not read
    ("solve", {"bounds": [0.5, 2.0]}, "/intervention/bounds"),
    ("grad-check", {"values": [0.5]}, "/intervention/values"),  # values need targets
    ("optimize", {"targets": [0], "builtin_values": [0.5]}, "/intervention/builtin_values"),
    ("pareto", {"targets": [0], "values": [0.5]}, "/intervention/values"),
    ("invariant", {"targets": [0], "values": [0.5]}, "/intervention/targets"),
    ("compartment", {"builtin_values": [1.0]}, "/intervention/builtin_values"),
    ("bench", {"group": "additive"}, "/intervention/group"),
    ("solve", {"targets": [{}]}, "/intervention/targets/0"),  # typed before uniqueness is checked
]


@pytest.mark.parametrize("command,inter,pointer", BAD_INTERVENTIONS)
def test_bad_intervention_is_a_schema_error(tmp_path, command, inter, pointer):
    model = "rebound-3sector" if command == "invariant" else "leontief-synthetic-4"
    obj = {"command": command, "model": model, "intervention": inter}
    if command == "pareto":
        obj["loss"] = {"lambdas": [0.0, 1.0]}
    with pytest.raises(SchemaError) as info:
        _config_from_obj(obj)
    assert info.value.pointer == pointer
    path = write_config(tmp_path / "c.json", obj)
    result = CliRunner().invoke(main, [command, "--config", path, "--out", str(tmp_path / "out")])
    assert result.exit_code == 2
    assert "config error" in result.output
    assert result.exception is None or isinstance(result.exception, SystemExit)


ALLOWED_INTERVENTIONS = {
    "solve": {"group": "multiplicative", "targets": [0], "values": [1.0], "builtin_values": [1.0]},
    "grad-check": {"group": "multiplicative", "targets": [0], "values": [1.0], "builtin_values": [1.0]},
    "optimize": {"group": "multiplicative", "targets": [0], "values": [1.0], "bounds": [0.5, 2.0]},
    "pareto": {"group": "multiplicative", "targets": [0], "bounds": [0.5, 2.0]},
    "invariant": {"builtin_values": [0.7]},
    "compartment": {},
    "bench": {},
}


@pytest.mark.parametrize("command", sorted(ALLOWED_INTERVENTIONS))
def test_each_command_accepts_the_intervention_keys_it_reads(command):
    obj = {"command": command, "model": "leontief-synthetic-4",
           "intervention": ALLOWED_INTERVENTIONS[command]}
    if command == "pareto":
        obj["loss"] = {"lambdas": [0.0, 1.0]}
    assert _config_from_obj(obj).intervention == ALLOWED_INTERVENTIONS[command]


def test_additive_intervention_may_be_zero_or_negative():
    cfg = _config_from_obj({"command": "optimize", "model": "leontief-synthetic-4",
                            "intervention": {"group": "additive", "targets": [0], "values": [0.0],
                                             "bounds": [-1.0, 1.0]}})
    assert cfg.intervention["bounds"] == [-1.0, 1.0]


@pytest.mark.parametrize("section,values", [("adam", {"seed": 1}),
                                            ("sampling", {"theta_mean": [1.0]}),
                                            ("adam", {"iterations": 2.5}),
                                            ("adam", {"early_stop": 1}),
                                            ("sampling", {"theta_stddev": 0.2}),
                                            ("solver", {"max_iter": 50.0}),
                                            ("adam", {"iterations": 3.0}),
                                            ("bench", {"seeds": 2.0}),
                                            ("solver", {"max_iter": True})])
def test_config_sections_are_typed_and_closed(section, values):
    with pytest.raises(SchemaError) as info:
        _config_from_obj({"command": "solve", "model": "motivating-example", section: values})
    assert info.value.pointer.startswith(f"/{section}")


def test_config_sections_follow_the_dataclasses():
    props = cli.CONFIG_SCHEMA["properties"]
    for key, cls, hidden in (("solver", SolverConfig, set()), ("adam", AdamConfig, {"seed"}),
                             ("sampling", SamplingConfig, {"theta_mean"})):
        names = {f.name for f in dataclasses.fields(cls)} - hidden
        assert set(props[key]["properties"]) == names
    cfg = _config_from_obj({"command": "solve", "model": "motivating-example",
                            "solver": {"m": 1, "beta": 1},
                            "adam": {"early_stop": False, "plateau_rtol": 0.5},
                            "sampling": {"theta_stddev": [0.1, 0.2], "samples_per_step": 3}})
    assert (cfg.solver.m, cfg.solver.beta) == (1, 1)
    assert (cfg.adam.early_stop, cfg.adam.plateau_rtol) == (False, 0.5)
    assert (cfg.sampling.theta_stddev, cfg.sampling.samples_per_step) == ((0.1, 0.2), 3)


# one valid config per command, each with as many keys as the command reads
_SOLVER = {"m": 8, "beta": 1.0, "tol": 1e-4, "max_iter": 50, "ridge": 1e-8}
_ADAM = {"learning_rate": 0.01, "beta1": 0.9, "beta2": 0.999, "eps": 1e-8, "iterations": 3,
         "early_stop": True, "plateau_window": 2, "plateau_rtol": 1e-9}
_SAMPLING = {"theta_stddev": [0.2], "u_low": 0.5, "u_high": 2.0, "samples_per_step": 4}
VALID_CONFIGS = [
    {"command": "solve", "model": "leontief-synthetic-4", "solver": _SOLVER, "seed": 3,
     "intervention": {"group": "multiplicative", "targets": [0, 1], "values": [0.5, 2.0],
                      "builtin_values": [1.0]}},
    {"command": "grad-check", "model": "leontief-synthetic-4", "loss": {"objective_row": "ghg"},
     "intervention": {"group": "additive", "targets": [2], "values": [0.0]}},
    {"command": "optimize", "model": "leontief-synthetic-4", "solver": _SOLVER, "adam": _ADAM,
     "intervention": {"targets": [0, 3], "values": [1.0, 1.0], "bounds": [0.5, 2.0]},
     "loss": {"objective_row": "ghg", "regularizer_row": "employment", "lambda": 0.1}},
    {"command": "pareto", "model": {"a_csv": "A.csv", "y_csv": "y.csv", "r_csv": "R.csv"},
     "adam": _ADAM, "intervention": {"targets": [1], "bounds": [0.5, 1.0]},
     "loss": {"lambdas": [0.0, 0.5]}, "out": "results", "seed": 0},
    {"command": "invariant", "model": "rebound-3sector", "adam": _ADAM, "sampling": _SAMPLING,
     "intervention": {"builtin_values": [0.7]}},
    {"command": "compartment", "model": "two-compartment", "sampling": _SAMPLING, "solver": _SOLVER},
    {"command": "bench", "model": "motivating-example",
     "bench": {"dims": [2, 3], "seeds": 2, "spectral_radius": 0.9}},
]


def _nodes(obj, path=()):
    """Every (path, value) of a JSON value, the value itself first."""
    yield path, obj
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for key, value in items:
        yield from _nodes(value, path + (key,))


def _mutations():
    """(config index, path, kind) of every single mutation of a valid config: replace any value
    but the whole config, add a key to any object, delete any key, or turn an int into a float."""
    for i, obj in enumerate(VALID_CONFIGS):
        for path, node in _nodes(obj):
            if path:
                yield i, path, "replace"
            if isinstance(node, dict):
                yield i, path, "add"
            if path and isinstance(path[-1], str):
                yield i, path, "delete"
            if type(node) is int:
                yield i, path, "float"


MUTATIONS = list(_mutations())
MUTANT_VALUES = st.one_of(
    st.sampled_from(["", "x", [], [1], [{}], {}, {"k": 1}, True, False, None, 2.0]),
    st.sampled_from([NAN, INF, -INF]), st.integers(-2, 0), st.floats(max_value=0.0))


@pytest.fixture(scope="module")
def csv_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("tables")
    for name in ("A.csv", "y.csv", "R.csv"):
        (path / name).write_text("", encoding="utf-8")  # only their existence is checked here
    return path


def test_valid_configs_validate(csv_dir):
    for obj in VALID_CONFIGS:
        _config_from_obj(copy.deepcopy(obj), base_dir=csv_dir)


@settings(max_examples=300, deadline=None)
@given(mutation=st.sampled_from(MUTATIONS), value=MUTANT_VALUES)
@example(mutation=(0, ("intervention", "targets", 0), "replace"), value={})
def test_a_mutated_config_is_typed_or_a_schema_error(csv_dir, mutation, value):
    index, path, kind = mutation
    obj = copy.deepcopy(VALID_CONFIGS[index])
    parent = obj
    for key in path[:-1]:
        parent = parent[key]
    if kind == "replace":
        parent[path[-1]] = value
    elif kind == "add":
        (parent[path[-1]] if path else obj)["unknown"] = value
    elif kind == "delete":
        del parent[path[-1]]
    else:
        parent[path[-1]] = float(parent[path[-1]])
    try:
        cfg = _config_from_obj(obj, base_dir=csv_dir)
    except SchemaError:
        return
    for section in (cfg.solver, cfg.adam, cfg.sampling):
        for f in dataclasses.fields(section):
            if f.type == "int":
                assert type(getattr(section, f.name)) is int, (f.name, obj)


def test_missing_model_file_rejected(tmp_path):
    with pytest.raises(SchemaError, match="does not exist"):
        load_config(write_config(tmp_path / "c.json", {
            "command": "solve",
            "model": {"a_csv": "nope.csv", "y_csv": "nope2.csv"},
        }))


def test_unknown_zoo_id_rejected():
    for model in ("no-such-model", "leontief-synthetic--3"):
        cfg = _config_from_obj({"command": "solve", "model": model})
        with pytest.raises(SchemaError):
            build_model(cfg)


def test_loss_row_must_exist(tmp_path):
    cfg = _config_from_obj({
        "command": "pareto", "model": "leontief-synthetic-4",
        "loss": {"objective_row": "nope", "lambdas": [0.0]},
    })
    manifest = run_experiment(cfg, out_dir=tmp_path / "out")
    assert not manifest.success
    assert manifest.stages[-1]["status"] == "error"


# --- experiments ---

def test_solve_run_and_manifest(tmp_path):
    cfg = _config_from_obj({"command": "solve", "model": "motivating-example", "seed": 3})
    manifest = run_experiment(cfg, out_dir=tmp_path / "out")
    assert manifest.success
    assert manifest.seed == 3
    names = {rec["path"] for rec in manifest.outputs}
    assert names == {"equilibrium.csv", "solve_report.json"}
    # checksums match recomputation and all files live under the output directory
    import hashlib
    for rec in manifest.outputs:
        data = (tmp_path / "out" / rec["path"]).read_bytes()
        assert hashlib.sha256(data).hexdigest() == rec["sha256"]
    report = json.loads((tmp_path / "out" / "solve_report.json").read_text())
    assert report["solver"]["converged"]


def test_solve_with_csv_model(tmp_path):
    table = modelzoo.leontief_synthetic(4)
    dataio.write_iotable_csv(table, tmp_path / "A.csv", tmp_path / "y.csv", tmp_path / "R.csv")
    path = write_config(tmp_path / "c.json", {
        "command": "solve",
        "model": {"a_csv": "A.csv", "y_csv": "y.csv", "r_csv": "R.csv"},
    })
    cfg = load_config(path)
    manifest = run_experiment(cfg, out_dir=tmp_path / "out")
    assert manifest.success
    rows = (tmp_path / "out" / "equilibrium.csv").read_text().strip().splitlines()
    assert len(rows) == 5
    values = np.array([float(r.split(",")[1]) for r in rows[1:]])
    oracle = modelzoo.leontief_closed_form(table.A, table.y)
    assert np.linalg.norm(values - oracle) / np.linalg.norm(oracle) < 1e-3


def test_solve_applies_the_intervention_targets(tmp_path):
    cfg = _config_from_obj({"command": "solve", "model": "motivating-example",
                            "intervention": {"targets": [1, 2], "values": [2.0, 1.0]},
                            "solver": {"tol": 1e-10}})
    manifest = run_experiment(cfg, out_dir=tmp_path / "out")
    assert manifest.success
    rows = (tmp_path / "out" / "equilibrium.csv").read_text().strip().splitlines()[1:]
    values = [float(r.split(",")[1]) for r in rows]
    np.testing.assert_allclose(values, modelzoo.motivating_closed_form(1.0, 0.5, 0.3, 0.4, u_y=2.0),
                               rtol=1e-8)


def test_grad_check_command(tmp_path):
    cfg = _config_from_obj({"command": "grad-check", "model": "motivating-example"})
    manifest = run_experiment(cfg, out_dir=tmp_path / "out")
    assert manifest.success
    rep = json.loads((tmp_path / "out" / "grad_check.json").read_text())
    assert rep["max_rel_deviation"] < 1e-4


def test_grad_check_reads_the_objective_row(tmp_path):
    cfg = _config_from_obj({"command": "grad-check", "model": "rebound-3sector",
                            "loss": {"objective_row": "energy_input"}})
    manifest = run_experiment(cfg, out_dir=tmp_path / "out")
    assert manifest.success
    rep = json.loads((tmp_path / "out" / "grad_check.json").read_text())
    assert rep["max_rel_deviation"] < 1e-4


def test_bench_command_small(tmp_path, monkeypatch):
    built = []
    contraction = modelzoo.random_contraction
    monkeypatch.setattr(modelzoo, "random_contraction",
                        lambda *args: built.append(args[:2]) or contraction(*args))
    cfg = _config_from_obj({"command": "bench", "model": "leontief-synthetic-4",
                            "bench": {"dims": [2, 5], "seeds": 3}})
    manifest = run_experiment(cfg, out_dir=tmp_path / "out")
    assert manifest.success
    assert built == [(dim, seed) for dim in (2, 5) for seed in range(3)]  # each problem built once
    rows = (tmp_path / "out" / "bench.csv").read_text().strip().splitlines()[1:]
    assert [tuple(row.split(",")[:3]) for row in rows] == [
        (str(dim), method, str(seed)) for dim in (2, 5) for method, _ in cli.BENCH_METHODS
        for seed in range(3)]
    summary = (tmp_path / "out" / "bench_summary.csv").read_text().strip().splitlines()
    assert len(summary) == 1 + 2 * 3  # two dims, three methods


def test_reproducible_manifests_modulo_timing(tmp_path):
    cfg = _config_from_obj({"command": "pareto", "model": "leontief-synthetic-4",
                            "adam": {"learning_rate": 0.05, "iterations": 80},
                            "intervention": {"bounds": [0.5, 1.0]},
                            "loss": {"lambdas": [0.0, 1.0]}, "seed": 5})
    m1 = run_experiment(cfg, out_dir=tmp_path / "a").to_obj()
    m2 = run_experiment(cfg, out_dir=tmp_path / "b").to_obj()
    for m in (m1, m2):
        m.pop("wall_clock_s")
        for stage in m["stages"]:
            stage.pop("wall_s")
    assert m1 == m2


def test_outputs_confined_to_out_dir(tmp_path):
    out = tmp_path / "only-here"
    cfg = _config_from_obj({"command": "solve", "model": "motivating-example"})
    run_experiment(cfg, out_dir=out)
    produced = {p.relative_to(tmp_path).parts[0] for p in tmp_path.rglob("*") if p.is_file()}
    assert produced == {"only-here"}


# --- CLI surface ---

def test_cli_exit_codes(tmp_path):
    runner = CliRunner()
    good = write_config(tmp_path / "good.json",
                        {"command": "solve", "model": "motivating-example",
                         "out": str(tmp_path / "out")})
    assert runner.invoke(main, ["solve", "--config", good]).exit_code == 0
    bad = write_config(tmp_path / "bad.json", {"command": "solve"})
    assert runner.invoke(main, ["solve", "--config", bad]).exit_code == 2
    assert runner.invoke(main, ["bench", "--config", good]).exit_code == 2  # command mismatch
    failing = write_config(tmp_path / "failing.json", {
        "command": "pareto", "model": "leontief-synthetic-4",
        "adam": {"iterations": 10},
        "loss": {"objective_row": "nope", "lambdas": [0.0]},
        "out": str(tmp_path / "fail-out")})
    assert runner.invoke(main, ["pareto", "--config", failing]).exit_code == 1  # stage failure


def test_cli_seed_override(tmp_path):
    runner = CliRunner()
    path = write_config(tmp_path / "c.json",
                        {"command": "solve", "model": "motivating-example", "seed": 0})
    out = tmp_path / "out"
    result = runner.invoke(main, ["solve", "--config", path, "--out", str(out), "--seed", "9"])
    assert result.exit_code == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["seed"] == 9
    assert manifest["version"]
    assert manifest["config_hash"] == config_hash(load_config(path))


def test_singular_adjoint_exits_1_with_manifest(tmp_path, monkeypatch):
    inject_state_jacobian(monkeypatch)
    out = tmp_path / "out"
    path = write_config(tmp_path / "c.json", {"command": "grad-check", "model": "motivating-example",
                                              "out": str(out)})
    result = CliRunner().invoke(main, ["grad-check", "--config", path])
    assert result.exit_code == 1
    assert result.exception is None or isinstance(result.exception, SystemExit)
    manifest = json.loads((out / "manifest.json").read_text())
    assert not manifest["success"]
    failed = manifest["stages"][-1]
    assert failed["name"] == "grad-check" and failed["status"] == "error"
    assert failed["detail"]["error"].startswith("SingularAdjoint: ")


def run_failing_invariant(tmp_path, **sections):
    out = tmp_path / "out"
    path = write_config(tmp_path / "c.json", {
        "command": "invariant", "model": "rebound-3sector", "out": str(out),
        "adam": {"iterations": 2}, **sections})
    result = CliRunner().invoke(main, ["invariant", "--config", path])
    assert result.exit_code == 1
    assert result.exception is None or isinstance(result.exception, SystemExit)
    manifest = json.loads((out / "manifest.json").read_text())
    assert not manifest["success"]
    failed = manifest["stages"][-1]
    assert failed["name"] == "invariant" and failed["status"] == "error"
    return failed["detail"]["error"]


def test_invariant_first_step_failure_exits_1_with_manifest(tmp_path, monkeypatch):
    inject_state_jacobian(monkeypatch)
    error = run_failing_invariant(tmp_path, sampling={"samples_per_step": 2})
    assert error.startswith("SolveFailedDuringOptimization: ")


def test_invariant_theta_stddev_length_exits_1_with_manifest(tmp_path):
    # rebound-3sector has one parameter; two deviations must not broadcast
    error = run_failing_invariant(tmp_path, sampling={"theta_stddev": [0.1, 0.2]})
    assert error.startswith("ShapeMismatch: ")


def test_invariant_builtin_values_length_exits_1_with_manifest(tmp_path):
    # rebound-3sector has one builtin intervention component
    error = run_failing_invariant(tmp_path, intervention={"builtin_values": [0.7, 0.8]})
    assert error == "SchemaError: /intervention/builtin_values: builtin_values length 2 != model u_dim 1"


def test_unconverged_evaluation_row_exits_1_with_manifest(tmp_path, monkeypatch):
    def one_row_unconverged(spec, theta, cfg, **kwargs):
        sol = cli.sscm.solve_equilibrium(spec, theta, cfg, **kwargs)
        sol.report.row_converged[0] = sol.report.converged = False
        return sol

    # training solves through other bindings; the first of this one is the held-out base batch
    monkeypatch.setattr(cli, "solve_equilibrium", one_row_unconverged)
    error = run_failing_invariant(tmp_path)
    assert error.startswith("NotConverged: ")


@pytest.mark.parametrize("command,model,tols", [
    ("optimize", "leontief-synthetic-4", {1e-8}),
    ("invariant", "rebound-3sector", {1e-5, 1e-8}),  # training, evaluation
])
def test_every_solve_runs_the_configured_solver(tmp_path, monkeypatch, command, model, tols):
    seen, solve = [], fixedpoint.solve

    def recording(f, x0, cfg):
        seen.append(cfg)
        return solve(f, x0, cfg)

    monkeypatch.setattr(fixedpoint, "solve", recording)
    config = _config_from_obj({"command": command, "model": model, "adam": {"iterations": 2},
                               "solver": {"m": 6, "max_iter": 4000, "ridge": 1e-9}})
    assert run_experiment(config, out_dir=tmp_path).success
    assert {(c.m, c.beta, c.max_iter, c.ridge) for c in seen} == {(6, 1.0, 4000, 1e-9)}
    assert {c.tol for c in seen} == tols


def test_optimum_records_failed_steps(tmp_path, monkeypatch):
    inject_state_jacobian(monkeypatch, on_calls={1})
    config = _config_from_obj({"command": "optimize", "model": "leontief-synthetic-4",
                               "adam": {"iterations": 4, "learning_rate": 0.02}})
    assert run_experiment(config, out_dir=tmp_path).success
    optimum = json.loads((tmp_path / "optimum.json").read_text())
    assert optimum["failures"] == [1]
    assert optimum["steps"] == 3


def test_compartment_run_reads_its_reference_from_the_check(tmp_path, monkeypatch):
    solved, checked, check = [], [], cli.check_compartmentalization

    def counting(spec, theta, *args, **kwargs):
        solved.append(("deployed" if spec.policy_dim else "base", np.shape(theta)))
        return cli.sscm.solve_equilibrium(spec, theta, *args, **kwargs)

    def checking(twin, plan, thetas, grids, cfg, policy=None):
        checked.append((twin, thetas[1], grids[0], cfg, policy))
        return check(twin, plan, thetas, grids, cfg, policy=policy)

    monkeypatch.setattr(cli, "solve_equilibrium", counting)
    monkeypatch.setattr(cli, "check_compartmentalization", checking)
    config = _config_from_obj({"command": "compartment", "model": "two-compartment",
                               "adam": {"iterations": 1}, "sampling": {"samples_per_step": 2}})
    assert run_experiment(config, out_dir=tmp_path).success
    assert solved == []  # the curves and the reference come from the check's batches
    [(twin, theta_mid, grid, cfg, weights)] = checked
    inst = modelzoo.two_compartment_model()
    lo, hi = inst.spec.theta_box[0]
    assert theta_mid.tolist() == [0.5 * (lo + hi)] and cfg == cli._eval_solver(config)
    report = json.loads((tmp_path / "compartment_report.json").read_text())
    ref = cli.sscm.solve_equilibrium(inst.spec, theta_mid, cfg)
    np.testing.assert_allclose(report["reference_equilibrium"], ref.x_star, rtol=1e-12)
    curves = np.loadtxt(tmp_path / "compartment_curves.csv", delimiter=",", skiprows=1)
    pairs = [(u, v) for u in grid for v in grid]
    assert curves[:, :2].tolist() == [[float(u), float(v)] for u, v in pairs]
    fresh = cli.sscm.solve_equilibrium(twin.deployed, theta_mid, cfg, policy=weights,
                                       u=np.array([twin.assemble_u([[u], [v]]) for u, v in pairs]))
    np.testing.assert_allclose(curves[:, 2:], fresh.x_star, rtol=1e-12)


def test_cli_version_is_package_version():
    assert cli.__version__ is eqcausal.__version__
