import contextlib
import copy
import dataclasses
import io
import json
import os
import subprocess
import sys
import traceback
import uuid
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import eqcausal
from eqcausal import cli, dataio, diffcore, fixedpoint, modelzoo
from eqcausal.cli import (_config_from_obj, build_model, config_hash, load_config, main,
                          run_experiment)
from eqcausal.errors import DimensionMismatch, NegativeEntry, ParseError, SchemaError
from eqcausal.fixedpoint import SolverConfig
from eqcausal.optimize import AdamConfig, SamplingConfig

from ._models import inject_state_jacobian


def write_config(path, obj):
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


@dataclasses.dataclass
class CliResult:
    exit_code: int
    output: str  # stdout and stderr as written, and the traceback of an escaped exception
    exception: Exception | None  # an exception that escaped main, other than SystemExit


def run_cli(args) -> CliResult:
    """main(args) with stdout and stderr captured together. argparse's SystemExit (a usage
    error, --version or -h) gives the exit code; any other exception is recorded, with its
    traceback in the output and exit code 1."""
    buf, exception = io.StringIO(), None
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        try:
            code = main(args)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:
            code, exception = 1, exc
            traceback.print_exc(file=buf)
    return CliResult(code, buf.getvalue(), exception)


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


@pytest.mark.parametrize("name, text, error, message", [
    # lines np.loadtxt would read otherwise than csv: blank or blank-looking, or with a '#'
    ("A", "s0,s1\n0.1,0.2\n0.3,0.4\n\n", DimensionMismatch, "expected 2 coefficient rows, found 3"),
    ("A", "s0,s1\n0.1,0.2\n \n", ParseError, "expected 2 columns (line 3)"),
    ("A", "s0,s1\n0.1,0.2#c\n0.3,0.4\n", ParseError, "'0.2#c' is not a number (line 2, column 2)"),
    ("y", "1.0\n\n1.0\n", DimensionMismatch, "expected 2 demand rows, found 3"),
])
def test_lines_that_csv_reads_otherwise_keep_the_csv_errors(tmp_path, name, text, error, message):
    paths = {key: tmp_path / f"{key}.csv" for key in GOOD_CSV}
    for key, path in paths.items():
        path.write_text(text if key == name else GOOD_CSV[key], encoding="utf-8")
    with pytest.raises(error) as info:
        dataio.load_iotable_csv(paths["A"], paths["y"], paths["R"])
    assert str(info.value) == f"{paths[name]}: {message}"


def test_plain_and_quoted_files_load_the_same_table(tmp_path):
    # write_iotable_csv ends its lines with CRLF; LF files and files whose cells are
    # quoted (which csv, not np.loadtxt, reads) give the same table, bit for bit
    table = modelzoo.leontief_synthetic(7)
    crlf = [tmp_path / f"{key}.csv" for key in "AyR"]
    dataio.write_iotable_csv(table, *crlf)
    assert b"\r\n" in crlf[0].read_bytes()
    variants = {"lf": lambda text: text.replace("\r\n", "\n"),
                "quoted": lambda text: "\n".join(",".join(f'"{cell}"' for cell in line.split(","))
                                                 for line in text.splitlines())}
    for label, rewrite in variants.items():
        paths = [tmp_path / f"{label}_{key}.csv" for key in "AyR"]
        for src, dst in zip(crlf, paths):
            dst.write_bytes(rewrite(src.read_bytes().decode()).encode())
        for loaded in (dataio.load_iotable_csv(*crlf), dataio.load_iotable_csv(*paths)):
            assert (loaded.A.tobytes(), loaded.y.tobytes(), loaded.R.tobytes()) == \
                (table.A.tobytes(), table.y.tobytes(), table.R.tobytes())
            assert (loaded.sectors, loaded.impacts) == (table.sectors, table.impacts)


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
    ("sampling", {"samples_per_step": -1}), ("sampling", {"theta_stddev": [0.1, -1.0]}),
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
    result = run_cli(["solve", "--config", path, "--out", str(tmp_path / "out")])
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
    result = run_cli([command, "--config", path, "--out", str(tmp_path / "out")])
    assert result.exit_code == 2
    assert "config error" in result.output
    assert result.exception is None


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
                                            ("solver", {"max_iter": True}),
                                            ("sampling", {"u_low": 0.5}),
                                            ("sampling", {"u_high": 2.0})])
def test_config_sections_are_typed_and_closed(section, values):
    with pytest.raises(SchemaError) as info:
        _config_from_obj({"command": "solve", "model": "motivating-example", section: values})
    assert info.value.pointer.startswith(f"/{section}")


def test_config_sections_follow_the_dataclasses():
    props = cli.CONFIG_SCHEMA["properties"]
    for key, cls, hidden in (("solver", SolverConfig, set()), ("adam", AdamConfig, {"seed"}),
                             ("sampling", SamplingConfig, {"theta_mean", "u_low", "u_high"})):
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
_SAMPLING = {"theta_stddev": [0.2], "samples_per_step": 4}
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


def _mutations(configs):
    """(config index, path, kind) of every single mutation of a valid config: replace any value
    but the whole config, add a key to any object, delete any key, or turn an int into a float."""
    for i, obj in enumerate(configs):
        for path, node in _nodes(obj):
            if path:
                yield i, path, "replace"
            if isinstance(node, dict):
                yield i, path, "add"
            if path and isinstance(path[-1], str):
                yield i, path, "delete"
            if type(node) is int:
                yield i, path, "float"


def _mutate(configs, mutation, value):
    index, path, kind = mutation
    obj = copy.deepcopy(configs[index])
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
    return obj


MUTATIONS = list(_mutations(VALID_CONFIGS))
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
    obj = _mutate(VALID_CONFIGS, mutation, value)
    try:
        cfg = _config_from_obj(obj, base_dir=csv_dir)
    except SchemaError:
        return
    for section in (cfg.solver, cfg.adam, cfg.sampling):
        for f in dataclasses.fields(section):
            if f.type == "int":
                assert type(getattr(section, f.name)) is int, (f.name, obj)


# The valid configs as runs: compartment gets the short Adam schedule too. Deleting a key
# that sets the size of a run falls back to the full-size default (10,000 Adam steps, 16
# samples a step, the default bench sweep), and so does replacing its object with {}, so
# the run test leaves those mutations out; the test above validates them.
RUN_CONFIGS = [{**obj, "adam": _ADAM} if obj["command"] == "compartment" else obj
               for obj in VALID_CONFIGS]
SIZE_KEYS = {"adam", "iterations", "sampling", "samples_per_step", "bench", "dims", "seeds"}
RUN_MUTATIONS = [(i, path, kind) for i, path, kind in _mutations(RUN_CONFIGS)
                 if not (kind == "delete" and path[-1] in SIZE_KEYS)]


@pytest.fixture(scope="module")
def table_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("runs")
    dataio.write_iotable_csv(modelzoo.leontief_synthetic(4), path / "A.csv", path / "y.csv", path / "R.csv")
    return path


@settings(max_examples=30, deadline=None)
@given(mutation=st.sampled_from(RUN_MUTATIONS), value=MUTANT_VALUES)
@example(mutation=(2, ("adam", "learning_rate"), "replace"), value=2.0)
@example(mutation=(4, ("sampling", "samples_per_step"), "replace"), value=2)
@example(mutation=(3, ("model", "a_csv"), "replace"), value="")  # the config's directory
def test_a_mutated_config_runs_to_an_exit_code(table_dir, mutation, value):
    """Through the command line, a mutated config exits 0, 1 with a failed manifest, or 2,
    and never with an uncaught exception."""
    _, path, kind = mutation
    assume(not (kind == "replace" and value == {} and path[-1] in SIZE_KEYS))  # a size key's deletion
    run = table_dir / uuid.uuid4().hex
    run.mkdir()
    config = table_dir / f"{run.name}.json"  # next to the CSV files its model may name
    write_config(config, _mutate(RUN_CONFIGS, mutation, value))
    result = run_cli([RUN_CONFIGS[mutation[0]]["command"], "--config", str(config),
                      "--out", str(run / "out")])
    assert result.exception is None, result.output
    assert "Traceback" not in result.output
    assert result.exit_code in (0, 1, 2), result.output
    if result.exit_code == 2:
        assert result.output.startswith("config error: ")
    else:
        manifest = json.loads((run / "out" / "manifest.json").read_text())
        assert manifest["success"] is (result.exit_code == 0)


def test_a_file_that_cannot_be_read_is_a_parse_error(tmp_path):
    dataio.write_iotable_csv(modelzoo.leontief_synthetic(3), *(tmp_path / n for n in ("A.csv", "y.csv", "R.csv")))
    (tmp_path / "latin1.csv").write_bytes(b"\xe9\n")
    for name in (".", "latin1.csv"):
        with pytest.raises(ParseError, match="cannot be read"):
            dataio.load_iotable_csv(tmp_path / "A.csv", tmp_path / name)


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
    contractions = modelzoo.random_contractions
    monkeypatch.setattr(modelzoo, "random_contractions",
                        lambda dim, seeds, radius: built.append((dim, list(seeds)))
                        or contractions(dim, seeds, radius))
    cfg = _config_from_obj({"command": "bench", "model": "leontief-synthetic-4",
                            "bench": {"dims": [2, 5], "seeds": 3}})
    manifest = run_experiment(cfg, out_dir=tmp_path / "out")
    assert manifest.success
    assert built == [(dim, [0, 1, 2]) for dim in (2, 5)]  # each problem built once, one stack per dim
    rows = (tmp_path / "out" / "bench.csv").read_text().strip().splitlines()[1:]
    assert [tuple(row.split(",")[:3]) for row in rows] == [
        (str(dim), method, str(seed)) for dim in (2, 5) for method, _ in cli.BENCH_METHODS
        for seed in range(3)]
    summary = (tmp_path / "out" / "bench_summary.csv").read_text().strip().splitlines()
    assert len(summary) == 1 + 2 * 3  # two dims, three methods


def test_batched_bench_rows_equal_per_seed_vector_solves():
    cfg, seeds = SolverConfig(), [4, 5, 6]
    for dim in (2, 10, 50):
        rows = iter(cli._bench_rows(dim, seeds, cfg, 0.9))
        for method, beta in cli.BENCH_METHODS:
            for seed in seeds:
                A, y = modelzoo.random_contraction(dim, seed, 0.9)
                f = lambda x: A @ x + y  # noqa: E731
                if beta is None:
                    report = fixedpoint.forward_iterate(f, np.zeros(dim), cfg)
                else:
                    report = fixedpoint.anderson_solve(f, np.zeros(dim), dataclasses.replace(cfg, beta=beta))
                row = next(rows)
                assert (row["dim"], row["method"], row["seed"]) == (dim, method, seed)
                assert (row["iterations"], row["converged"]) == (report.iterations, report.converged)
                assert (np.float64(row["relative_error"]).tobytes()
                        == np.float64(report.relative_error).tobytes())
        assert next(rows, None) is None


def test_bench_dims_below_two_exit_2(tmp_path):
    obj = {"command": "bench", "model": "motivating-example", "bench": {"dims": [1], "seeds": 1}}
    with pytest.raises(SchemaError) as info:
        _config_from_obj(obj)
    assert info.value.pointer == "/bench/dims/0"
    path = write_config(tmp_path / "c.json", obj)
    result = run_cli(["bench", "--config", path, "--out", str(tmp_path / "out")])
    assert result.exit_code == 2
    assert "config error: /bench/dims/0" in result.output


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
    good = write_config(tmp_path / "good.json",
                        {"command": "solve", "model": "motivating-example",
                         "out": str(tmp_path / "out")})
    assert run_cli(["solve", "--config", good]).exit_code == 0
    bad = write_config(tmp_path / "bad.json", {"command": "solve"})
    assert run_cli(["solve", "--config", bad]).exit_code == 2
    assert run_cli(["bench", "--config", good]).exit_code == 2  # command mismatch
    failing = write_config(tmp_path / "failing.json", {
        "command": "pareto", "model": "leontief-synthetic-4",
        "adam": {"iterations": 10},
        "loss": {"objective_row": "nope", "lambdas": [0.0]},
        "out": str(tmp_path / "fail-out")})
    assert run_cli(["pareto", "--config", failing]).exit_code == 1  # stage failure


def test_cli_seed_override(tmp_path):
    path = write_config(tmp_path / "c.json",
                        {"command": "solve", "model": "motivating-example", "seed": 0})
    out = tmp_path / "out"
    result = run_cli(["solve", "--config", path, "--out", str(out), "--seed", "9"])
    assert result.exit_code == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["seed"] == 9
    assert manifest["version"]
    assert manifest["config_hash"] == config_hash(load_config(path))


def _solve_config(tmp_path, **keys):
    return write_config(tmp_path / "c.json", {"command": "solve", "model": "motivating-example", **keys})


def test_cli_version_help_and_usage_errors(tmp_path):
    version = run_cli(["--version"])
    assert (version.exit_code, version.output) == (0, f"eqcausal {eqcausal.__version__}\n")
    for argv in (["-h"], ["solve", "-h"]):
        result = run_cli(argv)
        assert result.exit_code == 0 and result.output.startswith("usage: eqcausal")
    path = _solve_config(tmp_path)
    for argv in ([], ["solve"], ["nope", "--config", path], ["solve", "--config", path, "--seed", "x"],
                 ["solve", "--config", path, "--bogus"]):
        result = run_cli(argv)
        assert result.exit_code == 2 and result.exception is None, argv
        assert "usage: eqcausal" in result.output and "error:" in result.output, argv


@pytest.mark.parametrize("out,shown", [([], "eqcausal-out"), (["--out", ""], "."), (["--out", "o"], "o")])
def test_cli_names_the_output_directory_it_wrote(tmp_path, monkeypatch, out, shown):
    monkeypatch.chdir(tmp_path)
    result = run_cli(["solve", "--config", _solve_config(tmp_path), *out])
    assert result.exit_code == 0
    assert result.output.endswith(f"outputs in {shown} (2 files)\n")
    assert (tmp_path / shown / "manifest.json").is_file()


def test_a_relative_out_in_a_config_file_resolves_against_its_directory(tmp_path, monkeypatch):
    # as the model's CSV paths do; --out and the default stay relative to the working directory
    cfgdir, run = tmp_path / "cfgdir", tmp_path / "run"
    cfgdir.mkdir()
    run.mkdir()
    dataio.write_iotable_csv(modelzoo.leontief_synthetic(3), *(cfgdir / n for n in ("A.csv", "y.csv", "R.csv")))
    model = {"a_csv": "A.csv", "y_csv": "y.csv", "r_csv": "R.csv"}
    write_config(cfgdir / "c.json", {"command": "solve", "model": model, "out": "res"})
    write_config(cfgdir / "d.json", {"command": "solve", "model": model})
    monkeypatch.chdir(run)
    for argv, wrote in ((["--config", "../cfgdir/c.json"], cfgdir / "res"),
                        (["--config", "../cfgdir/c.json", "--out", "o"], run / "o"),
                        (["--config", "../cfgdir/d.json"], run / "eqcausal-out")):
        result = run_cli(["solve", *argv])
        assert result.exit_code == 0, result.output
        assert (wrote / "manifest.json").is_file()
        assert f"outputs in {os.path.relpath(wrote)} (" in result.output
    assert sorted(p.name for p in run.iterdir()) == ["eqcausal-out", "o"]
    assert load_config(cfgdir / "c.json").out == str(cfgdir / "res")


@pytest.mark.parametrize("below", [False, True])
def test_an_output_path_that_names_a_file_exits_2(tmp_path, below):
    (tmp_path / "taken").write_text("kept\n")
    out = tmp_path / "taken" / "out" if below else tmp_path / "taken"
    for argv in (["solve", "--config", _solve_config(tmp_path), "--out", str(out)],
                 ["solve", "--config", _solve_config(tmp_path, out=str(out))]):
        result = run_cli(argv)
        assert result.exit_code == 2 and result.exception is None
        assert result.output.startswith("config error: /out: cannot make the output directory")
        assert (tmp_path / "taken").read_text() == "kept\n"
    cfg = _config_from_obj({"command": "solve", "model": "motivating-example"})
    with pytest.raises(SchemaError) as info:
        run_experiment(cfg, out_dir=out)
    assert info.value.pointer == "/out"


@pytest.mark.parametrize("command", ["solve", "invariant"])
def test_a_negative_seed_override_exits_2(tmp_path, command):
    path = write_config(tmp_path / "c.json", {"command": command, "model": (
        "rebound-3sector" if command == "invariant" else "motivating-example")})
    result = run_cli([command, "--config", path, "--out", str(tmp_path / "out"), "--seed", "-1"])
    assert result.exit_code == 2 and result.exception is None
    assert result.output == "config error: /seed: -1 is less than the minimum of 0\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("seed", [-1, 1.0, True])
def test_run_experiment_checks_its_seed_override(tmp_path, seed):
    cfg = _config_from_obj({"command": "solve", "model": "motivating-example"})
    with pytest.raises(SchemaError) as info:
        run_experiment(cfg, out_dir=tmp_path / "out", seed=seed)
    assert info.value.pointer == "/seed"
    assert not (tmp_path / "out").exists()


def test_the_command_line_runs_without_click(tmp_path):
    path = _solve_config(tmp_path)
    code = ("import sys; sys.modules['click'] = None; from eqcausal import cli; "
            f"sys.exit(cli.main(['solve', '--config', {path!r}, '--out', {str(tmp_path / 'out')!r}]))")
    env = {**os.environ, "PYTHONPATH": str(Path(eqcausal.__file__).resolve().parents[1])}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "out" / "manifest.json").is_file()
    code = ("import sys, eqcausal.cli; "
            "print(sorted(m for m in ('click', 'argparse') if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env,
                          timeout=120)
    assert (proc.returncode, proc.stdout) == (0, "[]\n"), proc.stderr
    proc = subprocess.run([sys.executable, "-m", "eqcausal.cli", "--version"], capture_output=True,
                          text=True, env=env, timeout=120)
    assert (proc.returncode, proc.stdout) == (0, f"eqcausal {eqcausal.__version__}\n"), proc.stderr


def test_singular_adjoint_exits_1_with_manifest(tmp_path, monkeypatch):
    inject_state_jacobian(monkeypatch)
    out = tmp_path / "out"
    path = write_config(tmp_path / "c.json", {"command": "grad-check", "model": "motivating-example",
                                              "out": str(out)})
    result = run_cli(["grad-check", "--config", path])
    assert result.exit_code == 1
    assert result.exception is None
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
    result = run_cli(["invariant", "--config", path])
    assert result.exit_code == 1
    assert result.exception is None
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

    # training solves through other bindings; the first of this one is the base model's
    # evaluation batch, whose row 0 is the first held-out sample
    monkeypatch.setattr(cli, "solve_equilibrium", one_row_unconverged)
    error = run_failing_invariant(tmp_path)
    assert error.startswith("NotConverged: ")


# the outputs of a reduced invariant run (4 Adam steps, 4 samples per step) from the
# pipeline that solved each evaluation sweep on its own (x86-64, numpy 2.4, OpenBLAS)
INVARIANT_SHA256 = {
    1: {"invariant_report.json": "791dcf924750bed441b3bce7e2702b2d67e5a219fe16f9754c9aa6f88b2cc6f9",
        "policy.json": "7829cd0f8585d0655ce0069f7dfeba930d97a3be8a0775e5a40a5100bf2026dd",
        "rebound_curves.csv": "ef49704cd75578124fafea0cdc97579f8d21e2f1b213778da3ee0c47f9bf1487"},
    7: {"invariant_report.json": "0df4f98312ecab0fe288e8ab6af72cb9b1a84540f746149545686c94e2ca0a8f",
        "policy.json": "bcb458482b9321dba475c867b13befb1561bc524590d997280c8a705b202af0f",
        "rebound_curves.csv": "88a954aa5abd4b6e6782bac9f099881fdbc18336c8458292e8349acd8deabab8"},
}


@pytest.mark.parametrize("seed", [1, 7])
def test_invariant_evaluates_with_one_solve_per_spec(tmp_path, monkeypatch, seed):
    blocks, equilibria = [], cli._equilibria

    def recording(spec, cfg, spec_blocks, **kwargs):
        blocks.append([len(theta) for theta, _ in spec_blocks])
        return equilibria(spec, cfg, spec_blocks, **kwargs)

    monkeypatch.setattr(cli, "_equilibria", recording)
    config = _config_from_obj({"command": "invariant", "model": "rebound-3sector",
                               "adam": {"iterations": 4}, "sampling": {"samples_per_step": 4}})
    manifest = run_experiment(config, out_dir=tmp_path, seed=seed)
    assert manifest.success
    assert blocks == [[50, 1, 13, 13], [50, 6, 13]]  # the base model, the deployed twin
    assert {rec["path"]: rec["sha256"] for rec in manifest.outputs} == INVARIANT_SHA256[seed]


# the outputs of a reduced optimize run (3 Adam steps) from the pipeline that solved its
# unintervened base on the model itself (x86-64, numpy 2.4, OpenBLAS)
OPTIMIZE_SHA256 = {
    "multiplicative": {
        "trajectory.csv": "4044a8b051c8770e124334cefdf2d3572f50b9f9542a7a4536874b5e1dd0d677",
        "optimum.json": "9005e39a5d65c720e5f8e1cb10ad43895d7e0a209bde014129bee846eea7d9fc"},
    "additive": {
        "trajectory.csv": "2e57a6a69ca67ee342d601d3a66dfb40c7017f6e22d6e92a9d62156e4d31e644",
        "optimum.json": "877794e2a517c19da3c547db264e0bdbf433c6648e6d26dcd78c4eb57d560594"},
}


@pytest.mark.parametrize("intervention", [{}, {"group": "additive", "bounds": [-0.5, 0.5]}])
def test_optimize_compiles_one_program(tmp_path, monkeypatch, intervention):
    # the base equilibrium is solved on the intervened model that the descent uses
    fused, fuse = [], diffcore._fuse

    def counting(graph):
        fused.append(graph)
        return fuse(graph)

    monkeypatch.setattr(diffcore, "_fuse", counting)
    config = _config_from_obj({"command": "optimize", "model": "leontief-synthetic-10",
                               "adam": {"iterations": 3}, "intervention": intervention})
    manifest = run_experiment(config, out_dir=tmp_path)
    assert manifest.success
    assert len(fused) == 1
    group = intervention.get("group", "multiplicative")
    assert {rec["path"]: rec["sha256"] for rec in manifest.outputs} == OPTIMIZE_SHA256[group]


# the outputs of reduced pareto (on leontief-synthetic-10 read from CSV), compartment and
# bench runs, from the pipeline that set up every structural-map binding on each call
# (x86-64, numpy 2.4, OpenBLAS); the pareto sweep draws nothing, so its seeds agree
PARETO_SHA256 = {
    "employment_deltas.csv": "c70cb1127ab0b47d1b8f82728c255caf9fba736c91bd8666eb2059569733d9a1",
    "interventions.csv": "88b7001a148e0512aabd7ac9497e894190014e33c8b045b87bb63376ac19ffe8",
    "tradeoff.csv": "f46dbf9c8c9eb0e2cead07229a8ea79883084d55c21548876c1ae8369083b442",
}
PIPELINE_SHA256 = {
    ("pareto", 1): PARETO_SHA256,
    ("pareto", 7): PARETO_SHA256,
    ("compartment", 1): {
        "compartment_curves.csv": "9164a4ed283cdd5e7b46ce10c7ab23aebc6d81d943390a9d4004ff07303167cf",
        "compartment_report.json": "a696a87517437ebad59eae6a73ee03af34383f5188d428c6e6c6ab6251c25086",
        "policies.json": "797fba32c071b0b8593c489168a9511447195706a177a7c60b51ed8b6bf5a9fa"},
    ("compartment", 7): {
        "compartment_curves.csv": "b4adb9cd76251f004adae09ee78daf7aaa03f12a353eb4cce84cc2752dae6fe3",
        "compartment_report.json": "aa2cb01046697e984869810157a7ed6f7fefbef9bb73e5062e91b0c11365b7f6",
        "policies.json": "b620ed0413f99de9e938ea67e4688ab5e4637a810aa38da964bd28c086d80a89"},
    ("bench", 1): {
        "bench.csv": "95688af250ee79ff834c892c13c4764f9e31f5939f54b776cfebbb202bc3b3fa",
        "bench_summary.csv": "dcf69426b7e2c62bcf7b2ee78e2619d581b464a9d15c555efa0ae972600f83b5"},
    ("bench", 7): {
        "bench.csv": "2821b2fa422eedf53e925274d1bfda214bd467dae379a0320c90610337b72ed5",
        "bench_summary.csv": "0077d5a82a9d9438d5484d904bfd2c4d057aae9b4b44e22791b7f36b14edbc84"},
}


@pytest.mark.parametrize("command,seed", list(PIPELINE_SHA256))
def test_reduced_pipeline_outputs_are_pinned(tmp_path, command, seed):
    if command == "pareto":
        paths = {key: str(tmp_path / f"{stem}.csv") for key, stem in
                 (("a_csv", "A"), ("y_csv", "y"), ("r_csv", "R"))}
        dataio.write_iotable_csv(modelzoo.leontief_synthetic(10), *paths.values())
        obj = {"command": "pareto", "model": paths, "adam": {"iterations": 2},
               "loss": {"lambdas": [0.0, 1.0]}}
    elif command == "compartment":
        obj = {"command": "compartment", "model": "two-compartment",
               "adam": {"iterations": 2}, "sampling": {"samples_per_step": 4}}
    else:
        obj = {"command": "bench", "model": "motivating-example",
               "bench": {"dims": [2, 10, 30], "seeds": 2}}
    manifest = run_experiment(_config_from_obj(obj), out_dir=tmp_path / "out", seed=seed)
    assert manifest.success
    assert {rec["path"]: rec["sha256"] for rec in manifest.outputs} == PIPELINE_SHA256[command, seed]


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
