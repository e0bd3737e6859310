"""Config parsing, artifact writing, exit codes and determinism."""

import json
import os
import re
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import mfspec
from mfspec.cli import (_SCHEMA, CommandConfig, PotentialConfig, SystemConfig,
                        main, parse_config, run, run_suite, serialize_config)
from mfspec.errors import ConfigError


def make_config(tmp_path, **overrides):
    cfg = {
        "system": {"name": "linear", "ratios": [0.5, 0.5]},
        "potential": {"name": "first_symbol", "values": [1, 0]},
        "command": {"name": "spectrum", "alphas": [0.3, 0.5]},
        "solver": {"n": 8},
        "output": {"path": str(tmp_path / "out.csv"), "format": "csv",
                   "precision": 12},
    }
    cfg.update(overrides)
    return cfg


def test_parse_minimal_config(tmp_path):
    cfg = parse_config(json.dumps(make_config(tmp_path)))
    assert cfg.system == SystemConfig(name="linear", ratios=(0.5, 0.5))
    assert cfg.potential == PotentialConfig(name="first_symbol",
                                            values=(1.0, 0.0))
    assert cfg.command == CommandConfig(name="spectrum", alphas=(0.3, 0.5))
    assert cfg.solver.n == 8
    assert cfg.output.precision == 12


def test_parse_mp_dim_config(tmp_path):
    raw = make_config(tmp_path,
                      system={"name": "manneville_pomeau", "beta": 0.5},
                      potential={"name": "coordinate"},
                      command={"name": "dim"})
    cfg = parse_config(json.dumps(raw))
    assert cfg.system.beta == 0.5
    assert cfg.command.name == "dim"
    assert cfg.command.alpha is None


def test_unknown_keys_named_in_error(tmp_path):
    raw = make_config(tmp_path)
    raw["system"] = {"name": "linear", "ratios_typo": [0.5, 0.5]}
    with pytest.raises(ConfigError, match="ratios_typo"):
        parse_config(json.dumps(raw))
    raw = make_config(tmp_path)
    raw["solver"] = {"n": 8, "depht": 3}
    with pytest.raises(ConfigError, match="depht"):
        parse_config(json.dumps(raw))


def test_seed_key_is_refused_by_name(tmp_path):
    # every estimator is deterministic, so the solver block takes no seed
    raw = make_config(tmp_path, solver={"n": 8, "seed": 5})
    with pytest.raises(ConfigError, match="unknown key 'seed' in 'solver'"):
        parse_config(json.dumps(raw))


def test_word_cap_key_is_refused_by_name(tmp_path):
    # the word cap is a constant of the package, not a solver option
    raw = make_config(tmp_path, solver={"n": 8, "word_cap": 2**17})
    with pytest.raises(ConfigError,
                       match="unknown key 'word_cap' in 'solver'"):
        parse_config(json.dumps(raw))


def test_type_errors_name_key_and_type(tmp_path):
    raw = make_config(tmp_path)
    raw["solver"] = {"n": "eight"}
    with pytest.raises(ConfigError, match="'n'.*integer"):
        parse_config(json.dumps(raw))
    raw = make_config(tmp_path)
    raw["command"] = {"name": "spectrum", "alphas": "0.3"}
    with pytest.raises(ConfigError, match="'alphas'.*number list"):
        parse_config(json.dumps(raw))


@pytest.mark.parametrize("section, block, key", [
    ("solver", '{"n": 8, "rho": Infinity}', "rho"),
    ("solver", '{"n": 8, "rho": NaN}', "rho"),
    ("solver", '{"n": 8, "delta": NaN}', "delta"),
    ("command", '{"name": "spectrum", "alphas": [NaN]}', "alphas"),
    ("system", '{"name": "manneville_pomeau", "beta": -Infinity}', "beta"),
    ("system", '{"name": "linear", "ratios": [0.5, 1%s]}' % ("0" * 400),
     "ratios"),
])
def test_non_finite_numbers_name_their_key(tmp_path, section, block, key):
    # Python's json reads NaN, Infinity and integers no double can hold; a
    # config carrying one is refused
    raw = make_config(tmp_path, **{section: "BLOCK"})
    text = json.dumps(raw).replace('"BLOCK"', block)
    with pytest.raises(ConfigError, match=f"'{key}'.*finite"):
        parse_config(text)


def test_missing_and_mismatched_sections(tmp_path):
    raw = make_config(tmp_path)
    del raw["command"]
    with pytest.raises(ConfigError, match="command"):
        parse_config(json.dumps(raw))
    raw = make_config(tmp_path,
                      system={"name": "example2", "ratios": [0.5, 0.5]})
    with pytest.raises(ConfigError, match="example2"):
        parse_config(json.dumps(raw))
    raw = make_config(tmp_path, command={"name": "validate"})
    with pytest.raises(ConfigError, match="suite"):
        parse_config(json.dumps(raw))


_NUMBER = (st.floats(allow_nan=False, allow_infinity=False)
           | st.integers(-10**6, 10**6))
_NUMBER_LIST = st.lists(_NUMBER, min_size=1, max_size=4)
# a valid value for every key of a named section
_VALUES = {"ratios": _NUMBER_LIST, "offsets": _NUMBER_LIST, "beta": _NUMBER,
           "values": _NUMBER_LIST, "coefficients": _NUMBER_LIST,
           "branch": st.integers(-10**9, 10**9), "alphas": _NUMBER_LIST,
           "alpha": _NUMBER,
           "suite": st.sampled_from(["besicovitch", "markov", "moran"])}
_CLASSES = {"system": SystemConfig, "potential": PotentialConfig,
            "command": CommandConfig}
_JSON_SCALARS = (st.none() | st.booleans() | _NUMBER | st.text(max_size=5)
                 | _NUMBER_LIST)


def _raises_naming(raw, key):
    with pytest.raises(ConfigError, match=re.escape(f"'{key}'")):
        parse_config(json.dumps(raw))


@pytest.mark.parametrize("section,name", [
    (section, name) for section in _CLASSES for name in _SCHEMA[section]])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_schema_table_accepts_exactly_its_keys(section, name, data):
    tmp_path = Path("unwritten")  # parsing writes nothing
    spec = _SCHEMA[section][name]
    allowed = {"name", *spec.required, *spec.optional}
    block = {"name": name,
             **{key: data.draw(_VALUES[key]) for key in spec.required}}
    for extra in ({}, {key: data.draw(_VALUES[key]) for key in spec.optional}):
        cfg = parse_config(json.dumps(
            make_config(tmp_path, **{section: {**block, **extra}})))
        assert parse_config(serialize_config(cfg)) == cfg

    # another builtin's key with a value, or any key that is no field
    others = sorted(f.name for f in fields(_CLASSES[section])
                    if f.name not in allowed)
    key = data.draw(st.text(min_size=1, max_size=8).filter(
        lambda k: k not in allowed and k not in others))
    value = data.draw(_JSON_SCALARS)
    if others and data.draw(st.booleans()):
        key = data.draw(st.sampled_from(others))
        value = data.draw(_VALUES[key])
    _raises_naming(make_config(tmp_path, **{section: {**block, key: value}}),
                   key)

    if spec.required:
        key = data.draw(st.sampled_from(spec.required))
        short = {k: v for k, v in block.items() if k != key}
        _raises_naming(make_config(tmp_path, **{section: short}), key)

    # solver knobs that are fixed constants are unknown keys
    key = data.draw(st.sampled_from(
        ["t_tol", "moran_tol", "alpha_tol", "boundary_tol", "max_iter"]))
    _raises_naming(make_config(tmp_path,
                               solver={"n": 8, key: data.draw(_NUMBER)}), key)


def test_serialize_round_trip(tmp_path):
    for overrides in (
            {},
            {"system": {"name": "manneville_pomeau", "beta": 0.75},
             "potential": {"name": "polynomial", "coefficients": [0, 1, -2]},
             "command": {"name": "dim", "alpha": 0.4}},
            {"potential": {"name": "indicator_branch", "branch": 1},
             "command": {"name": "validate", "suite": "moran"}},
    ):
        cfg = parse_config(json.dumps(make_config(tmp_path, **overrides)))
        assert parse_config(serialize_config(cfg)) == cfg


def test_run_writes_sorted_table_and_diagnostics(tmp_path):
    raw = make_config(tmp_path)
    raw["command"]["alphas"] = [0.5, 0.2, 0.35]
    cfg = parse_config(json.dumps(raw))
    assert run(cfg) == 0
    lines = (tmp_path / "out.csv").read_text().strip().splitlines()
    assert lines[0] == ("alpha,lower,upper,flag,n,rho,delta,lemma1_gap,"
                       "iterations,error")
    alphas = [float(line.split(",")[0]) for line in lines[1:]]
    assert alphas == sorted(alphas) == [0.2, 0.35, 0.5]
    diag = json.loads((tmp_path / "out.csv.diag.json").read_text())
    assert diag["command"] == "spectrum"
    assert len(diag["points"]) == 3
    assert all(p["iterations"] > 0 for p in diag["points"])


def test_run_is_byte_deterministic(tmp_path):
    raw = make_config(tmp_path,
                      system={"name": "manneville_pomeau", "beta": 0.5},
                      potential={"name": "coordinate"},
                      command={"name": "spectrum", "alphas": [0.0, 0.3, 0.6]})
    cfg = parse_config(json.dumps(raw))
    run(cfg)
    first = (tmp_path / "out.csv").read_bytes()
    first_diag = (tmp_path / "out.csv.diag.json").read_bytes()
    run(cfg)
    assert (tmp_path / "out.csv").read_bytes() == first
    assert (tmp_path / "out.csv.diag.json").read_bytes() == first_diag


def test_diagnostics_carry_solver_counts(tmp_path):
    # Gibbs evaluations and Moran sums per point are deterministic ints in
    # .diag.json; they repeat run to run and are not table columns
    raw = make_config(tmp_path,
                      system={"name": "manneville_pomeau", "beta": 0.5},
                      potential={"name": "coordinate"},
                      command={"name": "spectrum", "alphas": [0.0, 0.3, 0.6]})
    cfg = parse_config(json.dumps(raw))
    runs = []
    for _ in range(2):
        run(cfg)
        diag = json.loads((tmp_path / "out.csv.diag.json").read_text())
        runs.append([(p["gibbs_evals"], p["moran_evals"])
                     for p in diag["points"]])
    assert runs[0] == runs[1]
    (flag_gibbs, flag_moran), *rest = runs[0]
    assert flag_gibbs is None and type(flag_moran) is int and flag_moran > 0
    assert all(type(g) is int and type(m) is int and g > 0 and m > 0
               for g, m in rest)
    header = (tmp_path / "out.csv").read_text().splitlines()[0].split(",")
    assert not {"gibbs_evals", "moran_evals"} & set(header)


def test_run_json_format(tmp_path):
    raw = make_config(tmp_path)
    raw["output"]["format"] = "json"
    raw["output"]["path"] = str(tmp_path / "out.json")
    cfg = parse_config(json.dumps(raw))
    assert run(cfg) == 0
    rows = json.loads((tmp_path / "out.json").read_text())
    assert [r["alpha"] for r in rows] == [0.3, 0.5]
    assert rows[1]["lower"] == pytest.approx(1.0, abs=1e-6)
    assert rows[0]["flag"] == 0


def test_run_partial_failure_exit_code(tmp_path):
    raw = make_config(tmp_path)
    raw["command"]["alphas"] = [0.5, 3.0]
    cfg = parse_config(json.dumps(raw))
    assert run(cfg) == 2
    lines = (tmp_path / "out.csv").read_text().strip().splitlines()
    good = lines[1].split(",")
    assert good[-1] == ""
    assert "outside achievable" in lines[2]


def test_run_attractor_dim_row(tmp_path):
    raw = make_config(tmp_path,
                      system={"name": "example2"},
                      potential={"name": "coordinate"},
                      command={"name": "dim"})
    cfg = parse_config(json.dumps(raw))
    assert run(cfg) == 0
    lines = (tmp_path / "out.csv").read_text().strip().splitlines()
    row = dict(zip(lines[0].split(","), lines[1].split(",")))
    assert row["alpha"] == ""
    assert float(row["upper"]) == pytest.approx(1.0, abs=1e-9)


def test_single_alpha_dim_row(tmp_path):
    raw = make_config(tmp_path, command={"name": "dim", "alpha": 0.3})
    cfg = parse_config(json.dumps(raw))
    assert run(cfg) == 0
    lines = (tmp_path / "out.csv").read_text().strip().splitlines()
    assert len(lines) == 2
    row = lines[1].split(",")
    assert float(row[0]) == 0.3
    assert float(row[1]) == pytest.approx(0.8812908992306927, abs=1e-6)


def test_validate_suites_exist():
    for suite, tol in (("besicovitch", 1e-8), ("markov", 1e-10),
                       ("moran", 1e-13)):
        columns, rows = run_suite(suite, 8)
        assert rows
        err_col = columns[-1] if suite != "besicovitch" else "lower_error"
        assert all(r[err_col] <= tol for r in rows)


def test_main_validate_to_file(tmp_path):
    out = tmp_path / "suite.csv"
    code = main(["validate", "moran", "--n", "6", "--output", str(out)])
    assert code == 0
    assert out.read_text().startswith("n,s_n,reference,abs_error")


def test_run_validate_command_matches_main_validate(tmp_path):
    # a config whose command is a suite writes the table `mfspec validate`
    # writes at the same depth, and a sidecar naming the suite
    raw = make_config(tmp_path, command={"name": "validate", "suite": "moran"},
                      solver={"n": 6})
    assert run(parse_config(json.dumps(raw))) == 0
    ref = tmp_path / "suite.csv"
    assert main(["validate", "moran", "--n", "6", "--output", str(ref)]) == 0
    assert (tmp_path / "out.csv").read_bytes() == ref.read_bytes()
    diag = json.loads((tmp_path / "out.csv.diag.json").read_text())
    assert diag == {"command": "validate", "n": 6, "rows": 3,
                    "suite": "moran"}


def test_validate_config_needs_no_system_or_potential(tmp_path):
    # each suite fixes its own system and potential, so a validate config
    # may leave both sections out; it writes the table `mfspec validate`
    # writes, and its canonical form round-trips with both null
    raw = {"command": {"name": "validate", "suite": "moran"},
           "solver": {"n": 6}, "output": {"path": str(tmp_path / "out.csv")}}
    cfg = parse_config(json.dumps(raw))
    assert cfg.system is None and cfg.potential is None
    assert parse_config(serialize_config(cfg)) == cfg
    assert run(cfg) == 0
    ref = tmp_path / "suite.csv"
    assert main(["validate", "moran", "--n", "6", "--output", str(ref)]) == 0
    assert (tmp_path / "out.csv").read_bytes() == ref.read_bytes()
    # the `dim` subcommand on it needs the sections it left out
    path = tmp_path / "validate.json"
    path.write_text(json.dumps(raw))
    assert main(["dim", str(path)]) == 1
    # every other command still requires both
    for command in ({"name": "spectrum", "alphas": [0.3]}, {"name": "dim"}):
        for key in ("system", "potential"):
            short = make_config(tmp_path, command=command)
            del short[key]
            with pytest.raises(ConfigError, match=f"missing top-level key "
                                                  f"'{key}'"):
                parse_config(json.dumps(short))


def test_validate_without_rows_fails(capsys):
    # a table with only a header is an error, not a result
    for argv in (["markov", "--n", "0"], ["moran", "--n", "1"],
                 ["moran", "--n", "-3"], ["besicovitch", "--n", "1"]):
        assert main(["validate", *argv]) == 1
        assert capsys.readouterr().out == ""
    with pytest.raises(ConfigError):
        run_suite("moran", 1)
    assert main(["validate", "markov", "--n", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "n,enumerated_rate,exact_rate,abs_error"
    assert len(lines) == 2 and lines[1].startswith("1,")


def test_main_run_and_dim(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(make_config(tmp_path)))
    assert main(["run", str(path)]) == 0
    # dim forces the command regardless of the config's command block
    assert main(["dim", str(path)]) == 0
    lines = (tmp_path / "out.csv").read_text().strip().splitlines()
    assert len(lines) == 2
    assert lines[1].split(",")[0] == ""


def test_main_reports_fatal_errors(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text("{not json")
    assert main(["run", str(path)]) == 1
    assert main(["run", str(tmp_path / "missing.json")]) == 1
    # an output path in a missing directory, from a config and from
    # validate's --output, is reported, not raised
    capsys.readouterr()
    missing = tmp_path / "missing" / "out.csv"
    path.write_text(json.dumps(make_config(tmp_path, output={
        "path": str(missing)})))
    assert main(["run", str(path)]) == 1
    assert main(["validate", "moran", "--n", "4",
                 "--output", str(missing)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2
    assert all(line.startswith("mfspec: error: cannot write output: ")
               for line in err)
    assert not missing.parent.exists()


def test_cli_and_shipped_systems_load_without_scipy():
    # scipy serves only the tests: importing the CLI, building every shipped
    # system and running every validation suite must not load any of it
    code = (
        "import sys\n"
        "from mfspec.cli import SystemConfig, build_system, run_suite\n"
        "for cfg in (SystemConfig('linear', ratios=(0.5, 0.5)),\n"
        "            SystemConfig('example2'),\n"
        "            SystemConfig('manneville_pomeau', beta=0.5)):\n"
        "    build_system(cfg)\n"
        "for suite in ('besicovitch', 'markov', 'moran'):\n"
        "    run_suite(suite, 10)\n"
        "loaded = [m for m in sys.modules if m.split('.')[0] == 'scipy']\n"
        "assert not loaded, f'scipy loaded: {loaded}'\n")
    src = str(Path(mfspec.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
