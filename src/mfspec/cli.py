"""Config-driven batch front end.

``mfspec run config.json`` executes the command block of a JSON config and
writes one machine-readable table (CSV or JSON) plus a sidecar diagnostics
file.  ``mfspec dim`` forces the dimension command on a config;
``mfspec validate <suite>`` emits an oracle-comparison table.  Outputs are a
pure function of the config, so identical configs produce byte-identical
artifacts.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from dataclasses import asdict, dataclass, fields, replace
from typing import Callable, NamedTuple

from . import oracle
from .errors import ConfigError, MfspecError
from .geometry import (IfsSystem, example2_system, linear_system,
                       manneville_pomeau_system)
from .potentials import (PotentialSpec, coordinate, first_symbol,
                         indicator_branch, polynomial)
from .spectrum import (DepthContext, SolverOptions, SpectrumPoint,
                       full_spectrum, moran_dimension)
from .symbolic import MarkovChainSpec, abramov_stats, block_marginal

TABLE_COLUMNS = ("alpha", "lower", "upper", "flag", "n", "rho", "delta",
                 "lemma1_gap", "iterations", "error")
DIAG_KEYS = ("alpha", "cover_size", "iterations", "t", "q", "gibbs_evals",
             "moran_evals", "lemma1_gap", "rho", "delta", "flag", "error")

_FORMATS = ("csv", "json")


@dataclass(frozen=True)
class SystemConfig:
    name: str
    ratios: tuple[float, ...] | None = None
    offsets: tuple[float, ...] | None = None
    beta: float | None = None


@dataclass(frozen=True)
class PotentialConfig:
    name: str
    values: tuple[float, ...] | None = None
    coefficients: tuple[float, ...] | None = None
    branch: int | None = None


@dataclass(frozen=True)
class CommandConfig:
    name: str
    alphas: tuple[float, ...] | None = None
    alpha: float | None = None
    suite: str | None = None


@dataclass(frozen=True)
class OutputConfig:
    path: str = "mfspec_out.csv"
    format: str = "csv"
    precision: int = 12

    def __post_init__(self):
        if self.format not in _FORMATS:
            raise ConfigError(
                f"output format must be one of {', '.join(_FORMATS)}")
        if not 1 <= self.precision <= 17:
            raise ConfigError("output precision must be between 1 and 17")


@dataclass(frozen=True)
class RunConfig:
    system: SystemConfig | None  # None only for a validate command
    potential: PotentialConfig | None
    command: CommandConfig
    solver: SolverOptions
    output: OutputConfig


# ---------------------------------------------------------------------------
# strict schema parsing
# ---------------------------------------------------------------------------

class _Builtin(NamedTuple):
    """Keys one builtin name takes, and what it builds."""

    required: tuple[str, ...] = ()
    optional: tuple[str, ...] = ()
    build: Callable | None = None


# section -> builtin name -> schema; every other field of the section's
# config class must be absent or null
_SCHEMA = {
    "system": {
        "linear": _Builtin(("ratios",), ("offsets",),
                           lambda c: linear_system(c.ratios, c.offsets)),
        "example2": _Builtin(build=lambda c: example2_system()),
        "manneville_pomeau": _Builtin(
            ("beta",), build=lambda c: manneville_pomeau_system(c.beta)),
    },
    "potential": {
        "coordinate": _Builtin(build=lambda c: coordinate()),
        "polynomial": _Builtin(("coefficients",),
                               build=lambda c: polynomial(c.coefficients)),
        "first_symbol": _Builtin(("values",),
                                 build=lambda c: first_symbol(c.values)),
        "indicator_branch": _Builtin(
            ("branch",), build=lambda c: indicator_branch(c.branch)),
    },
    "command": {
        "spectrum": _Builtin(("alphas",)),
        "dim": _Builtin(optional=("alpha",)),
        "validate": _Builtin(("suite",)),
    },
}

# JSON kind of each field annotation, with "| None" stripped
_KINDS = {"int": "int", "float": "number", "str": "string",
          "tuple[float, ...]": "number_list"}


def _require_object(value, section: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"'{section}' must be an object")
    return value


def _check_keys(obj: dict, allowed, section: str) -> None:
    for key in obj:
        if key not in allowed:
            raise ConfigError(
                f"unknown key '{key}' in '{section}'; allowed keys: "
                f"{', '.join(allowed)}")


def _finite(value) -> bool:
    """A JSON number, not a bool, that is a finite double: Python's json
    reads NaN, Infinity and integers past the double range."""
    return (not isinstance(value, bool) and isinstance(value, (int, float))
            and abs(value) <= sys.float_info.max)


def _get(obj: dict, field, section: str, default=None):
    """``obj[field.name]`` checked against the field's annotation; an absent
    or null key gives ``default``; numbers must be finite (``_finite``)."""
    value = obj.get(field.name)
    if value is None:
        return default
    kind = _KINDS[field.type.removesuffix(" | None")]
    key = f"key '{field.name}' in '{section}'"
    if kind == "number":
        if not _finite(value):
            raise ConfigError(f"{key} must be a finite number")
        return float(value)
    if kind == "int":
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"{key} must be an integer")
        return value
    if kind == "string":
        if not isinstance(value, str):
            raise ConfigError(f"{key} must be a string")
        return value
    if not isinstance(value, list) or not value or not all(map(_finite, value)):
        raise ConfigError(f"{key} must be a nonempty finite number list")
    return tuple(float(v) for v in value)


def _parse_named(obj, section: str, cls):
    """A ``cls`` for a section block whose ``name`` picks a ``_SCHEMA`` entry.

    The name's required keys must be present; a key outside its required
    and optional keys is unknown, except that a null field of ``cls`` (as
    ``serialize_config`` writes one) reads as absent.
    """
    obj = _require_object(obj, section)
    known = {f.name: f for f in fields(cls)}
    name = _get(obj, known.pop("name"), section)
    if name is None:
        raise ConfigError(f"missing key 'name' in '{section}'")
    builtins = _SCHEMA[section]
    if name not in builtins:
        raise ConfigError(f"unknown {section} '{name}'; builtins: "
                          f"{', '.join(builtins)}")
    spec = builtins[name]
    allowed = ("name", *spec.required, *spec.optional)
    for key, value in obj.items():
        if key not in allowed and (value is not None or key not in known):
            raise ConfigError(
                f"unknown key '{key}' in {section} '{name}'; allowed keys: "
                f"{', '.join(allowed)}")
    for key in spec.required:
        if obj.get(key) is None:
            raise ConfigError(f"{section} '{name}' requires '{key}'")
    return cls(name=name, **{key: _get(obj, f, section)
                             for key, f in known.items()})


def _parse_plain(obj, section: str, cls):
    """A ``cls`` for an optional section whose keys are all ``cls`` fields."""
    if obj is None:
        return cls()
    obj = _require_object(obj, section)
    _check_keys(obj, [f.name for f in fields(cls)], section)
    defaults = cls()
    try:
        return cls(**{f.name: _get(obj, f, section, getattr(defaults, f.name))
                      for f in fields(cls)})
    except ValueError as exc:
        raise ConfigError(f"invalid {section} options: {exc}") from exc


def parse_config(text: str) -> RunConfig:
    """Parse and validate a JSON run configuration (strict: unknown keys fail)."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    raw = _require_object(raw, "config")
    _check_keys(raw, ("system", "potential", "command", "solver", "output"),
                "config")
    if "command" not in raw:
        raise ConfigError("missing top-level key 'command'")
    command = _parse_named(raw["command"], "command", CommandConfig)
    if command.suite is not None and command.suite not in _SUITE_RUNNERS:
        raise ConfigError(f"unknown suite '{command.suite}'; available: "
                          f"{', '.join(_SUITE_RUNNERS)}")
    sections = dict.fromkeys(("system", "potential"))  # a suite fixes both
    for key, cls in (("system", SystemConfig), ("potential", PotentialConfig)):
        if key in raw and (raw[key] is not None or command.name != "validate"):
            sections[key] = _parse_named(raw[key], key, cls)
        elif command.name != "validate":
            raise ConfigError(f"missing top-level key '{key}'")
    return RunConfig(
        **sections, command=command,
        solver=_parse_plain(raw.get("solver"), "solver", SolverOptions),
        output=_parse_plain(raw.get("output"), "output", OutputConfig),
    )


def serialize_config(config: RunConfig) -> str:
    """Canonical JSON for a config; parse_config inverts it exactly."""
    return json.dumps(asdict(config), indent=2, sort_keys=True)


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------

def build_system(cfg: SystemConfig) -> IfsSystem:
    try:
        return _SCHEMA["system"][cfg.name].build(cfg)
    except ValueError as exc:
        raise ConfigError(f"invalid system: {exc}") from exc


def build_potential(cfg: PotentialConfig) -> PotentialSpec:
    return _SCHEMA["potential"][cfg.name].build(cfg)


# ---------------------------------------------------------------------------
# table rendering
# ---------------------------------------------------------------------------

def _fmt(value, precision: int) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return format(value, f".{precision}g")
    return str(value)


def _project(point: SpectrumPoint, keys) -> dict:
    """The table row (``TABLE_COLUMNS``) or sidecar point (``DIAG_KEYS``) of
    a point; ``flag`` is ``in_parabolic_interval``."""
    return {k: getattr(point, "in_parabolic_interval" if k == "flag" else k)
            for k in keys}


def render_table(columns, rows, fmt: str, precision: int) -> str:
    if fmt == "json":
        payload = [{c: (None if r.get(c) is None else
                        (json.loads(_fmt(r[c], precision))
                         if isinstance(r.get(c), (int, float, bool))
                         else r[c]))
                    for c in columns} for r in rows]
        return json.dumps(payload, indent=2) + "\n"
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for r in rows:
        writer.writerow([_fmt(r.get(c), precision) for c in columns])
    return buf.getvalue()


# ---------------------------------------------------------------------------
# validation suites
# ---------------------------------------------------------------------------

def _suite_besicovitch(n: int):
    system = linear_system([0.5, 0.5])
    potential = first_symbol([1.0, 0.0])
    spec = oracle.BesicovitchSpec(m=2, ratio=0.5, values=(1.0, 0.0))
    opts = SolverOptions(n=n)
    points = full_spectrum(system, potential, (0.2, 0.3, 0.5, 0.7, 0.8), opts)
    rows = []
    for p in points:
        closed = oracle.besicovitch_spectrum(spec, p.alpha)
        rows.append({
            "alpha": p.alpha, "lower": p.lower, "upper": p.upper,
            "closed_form": closed,
            "lower_error": None if p.lower is None else abs(p.lower - closed),
            "error": p.error,
        })
    columns = ("alpha", "lower", "upper", "closed_form", "lower_error",
               "error")
    return columns, rows


def _suite_markov(n: int):
    chain = MarkovChainSpec(transition=[[0.9, 0.1], [0.2, 0.8]],
                            initial=[2.0 / 3.0, 1.0 / 3.0])
    rows = []
    for depth in range(1, n + 1):
        exact = oracle.markov_block_entropy_exact(chain, depth)
        stats = abramov_stats(block_marginal(chain, depth), ())
        expected_rate = exact.block_entropy / depth
        rows.append({
            "n": depth, "enumerated_rate": stats.entropy_rate,
            "exact_rate": expected_rate,
            "abs_error": abs(stats.entropy_rate - expected_rate),
        })
    return ("n", "enumerated_rate", "exact_rate", "abs_error"), rows


def _suite_moran(n: int):
    system = linear_system([0.5, 1.0 / 3.0])
    reference = oracle.similarity_dimension((2.0, 3.0))
    rows = []
    for depth in range(2, n + 1, 2):
        s = moran_dimension(system, depth)
        rows.append({"n": depth, "s_n": s, "reference": reference,
                     "abs_error": abs(s - reference)})
    return ("n", "s_n", "reference", "abs_error"), rows


_SUITE_RUNNERS = {"besicovitch": _suite_besicovitch, "markov": _suite_markov,
                  "moran": _suite_moran}


def run_suite(suite: str, n: int):
    if suite not in _SUITE_RUNNERS:
        raise ConfigError(
            f"unknown suite '{suite}'; available: {', '.join(_SUITE_RUNNERS)}")
    columns, rows = _SUITE_RUNNERS[suite](n)
    if not rows:
        raise ConfigError(f"suite '{suite}' has no rows at depth n={n}")
    return columns, rows


# ---------------------------------------------------------------------------
# command execution
# ---------------------------------------------------------------------------

def run(config: RunConfig) -> int:
    """Execute a config: write the table artifact plus a diagnostics sidecar.

    Exit status 0 on full success, 2 when individual rows carry errors,
    1 (via exception) on fatal problems.
    """
    command = config.command
    out = config.output
    diagnostics: dict = {"command": command.name, "n": config.solver.n}

    if command.name == "validate":
        columns, rows = run_suite(command.suite, config.solver.n)
        diagnostics["suite"] = command.suite
    elif config.system is None or config.potential is None:
        raise ConfigError(f"'{command.name}' needs 'system' and 'potential'")
    else:
        system = build_system(config.system)
        potential = build_potential(config.potential)
        if command.name == "dim" and command.alpha is None:
            ctx = DepthContext(system, potential, config.solver)
            points = [SpectrumPoint(
                alpha=None, lower=None, upper=ctx.attractor_dimension,
                in_parabolic_interval=None, n=ctx.n,
                lemma1_gap=ctx.lemma1_gap)]
        else:
            grid = command.alphas if command.name == "spectrum" \
                else (command.alpha,)
            points = full_spectrum(system, potential, grid, config.solver)
            diagnostics["points"] = [_project(p, DIAG_KEYS) for p in points]
        columns = TABLE_COLUMNS
        rows = [_project(p, columns) for p in points]
    exit_code = 2 if any(r.get("error") for r in rows) else 0

    table = render_table(columns, rows, out.format, out.precision)
    with open(out.path, "w", newline="") as fh:
        fh.write(table)
    diagnostics["rows"] = len(rows)
    with open(out.path + ".diag.json", "w") as fh:
        json.dump(diagnostics, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return exit_code


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _load_config(path: str) -> RunConfig:
    try:
        with open(path) as fh:
            return parse_config(fh.read())
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="mfspec",
        description="Birkhoff-average multifractal spectrum estimator")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_run = sub.add_parser("run", help="execute a config file")
    p_run.add_argument("config", help="path to a JSON run config")

    p_dim = sub.add_parser("dim", help="dimension estimate for a config")
    p_dim.add_argument("config", help="path to a JSON run config")

    p_val = sub.add_parser("validate", help="run an oracle-comparison suite")
    p_val.add_argument("suite", choices=tuple(_SUITE_RUNNERS))
    p_val.add_argument("--n", type=int, default=10, help="working depth")
    p_val.add_argument("--output", default=None,
                       help="write the table here instead of stdout")
    p_val.add_argument("--format", choices=_FORMATS, default="csv")

    args = parser.parse_args(argv)
    try:
        if args.subcommand == "validate":
            columns, rows = run_suite(args.suite, args.n)
            table = render_table(columns, rows, args.format, 12)
            if args.output:
                with open(args.output, "w", newline="") as fh:
                    fh.write(table)
            else:
                sys.stdout.write(table)
            return 2 if any(r.get("error") for r in rows) else 0
        config = _load_config(args.config)
        if args.subcommand == "dim" and config.command.name != "dim":
            config = replace(config,
                             command=CommandConfig(name="dim"))
        return run(config)
    except (MfspecError, ValueError) as exc:
        print(f"mfspec: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
