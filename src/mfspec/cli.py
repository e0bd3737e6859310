"""Config-driven batch front end.

``mfspec run config.json`` executes the command block of a JSON config and
writes one machine-readable table (CSV or JSON) plus a sidecar diagnostics
file.  ``mfspec dim`` forces the dimension command on a config;
``mfspec validate <suite>`` emits an oracle-comparison table.  Outputs are a
pure function of the config (seed included), so identical configs produce
byte-identical artifacts.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from dataclasses import asdict, dataclass, fields, replace

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

_SYSTEMS = ("linear", "example2", "manneville_pomeau")
_POTENTIALS = ("coordinate", "polynomial", "first_symbol", "indicator_branch")
_COMMANDS = ("spectrum", "dim", "validate")
_SUITES = ("besicovitch", "markov", "moran")
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


@dataclass(frozen=True)
class RunConfig:
    system: SystemConfig
    potential: PotentialConfig
    command: CommandConfig
    solver: SolverOptions
    output: OutputConfig


# ---------------------------------------------------------------------------
# strict schema parsing
# ---------------------------------------------------------------------------

_MISSING = object()


def _require_object(value, section: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"'{section}' must be an object")
    return value


def _check_keys(obj: dict, allowed: tuple[str, ...], section: str) -> None:
    for key in obj:
        if key not in allowed:
            raise ConfigError(
                f"unknown key '{key}' in '{section}'; allowed keys: "
                f"{', '.join(allowed)}")


def _get(obj: dict, key: str, kind: str, section: str, default=_MISSING):
    if key not in obj or obj[key] is None:
        if default is _MISSING:
            raise ConfigError(f"missing key '{key}' in '{section}'")
        return default
    value = obj[key]
    if kind == "number":
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"key '{key}' in '{section}' must be a number")
        return float(value)
    if kind == "int":
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"key '{key}' in '{section}' must be an integer")
        return value
    if kind == "string":
        if not isinstance(value, str):
            raise ConfigError(f"key '{key}' in '{section}' must be a string")
        return value
    if kind == "number_list":
        if (not isinstance(value, list) or not value
                or any(isinstance(v, bool) or not isinstance(v, (int, float))
                       for v in value)):
            raise ConfigError(
                f"key '{key}' in '{section}' must be a nonempty number list")
        return tuple(float(v) for v in value)
    raise AssertionError(kind)


def _parse_system(obj) -> SystemConfig:
    obj = _require_object(obj, "system")
    _check_keys(obj, ("name", "ratios", "offsets", "beta"), "system")
    name = _get(obj, "name", "string", "system")
    if name not in _SYSTEMS:
        raise ConfigError(
            f"unknown system '{name}'; builtins: {', '.join(_SYSTEMS)}")
    ratios = _get(obj, "ratios", "number_list", "system", None)
    offsets = _get(obj, "offsets", "number_list", "system", None)
    beta = _get(obj, "beta", "number", "system", None)
    if name == "linear" and ratios is None:
        raise ConfigError("system 'linear' requires 'ratios'")
    if name == "manneville_pomeau" and beta is None:
        raise ConfigError("system 'manneville_pomeau' requires 'beta'")
    if name != "linear" and (ratios is not None or offsets is not None):
        raise ConfigError(f"system '{name}' takes no 'ratios'/'offsets'")
    if name != "manneville_pomeau" and beta is not None:
        raise ConfigError(f"system '{name}' takes no 'beta'")
    return SystemConfig(name=name, ratios=ratios, offsets=offsets, beta=beta)


def _parse_potential(obj) -> PotentialConfig:
    obj = _require_object(obj, "potential")
    _check_keys(obj, ("name", "values", "coefficients", "branch"), "potential")
    name = _get(obj, "name", "string", "potential")
    if name not in _POTENTIALS:
        raise ConfigError(
            f"unknown potential '{name}'; builtins: {', '.join(_POTENTIALS)}")
    values = _get(obj, "values", "number_list", "potential", None)
    coeffs = _get(obj, "coefficients", "number_list", "potential", None)
    branch = _get(obj, "branch", "int", "potential", None)
    if name == "first_symbol" and values is None:
        raise ConfigError("potential 'first_symbol' requires 'values'")
    if name == "polynomial" and coeffs is None:
        raise ConfigError("potential 'polynomial' requires 'coefficients'")
    if name == "indicator_branch" and branch is None:
        raise ConfigError("potential 'indicator_branch' requires 'branch'")
    extras = {"first_symbol": ("coefficients", "branch"),
              "polynomial": ("values", "branch"),
              "indicator_branch": ("values", "coefficients"),
              "coordinate": ("values", "coefficients", "branch")}[name]
    for key in extras:
        if obj.get(key) is not None:
            raise ConfigError(f"potential '{name}' takes no '{key}'")
    return PotentialConfig(name=name, values=values, coefficients=coeffs,
                           branch=branch)


def _parse_command(obj) -> CommandConfig:
    obj = _require_object(obj, "command")
    _check_keys(obj, ("name", "alphas", "alpha", "suite"), "command")
    name = _get(obj, "name", "string", "command")
    if name not in _COMMANDS:
        raise ConfigError(
            f"unknown command '{name}'; available: {', '.join(_COMMANDS)}")
    alphas = _get(obj, "alphas", "number_list", "command", None)
    alpha = _get(obj, "alpha", "number", "command", None)
    suite = _get(obj, "suite", "string", "command", None)
    if name == "spectrum" and alphas is None:
        raise ConfigError("command 'spectrum' requires 'alphas'")
    if name == "validate":
        if suite is None:
            raise ConfigError("command 'validate' requires 'suite'")
        if suite not in _SUITES:
            raise ConfigError(
                f"unknown suite '{suite}'; available: {', '.join(_SUITES)}")
    if name != "spectrum" and alphas is not None:
        raise ConfigError(f"command '{name}' takes no 'alphas'")
    if name != "dim" and alpha is not None:
        raise ConfigError(f"command '{name}' takes no 'alpha'")
    if name != "validate" and suite is not None:
        raise ConfigError(f"command '{name}' takes no 'suite'")
    return CommandConfig(name=name, alphas=alphas, alpha=alpha, suite=suite)


_SOLVER_KEYS = {f.name: "int" if f.type in (int, "int") else "number"
                for f in fields(SolverOptions)}


def _parse_solver(obj) -> SolverOptions:
    if obj is None:
        return SolverOptions()
    obj = _require_object(obj, "solver")
    _check_keys(obj, tuple(_SOLVER_KEYS), "solver")
    kwargs = {}
    defaults = SolverOptions()
    for key, kind in _SOLVER_KEYS.items():
        kwargs[key] = _get(obj, key, kind, "solver", getattr(defaults, key))
    try:
        return SolverOptions(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"invalid solver options: {exc}") from exc


def _parse_output(obj) -> OutputConfig:
    if obj is None:
        return OutputConfig()
    obj = _require_object(obj, "output")
    _check_keys(obj, ("path", "format", "precision"), "output")
    fmt = _get(obj, "format", "string", "output", "csv")
    if fmt not in _FORMATS:
        raise ConfigError(f"output format must be one of {', '.join(_FORMATS)}")
    precision = _get(obj, "precision", "int", "output", 12)
    if not 1 <= precision <= 17:
        raise ConfigError("output precision must be between 1 and 17")
    return OutputConfig(path=_get(obj, "path", "string", "output",
                                  "mfspec_out.csv"),
                        format=fmt, precision=precision)


def parse_config(text: str) -> RunConfig:
    """Parse and validate a JSON run configuration (strict: unknown keys fail)."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    raw = _require_object(raw, "config")
    _check_keys(raw, ("system", "potential", "command", "solver", "output"),
                "config")
    for key in ("system", "potential", "command"):
        if key not in raw:
            raise ConfigError(f"missing top-level key '{key}'")
    return RunConfig(
        system=_parse_system(raw["system"]),
        potential=_parse_potential(raw["potential"]),
        command=_parse_command(raw["command"]),
        solver=_parse_solver(raw.get("solver")),
        output=_parse_output(raw.get("output")),
    )


def serialize_config(config: RunConfig) -> str:
    """Canonical JSON for a config; parse_config inverts it exactly."""
    def scrub(d):
        return {k: (list(v) if isinstance(v, tuple) else v)
                for k, v in d.items()}

    payload = {
        "system": scrub(asdict(config.system)),
        "potential": scrub(asdict(config.potential)),
        "command": scrub(asdict(config.command)),
        "solver": scrub(asdict(config.solver)),
        "output": scrub(asdict(config.output)),
    }
    return json.dumps(payload, indent=2, sort_keys=True)


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------

def build_system(cfg: SystemConfig) -> IfsSystem:
    try:
        if cfg.name == "linear":
            return linear_system(cfg.ratios, cfg.offsets)
        if cfg.name == "example2":
            return example2_system()
        return manneville_pomeau_system(cfg.beta)
    except ValueError as exc:
        raise ConfigError(f"invalid system: {exc}") from exc


def build_potential(cfg: PotentialConfig) -> PotentialSpec:
    if cfg.name == "coordinate":
        return coordinate()
    if cfg.name == "polynomial":
        return polynomial(cfg.coefficients)
    if cfg.name == "first_symbol":
        return first_symbol(cfg.values)
    return indicator_branch(cfg.branch)


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


def _point_row(point: SpectrumPoint) -> dict:
    return {
        "alpha": point.alpha, "lower": point.lower, "upper": point.upper,
        "flag": point.in_parabolic_interval, "n": point.n, "rho": point.rho,
        "delta": point.delta, "lemma1_gap": point.lemma1_gap,
        "iterations": point.iterations, "error": point.error,
    }


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
            f"unknown suite '{suite}'; available: {', '.join(_SUITES)}")
    columns, rows = _SUITE_RUNNERS[suite](n)
    if not rows:
        raise ConfigError(f"suite '{suite}' has no rows at depth n={n}")
    return columns, rows


# ---------------------------------------------------------------------------
# command execution
# ---------------------------------------------------------------------------

def _attractor_row(system, potential, opts: SolverOptions) -> dict:
    ctx = DepthContext(system, potential, opts)
    return {
        "alpha": None, "lower": None, "upper": ctx.attractor_dimension,
        "flag": None, "n": opts.n, "rho": None, "delta": None,
        "lemma1_gap": ctx.lemma1_gap, "iterations": None, "error": None,
    }


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
        exit_code = 2 if any(r.get("error") for r in rows) else 0
    else:
        system = build_system(config.system)
        potential = build_potential(config.potential)
        if command.name == "dim" and command.alpha is None:
            columns = TABLE_COLUMNS
            rows = [_attractor_row(system, potential, config.solver)]
            exit_code = 0
        else:
            grid = command.alphas if command.name == "spectrum" \
                else (command.alpha,)
            points = full_spectrum(system, potential, grid, config.solver)
            columns = TABLE_COLUMNS
            rows = [_point_row(p) for p in points]
            diagnostics["points"] = [
                {"alpha": p.alpha, "cover_size": p.cover_size,
                 "iterations": p.iterations, "t": p.t, "q": p.q,
                 "gibbs_evals": p.gibbs_evals, "moran_evals": p.moran_evals,
                 "lemma1_gap": p.lemma1_gap, "rho": p.rho, "delta": p.delta,
                 "flag": p.in_parabolic_interval, "error": p.error}
                for p in points]
            exit_code = 2 if any(p.error for p in points) else 0

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
    p_val.add_argument("suite", choices=_SUITES)
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
