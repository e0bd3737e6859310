"""The three benchmark workloads: inputs from a seed, one call, output checks.

``make_inputs`` uses only the standard library and runs in ``run.py``'s
own process.  Everything else runs in a worker process with the checkout's
``src`` on its path.  A workload object holds its set-up state, performs one
closed-loop call and checks that call's outputs.  Calls look up mfspec's
public names at call time, so the traced run can wrap them, and use
``self.system``, which the traced run may replace by a copy with wrapped
branches.
"""

from __future__ import annotations

import json
import math
import os
import random

WORKLOADS = ("besicovitch_cli", "intermittent_spectrum", "sampler_stream")
LEVELS = 6  # seed-drawn alpha levels per sweep, next to the fixed anchor

# besicovitch_cli: linear [1/2, 1/2] with the coin potential at depth 18.
# alpha = 0.5 stays in every grid, so the known upper < lower row is timed.
BESICOVITCH_ANCHOR = 0.5
BESICOVITCH_RANGE = (0.15, 0.85)
BESICOVITCH_N = 18
BESICOVITCH_RHO = 0.05
# Criterion 01 accepts |lower - closed form| <= 0.02.  On this system the
# certified lower value is exact up to the solver tolerance, so the check
# is tighter than the criterion.
BESICOVITCH_LOWER_TOL = 1e-6

# intermittent_spectrum: Manneville-Pomeau beta = 1/2, coordinate potential,
# depth 16.  alpha = 0 is the flagged parabolic row.  The depth-16 lower
# route is feasible only above alpha = 0.0603, so drawn levels start at 0.1.
MP_BETA = 0.5
INTERMITTENT_ANCHOR = 0.0
INTERMITTENT_RANGE = (0.1, 0.65)
INTERMITTENT_N = 16
RANGE_TOL = 1e-9

# sampler_stream: criterion 09's construction.  Checkpoints are compared with
# values recorded before any optimisation (record_refs.py) for a pool of
# sampler seeds; the workload seed picks the pool entry.
SAMPLER_HORIZON = 10**5
SAMPLER_EVAL_DEPTH = 64
SAMPLER_K = tuple(range(1, 200))
SAMPLER_POOL = tuple(range(1, 17))
SAMPLER_REL_TOL = 1e-9
CHAIN_TRANSITION = ((0.9, 0.1), (0.2, 0.8))
CHAIN_INITIAL = (2.0 / 3.0, 1.0 / 3.0)
REFS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         "sampler_refs.json")


def make_inputs(name: str, seed: int) -> dict:
    """The generated inputs of one run; the program sees only these."""
    rng = random.Random(seed)
    if name == "besicovitch_cli":
        lo, hi = BESICOVITCH_RANGE
        return {"alphas": [BESICOVITCH_ANCHOR] +
                [rng.uniform(lo, hi) for _ in range(LEVELS)]}
    if name == "intermittent_spectrum":
        lo, hi = INTERMITTENT_RANGE
        return {"alphas": [INTERMITTENT_ANCHOR] +
                [rng.uniform(lo, hi) for _ in range(LEVELS)]}
    if name == "sampler_stream":
        return {"sampler_seed": rng.choice(SAMPLER_POOL)}
    raise ValueError(f"unknown workload {name!r}")


def construct(name: str) -> dict:
    """The workload's system and potential: the work set-up time counts."""
    if name == "besicovitch_cli":
        from mfspec import cli
        return {"system": cli.build_system(
                    cli.SystemConfig(name="linear", ratios=(0.5, 0.5))),
                "potential": cli.build_potential(
                    cli.PotentialConfig(name="first_symbol",
                                        values=(1.0, 0.0)))}
    from mfspec import coordinate, manneville_pomeau_system
    parts = {"system": manneville_pomeau_system(MP_BETA),
             "potential": coordinate()}
    if name == "sampler_stream":
        from mfspec import MarkovChainSpec, block_marginal
        chain = MarkovChainSpec(transition=CHAIN_TRANSITION,
                                initial=CHAIN_INITIAL)
        parts["measure"] = block_marginal(chain, 2)
    return parts


class Outcome:
    """Checked result of one call: operations, failures and exact counts."""

    def __init__(self, attempted: int):
        self.attempted = attempted
        self.failed = 0
        self.problems: list[str] = []
        self.counts: dict = {}

    def fail(self, problem: str) -> None:
        self.failed += 1
        self.problems.append(problem)

    def fail_all(self, problem: str) -> None:
        self.failed = self.attempted
        self.problems.append(problem)


class BesicovitchCli:
    """In-process ``cli.run(parse_config(...))``, writing real artifacts."""

    def __init__(self, inputs: dict, workdir: str):
        from mfspec.oracle import BesicovitchSpec, besicovitch_spectrum
        self.alphas = inputs["alphas"]
        self.operations = len(self.alphas)
        self.system = None  # built by cli.run on every call
        self.path = os.path.join(workdir, "besicovitch.csv")
        self.text = json.dumps({
            "system": {"name": "linear", "ratios": [0.5, 0.5]},
            "potential": {"name": "first_symbol", "values": [1, 0]},
            "command": {"name": "spectrum", "alphas": self.alphas},
            "solver": {"n": BESICOVITCH_N, "rho": BESICOVITCH_RHO},
            "output": {"path": self.path},
        })
        spec = BesicovitchSpec(m=2, ratio=0.5, values=(1.0, 0.0))
        self.closed = {a: besicovitch_spectrum(spec, a) for a in self.alphas}
        self.first_artifacts = None

    def call(self):
        from mfspec import cli
        return cli.run(cli.parse_config(self.text))

    def check(self, exit_code) -> Outcome:
        out = Outcome(self.operations)
        with open(self.path, "rb") as fh:
            table = fh.read()
        with open(self.path + ".diag.json", "rb") as fh:
            diag = fh.read()
        if self.first_artifacts is None:
            self.first_artifacts = (table, diag)
        elif (table, diag) != self.first_artifacts:
            out.fail_all("artifacts differ from the first call's")
            return out
        lines = table.decode().splitlines()
        header = lines[0].split(",")
        rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
        if exit_code not in (0, 2) or len(rows) != len(self.alphas):
            out.fail_all(f"exit code {exit_code}, {len(rows)} rows for "
                         f"{len(self.alphas)} alphas")
            return out
        violations = 0
        err_max = 0.0
        for alpha, row in zip(sorted(self.alphas), rows):
            if row["error"] or not row["lower"] or not row["upper"]:
                out.fail(f"alpha={alpha}: row error {row['error']!r}")
                continue
            lower, upper = float(row["lower"]), float(row["upper"])
            err = abs(lower - self.closed[alpha])
            err_max = max(err_max, err)
            if not err <= BESICOVITCH_LOWER_TOL:
                out.fail(f"alpha={alpha}: |lower - closed form| = {err:.3g}")
            violations += upper < lower
        out.counts = {"order_violations": violations,
                      "lower_err_max": err_max,
                      "cli.artifact_bytes": len(table) + len(diag)}
        return out


class IntermittentSpectrum:
    """``full_spectrum`` on Manneville-Pomeau with the coordinate potential."""

    def __init__(self, inputs: dict, workdir: str):
        from mfspec import SolverOptions, moran_dimension
        self.alphas = inputs["alphas"]
        self.operations = len(self.alphas)
        parts = construct("intermittent_spectrum")
        self.system = parts["system"]
        self.potential = parts["potential"]
        self.opts = SolverOptions(n=INTERMITTENT_N)
        self.attractor = moran_dimension(self.system, INTERMITTENT_N)

    def call(self):
        import mfspec
        return mfspec.full_spectrum(self.system, self.potential, self.alphas,
                                    self.opts)

    def check(self, points) -> Outcome:
        out = Outcome(self.operations)
        if len(points) != len(self.alphas):
            out.fail_all(f"{len(points)} points for {len(self.alphas)} alphas")
            return out
        violations = 0
        for p in points:
            flagged = p.alpha == INTERMITTENT_ANCHOR
            if p.error or p.lower is None or p.upper is None:
                out.fail(f"alpha={p.alpha}: error {p.error!r}")
            elif p.in_parabolic_interval != flagged:
                out.fail(f"alpha={p.alpha}: flag {p.in_parabolic_interval}")
            elif flagged and not (p.lower == p.upper and abs(
                    p.lower - self.attractor) <= RANGE_TOL):
                out.fail(f"alpha={p.alpha}: flagged row {p.lower}, {p.upper} "
                         f"is not the attractor estimate {self.attractor}")
            elif not all(-RANGE_TOL <= v <= 1.0 + RANGE_TOL
                         for v in (p.lower, p.upper)):
                out.fail(f"alpha={p.alpha}: value outside [0, 1]")
            else:
                violations += p.upper < p.lower
        out.counts = {"order_violations": violations}
        return out


def load_refs() -> dict:
    """Recorded sampler checkpoints by pool seed ({} before recording)."""
    if not os.path.exists(REFS_PATH):
        return {}
    with open(REFS_PATH) as fh:
        return json.load(fh)["checkpoints"]


class SamplerStream:
    """``alternating_sampler`` on Manneville-Pomeau, criterion 09's setup."""

    def __init__(self, inputs: dict, workdir: str):
        self.seed = inputs["sampler_seed"]
        self.operations = 1
        parts = construct("sampler_stream")
        self.system = parts["system"]
        self.potential = parts["potential"]
        self.measure = parts["measure"]
        self.eps = [1.0 / (k * k) for k in SAMPLER_K]
        self.refs = load_refs().get(str(self.seed))

    def call(self):
        import mfspec
        return mfspec.alternating_sampler(
            self.system, self.potential, self.measure, 0, SAMPLER_K, self.eps,
            horizon=SAMPLER_HORIZON, seed=self.seed,
            eval_depth=SAMPLER_EVAL_DEPTH)

    def check(self, points) -> Outcome:
        out = Outcome(self.operations)
        got = [[p.stage, p.n, p.f_average, p.g_average] for p in points]
        f_dev = [abs(p.f_average) for p in points[-3:]]
        g_tail = [p.g_average for p in points[-3:]]
        if not (len(points) >= 3 and f_dev[2] < f_dev[1] < f_dev[0]
                and g_tail[2] < g_tail[1] < g_tail[0]):
            out.fail("averages do not decrease over the last 3 checkpoints")
        elif self.refs is None:
            out.fail(f"no recorded checkpoints for sampler seed {self.seed}")
        elif len(got) != len(self.refs) or any(
                g[:2] != r[:2] or not all(
                    math.isclose(x, y, rel_tol=SAMPLER_REL_TOL, abs_tol=0.0)
                    for x, y in zip(g[2:], r[2:]))
                for g, r in zip(got, self.refs)):
            out.fail("checkpoints differ from the recorded values")
        return out


CLASSES = {"besicovitch_cli": BesicovitchCli,
           "intermittent_spectrum": IntermittentSpectrum,
           "sampler_stream": SamplerStream}
