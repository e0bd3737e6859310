"""The benchmark's workloads and tracer against the names they read.

``perfbench/workloads.py`` builds each workload from configs, public
constructors and recorded sampler checkpoints, and checks every call's
outputs; ``perfbench/tracing.py`` wraps public mfspec names (the two
estimator routes, ``DepthContext``, the CLI entry points) and reads result
fields such as ``LowerBoundResult.iterations`` and
``UpperBoundResult.cover_size``.  A change there breaks the benchmark
without failing any other test, so these import both by path and run one
checked call of each workload and the tracer over small versions of them.
"""

import importlib.util
import json
from pathlib import Path

import mfspec
from mfspec import (MarkovChainSpec, SolverOptions, block_marginal, cli,
                    coordinate, manneville_pomeau_system)
from mfspec import spectrum

PERFBENCH = Path(__file__).parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _load_tracing():
    return _load("tracing")


def test_every_workload_passes_its_own_check(tmp_path):
    # one call per workload at seed 1, checked as the benchmark checks it
    workloads = _load("workloads")
    for name in workloads.WORKLOADS:
        workload = workloads.CLASSES[name](workloads.make_inputs(name, 1),
                                           str(tmp_path))
        outcome = workload.check(workload.call())
        assert outcome.failed == 0, (name, outcome.problems)


def test_tracer_counts_both_routes(tmp_path):
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    routes = (spectrum.lower_bound, spectrum.upper_bound)
    originals = tracing.install(tracer)
    try:
        system = tracing.traced_system(manneville_pomeau_system(0.5), tracer)
        points = mfspec.full_spectrum(system, coordinate(), [0.0, 0.3],
                                      SolverOptions(n=6))
        config = cli.parse_config(json.dumps({
            "system": {"name": "linear", "ratios": [0.5, 0.5]},
            "potential": {"name": "first_symbol", "values": [1, 0]},
            "command": {"name": "spectrum", "alphas": [0.3, 0.5]},
            "solver": {"n": 8, "rho": 0.05},
            "output": {"path": str(tmp_path / "besicovitch.csv")},
        }))
        code = cli.run(config)
    finally:
        tracing.uninstall(originals)
    assert (spectrum.lower_bound, spectrum.upper_bound) == routes
    assert code == 0
    assert [p.error for p in points] == [None, None]
    counts = tracer.counts[tracer.call]
    for name in ("spectrum.lower_calls", "spectrum.upper_calls",
                 "spectrum.cover_words"):
        assert counts[name] > 0, name
    spans = {record[0] for record in tracer.spans}
    assert {"spectrum.context", "spectrum.lower", "spectrum.upper"} <= spans


def test_tracer_times_the_sampler_and_counts_branch_points():
    # sampler_stream's call shape at a small horizon, on a traced system
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    chain = MarkovChainSpec(transition=((0.9, 0.1), (0.2, 0.8)),
                            initial=(2.0 / 3.0, 1.0 / 3.0))
    ks = list(range(1, 30))
    originals = tracing.install(tracer)
    try:
        system = tracing.traced_system(manneville_pomeau_system(0.5), tracer)
        points = mfspec.alternating_sampler(
            system, coordinate(), block_marginal(chain, 2), 0, ks,
            [1.0 / (k * k) for k in ks], horizon=2000, seed=1, eval_depth=16)
    finally:
        tracing.uninstall(originals)
    assert points
    assert tracer.counts[tracer.call]["geometry.branch_points"] > 0
    spans = {record[0] for record in tracer.spans}
    assert {"spectrum.sampler", "geometry.branch"} <= spans
