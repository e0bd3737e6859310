"""Acceptance gate: one test per criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import json
import math
import time

from scipy.optimize import brentq

from mfspec.cli import parse_config, run
from mfspec.geometry import (CylinderTable, example2_system,
                             geometric_potential, lemma1_gap, linear_system,
                             manneville_pomeau_system)
from mfspec.oracle import (BesicovitchSpec, besicovitch_spectrum,
                           brute_force_ratio, markov_block_entropy_exact)
from mfspec.potentials import coordinate, first_symbol, induced_word_function
from mfspec.spectrum import (DepthContext, SolverOptions, alternating_sampler,
                             full_spectrum, lower_bound, moran_dimension,
                             upper_bound)
from mfspec.symbolic import (MarkovChainSpec, abramov_stats,
                             block_marginal, shannon_entropy)

HALVES = linear_system([0.5, 0.5])
COIN = first_symbol([1.0, 0.0])
COIN_SPEC = BesicovitchSpec(m=2, ratio=0.5, values=(1.0, 0.0))
CHAIN = MarkovChainSpec(transition=[[0.9, 0.1], [0.2, 0.8]],
                        initial=[2.0 / 3.0, 1.0 / 3.0])


def report(num, name, ok, detail=""):
    print(f"[ACCEPTANCE {num:02d}] {name}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


def test_criterion_01_besicovitch_agreement():
    quoted = {0.2: 0.7219, 0.3: 0.8813, 0.5: 1.0000}
    start = time.perf_counter()
    ctx = DepthContext(HALVES, COIN, SolverOptions(n=14, rho=0.05))
    checks = []
    for alpha, digits in quoted.items():
        closed = besicovitch_spectrum(COIN_SPEC, alpha)
        checks.append(abs(closed - digits) <= 5e-5)
        lower = lower_bound(ctx, alpha).dim
        upper = upper_bound(ctx, alpha).s_n
        checks.append(abs(lower - closed) <= 1e-8)
        checks.append(abs(upper - closed) <= 0.08)
    elapsed = time.perf_counter() - start
    checks.append(elapsed <= 30.0)
    report(1, "Besicovitch-Eggleston agreement at n=14", all(checks),
           f"({elapsed:.1f}s)")


def test_criterion_02_moran_exactness():
    start = time.perf_counter()
    mixed = linear_system([0.5, 1 / 3])
    roots = [moran_dimension(mixed, n) for n in (4, 8, 12)]
    reference = brentq(lambda s: 2.0**-s + 3.0**-s - 1.0, 0.0, 2.0,
                       xtol=1e-14, rtol=8.9e-16)
    ok = (max(roots) - min(roots) <= 1e-13
          and abs(roots[0] - reference) <= 1e-13
          and all(abs(moran_dimension(HALVES, n) - 1.0) <= 1e-13
                  for n in (4, 8, 12)))
    elapsed = time.perf_counter() - start
    report(2, "Moran exactness on linear systems", ok and elapsed <= 5.0,
           f"(s={roots[0]:.6f}, ref={reference:.6f}, {elapsed:.1f}s)")


def test_criterion_03_lemma1_gap_decrease():
    start = time.perf_counter()
    mp = manneville_pomeau_system(0.5)
    gaps = {n: lemma1_gap(mp, n) for n in (4, 8, 16)}
    ok = gaps[16] < gaps[8] < gaps[4]
    for ratios in ([0.5, 0.5], [0.5, 1 / 3], [0.3, 0.2, 0.4]):
        system = linear_system(ratios)
        ok = ok and all(lemma1_gap(system, n) <= 1e-12 for n in (4, 8, 12)
                        if system.m**n <= 2**20)
    elapsed = time.perf_counter() - start
    report(3, "contraction-gap decrease, sup over each cylinder from the "
           "end sums (exhaustive to n=16)",
           ok and elapsed <= 60.0,
           f"(gaps {gaps[4]:.4f} > {gaps[8]:.4f} > {gaps[16]:.4f}, "
           f"{elapsed:.1f}s)")


def test_criterion_04_abramov_identities():
    mixed = linear_system([0.5, 1 / 3])
    q = (0.35, 0.65)
    h_q = -sum(p * math.log(p) for p in q)
    lyap_q = q[0] * math.log(2.0) + q[1] * math.log(3.0)
    f_q = q[0] * 1.0 + q[1] * 0.0
    g = geometric_potential(mixed, depth=8)
    f = induced_word_function(mixed, COIN, depth=8)
    ok = True
    for n in (2, 4, 8):
        nu = block_marginal(MarkovChainSpec.iid(q), n)
        stats = abramov_stats(nu, [g, f])
        ok = ok and abs(stats.entropy_rate - h_q) <= 1e-12
        ok = ok and abs(stats.averages[0] - lyap_q) <= 1e-12
        ok = ok and abs(stats.averages[1] - f_q) <= 1e-12
    report(4, "per-shift accounting exact on product measures", ok)


def test_criterion_05_markov_block_convergence():
    exact = markov_block_entropy_exact(CHAIN, 2)
    h = exact.rate
    p = CHAIN.initial
    h_p = -sum(v * math.log(v) for v in p)
    ok = abs(h - 0.383523) <= 5e-7
    for n in range(1, 13):
        rate = shannon_entropy(block_marginal(CHAIN, n)) / n
        ok = ok and abs(rate - (h + (h_p - h) / n)) <= 1e-10
    report(5, "block-entropy rate identity to n=12", ok,
           f"(h={h:.6f})")


def test_criterion_06_brute_force_equivalence():
    import numpy as np
    ctx = DepthContext(HALVES, COIN, SolverOptions(n=2))
    table = CylinderTable(HALVES, 2)
    logd = np.log(table.diameters())
    phi = np.array([sum(1.0 for s in w if s == 0) for w in table.words()])
    ok = True
    for alpha in (0.3, 0.5, 0.75):
        res = lower_bound(ctx, alpha)
        ref = brute_force_ratio(HALVES, COIN, alpha, n=2, grid_step=0.01)
        ok = ok and res.dim >= ref - 0.01
        exponents = res.t * logd + res.q * phi
        logz = math.log(np.sum(np.exp(exponents - exponents.max()))) \
            + exponents.max()
        weights = res.measure.p[[np.ravel_multi_index(w, (2, 2))
                                 for w in table.words()]]
        residual = float(np.max(np.abs(np.log(weights) - (exponents - logz))))
        ok = ok and residual <= 1e-8
    report(6, "grid-search equivalence and Gibbs form at n=2", ok)


def test_criterion_07_parabolic_dispatch():
    opts = SolverOptions(n=8)
    ex2 = example2_system()
    attractor = moran_dimension(ex2, 8)
    points = full_spectrum(ex2, coordinate(), [0.1, 0.3, 0.5, 0.7, 0.9], opts)
    ok = all(p.in_parabolic_interval and p.lower == p.upper == attractor
             for p in points)
    mp = manneville_pomeau_system(0.5)
    points = full_spectrum(mp, coordinate(), [0.0, 0.25, 0.5, 0.75], opts)
    flags = {p.alpha: p.in_parabolic_interval for p in points}
    ok = ok and flags == {0.0: True, 0.25: False, 0.5: False, 0.75: False}
    report(7, "indifferent-interval dispatch flags", ok)


def test_criterion_08_parabolic_attractor_estimates():
    ex2 = example2_system()
    values = [moran_dimension(ex2, n) for n in (6, 10, 14)]
    ok = all(b >= a - 1e-9 for a, b in zip(values, values[1:]))
    ok = ok and values[-1] >= 0.75
    report(8, "parabolic attractor estimate nondecreasing", ok,
           f"(s_6={values[0]:.6f}, s_14={values[2]:.6f})")


def test_criterion_09_alternating_sampler():
    mp = manneville_pomeau_system(0.5)
    nu = block_marginal(CHAIN, 2)
    ks = list(range(1, 200))
    eps = [1.0 / (k * k) for k in ks]
    points = alternating_sampler(mp, coordinate(), nu, 0, ks, eps,
                                 horizon=10**5, seed=7)
    f0 = 0.0  # coordinate potential at the indifferent fixed point
    f_dev = [abs(p.f_average - f0) for p in points[-3:]]
    g_tail = [p.g_average for p in points[-3:]]
    ok = f_dev[2] < f_dev[1] < f_dev[0] and g_tail[2] < g_tail[1] < g_tail[0]
    report(9, "alternating blocks steer averages to the fixed point", ok,
           f"(|Af-f0| {f_dev[0]:.5f}>{f_dev[1]:.5f}>{f_dev[2]:.5f})")


def test_criterion_10_run_determinism(tmp_path):
    configs = [
        {"system": {"name": "linear", "ratios": [0.5, 0.5]},
         "potential": {"name": "first_symbol", "values": [1, 0]},
         "command": {"name": "spectrum", "alphas": [0.2, 0.3, 0.5]},
         "solver": {"n": 10, "rho": 0.05},
         "output": {"path": str(tmp_path / "a.csv")}},
        {"system": {"name": "manneville_pomeau", "beta": 0.5},
         "potential": {"name": "coordinate"},
         "command": {"name": "spectrum", "alphas": [0.0, 0.3, 0.6]},
         "solver": {"n": 8},
         "output": {"path": str(tmp_path / "b.csv"), "format": "json"}},
    ]
    ok = True
    for raw in configs:
        cfg = parse_config(json.dumps(raw))
        run(cfg)
        path = tmp_path / raw["output"]["path"].rsplit("/", 1)[-1]
        table = path.read_bytes()
        diag = (tmp_path / (path.name + ".diag.json")).read_bytes()
        run(cfg)
        ok = ok and path.read_bytes() == table
        ok = ok and (tmp_path / (path.name + ".diag.json")).read_bytes() == diag
    report(10, "repeated runs are byte-identical", ok)
