"""Estimator checks: Moran roots, both bound routes, dispatch, sampler."""

import collections
import functools
import itertools
import logging
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
import pytest
from hypothesis import (assume, example, given, reject, settings,
                        strategies as st)
from scipy.optimize import brentq

from mfspec.errors import (AlphaUnreachableError, DegenerateCylinderError,
                           EnumerationLimitError, InfeasibleAlphaError,
                           InvalidScheduleError, MfspecError,
                           NoCylindersError, NotContractingError, SolverError)
from mfspec.geometry import (_CHUNK, Branch, CylinderTable, IfsSystem,
                             _g, _mobius, end_sums, example2_system, fold,
                             g_eval,
                             geometric_potential, lambda_n, lemma1_gap,
                             linear_system, manneville_pomeau_system,
                             neg_log_derivative, project, top_level)
from mfspec.oracle import (besicovitch_spectrum, BesicovitchSpec,
                           brute_force_ratio, similarity_dimension)
from mfspec.potentials import (coordinate, first_symbol, indicator_branch,
                               induced_word_function, polynomial,
                               potential_arrays)
from mfspec import spectrum
from mfspec.spectrum import (ALPHA_TOL, BOUNDARY_TOL, MAX_ITER,
                             DepthContext, Rows, SolverOptions,
                             _window_midpoints,
                             alternating_sampler,
                             full_spectrum, lower_bound, moran_dimension,
                             parabolic_interval, upper_bound)
from mfspec.symbolic import (BlockMeasure, MarkovChainSpec, PcgStream,
                             block_marginal, slot_words)

HALVES = linear_system([0.5, 0.5])
MIXED = linear_system([0.5, 1 / 3])
EX2 = example2_system()
MP = manneville_pomeau_system(0.5)
MP2 = manneville_pomeau_system(2.0)
# E_2: the four Moebius branches x -> (x + b) / (a*x + a*b + 1), a, b in
# {1, 2}, two continued-fraction digits per symbol; uniformly contracting
E2 = IfsSystem(branches=tuple(_mobius(1, b, a, a * b + 1)
                              for a in (1, 2) for b in (1, 2)))
# one branch with a slope, one without: a constant g term beside midpoints
SLOPE_AND_MOBIUS = IfsSystem(branches=(
    Branch(map=lambda x: 0.4 * np.asarray(x, dtype=float),
           derivative=lambda x: np.full_like(np.asarray(x, dtype=float), 0.4),
           slope=0.4),
    _mobius(1, 1, 1, 2)))
COIN = first_symbol([1.0, 0.0])
COIN_SPEC = BesicovitchSpec(m=2, ratio=0.5, values=(1.0, 0.0))

MIXED_ROOT = brentq(lambda s: 2.0**-s + 3.0**-s - 1.0, 0.0, 2.0,
                    xtol=1e-14, rtol=8.9e-16)


def _counts(rows):
    """The rows' counts as an array, a scalar count broadcast."""
    return np.broadcast_to(rows.count, rows.ell.shape)


class _Draws:
    """Stands in for ``st.data()`` in an ``@example``: ``draw`` returns the
    given values in order, whatever the strategy."""

    def __init__(self, *values):
        self.values = list(values)

    def draw(self, strategy):
        return self.values.pop(0)


def _word_phi(ctx):
    """Birkhoff sums of every depth-n word, in slot order."""
    table = CylinderTable(ctx.system, ctx.n)
    return table.birkhoff(potential_arrays(table, ctx.potential))


def _affine(system):
    return all(b.slope is not None for b in system.branches)


def _rounding_bounds(ctx, ell):
    """Largest differences, per word, between the (ell, phi) of two words
    with one composition, each folded in its own order.  Higham (Accuracy
    and Stability of Numerical Algorithms, ch. 3): a product of n floats
    formed by n - 1 roundings is the exact one times 1 + theta, |theta| <=
    gamma = (n-1)u / (1 - (n-1)u), u = 2^-53, and a recursive sum of n
    terms errs by at most gamma * sum |v|.  Two such products differ in
    log by at most 2*gamma / (1 - gamma), and numpy's log adds at most 2
    ulp of each ell; two sums by at most 2*gamma * n * max |v|."""
    n, u = ctx.n, 2.0**-53
    gamma = (n - 1) * u / (1.0 - (n - 1) * u)
    values = np.abs(ctx.potential.symbol_values(ctx.system.m))
    return (2.0 * gamma / (1.0 - gamma) + 4.0 * u * np.abs(ell),
            2.0 * gamma * n * float(np.max(values)))


def _word_values(ctx):
    """(ell, phi) of every depth-n word, in slot order, as the word's row
    holds them (``_node_rows`` over the stored table): the word's own on a
    per-word context, its composition's lowest word's on a composition
    context.  There every word's own values are checked to lie within
    ``_rounding_bounds`` of its row's."""
    table = CylinderTable(ctx.system, ctx.n)
    own_ell, own_phi = -table.log_diameters, _word_phi(ctx)
    rows, word_row = _node_rows(ctx.system, ctx.potential, table.diameters(),
                                own_phi)
    ell, phi = rows.ell[word_row], rows.phi[word_row]
    if np.ndim(rows.count):
        ell_bound, phi_bound = _rounding_bounds(ctx, own_ell)
        assert np.all(np.abs(own_ell - ell) <= ell_bound)
        assert np.all(np.abs(own_phi - phi) <= phi_bound)
    return ell, phi


# ---------------------------------------------------------------------------
# Moran roots
# ---------------------------------------------------------------------------

def test_moran_partition_sum_is_decreasing_in_s():
    d = CylinderTable(MIXED, 6).diameters()
    totals = [np.sum(d**s) for s in np.linspace(0.0, 1.5, 12)]
    assert all(b < a for a, b in zip(totals, totals[1:]))


def test_moran_tiling_gives_one():
    for n in (3, 6, 9):
        assert moran_dimension(HALVES, n) == pytest.approx(1.0, abs=1e-13)


def test_moran_depth_invariance_and_reference():
    values = [moran_dimension(MIXED, n) for n in (4, 8, 12)]
    for a, b in zip(values, values[1:]):
        assert abs(a - b) <= 1e-9
    assert values[0] == pytest.approx(MIXED_ROOT, abs=1e-6)


def _moran_of_words(system, n, words):
    """Moran root over the depth-n cylinders of the given words."""
    slots = np.array([np.ravel_multi_index(w, (system.m,) * n) for w in words],
                     dtype=int)
    ell = -CylinderTable(system, n).log_diameters[slots]
    return Rows(ell, None, np.ones(ell.size)).moran_root()[0]


def test_moran_constant_word_filter():
    for n in (3, 5):
        s = _moran_of_words(HALVES, n, [(0,) * n, (1,) * n])
        assert s == pytest.approx(1.0 / n, abs=1e-9)


def test_moran_single_cylinder_is_zero():
    s = _moran_of_words(HALVES, 4, [(0, 0, 0, 0)])
    assert s == 0.0


def test_moran_empty_filter():
    with pytest.raises(NoCylindersError):
        _moran_of_words(HALVES, 3, [])


def test_moran_root_rejects_uncontracted():
    with pytest.raises(NotContractingError):
        Rows(-np.log([0.5, 1.0]), None, np.ones(2)).moran_root()


def _mp_moran_root(ell, count):
    """The Moran root at 50 digits: Newton on sum c * exp(-s * ell) - 1 from
    log C / max ell, which climbs monotonically onto the root (the sum is
    convex and decreasing in s)."""
    from mpmath import mp
    with mp.workdps(50):
        terms = [(mp.mpf(int(c)), mp.mpf(e)) for c, e in zip(count, ell)]
        s = mp.log(mp.fsum(c for c, _ in terms)) / max(e for _, e in terms)
        for _ in range(200):
            weights = [c * mp.exp(-s * e) for c, e in terms]
            step = (mp.fsum(weights) - 1) / mp.fsum(
                w * e for w, (_, e) in zip(weights, terms))
            s += step
            if abs(step) < mp.mpf(10) ** -40:
                return float(s)
    raise AssertionError("reference Newton did not converge")


# minus log-widths from 0.05 (a cylinder 95% as wide as the interval) to 30,
# with counts of one word or of many
_MORAN_ROWS = st.integers(1, 50).flatmap(lambda k: st.tuples(
    st.lists(st.floats(0.05, 30.0), min_size=k, max_size=k),
    st.lists(st.integers(1, 10_000) | st.just(1), min_size=k, max_size=k)))


@settings(max_examples=40, deadline=None)
@given(_MORAN_ROWS)
def test_moran_root_matches_mpmath(rows):
    ell, count = (np.array(v, dtype=float) for v in rows)
    s, evals = Rows(ell, None, count).moran_root()
    ref = _mp_moran_root(ell, count)
    assert abs(s - ref) <= 1e-14 * ref
    assert evals <= 10


# ---------------------------------------------------------------------------
# cover upper route
# ---------------------------------------------------------------------------

def test_upper_vacuous_window_gives_tiling_dimension():
    ctx = DepthContext(HALVES, indicator_branch(0),
                       SolverOptions(n=6, rho=0.6))
    res = upper_bound(ctx, 0.5)
    assert res.cover_size == 64
    assert res.s_n == pytest.approx(1.0, abs=1e-9)


def test_upper_single_word_window():
    n = 8
    ctx = DepthContext(HALVES, COIN, SolverOptions(n=n, rho=1.0 / (2 * n)))
    res = upper_bound(ctx, 1.0)
    assert res.cover_size == 1
    assert res.s_n == 0.0


def test_upper_single_row_cover_counts_its_words():
    # the window keeps only the words with 4 zeros out of 8: C(8, 4) = 70
    # cylinders of width 2^-8 in a single (width, phi) row, whose Moran root
    # is log 70 / (8 log 2), not the 0 of a single cylinder
    n = 8
    ctx = DepthContext(HALVES, COIN, SolverOptions(n=n, rho=1.0 / (4 * n)))
    res = upper_bound(ctx, 0.5)
    kept = np.abs(ctx.rows.phi / n - 0.5) < 2 * ctx.rho + ctx.slack
    assert kept.sum() == 1
    assert res.cover_size == ctx.rows.count[kept][0] == 70
    expected = math.log(70) / (n * math.log(2))
    assert res.s_n == pytest.approx(expected, abs=1e-13)
    assert ctx.rows.where(kept).moran_root()[0] \
        == pytest.approx(expected, abs=1e-13)


def test_upper_binomial_window_value():
    # cover keeps |k/n - alpha| < 2 rho (+ zero slack for first-symbol),
    # so the root satisfies 2^(n s) = sum of kept binomials
    n, alpha, rho = 14, 0.3, 0.05
    res = upper_bound(DepthContext(HALVES, COIN, SolverOptions(n=n, rho=rho)),
                      alpha)
    kept = [k for k in range(n + 1) if abs(k / n - alpha) < 2 * rho]
    expected = math.log(sum(math.comb(n, k) for k in kept)) / (n * math.log(2))
    assert res.cover_size == sum(math.comb(n, k) for k in kept)
    assert res.s_n == pytest.approx(expected, abs=1e-13)


def test_upper_unreachable_alpha():
    with pytest.raises(AlphaUnreachableError) as err:
        upper_bound(DepthContext(HALVES, COIN, SolverOptions(n=4, rho=0.001)),
                    0.3)
    assert err.value.achievable == (0.0, 1.0)
    assert err.value.nearest == 0.25
    # under a Lyapunov floor the nearest average and the range are those of
    # the words the floor keeps: the all-0 word (lambda_8 ~ 0.35) is dropped
    ctx = DepthContext(MP, coordinate(), SolverOptions(n=8, delta=0.5))
    phi = _word_phi(ctx)
    avg = phi[CylinderTable(ctx.system, ctx.n).lambda_array >= 0.5] / 8
    with pytest.raises(AlphaUnreachableError) as err:
        upper_bound(ctx, -1.0)
    assert err.value.nearest == np.min(avg) > np.min(phi / 8)
    assert err.value.achievable == (np.min(avg), np.max(avg))


def test_upper_tiling_cover_is_exactly_one():
    # the window keeps all 3^5 words, whose widths (powers of 2) tile [0, 1]:
    # the root is 1, and every printed digit of it must be right
    ctx = DepthContext(linear_system([0.5, 0.25, 0.25]),
                       first_symbol([1.0, 0.0, 0.0]),
                       SolverOptions(n=5, rho=0.6))
    res = upper_bound(ctx, 0.5)
    assert res.cover_size == 3**5
    assert abs(res.s_n - 1.0) <= 4 * math.ulp(1.0)


def test_upper_parabolic_default_floor_matches_sweep():
    # a direct call and the sweep read the same floor from the context
    opts = SolverOptions(n=8)
    ctx = DepthContext(MP, coordinate(), opts)
    res = upper_bound(ctx, 0.3)
    point, = full_spectrum(MP, coordinate(), [0.3], opts)
    assert ctx.delta == point.delta == 1e-3 * math.log(2)
    assert res.s_n == point.upper


def test_upper_rho_must_exceed_slack():
    ctx = DepthContext(MP, coordinate(), SolverOptions(n=4, rho=1e-6))
    with pytest.raises(ValueError):
        upper_bound(ctx, 0.5)


# ---------------------------------------------------------------------------
# variational lower route
# ---------------------------------------------------------------------------

def test_lower_symmetric_alpha():
    res = lower_bound(DepthContext(HALVES, COIN, SolverOptions(n=6)), 0.5)
    assert res.dim == pytest.approx(1.0, abs=1e-6)
    assert res.alpha_achieved == pytest.approx(0.5, abs=1e-9)
    assert res.lyapunov == pytest.approx(math.log(2), abs=1e-9)


def test_lower_boundary_dirac():
    res = lower_bound(DepthContext(HALVES, COIN, SolverOptions(n=6)), 1.0)
    assert res.boundary
    assert res.dim == 0.0
    assert res.entropy_rate == 0.0
    support = res.measure.support()
    assert support == [(0,) * 6]


def test_lower_boundary_is_the_tie_words_moran_root():
    # only the words over symbols 0 and 1 reach alpha = 1 (alpha = 0 for
    # [0, 0, 1]); their widths 1/2 and 1/20 make the sup of H/L over them
    # the Moran root of (2, 20), which the uniform measure on them (0.375804)
    # falls short of
    system = linear_system([0.5, 0.05, 0.4])
    root = similarity_dimension((2, 20))
    for values, alpha in (([1, 1, 0], 1.0), ([0, 0, 1], 0.0)):
        ctx = DepthContext(system, first_symbol(values), SolverOptions(n=8))
        res = lower_bound(ctx, alpha)
        assert res.boundary and res.q is None
        assert res.dim == pytest.approx(root, abs=1e-12)
        assert res.dim <= upper_bound(ctx, alpha).s_n


def test_lower_matches_closed_form():
    ctx = DepthContext(HALVES, COIN, SolverOptions(n=14))
    for alpha in (0.2, 0.3, 0.5, 0.7):
        res = lower_bound(ctx, alpha)
        assert res.dim == pytest.approx(besicovitch_spectrum(COIN_SPEC, alpha),
                                        abs=2e-8)


def test_lower_feasibility_and_gibbs_form():
    res = lower_bound(DepthContext(HALVES, COIN, SolverOptions(n=8)), 0.35)
    nu = res.measure
    n = nu.n
    # constraint satisfied by the returned measure
    mean = sum(p * sum(1.0 for s in w if s == 0)
               for w, p in zip(slot_words(2, n, np.arange(nu.p.size)),
                               nu.p.tolist()))
    assert mean == pytest.approx(n * 0.35, abs=1e-6)
    # log nu(w) = t log D(w) + q phi(w) - log Z on the support
    table = CylinderTable(HALVES, n)
    logd = np.log(table.diameters())
    phi = np.array([sum(1.0 for s in w if s == 0) for w in table.words()])
    exponents = res.t * logd + res.q * phi
    logz = np.log(np.sum(np.exp(exponents - exponents.max()))) \
        + exponents.max()
    weights = nu.p[[np.ravel_multi_index(w, (2,) * n)
                    for w in table.words()]]
    residual = np.max(np.abs(np.log(weights) - (exponents - logz)))
    assert residual <= 1e-8


def test_lower_certifies_its_own_ratio():
    res = lower_bound(DepthContext(MP, coordinate(), SolverOptions(n=8)), 0.45)
    nu = res.measure
    table = CylinderTable(MP, 8)
    ell = -np.log(table.diameters())
    weights = nu.p[[np.ravel_multi_index(w, (2,) * 8)
                    for w in table.words()]]
    entropy = -np.sum(weights[weights > 0] * np.log(weights[weights > 0]))
    assert entropy / np.dot(weights, ell) == pytest.approx(res.dim, abs=1e-9)


def test_lower_infeasible_alpha():
    with pytest.raises(InfeasibleAlphaError) as err:
        lower_bound(DepthContext(HALVES, COIN, SolverOptions(n=4)), 1.5)
    assert err.value.achievable == (0.0, 1.0)


@pytest.mark.parametrize("alpha", [math.nan, math.inf, -math.inf])
def test_non_finite_alpha_is_infeasible_on_both_routes(alpha, monkeypatch):
    # no level set has a non-finite mean: both routes say so before any
    # Gibbs evaluation (a NaN target used to run the (t, q) steps out)
    ctx = DepthContext(HALVES, COIN, SolverOptions(n=4))
    evals = []
    monkeypatch.setattr(Rows, "gibbs", lambda *args: evals.append(args))
    for route in (lower_bound, upper_bound):
        with pytest.raises(InfeasibleAlphaError) as err:
            route(ctx, alpha)
        assert err.value.achievable == (0.0, 1.0)
    assert not evals


@pytest.mark.parametrize("key, value", [
    ("rho", math.nan), ("rho", math.inf), ("delta", math.nan),
    ("delta", math.inf)])
def test_options_reject_non_finite_values(key, value):
    with pytest.raises(ValueError, match=key):
        SolverOptions(n=4, **{key: value})


def test_lower_logs_steps_rows_and_clamped_multiplier(caplog, monkeypatch):
    # one large potential value caps |q| at 700/4000, too weak to pull the
    # mean potential sum down to 4e-6: the multiplier clamps, the iteration
    # stops there and the residual check rejects the point.  Each step
    # record is one Gibbs evaluation: 17 here, as many as the Dinkelbach
    # iteration took, where the nested solver with lazy cap probes spent 34
    system = linear_system([1 / 3] * 3)
    potential = first_symbol([1000.0, 1e-3, 0.0])
    caplog.set_level(logging.DEBUG, logger="mfspec")
    ctx = DepthContext(system, potential, SolverOptions(n=4))
    evals = []
    gibbs = Rows.gibbs
    monkeypatch.setattr(Rows, "gibbs",
                        lambda *a: evals.append(1) or gibbs(*a))
    with pytest.raises(SolverError):
        lower_bound(ctx, 1e-6)
    assert len(evals) <= 17
    messages = [r.getMessage() for r in caplog.records]
    assert any(m.startswith("depth 4: 81 words in ") for m in messages)
    assert any(m.startswith("Newton step 1: t=0 ") for m in messages)
    assert any(m.startswith("multiplier clamped at q=-0.17") for m in messages)
    assert sum(m.startswith("Newton step ") for m in messages) <= 17


@st.composite
def _linear_level(draw):
    m = draw(st.integers(2, 3))
    raw = draw(st.lists(st.floats(0.05, 1.0), min_size=m, max_size=m))
    total = draw(st.floats(0.3, 1.0))
    values = draw(st.lists(st.floats(-1.0, 1.0), min_size=m, max_size=m))
    assume(max(values) - min(values) >= 0.5)
    u = draw(st.floats(0.1, 0.9))
    alpha = min(values) + u * (max(values) - min(values))
    system = linear_system([total * r / sum(raw) for r in raw])
    return system, first_symbol(values), alpha


@settings(max_examples=40, deadline=None)
@given(_linear_level())
def test_lower_linear_value_is_depth_free_and_fast(case):
    # with affine branches and a word-local potential the best block measure
    # is a product measure, so the depth-n value does not depend on n; the
    # (t, q) iteration reaches it in a handful of steps: at most 9 Gibbs
    # evaluations over 1500 examples, where Dinkelbach over a bisecting
    # multiplier solve took up to 34
    system, potential, alpha = case
    base = lower_bound(DepthContext(system, potential, SolverOptions(n=2)),
                       alpha)
    for n in range(2, 8):
        res = lower_bound(DepthContext(system, potential, SolverOptions(n=n)),
                          alpha)
        assert res.dim == pytest.approx(base.dim, abs=1e-9)
        assert res.gibbs_evals <= 17


def test_lower_delta_floor_masks_the_measure():
    # the smallest MP rate at n=8 is ~0.35, so a floor of 0.5 drops a few
    # near-neutral words (0.05 would drop none)
    opts = SolverOptions(n=8, delta=0.5)
    ctx = DepthContext(MP, coordinate(), opts)
    res = lower_bound(ctx, 0.4)
    table = CylinderTable(ctx.system, ctx.n)
    keep = table.lambda_array >= opts.delta
    assert not keep.all()
    p = res.measure.p
    assert np.all(p[~keep] == 0.0)
    assert p @ _word_phi(ctx) == pytest.approx(8 * res.alpha_achieved,
                                               rel=1e-12)
    entropy = -np.sum(p[keep] * np.log(p[keep]))
    assert entropy / (p @ -table.log_diameters) == pytest.approx(
        res.dim, abs=1e-9)


def test_lower_reports_contraction_gap():
    # the context holds the gap, and the sweep's row reports it
    ctx = DepthContext(MP, coordinate(), SolverOptions(n=6))
    assert ctx.lemma1_gap == pytest.approx(lemma1_gap(MP, 6), abs=1e-14)
    point, = full_spectrum(MP, coordinate(), [0.4], SolverOptions(n=6))
    assert point.lower is not None
    assert point.lemma1_gap == ctx.lemma1_gap


@pytest.mark.fixed_seed
def test_lower_beats_brute_force():
    from mfspec.oracle import brute_force_ratio
    ctx = DepthContext(HALVES, COIN, SolverOptions(n=2))
    for alpha in (0.3, 0.5, 0.75):
        res = lower_bound(ctx, alpha)
        ref = brute_force_ratio(HALVES, COIN, alpha, n=2, grid_step=0.01)
        assert res.dim >= ref - 0.01


# ---------------------------------------------------------------------------
# one Lyapunov floor for both routes
# ---------------------------------------------------------------------------

def _flat_system(b=5e-4):
    """A parabolic system whose left branch y - b*y^2 is nearly the
    identity and whose right branch contracts by b: the rate of 0^n is
    about b, under the default floor 1e-3 * log 2.  The left width is
    w * (1 - b*(2*lo + w)), which an endpoint difference loses (11122222
    degenerates at n=8)."""
    left = Branch(map=lambda y: y - b * y * y,
                  derivative=lambda y: 1.0 - 2.0 * b * y, parabolic=True,
                  fixed_point=0.0,
                  map_width=lambda lo, w: w * (1.0 - b * (2.0 * lo + w)))
    right = Branch(map=lambda y: (1.0 - b) + b * y,
                   derivative=lambda y: b + 0.0 * y,
                   map_width=lambda lo, w: b * w)
    return IfsSystem(branches=(left, right), name="flat")


def test_flat_parabolic_lower_respects_the_floor_upper_applies():
    # with the floor read by the cover route alone, lower put 71% of its
    # weight on 0^8 at alpha=0.6 and printed 0.5405 over upper's 0.3159
    ctx = DepthContext(_flat_system(), coordinate(), SolverOptions(n=8))
    below = ctx.rows.ell[ctx.word_row] / ctx.n < ctx.delta
    assert below.any()
    for alpha in (0.6, 0.9):
        res = lower_bound(ctx, alpha)
        assert res.dim <= upper_bound(ctx, alpha).s_n
        assert np.all(res.measure.p[below] == 0.0)


def test_one_floor_mask_is_read_by_both_routes():
    # the smallest MP rate at n=8 is ~0.35: the default floor and 0.05 keep
    # every row, and no mask is formed
    for delta in (None, 0.05):
        ctx = DepthContext(MP, coordinate(), SolverOptions(n=8, delta=delta))
        assert ctx.floor is None
    # 0.5 drops a few rows; the context forms the mask once, and the lower
    # measure and the vacuous-window cover both keep exactly its words
    ctx = DepthContext(MP, coordinate(),
                       SolverOptions(n=8, rho=1.0, delta=0.5))
    floor = ctx.floor
    assert ctx.floor is floor
    assert not floor.all()
    kept = floor[ctx.word_row]
    assert np.array_equal(lower_bound(ctx, 0.4).measure.p > 0.0, kept)
    assert upper_bound(ctx, 0.4).cover_size == kept.sum()
    phi = ctx.rows.phi[floor]
    assert ctx.phi_range == (np.min(phi), np.max(phi))


# ---------------------------------------------------------------------------
# (width, phi) rows against a per-word reference
# ---------------------------------------------------------------------------

def _ref_gibbs_stats(ell, phi, t, q):
    a = -t * ell + q * phi
    shift = float(a.max())
    w = np.exp(a - shift)
    z = float(w.sum())
    p = w / z
    e_phi = float(p @ phi)
    e_ell = float(p @ ell)
    entropy = shift + math.log(z) + t * e_ell - q * e_phi
    return p, entropy, e_ell, e_phi, float(p @ (phi - e_phi) ** 2)


def _ref_solve_q(ell, phi, t, target, tol, max_iter=80):
    cap = 700.0 / max(float(np.max(np.abs(phi))), 1e-12)
    lo, hi = -cap, cap
    stats = _ref_gibbs_stats(ell, phi, t, lo)
    if target <= stats[3]:
        return lo, stats
    stats = _ref_gibbs_stats(ell, phi, t, hi)
    if target >= stats[3]:
        return hi, stats
    q = 0.0
    for _ in range(max_iter):
        stats = _ref_gibbs_stats(ell, phi, t, q)
        residual = stats[3] - target
        if abs(residual) <= tol:
            # one Newton step past the tolerance: a residual r left here
            # moves the ratio H/L by about q*r/E[ell], 1.5e-12 at tol
            if stats[4] > 1e-300:
                q -= residual / stats[4]
                stats = _ref_gibbs_stats(ell, phi, t, q)
            return q, stats
        if residual > 0:
            hi = q
        else:
            lo = q
        step = q - residual / stats[4] if stats[4] > 1e-300 else None
        if step is None or not lo < step < hi:
            step = 0.5 * (lo + hi)
        q = step
    return q, _ref_gibbs_stats(ell, phi, t, q)


def _ref_dinkelbach(ell, phi, n, target, boundary):
    """Dinkelbach's iteration over unit-count rows, run to a tight stop: q
    solved to 1e-13 * n, t stepped until a step gains at most 1e-15, q held
    at 0 at a boundary.  Returns (p, entropy, e_ell, e_phi)."""
    t = 0.0
    for _ in range(MAX_ITER):
        if boundary:
            p, entropy, e_ell, e_phi, _ = _ref_gibbs_stats(ell, phi, t, 0.0)
        else:
            _, (p, entropy, e_ell, e_phi, _) = _ref_solve_q(
                ell, phi, t, target, 1e-13 * n)
        if entropy / e_ell - t <= 1e-15:
            return p, entropy, e_ell, e_phi
        t = entropy / e_ell
    raise AssertionError("reference Dinkelbach iteration did not settle")


def _ref_lower(ctx, alpha):
    """lower_bound over every word, each with its row's values
    (``_word_values``): (dim, boundary, p).

    At a boundary alpha the Dinkelbach steps run on the extreme words alone,
    with the Gibbs weights at (t, 0).
    """
    n = ctx.n
    ell, phi = _word_values(ctx)
    keep = ell / n >= ctx.delta
    if not keep.any():
        raise NoCylindersError("floor excludes every word")
    lo_avg = float(np.min(phi[keep])) / n
    hi_avg = float(np.max(phi[keep])) / n
    tol = BOUNDARY_TOL
    if alpha < lo_avg - tol or alpha > hi_avg + tol:
        raise InfeasibleAlphaError(alpha, (lo_avg, hi_avg))
    at_hi = alpha >= hi_avg - BOUNDARY_TOL
    boundary = at_hi or alpha <= lo_avg + BOUNDARY_TOL
    if boundary:
        edge = np.max(phi[keep]) if at_hi else np.min(phi[keep])
        keep &= np.abs(phi - edge) <= 1e-9
    p, entropy, e_ell, e_phi = _ref_dinkelbach(ell[keep], phi[keep], n,
                                               n * alpha, boundary)
    if abs(e_phi - n * alpha) > 10.0 * n * ALPHA_TOL * max(1.0, abs(alpha)):
        raise SolverError("residual after capping")
    full = np.zeros(keep.size)
    full[keep] = p
    return entropy / e_ell, boundary, full


# six levels the intermittent benchmark sweep draws (MP beta=1/2, n=16)
_MP_SWEEP = (0.27810802065823936, 0.18296704565847607, 0.45801396017191964,
             0.13983995766714852, 0.39473510236867904, 0.3011289043019221)


def test_lower_sweep_gibbs_evaluations_are_pinned():
    # cold, each level from (0, 0), the (t, q) solver takes 42 Gibbs
    # evaluations over these six levels (51 before its steps were Newton's,
    # Dinkelbach over a bisecting multiplier solve 116); the sweep, each
    # level started from the secant through the levels solved before it,
    # takes 35; every value sits on the tight reference
    ctx = DepthContext(MP, coordinate(), SolverOptions(n=16))
    rows = ctx.rows
    assert np.all(rows.count == 1.0)
    results = [lower_bound(ctx, alpha) for alpha in _MP_SWEEP]
    assert sum(res.gibbs_evals for res in results) <= 42
    points = full_spectrum(MP, coordinate(), _MP_SWEEP, SolverOptions(n=16))
    assert sum(p.gibbs_evals for p in points) <= 35
    lowers = {p.alpha: p.lower for p in points}
    for alpha, res in zip(_MP_SWEEP, results):
        _, entropy, e_ell, _ = _ref_dinkelbach(rows.ell, rows.phi, ctx.n,
                                               ctx.n * alpha, False)
        assert abs(res.dim - entropy / e_ell) <= 1e-12
        assert abs(lowers[alpha] - entropy / e_ell) <= 1e-12


def test_lower_settles_where_plain_newton_does_not():
    # plain Newton steps, shortened and capped, do not settle here within
    # MAX_ITER; Newton's step taken only from a point that halved the merit
    # of the one before, the safeguarded step from any other, settles in 8
    # evaluations.  At (0, 0) Newton's dq has a negative divisor: heading
    # for the cap there, not taking the safeguarded step, clamps at once
    ctx = DepthContext(MP2, polynomial([0.0, 1.0, -0.5]), SolverOptions(n=14))
    res = lower_bound(ctx, 0.1559232411893609)
    assert abs(res.dim - 0.38832098732868126) <= 1e-12
    assert res.q == pytest.approx(-4.36, abs=0.01)


def _predicted(solved, alpha):
    """The sweep's start: the secant through the last two levels solved,
    at most four times their spacing past the last."""
    if not solved:
        return 0.0, 0.0
    (a0, t0, q0), (a1, t1, q1) = (solved * 2)[-2:]
    u = min((alpha - a1) / (a1 - a0), 4.0) if a1 != a0 else 0.0
    return t1 + u * (t1 - t0), q1 + u * (q1 - q0)


@st.composite
def _continuation_case(draw):
    kind = draw(st.sampled_from(["linear", "example2", "mp", "e2"]))
    if kind == "linear":
        m = draw(st.integers(2, 4))
        raw = draw(st.lists(st.floats(0.05, 1.0), min_size=m, max_size=m))
        total = draw(st.sampled_from([1.0, 0.9]) | st.floats(0.3, 1.0))
        system = linear_system([total * r / sum(raw) for r in raw])
        values = draw(st.lists(_ROW_VALUES, min_size=m, max_size=m))
        potential = draw(st.sampled_from([first_symbol(values),
                                          coordinate()]))
        n = draw(st.integers(2, {2: 8, 3: 6, 4: 5}[m]))
    elif kind == "e2":
        system, potential, n = E2, coordinate(), draw(st.integers(2, 6))
    else:
        system = EX2 if kind == "example2" else draw(st.sampled_from([MP,
                                                                      MP2]))
        potential = draw(st.sampled_from([coordinate(),
                                          first_symbol([1.0, 0.0])]))
        n = draw(st.integers(2, 10))
    rates = np.unique(DepthContext(system, potential,
                                   SolverOptions(n=n)).rows.ell / n)
    delta = draw(st.none() | st.sampled_from(rates[1:].tolist())) \
        if rates.size > 1 else None
    levels = draw(st.lists(st.floats(0.0, 1.0) | st.sampled_from(
        [-0.05, 0.0, 1.0, 1.05]), min_size=2, max_size=6))
    return system, potential, SolverOptions(n=n, delta=delta), levels


def test_sweep_prediction_is_bounded_past_a_close_pair():
    # two levels 1e-12 of the range apart near an edge, then a distant one:
    # the unbounded secant through the pair carries its rounding 5e11 times
    # over, and the third level, started there, takes 71 evaluations where
    # a cold start takes 5; the prediction, at most four spacings past the
    # last level, costs 12, and every value is the cold solve's
    system = linear_system([0.3, 0.2, 0.4])
    potential = first_symbol([1.0, 0.0, -1.0])
    opts = SolverOptions(n=6)
    alphas = [-0.998, -0.997999999998, 0.0]
    points = full_spectrum(system, potential, alphas, opts)
    assert sum(p.gibbs_evals for p in points) <= 27
    ctx = DepthContext(system, potential, opts)
    for p in points:
        assert abs(p.lower - lower_bound(ctx, p.alpha).dim) <= 1e-12


@pytest.mark.fixed_seed
@settings(max_examples=60, deadline=None)
@given(_continuation_case())
# the second level starts from the first's q = -303.4, where its multiplier
# clamps at the cap -486.6: the cold restart settles it in 7 evaluations
@example((E2, coordinate(), SolverOptions(n=2), [5.960464477539063e-08,
                                                 0.125]))
def test_continued_solve_matches_cold_solve(case):
    # levels in random order, each started from the secant through the
    # interior levels solved before it (a restart from (0, 0) when that
    # start clamps or does not settle): the same point as a cold solve.
    # The constraint E[phi] = n * alpha pins q through dE[phi]/dq =
    # Var(phi), so q is compared by the change dq * Var(phi) it makes in
    # the mean: near an edge, where the measure sits almost on one row,
    # rounding in E[phi] moves q by eps * |phi| / Var(phi) (example2 n=8
    # with a floor, 6e-8 of the range above its bottom: q = -16.96 differs
    # by 2e-9 at Var(phi) = 2.4e-7, dim by 2e-15)
    system, potential, opts, levels = case
    ctx = DepthContext(system, potential, opts)
    lo, hi = (v / ctx.n for v in ctx.phi_range)
    solved = []
    for u in levels:
        alpha = lo + u * (hi - lo)
        cold = _outcome(lower_bound, ctx, alpha)
        got = _outcome(functools.partial(
            lower_bound, start=_predicted(solved, alpha)), ctx, alpha)
        if isinstance(cold, type):
            assert got is cold
            continue
        assert not isinstance(got, type), got
        assert got.boundary == cold.boundary
        assert abs(got.dim - cold.dim) <= 1e-12
        assert abs(got.t - cold.t) <= 1e-12
        if got.boundary:
            assert got.q is cold.q is None
        else:
            p = cold.row_weights * _counts(ctx.rows)
            var = p @ (ctx.rows.phi - p @ ctx.rows.phi) ** 2
            assert abs(got.q - cold.q) * var <= 1e-12
            assert np.max(np.abs(got.row_weights - cold.row_weights)) <= 1e-12
            solved.append((alpha, got.t, got.q))


# resolution of _ref_upper's bisection: the s_n comparison below needs it
# finer than 1e-12
_REF_MORAN_RESOLUTION = 1e-13


def _ref_upper(ctx, alpha):
    """upper_bound over every word, each with its row's values
    (``_word_values``): (s_n, cover_size)."""
    half = 2.0 * ctx.rho + ctx.slack
    ell, phi = _word_values(ctx)
    keep = np.abs(phi / ctx.n - alpha) < half
    if ctx.delta > 0.0:
        keep &= ell / ctx.n >= ctx.delta
    if not keep.any():
        raise AlphaUnreachableError(alpha, half, 0.0, (0.0, 0.0))
    logd = -ell[keep]
    if keep.sum() == 1:
        return 0.0, 1

    def total(s):
        return float(np.exp(s * logd).sum())

    lo, hi = 0.0, 1.0
    while total(hi) > 1.0:
        hi *= 2.0
    while hi - lo > _REF_MORAN_RESOLUTION:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if total(mid) > 1.0 else (lo, mid)
    return 0.5 * (lo + hi), int(keep.sum())


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (MfspecError, ValueError) as exc:
        return type(exc)


_ROW_VALUES = st.one_of(st.sampled_from([-1.0, 0.0, 0.5, 1.0]),
                        st.floats(-1.0, 1.0))


@st.composite
def _row_case(draw):
    kind = draw(st.sampled_from(["linear", "example2", "mp"]))
    if kind == "linear":
        m = draw(st.integers(2, 4))
        equal = draw(st.booleans())
        raw = [1.0] * m if equal else draw(
            st.lists(st.floats(0.05, 1.0), min_size=m, max_size=m))
        total = draw(st.sampled_from([1.0, 0.9]) | st.floats(0.3, 1.0))
        system = linear_system([total * r / sum(raw) for r in raw])
        values = draw(st.lists(_ROW_VALUES, min_size=m, max_size=m))
        potential = draw(st.sampled_from(
            [first_symbol(values), indicator_branch(m - 1)]))
        n = draw(st.integers(2, {2: 8, 3: 6, 4: 5}[m]))
    else:
        system = EX2 if kind == "example2" else MP
        potential = draw(st.sampled_from(
            [coordinate(), first_symbol([1.0, 0.0])]))
        n = draw(st.integers(2, 8))
    return system, potential, n


# _ref_upper bisects to _REF_MORAN_RESOLUTION, so the s_n comparison below
# measures the rows, not the reference's resolution; upper_bound's Newton root
# at MORAN_TOL is within 1e-14 relative (test_moran_root_matches_mpmath)
@pytest.mark.fixed_seed
@settings(max_examples=120, deadline=None)
@given(_row_case(), st.data())
# the stop is met here with a residual that lags t 4.2e-12 behind q unless
# the last step is the full Newton step; the measure then misses by 1.27e-12
@example((EX2, first_symbol([1.0, 0.0]), 7), _Draws(None, 0.703125))
# two interior levels whose floored rows carry two phi values: without the
# halving back, t alternates about 0.01 / 0.39 and q runs to the caps
@example((linear_system([0.41333177032267326, 0.263223198299889,
                         0.15464955134846178]), first_symbol([0, 0, -1]), 3),
         _Draws(1.5388973507999981, 0.25))
@example((linear_system([16 / 43, 12 / 43, 10 / 43, 5 / 43]),
          indicator_branch(3), 3), _Draws(1.7640452666575683, 0.5))
def test_rows_match_per_word_reference(case, data):
    system, potential, n = case
    # each floor above the rows' smallest rate masks some words
    rates = DepthContext(system, potential, SolverOptions(n=n)).rows.ell / n
    floors = np.unique(rates)[1:].tolist()
    delta = data.draw(st.none() | st.sampled_from(floors)) if floors else None
    opts = SolverOptions(n=n, delta=delta)
    ctx = DepthContext(system, potential, opts)
    ell, phi = _word_values(ctx)
    lam = ell / n
    assert np.array_equal(np.unique(ctx.rows.ell / n), np.unique(lam))
    # every word reads its row, bit for bit: its own width and sum on a
    # per-word context, its composition's lowest word's on a composition
    # one, within the rounding bound of its own (``_word_values``)
    assert np.array_equal(ctx.rows.ell[ctx.word_row], ell)
    assert np.array_equal(ctx.rows.phi[ctx.word_row], phi)
    count = _counts(ctx.rows)
    assert np.array_equal(np.bincount(ctx.word_row), count)
    if delta is not None:
        assert count[ctx.floor].sum() == (lam >= delta).sum()
    kept = phi if delta is None else phi[lam >= delta]
    lo, hi = float(np.min(kept)) / n, float(np.max(kept)) / n
    u = data.draw(st.floats(0.02, 0.98)
                  | st.sampled_from([-0.05, 0.0, 1.0, 1.05]))
    alpha = lo + u * (hi - lo)

    ref = _outcome(_ref_lower, ctx, alpha)
    got = _outcome(lower_bound, ctx, alpha)
    if isinstance(ref, type):
        assert got is ref
    else:
        assert not isinstance(got, type), got
        dim, boundary, p = ref
        assert got.dim == pytest.approx(dim, abs=1e-12)
        assert got.boundary == boundary
        assert np.array_equal(got.measure.p == 0.0, p == 0.0)
        assert np.max(np.abs(got.measure.p - p)) <= 1e-12

    ref = _outcome(_ref_upper, ctx, alpha)
    got = _outcome(upper_bound, ctx, alpha)
    if isinstance(ref, type):
        assert got is ref
    else:
        assert not isinstance(got, type), got
        assert got.s_n == pytest.approx(ref[0], abs=1e-12)
        assert got.cover_size == ref[1]


@pytest.mark.fixed_seed
@settings(max_examples=100, deadline=None)
@given(_row_case(), st.data())
def test_lower_measure_is_the_per_word_gibbs_formula(case, data):
    # the measure gathered through word_row equals the Gibbs weights formed
    # word by word, exp(q*phi - t*ell - shift) / z, bit for bit, from each
    # word's row values (``_word_values``)
    system, potential, n = case
    rates = DepthContext(system, potential, SolverOptions(n=n)).rows.ell / n
    floors = np.unique(rates)[1:].tolist()
    delta = data.draw(st.none() | st.sampled_from(floors)) if floors else None
    ctx = DepthContext(system, potential, SolverOptions(n=n, delta=delta))
    ell, phi = _word_values(ctx)
    logd, lam = -ell, ell / n
    keep = lam >= delta if delta else np.ones(phi.size, dtype=bool)
    lo, hi = float(np.min(phi[keep])) / n, float(np.max(phi[keep])) / n
    u = data.draw(st.floats(0.02, 0.98) | st.sampled_from([0.0, 1.0]))
    alpha = lo + u * (hi - lo)
    # only a documented MfspecError outcome is discarded: any other
    # exception (a measure failing BlockMeasure's sum check) fails the test
    try:
        res = lower_bound(ctx, alpha)
    except MfspecError:
        reject()

    # at a boundary only the extreme words carry weight, with q = 0
    mask = ctx.floor
    q = 0.0 if res.q is None else res.q
    if res.boundary:
        at_hi = alpha >= hi - BOUNDARY_TOL
        e_phi = float(np.max(phi[keep]) if at_hi else np.min(phi[keep]))
        keep &= np.abs(phi - e_phi) <= 1e-9
        tie = np.abs(ctx.rows.phi - e_phi) <= 1e-9
        mask = tie if mask is None else mask & tie
    rows = ctx.rows.where(mask)
    shift, z = rows.log_z(res.t, q, *np.empty((2, rows.ell.size)))
    logw = q * phi
    logw += res.t * logd
    logw -= shift
    logw[~keep] = -np.inf
    p = np.exp(logw) / z
    assert np.array_equal(res.measure.p, p)


@settings(max_examples=80, deadline=None)
@given(_row_case(), st.data())
def test_lower_at_most_unconstrained_root(case, data):
    # dropping the constraint can only raise the sup of H/L, so lower never
    # exceeds the Moran root of the rows the floor keeps; at the root's own
    # Gibbs mean the two are one program, and the same iteration gives both
    system, potential, n = case
    floors = np.unique(CylinderTable(system, n).lambda_array)[1:].tolist()
    delta = data.draw(st.none() | st.sampled_from(floors)) if floors else None
    ctx = DepthContext(system, potential, SolverOptions(n=n, delta=delta))
    rows = ctx.rows.where(ctx.floor)
    root = rows.moran_root()[0]
    lo, hi = float(np.min(rows.phi)) / n, float(np.max(rows.phi)) / n
    free = rows.gibbs(root, 0.0, *np.empty((2, rows.ell.size))).e_phi / n
    alpha = data.draw(st.just(free) | st.floats(0.0, 1.0).map(
        lambda u: lo + u * (hi - lo)))
    res = _outcome(lower_bound, ctx, alpha)
    assume(not isinstance(res, type))
    assert res.dim <= root + 1e-12
    if alpha == free and not res.boundary:
        assert res.dim == pytest.approx(root, abs=1e-12)


@pytest.mark.fixed_seed
@settings(max_examples=60, deadline=None)
@given(_row_case(), st.data())
def test_lower_at_a_boundary_is_the_tie_rows_moran_root(case, data):
    # at an end of the achievable range the constraint keeps only the
    # extreme words, and the sup of H/L over them is their Moran root:
    # the value reported is that root itself, bit for bit
    system, potential, n = case
    floors = np.unique(CylinderTable(system, n).lambda_array)[1:].tolist()
    delta = data.draw(st.none() | st.sampled_from(floors)) if floors else None
    ctx = DepthContext(system, potential, SolverOptions(n=n, delta=delta))
    floor = ctx.floor
    kept = ctx.rows.where(floor).phi
    edge = data.draw(st.sampled_from([float(np.min(kept)),
                                      float(np.max(kept))]))
    res = lower_bound(ctx, edge / n)
    tie = np.abs(ctx.rows.phi - edge) <= 1e-9
    root = ctx.rows.where(tie if floor is None else tie & floor).moran_root()
    assert res.boundary
    assert res.dim == root[0]


# ---------------------------------------------------------------------------
# the one-level pass against a stored table
# ---------------------------------------------------------------------------

def _kinds(system, potential):
    """Each symbol's kind: symbols whose (slope, value) are bit-equal share
    one, numbered in order of their first symbol (slope alone without a
    potential)."""
    keys = [np.array([b.slope for b in system.branches])]
    if potential is not None:
        keys.append(np.array(potential.symbol_values(system.m), dtype=float))
    kinds = {}
    return [kinds.setdefault(bits, len(kinds)) for bits in zip(
        *(key.view(np.int64).tolist() for key in keys))]


def _node_rows(system, potential, width, phi):
    """(rows, word_row) in the level pass's row order, from per-word widths
    and sums in slot order.  On affine branches with a word-local potential
    a row is a composition of n over the symbol kinds (``_kinds``), in
    order of its lowest word slot, holding that word's width and sum, with
    its word count; otherwise each word is a row, in slot order, with the
    scalar count 1.0."""
    if not (_affine(system) and potential.word_local):
        return (Rows(-np.log(width), phi, 1.0),
                np.arange(width.size, dtype=np.int32))
    kind, row = _kinds(system, potential), {}
    n = round(math.log(width.size, system.m))
    word_row = np.array(
        [row.setdefault(tuple(sorted(kind[a] for a in w)), len(row))
         for w in itertools.product(range(system.m), repeat=n)],
        dtype=np.int32)
    first = np.unique(word_row, return_index=True)[1]
    return (Rows(-np.log(width[first]), phi[first],
                 np.bincount(word_row).astype(float)), word_row)


def _bit_class_rows(system, potential, width, phi):
    """(rows, word_row) with a row per bit-distinct (width, phi) pair, in
    order of its lowest word slot, with its word count."""
    state = {}
    word_row = np.array(
        [state.setdefault(key, len(state)) for key in zip(
            width.view(np.int64).tolist(), phi.view(np.int64).tolist())],
        dtype=np.int32)
    first = np.unique(word_row, return_index=True)[1]
    return (Rows(-np.log(width[first]), phi[first],
                 np.bincount(word_row).astype(float)), word_row)


def _end_terms_ref(branch, lo, hi, image_lo, image_hi):
    """-log branch' at lo and at hi, each point on its own: through
    ``derivative_at_image`` at the image points where the branch declares
    it, else through ``derivative``, affine branches included.  Terms go
    through numpy's log, as the level pass takes them: math.log can be one
    ulp off (see the AVX-512 note below)."""
    if branch.derivative_at_image is None:
        return _g(branch, lo), _g(branch, hi)
    return tuple(-np.log(branch.derivative_at_image(x))
                 for x in (image_lo, image_hi))


def _end_term_levels(system, table, n):
    """Per depth k = 1..n, the (lo, hi) end terms of the depth-k slots
    a*m^(k-1) + j of a stored table: branch a's at the two ends of the
    depth-(k-1) cylinder j ([0, 1] at k = 1), read at slot a*m^(k-1) + j's
    own ends where the branch declares ``derivative_at_image``."""
    levels = []
    for k in range(1, n + 1):
        lo, hi = ((np.zeros(1), np.ones(1)) if k == 1
                  else (table.lo(k - 1), table.hi(k - 1)))
        blocks = [slice(a * lo.size, (a + 1) * lo.size)
                  for a in range(system.m)]
        levels.append([np.concatenate(terms) for terms in zip(*[
            _end_terms_ref(b, lo, hi, table.lo(k)[block], table.hi(k)[block])
            for b, block in zip(system.branches, blocks)])])
    return levels


def _ref_context(system, potential, n):
    """(rows, word_row, lemma1_gap, slack) formed from a stored table.

    The Birkhoff sums tile the suffix sums, the gap's end sums D_lo and
    D_hi take the end terms of every stored level (``_end_term_levels``),
    with the gap 0.0 on affine branches, and the words become rows in the
    level pass's order (``_node_rows``).
    """
    table = CylinderTable(system, n)
    m = system.m

    def birkhoff(levels):
        s = levels[0]
        for v in levels[1:]:
            s = v + np.tile(s, m)
        return s

    gap = 0.0 if _affine(system) else max(
        float(np.max(np.abs(table.lambda_array - birkhoff(d) / n)))
        for d in zip(*_end_term_levels(system, table, n)))
    slack = 0.0 if potential.word_local else (
        0.5 * potential.lipschitz
        * math.fsum(float(np.max(table.diameters(k)))
                    for k in range(1, n + 1)) / n)
    phi = birkhoff(potential_arrays(table, potential))
    rows, word_row = _node_rows(system, potential, table.diameters(), phi)
    return rows, word_row, gap, slack


# systems whose compositions are single bit classes: the composition rows
# are the bit-distinct (width, phi) pairs; the last is the demo config's
_SINGLE_CLASS = ((HALVES, COIN, 8),
                 (linear_system([0.25, 0.25, 0.5]),
                  first_symbol([0.0, 1.0, 0.0]), 6),
                 (HALVES, COIN, 14))


@st.composite
def _pass_case(draw):
    kind = draw(st.sampled_from(["linear", "example2", "mp"]))
    if kind == "linear":
        m = draw(st.integers(2, 4))
        equal = draw(st.booleans())
        raw = [1.0] * m if equal else draw(
            st.lists(st.floats(0.05, 1.0), min_size=m, max_size=m))
        total = draw(st.sampled_from([1.0, 0.9]) | st.floats(0.3, 1.0))
        system = linear_system([total * r / sum(raw) for r in raw])
    else:
        system = EX2 if kind == "example2" else draw(
            st.sampled_from([MP, MP2]))
    m = system.m
    values = draw(st.lists(_ROW_VALUES, min_size=m, max_size=m))
    coefficients = draw(st.lists(st.floats(-2.0, 2.0), min_size=1,
                                 max_size=3))
    potential = draw(st.sampled_from(
        [first_symbol(values), indicator_branch(m - 1), coordinate(),
         polynomial(coefficients)]))
    n = draw(st.integers(2, {2: 8, 3: 6, 4: 5}[m]))
    return system, potential, n


@pytest.mark.fixed_seed
@settings(max_examples=100, deadline=None)
@given(_pass_case())
# one row per word (no width ties, every width tied, 230 distinct widths
# among 256 words) and composition rows
@example((MP, coordinate(), 8))
@example(_SINGLE_CLASS[0])
@example((linear_system([0.3, 0.2, 0.4]), first_symbol([1.0, 0.0, 0.5]), 6))
@example((EX2, coordinate(), 8))
# kinds: equal slopes with different values are kinds of their own; -0.0
# and 0.0 are distinct kinds and stay distinct rows, each with its own
# sign bit; compositions whose (width, phi) bits coincide stay apart (45
# rows here against 17 bit-distinct pairs)
@example(_SINGLE_CLASS[1])
@example(_SINGLE_CLASS[2])
@example((HALVES, first_symbol([-0.0, 0.0]), 8))
@example((HALVES, first_symbol([0.0, -0.0]), 8))
@example((linear_system([1 / 3] * 3), first_symbol([1.0, 0.0, 0.5]), 8))
@example((linear_system([0.3, 0.2, 0.4]), first_symbol([1.0, 0.0, 0.5]), 8))
# a per-word pass whose g terms are a constant for one branch and midpoint
# values for the other, under a word-local and a func potential
@example((SLOPE_AND_MOBIUS, first_symbol([1.0, 0.0]), 8))
@example((SLOPE_AND_MOBIUS, coordinate(), 8))
# math.log(0.03746498071550521) is one ulp off np.log, and that ulp moves
# the gap
@example((linear_system([0.2051917241720728, 0.2710561405421914,
                         0.08899108106337214, 0.03746498071550521]),
          first_symbol([-1.0, -1.0, -1.0, -1.0]), 3))
def test_one_level_pass_matches_stored_table(case):
    system, potential, n = case
    ctx = DepthContext(system, potential, SolverOptions(n=n))
    rows, word_row, gap, slack = _ref_context(system, potential, n)
    if any(case is single for single in _SINGLE_CLASS):
        table = CylinderTable(system, n)
        bit_rows, bit_row = _bit_class_rows(
            system, potential, table.diameters(), _word_phi(ctx))
        assert all(map(np.array_equal, rows, bit_rows))
        assert np.array_equal(word_row, bit_row)
    assert np.array_equal(ctx.rows.ell, rows.ell)
    assert np.array_equal(ctx.rows.phi, rows.phi)
    assert np.array_equal(np.signbit(ctx.rows.phi), np.signbit(rows.phi))
    assert np.array_equal(_counts(ctx.rows), _counts(rows))
    # the count is the scalar 1 exactly when there are as many rows as
    # words: a per-word pass keeps value-equal pairs as rows of their own,
    # and a composition pass has fewer rows than words at n >= 2 (words
    # that end in ab and in ba, with a common prefix, share a composition)
    ties = rows.ell.size < word_row.size
    assert np.ndim(ctx.rows.count) == ties
    assert np.array_equal(ctx.word_row, word_row)
    assert ctx.word_row.dtype == np.int32
    if not ties:  # a per-word context's word_row is the identity
        assert np.array_equal(ctx.word_row, np.arange(system.m**n))
    assert ctx.lemma1_gap == gap
    assert ctx.slack == slack


@st.composite
def _linear_pass_case(draw):
    m = draw(st.integers(2, 4))
    raw = draw(st.just([1.0] * m) | st.lists(
        st.floats(0.05, 1.0), min_size=m, max_size=m))
    total = draw(st.sampled_from([1.0, 0.9]) | st.floats(0.3, 1.0))
    system = linear_system([total * r / sum(raw) for r in raw])
    values = draw(st.lists(_ROW_VALUES, min_size=m, max_size=m))
    potential = draw(st.sampled_from(
        [first_symbol(values), indicator_branch(0), coordinate()]))
    n = draw(st.integers(1, {2: 9, 3: 8, 4: 7}[m]))
    return system, potential, n


# a composition pass of 330 rows whose word_row reads 5^7 = 78,125 words,
# more than one _CHUNK; building a 5-branch system also folds the diameter
# check's sampled words
WIDE_MERGE = (linear_system([0.11, 0.23, 0.31, 0.07, 0.19]),
              first_symbol([1.0, 0.3, 0.0, 0.7, 0.2]), 7)


@pytest.mark.fixed_seed
@settings(max_examples=60, deadline=None)
@given(_linear_pass_case())
@example((HALVES, COIN, 9))
@example((linear_system([0.3, 0.2, 0.4]), first_symbol([1.0, 0.0, 0.5]), 8))
@example((linear_system([0.1, 0.2, 0.3, 0.25]), coordinate(), 7))
# with numpy's AVX-512 log, math.log(0.662) is one ulp off np.log; the gap
# is 0.0 however the terms' logs round
@example((linear_system([0.02, 0.662]), first_symbol([1.0, 0.0]), 4))
@example(WIDE_MERGE)
def test_affine_pass_is_composition_rows_with_zero_gap(case):
    # on affine branches the gap is 0.0, with no end sums, and the rows
    # (kind compositions under a word-local potential, words under a func
    # one) hold the stored table's bits, in the reference's order
    system, potential, n = case
    table = CylinderTable(system, n)
    rows, word_row = _node_rows(system, potential, table.diameters(),
                                table.birkhoff(potential_arrays(table,
                                                                potential)))
    assert top_level(system, n, potential, gap=True).gap == 0.0
    if n < 2:
        return
    ctx = DepthContext(system, potential, SolverOptions(n=n))
    if case is WIDE_MERGE:
        assert ctx.rows.ell.size == 330 and ctx.word_row.size > _CHUNK
    assert ctx.lemma1_gap == 0.0
    assert np.array_equal(ctx.rows.ell, rows.ell)
    assert np.array_equal(ctx.rows.phi, rows.phi)
    assert np.array_equal(_counts(ctx.rows), _counts(rows))
    assert np.ndim(ctx.rows.count) == np.ndim(rows.count)
    assert np.array_equal(ctx.word_row, word_row)
    assert ctx.word_row.dtype == word_row.dtype


@st.composite
def _composition_case(draw):
    """A random affine system (equal ratios and values drawn often), with
    a word-local potential or none, and a depth."""
    m = draw(st.integers(2, 4))
    raw = draw(st.lists(st.sampled_from([1.0, 2.0]) | st.floats(0.05, 1.0),
                        min_size=m, max_size=m))
    total = draw(st.sampled_from([1.0, 0.9]) | st.floats(0.3, 1.0))
    system = linear_system([total * r / sum(raw) for r in raw])
    values = draw(st.lists(st.sampled_from([0.0, -0.0, 0.5]) | _ROW_VALUES,
                           min_size=m, max_size=m))
    potential = draw(st.sampled_from(
        [None, first_symbol(values), indicator_branch(m - 1)]))
    return system, potential, draw(st.integers(1, {2: 8, 3: 7, 4: 6}[m]))


@pytest.mark.fixed_seed
@settings(max_examples=60, deadline=None)
@given(_composition_case())
def test_affine_rows_are_the_kind_compositions(case):
    # one row per composition of n over the symbol kinds, each holding the
    # bits of its lowest-slot word and the number of its words
    system, potential, n = case
    m, kind = system.m, _kinds(system, potential)
    words = list(itertools.product(range(m), repeat=n))
    of_word = [tuple(sorted(kind[a] for a in w)) for w in words]
    lowest, counts = {}, collections.Counter(of_word)
    for slot, composition in enumerate(of_word):
        lowest.setdefault(composition, slot)
    level = top_level(system, n, potential)
    rows = [tuple(sorted(kind[a] for a in w)) for w in level.words.tolist()]
    assert rows == sorted(counts)
    assert len(rows) == math.comb(n + max(kind), n)
    slots = np.ravel_multi_index(tuple(level.words.T), (m,) * n)
    assert slots.tolist() == [lowest[row] for row in rows]
    assert level.count.tolist() == [counts[row] for row in rows]
    assert level.count.sum() == m**n
    table = CylinderTable(system, n)
    bits = level.width.view(np.int64)
    assert np.array_equal(bits, fold(system, level.words)[1].view(np.int64))
    assert np.array_equal(bits, table.diameters()[slots].view(np.int64))
    if potential is None:
        return
    phi = table.birkhoff(potential_arrays(table, potential))
    assert np.array_equal(level.phi.view(np.int64),
                          phi[slots].view(np.int64))
    if n >= 2:
        word_row = DepthContext(system, potential,
                                SolverOptions(n=n)).word_row
        assert [rows[r] for r in word_row.tolist()] == of_word


def _traced(fn) -> tuple[int, int]:
    """Bytes numpy and Python allocate while ``fn`` runs: those its result
    still holds, and the peak."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        result = fn()
        held, peak = tracemalloc.get_traced_memory()
        del result
        return held - start, peak - start
    finally:
        if not tracing:
            tracemalloc.stop()


def test_depth_context_keeps_one_level():
    # affine branches and a word-local potential: the rows are the n + 1
    # compositions, and no word array is formed
    n = 18
    DepthContext(HALVES, COIN, SolverOptions(n=4))
    _, peak = _traced(lambda: DepthContext(HALVES, COIN, SolverOptions(n=n)))
    assert peak <= 0.05 * 8 * 2**n


def test_context_logs_the_nodes_it_stepped(caplog):
    # linear [1/2, 1/2] with the coin: 5 compositions, each lowest word
    # folded over its 4 symbols, where stepping words took 2 + 4 + 8 + 16
    caplog.set_level(logging.DEBUG, logger="mfspec")
    DepthContext(HALVES, COIN, SolverOptions(n=4))
    DepthContext(MP, coordinate(), SolverOptions(n=4))
    messages = [r.getMessage() for r in caplog.records]
    assert messages == [
        "depth 4: 16 words in 5 (width, phi) rows, 20 nodes stepped",
        "depth 4: 16 words in 16 (width, phi) rows, 30 nodes stepped"]


def test_sweep_forms_no_block_measure(monkeypatch):
    # full_spectrum reads only the numbers of each lower result; a read
    # measure equals the per-row weights gathered eagerly, bit for bit
    def refuse(**kwargs):
        raise AssertionError("the sweep formed a block measure")

    class Recorded(DepthContext):
        def __init__(self, *args):
            super().__init__(*args)
            contexts.append(self)

    def recorded_lower(*args, **kwargs):
        results.append(lower_bound(*args, **kwargs))
        return results[-1]

    contexts, results = [], []
    with monkeypatch.context() as patched:
        patched.setattr(spectrum, "BlockMeasure", refuse)
        patched.setattr(spectrum, "DepthContext", Recorded)
        patched.setattr(spectrum, "lower_bound", recorded_lower)
        points = full_spectrum(HALVES, COIN, [0.2, 0.35, 0.5, 1.0],
                               SolverOptions(n=8, rho=0.05))
        assert [p.error for p in points] == [None] * 4
    # nor the per-word rows, nor any result's row weights: the sweep
    # formed no word array
    assert len(contexts) == 1 and "word_row" not in contexts[0].__dict__
    assert len(results) == 4
    assert not any("row_weights" in r.__dict__ for r in results)
    # the floor masks MP's words of the least rate
    delta = float(np.unique(CylinderTable(MP, 8).lambda_array)[1])
    for context, alpha in (
            (DepthContext(HALVES, COIN, SolverOptions(n=8)), 0.35),
            (DepthContext(MP, coordinate(), SolverOptions(n=8, delta=delta)),
             0.3)):
        res = lower_bound(context, alpha)
        mask = context.floor
        w = _eager_row_weights(context, res, mask)
        assert (mask is None) == (context.system is HALVES)
        assert np.array_equal(res.measure.p, w.take(context.word_row))
        assert res.measure is res.measure


def _eager_row_weights(context, res, mask):
    """The row weights as ``lower_bound`` once kept them: ``log_z`` with
    unit counts at (t, q), over the counted z, then the mask scatter."""
    rows, q = context.rows.where(mask), res.q or 0.0
    w, tmp = np.empty((2, rows.ell.size))
    z = rows.log_z(res.t, q, w, tmp)[1]
    Rows(rows.ell, rows.phi, 1.0).log_z(res.t, q, w, tmp)
    w /= z
    if mask is not None:
        kept, w = w, np.zeros(mask.size)
        w[mask] = kept
    return w


def test_row_weights_are_formed_on_read():
    # a plain level, a level under a floor that masks MP's words of the
    # least rate, and a boundary level (floor and ties): each result's
    # weights, read only after more solves on its context, equal the
    # eager formula bit for bit, as does the measure gathered from them
    n = 8
    delta = float(np.unique(CylinderTable(MP, n).lambda_array)[1])
    plain = DepthContext(MP, coordinate(), SolverOptions(n=n))
    floored = DepthContext(MP, coordinate(), SolverOptions(n=n, delta=delta))
    hi = floored.phi_range[1]
    ties = floored.floor & (np.abs(floored.rows.phi - hi) <= spectrum._TIE_TOL)
    cases = [(plain, 0.3, None), (floored, 0.3, floored.floor),
             (floored, hi / n, ties)]
    results = [lower_bound(ctx, alpha) for ctx, alpha, _ in cases]
    for ctx, _, _ in cases:
        lower_bound(ctx, 0.35)
    assert plain.floor is None and floored.floor is not None
    assert [r.boundary for r in results] == [False, False, True]
    for (ctx, _, mask), res in zip(cases, results):
        assert "row_weights" not in res.__dict__
        w = _eager_row_weights(ctx, res, mask)
        assert res.row_weights is res.row_weights
        assert np.array_equal(res.row_weights.view(np.int64),
                              w.view(np.int64))
        assert np.array_equal(res.measure.p.view(np.int64),
                              w.take(ctx.word_row).view(np.int64))


def test_mp_depth_context_keeps_one_row_per_word():
    # each MP word is a row, in slot order: the context keeps the level
    # pass's ell and phi with a scalar count and no word index (word_row is
    # formed only when read); regrouping the words in width order kept an
    # int32 row index too (2.5 word arrays), and a float count of ones took
    # 3.5 retained and 6.1 peak; the peak is the level pass's (4.14, with
    # ~0.33 MB of chunk temporaries), where a whole-level potential block
    # and a lo of every word took 4.64
    n = 16
    DepthContext(MP, coordinate(), SolverOptions(n=4))
    held, peak = _traced(lambda: DepthContext(MP, coordinate(),
                                             SolverOptions(n=n)))
    assert held <= 2.0 * 8 * 2**n + 4096  # and the objects' headers
    assert peak <= 4.3 * 8 * 2**n


def test_mp_sweep_peaks_at_its_context():
    # full_spectrum on MP at n=16 over 6 interior levels holds the
    # context's ell and phi and, per level, one (2, N) Gibbs block: the
    # level pass's 4.14 word arrays stay the peak; a lower result that kept
    # its row weights, copied out of the block, took the sweep to 5.01
    n = 16
    ctx = DepthContext(MP, coordinate(), SolverOptions(n=n))
    lo, hi = (v / n for v in ctx.phi_range)
    alphas = [lo + u * (hi - lo) for u in (0.1, 0.25, 0.4, 0.6, 0.75, 0.9)]
    del ctx
    points = []
    peak = _traced(lambda: points.extend(full_spectrum(
        MP, coordinate(), alphas, SolverOptions(n=n))))[1]
    assert [p.error for p in points] == [None] * 6
    assert not any(p.in_parabolic_interval for p in points)
    assert peak <= 4.3 * 8 * 2**n


def test_moran_dimension_takes_ell_in_place():
    # the widths of a pass with no potential (lo of the parents only)
    # become ell in place, beside Moran's one weight buffer: 2.14 word
    # arrays, where -log(width) as a copy took 3.00
    n = 16
    moran_dimension(MP, 4)
    _, peak = _traced(lambda: moran_dimension(MP, n))
    assert peak <= 2.3 * 8 * 2**n


def test_lower_result_holds_no_word_array():
    # a result keeps (t, q, z, mask) and its context; its weights are
    # formed when read: 1.3 KB held, where the weights kept took one word
    # array; a boundary's mask, floor and ties, is one byte per row
    n = 16
    ctx = DepthContext(MP, coordinate(), SolverOptions(n=n))
    lo, hi = ctx.phi_range  # the floor and the range, formed before
    assert ctx.floor is None
    held = _traced(lambda: lower_bound(ctx, 0.3))[0]
    assert held < 4096
    held = _traced(lambda: lower_bound(ctx, hi / n))[0]
    assert held < 4096 + ctx.rows.ell.size


def test_affine_context_with_a_func_potential_keeps_a_scalar_count():
    # linear [1/2, 1/2] with coordinate at n=18: a func potential is not
    # word-local, so each word is a row and the count is the scalar 1.0
    n = 18
    ctx = DepthContext(HALVES, coordinate(), SolverOptions(n=n))
    assert ctx.rows.ell.size == 2**n
    assert np.ndim(ctx.rows.count) == 0 and ctx.rows.count == 1.0
    assert np.array_equal(np.sort(ctx.word_row), np.arange(2**n))


def test_affine_context_with_a_func_potential_peaks_at_its_pass():
    # linear [1/2, 1/2] with coordinate at n=18, each word a row: width,
    # phi and lo of the 2^17 parents (2.63 word arrays); a lo of every
    # word and a whole-level midpoint block took 4.00
    n = 18
    DepthContext(HALVES, coordinate(), SolverOptions(n=4))
    _, peak = _traced(lambda: DepthContext(HALVES, coordinate(),
                                           SolverOptions(n=n)))
    assert peak <= 2.8 * 8 * 2**n


def test_mp_pass_evaluates_branches_in_chunks():
    # whole-block Newton inverses took this pass to 8.0 word arrays; in
    # chunks it holds width and phi, lo of the depth n-1 parents and the
    # gap's end sums D_lo and D_hi of depth n-1: 3.5, and 4.14 with the
    # chunks' temporaries; a lo of every word and a whole-level potential
    # block took 4.64, and forming the gap after phi's last level 5.0
    n = 16
    top_level(MP, 4, coordinate(), gap=True)
    _, peak = _traced(lambda: top_level(MP, n, coordinate(), gap=True))
    assert peak <= 4.3 * 8 * 2**n


def test_word_cap_is_checked_before_allocating():
    # 2^25 words, one past the cap: one level would take 268 MB
    opts = SolverOptions(n=25)

    def build():
        with pytest.raises(EnumerationLimitError):
            DepthContext(HALVES, COIN, opts)

    assert _traced(build)[1] < 1_000_000


def test_zero_width_cylinder_fails_the_sweep_before_any_log():
    # the second branch collapses every width below 0.2 to 0: at n=4 the
    # lowest slot with a zero width is word 1211 (suffix 211: 0.4^2 < 0.2)
    def collapsing(lo, width):
        return np.where(np.asarray(width) < 0.2, 0.0, 0.6 * width)

    system = IfsSystem(branches=(
        Branch(map=lambda x: 0.4 * np.asarray(x, dtype=float),
               derivative=lambda x: np.full_like(
                   np.asarray(x, dtype=float), 0.4),
               map_width=lambda lo, width: 0.4 * width),
        Branch(map=lambda x: 0.4 + 0.6 * np.asarray(x, dtype=float),
               derivative=lambda x: np.full_like(
                   np.asarray(x, dtype=float), 0.6),
               map_width=collapsing)))
    opts = SolverOptions(n=4, rho=0.3)
    with pytest.raises(DegenerateCylinderError, match="word 1211 "):
        full_spectrum(system, COIN, [0.3, 0.5], opts)
    with pytest.raises(DegenerateCylinderError, match="word 1211 "):
        lemma1_gap(system, 4)
    # affine widths underflow to 0 from two 1e-200 factors on: the
    # composition rows (the first zero row's lowest word) and the per-word
    # pass (the lowest zero slot) both name word 122
    tiny = linear_system([0.5, 1e-200])
    for potential in (COIN, coordinate()):
        with pytest.raises(DegenerateCylinderError, match="word 122 "):
            full_spectrum(tiny, potential, [0.3],
                          SolverOptions(n=3, rho=0.3))
    with pytest.raises(DegenerateCylinderError, match="word 122 "):
        lemma1_gap(tiny, 3)


# ---------------------------------------------------------------------------
# parabolic dispatch
# ---------------------------------------------------------------------------

def test_parabolic_interval_variants():
    assert parabolic_interval(HALVES, coordinate()) is None
    full = parabolic_interval(EX2, coordinate())
    assert (full.lo, full.hi) == (0.0, 1.0)
    point = parabolic_interval(MP, coordinate())
    assert (point.lo, point.hi) == (0.0, 0.0)
    vals = parabolic_interval(EX2, first_symbol([3.0, -1.0]))
    assert (vals.lo, vals.hi) == (-1.0, 3.0)


@pytest.mark.parametrize("system, func, local", [
    # EX2's fixed points are 0 (left) and 1 (right), MP's is 0 (left)
    (EX2, coordinate(), first_symbol([0.0, 1.0])),
    (EX2, polynomial([0.25, 0.5]), first_symbol([0.25, 0.75])),
    (EX2, polynomial([1.0, -1.0]), indicator_branch(0)),
    (MP, coordinate(), indicator_branch(1)),
    (MP, polynomial([0.5, 2.0]), first_symbol([0.5, -3.0])),
])
def test_parabolic_interval_agrees_across_potential_kinds(system, func,
                                                          local):
    # a word-local potential and a function that agree at the fixed points
    # span the same interval
    assert parabolic_interval(system, func) == parabolic_interval(system,
                                                                  local)


def test_spectrum_example2_all_flagged():
    points = full_spectrum(EX2, coordinate(), [0.1, 0.4, 0.8],
                           SolverOptions(n=8))
    attractor = moran_dimension(EX2, 8)
    for p in points:
        assert p.in_parabolic_interval
        assert p.lower == p.upper == pytest.approx(attractor, abs=1e-12)


def test_spectrum_linear_none_flagged():
    points = full_spectrum(HALVES, COIN, [0.2, 0.5, 0.9], SolverOptions(n=6))
    assert not any(p.in_parabolic_interval for p in points)


def test_spectrum_mp_flags_exactly_f0():
    points = full_spectrum(MP, coordinate(), [0.0, 0.25, 0.5, 0.75],
                           SolverOptions(n=8))
    flags = {p.alpha: p.in_parabolic_interval for p in points}
    assert flags == {0.0: True, 0.25: False, 0.5: False, 0.75: False}


def test_spectrum_rows_sorted_and_errors_kept():
    points = full_spectrum(HALVES, COIN, [0.9, 2.0, 0.1], SolverOptions(n=6))
    assert [p.alpha for p in points] == [0.1, 0.9, 2.0]
    assert points[2].error is not None
    assert points[2].lower is None
    assert points[0].error is None


def test_spectrum_sorts_a_nan_level_last():
    # sorted() leaves NaN where it lies: the sweep returned 0.7, nan, 0.3,
    # 0.5 and the secant predicted 0.3 from 0.7
    opts = SolverOptions(n=6)
    points = full_spectrum(HALVES, COIN, [0.7, math.nan, 0.3, 0.5], opts)
    assert [p.alpha for p in points[:3]] == [0.3, 0.5, 0.7]
    assert math.isnan(points[3].alpha)
    assert points[3].lower is None and points[3].upper is None
    assert "alpha=nan" in points[3].error
    plain = full_spectrum(HALVES, COIN, [0.7, 0.3, 0.5], opts)
    assert [p.lower for p in points[:3]] == [p.lower for p in plain]
    assert all(p.error is None for p in points[:3])


def test_spectrum_lower_at_most_upper_plus_slack():
    # window sandwich at the acceptance tolerances
    points = full_spectrum(HALVES, COIN, [0.2, 0.3, 0.5], SolverOptions(n=14))
    for p in points:
        closed = besicovitch_spectrum(COIN_SPEC, p.alpha)
        assert 0.0 <= p.lower <= closed + 1e-9
        assert closed <= p.upper + 0.08
        assert p.upper >= 0.0 and p.lower <= 1.0


# ---------------------------------------------------------------------------
# alternating-block sampler
# ---------------------------------------------------------------------------

CHAIN = MarkovChainSpec(transition=[[0.9, 0.1], [0.2, 0.8]],
                        initial=[2.0 / 3.0, 1.0 / 3.0])


def test_sampler_requires_parabolic_symbol():
    nu = block_marginal(CHAIN, 2)
    with pytest.raises(ValueError):
        alternating_sampler(HALVES, COIN, nu, 0, [1, 2], [0.5, 0.25], 100)
    with pytest.raises(ValueError):
        alternating_sampler(MP, coordinate(), nu, 1, [1, 2], [0.5, 0.25], 100)


def test_sampler_schedule_validation():
    nu = block_marginal(CHAIN, 2)
    with pytest.raises(InvalidScheduleError):
        alternating_sampler(MP, coordinate(), nu, 0, [3, 2, 1],
                            [0.1, 0.1, 0.1], 100)
    with pytest.raises(InvalidScheduleError):
        alternating_sampler(MP, coordinate(), nu, 0, [1, 2, 3],
                            [0.1, 0.2, 0.3], 100)


def test_sampler_rejects_nonpositive_eval_depth():
    nu = block_marginal(CHAIN, 2)
    for depth in (0, -3):
        with pytest.raises(InvalidScheduleError):
            alternating_sampler(MP, coordinate(), nu, 0, [1, 2], [0.5, 0.25],
                                100, eval_depth=depth)


def test_sampler_rejects_a_measure_of_another_alphabet(monkeypatch):
    # a 3-symbol measure on the 2-branch MP map is refused by name, before
    # the stream is even made
    def no_draws(*args, **kwargs):
        raise AssertionError("the sampler drew before checking the measure")

    monkeypatch.setattr(spectrum, "PcgStream", no_draws)
    with pytest.raises(ValueError, match="measure has 3 symbols but the "
                                         "system has 2 branches"):
        alternating_sampler(MP, coordinate(), BlockMeasure.dirac((0, 2), 3),
                            0, [1, 2], [0.5, 0.25], 100)


def test_seeds_are_nonnegative_integers(monkeypatch):
    # a seed is read with operator.index and refused before any draw, as
    # numpy's default_rng refuses a negative one
    def no_draws(*args, **kwargs):
        raise AssertionError("drew before checking the seed")

    monkeypatch.setattr(PcgStream, "_next64", no_draws)
    nu = block_marginal(CHAIN, 2)
    for seed, error in ((-1, ValueError), (1.5, TypeError),
                        (None, TypeError), ("3", TypeError)):
        with pytest.raises(error):
            alternating_sampler(MP, coordinate(), nu, 0, [1, 2], [0.5, 0.25],
                                100, seed=seed)
        with pytest.raises(error):
            lemma1_gap(MP, 10, sample=300, seed=seed)


def test_sampler_memory_is_flat_in_the_horizon():
    # sampler_stream's construction at two horizons: apart from the 1-byte
    # symbol sequence, what the sampler holds grows with the symbol runs,
    # not with the positions (3.0 bytes per position between these
    # horizons; whole-position arrays took 65.5, and a whole-word
    # run-boundary mask 4.0)
    nu = block_marginal(CHAIN, 2)
    ks = list(range(1, 200))
    eps = [1.0 / (k * k) for k in ks]
    alternating_sampler(MP, coordinate(), nu, 0, ks, eps, horizon=10**4,
                        seed=5)
    peaks = []
    for horizon in (10**5, 8 * 10**5):
        tracemalloc.start()
        try:
            alternating_sampler(MP, coordinate(), nu, 0, ks, eps,
                                horizon=horizon, seed=5)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert (peaks[1] - peaks[0]) / (7 * 10**5) <= 3.5


def _clustered_runs(depth):
    """Symbol runs whose lengths cluster at depth - 1, depth and depth + 1."""
    length = st.one_of(st.sampled_from([depth - 1, depth, depth + 1]),
                       st.integers(1, 2 * depth + 2)).filter(lambda n: n > 0)
    return st.lists(length, min_size=1, max_size=12)


def _plain_suffixes(system, words):
    """Per-row cylinders of ``words[:, j:]`` for j = n-1, ..., 0: every row
    is stepped through ``image_of`` on its own, sharing nothing."""
    words = np.asarray(words)
    lo, width = np.zeros(len(words)), np.ones(len(words))
    for column in reversed(words.T):
        for a, branch in enumerate(system.branches):
            sel = column == a
            if sel.any():
                lo[sel], width[sel] = branch.image_of(lo[sel], width[sel])
        yield lo, width


def _plain_fold(system, words):
    lo, width = np.zeros(len(words)), np.ones(len(words))
    for lo, width in _plain_suffixes(system, words):
        pass
    return lo, width


def _plain_gap(system, n, sample, seed):
    """``lemma1_gap(system, n, sample, seed)`` summed row by row: each
    row's end sums add the end terms of its own suffix cylinders."""
    words = np.random.default_rng(seed).integers(0, system.m,
                                                 size=(sample, n))
    lo, hi, sums = np.zeros(sample), np.ones(sample), np.zeros((2, sample))
    for column, (image_lo, width) in zip(reversed(words.T),
                                         _plain_suffixes(system, words)):
        image_hi = image_lo + width
        for a, branch in enumerate(system.branches):
            sel = column == a
            if sel.any():
                sums[:, sel] += _end_terms_ref(branch, lo[sel], hi[sel],
                                               image_lo[sel], image_hi[sel])
        lo, hi = image_lo.copy(), image_hi
    lam = -np.log(width) / n
    return max(float(np.max(np.abs(lam - d / n))) for d in sums)


def _distinct_suffixes(windows):
    return sum(len(np.unique(windows[:, j:], axis=0))
               for j in range(windows.shape[1]))


@pytest.mark.fixed_seed
@settings(max_examples=60, deadline=None)
@given(data=st.data(), depth=st.integers(1, 12),
       system=st.sampled_from([MP, EX2, linear_system([0.3, 0.2, 0.4])]))
def test_window_midpoints_match_per_window_fold(data, depth, system):
    # adjacent runs differ in symbol, so each run is maximal; the reference
    # folds every window as its own row
    lengths = data.draw(_clustered_runs(depth))
    symbols = [data.draw(st.integers(0, system.m - 1))]
    for _ in lengths[1:]:
        shift = data.draw(st.integers(1, system.m - 1))
        symbols.append((symbols[-1] + shift) % system.m)
    seq = np.repeat(np.array(symbols, dtype=np.int64), lengths)
    assume(len(seq) >= depth)
    windows = sliding_window_view(seq, depth)
    lo, width = _plain_fold(system, windows)
    found = _window_midpoints(system, seq, depth)
    first, w_lo, w_width, nodes = (found.first, found.lo, found.width,
                                   found.nodes)
    window = found.of(seq, 0, len(windows))
    assert np.array_equal(w_lo[window], lo)
    assert np.array_equal(w_width[window], width)
    assert np.array_equal(first[window], windows[:, 0])
    # one cylinder per distinct window, one step per distinct suffix
    assert w_lo.size == len(np.unique(windows, axis=0))
    assert nodes == _distinct_suffixes(windows)
    # any range of starts reads the same windows as the whole
    a = data.draw(st.integers(0, len(windows)))
    b = data.draw(st.integers(a, len(windows)))
    assert np.array_equal(found.of(seq, a, b), window[a:b])


_FOLD_SYSTEMS = [EX2, manneville_pomeau_system(0.25), MP, MP2]


@st.composite
def _fold_system(draw):
    if draw(st.booleans()):
        return draw(st.sampled_from(_FOLD_SYSTEMS))
    m = draw(st.integers(2, 4))
    raw = draw(st.lists(st.floats(0.05, 1.0), min_size=m, max_size=m))
    total = draw(st.sampled_from([1.0, 0.9]) | st.floats(0.3, 1.0))
    return linear_system([total * r / sum(raw) for r in raw])


@st.composite
def _shared_words(draw, m):
    """Rows built from symbol runs (long ones included), then extended by
    duplicates and by rows that take another row's suffix."""
    n = draw(st.integers(0, 24))
    run = st.tuples(st.integers(0, m - 1),
                    st.integers(1, 4) | st.integers(n // 2 + 1, n + 1))
    base = draw(st.lists(st.lists(run, min_size=1, max_size=6),
                         min_size=1, max_size=6))
    rows = [np.resize(np.repeat(*zip(*runs)), n) for runs in base]
    for i, j, cut in draw(st.lists(st.tuples(
            st.integers(0, len(rows) - 1), st.integers(0, len(rows) - 1),
            st.integers(0, n)), max_size=8)):
        rows.append(np.concatenate([rows[i][:cut], rows[j][cut:]]))
    order = draw(st.permutations(range(len(rows))))
    return np.array([rows[k] for k in order], dtype=np.int64)


@pytest.mark.fixed_seed
@settings(max_examples=80, deadline=None)
@given(system=_fold_system(), data=st.data())
def test_suffix_sharing_matches_plain_fold(system, data):
    # fold, the sampled gap and the window midpoints step each distinct
    # suffix once; each must equal the row-by-row fold bit for bit, and the
    # sampled gap of affine branches is 0.0
    words = data.draw(_shared_words(system.m))
    for got, ref in zip(fold(system, words), _plain_fold(system, words)):
        assert np.array_equal(got, ref)
    n = data.draw(st.integers(1, 14))
    sample = data.draw(st.integers(1, 300))
    seed = data.draw(st.integers(0, 2**16))
    assert lemma1_gap(system, n, sample=sample, seed=seed) == (
        0.0 if _affine(system) else _plain_gap(system, n, sample, seed))
    seq = words.ravel()
    depth = data.draw(st.integers(1, 16))
    assume(len(seq) >= depth)
    windows = sliding_window_view(seq, depth)
    lo, width = _plain_fold(system, windows)
    found = _window_midpoints(system, seq, depth)
    first, w_lo, w_width, nodes = (found.first, found.lo, found.width,
                                   found.nodes)
    window = found.of(seq, 0, len(windows))
    assert np.array_equal(w_lo[window], lo)
    assert np.array_equal(w_width[window], width)
    assert np.array_equal(first[window], windows[:, 0])
    assert nodes == _distinct_suffixes(windows)


@pytest.mark.fixed_seed
@settings(max_examples=30, deadline=None)
@given(system=_fold_system(), data=st.data())
def test_word_level_api_equals_the_level_pass(system, data):
    # each per-word value is computed by the formula the level pass uses
    # for its slot, so the two agree bit for bit on every depth-n word
    m = system.m
    n = data.draw(st.integers(1, int(math.log(128, m) + 1e-9)))
    spec = data.draw(st.sampled_from([
        coordinate(), polynomial([0.0, 1.0, -0.5]),
        first_symbol([1.0, -0.5, 0.25, 2.0][:m]), indicator_branch(m - 1)]))
    table = CylinderTable(system, n)
    phi = potential_arrays(table, spec)[n - 1]
    f = induced_word_function(system, spec, n)
    g = geometric_potential(system, n)
    suffix_mid = table.mid(n - 1) if n > 1 else np.full(1, 0.5)
    for slot, w in enumerate(table.words()):
        assert f.evaluate(w) == phi[slot]
        assert project(system, w)[0] == table.mid(n)[slot]
        assert lambda_n(system, w) == table.lambda_array[slot]
        term = neg_log_derivative(system, np.array([w[0]]),
                                  suffix_mid[[slot % m ** (n - 1)]])[0]
        assert g.evaluate(w) == term
        if n > 1:
            assert g_eval(system, w) == term
    # at grid step 1/2 the best ratio puts 1/2 on each of two words: the
    # entropy log 2 over the shortest pair's mean length
    if m ** n <= 8:
        ell = -table.log_diameters
        pairs = [0.5 * ell[i] + 0.5 * ell[j]
                 for i in range(m ** n) for j in range(i + 1, m ** n)]
        assert brute_force_ratio(
            system, first_symbol([0.0] * m), 0.0, n, 0.5) == (
                -(0.5 * math.log(0.5) + 0.5 * math.log(0.5)) / min(pairs))


def _composed_neg_log_derivative(system, w, x):
    """-log g_w'(x) by the chain rule, from each branch's ``derivative``
    and ``map``, last symbol first."""
    total, y = np.zeros(np.shape(x)), np.asarray(x, dtype=float)
    for a in reversed(w):
        total -= np.log(system.branches[a].derivative(y))
        y = system.branches[a].map(y)
    return total


# E_2, and a system whose branches declare neither a slope nor
# derivative_at_image, so its end terms are derivatives at the parents' ends
_END_SYSTEMS = st.sampled_from([E2, _flat_system()]) | _fold_system()


@pytest.mark.fixed_seed
@settings(max_examples=60, deadline=None)
@given(system=_END_SYSTEMS, data=st.data())
def test_end_sums_bound_the_log_derivative_over_each_cylinder(system, data):
    # log g_w' is monotone on [0, 1] for every family here (Moebius
    # composites are Moebius; every log-derivative here is non-increasing),
    # so -log g_w'(x) lies between the end sums D_lo and D_hi at every x,
    # and so does ell = -log width = -log g_w'(xi) for some xi
    n = data.draw(st.integers(1, 10))
    words = np.array(data.draw(st.lists(st.lists(
        st.integers(0, system.m - 1), min_size=n, max_size=n),
        min_size=1, max_size=8)))
    xs = np.array(data.draw(st.lists(
        st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0), min_size=1,
        max_size=16)))
    width, d_lo, d_hi = end_sums(system, words)
    low, high = np.minimum(d_lo, d_hi), np.maximum(d_lo, d_hi)
    tol = 1e-13 * n * (1.0 + np.abs(high))  # rounding in n terms
    for w, ell, a, b, eps in zip(words, -np.log(width), low, high, tol):
        g = _composed_neg_log_derivative(system, w, xs)
        assert np.all(a - eps <= g) and np.all(g <= b + eps)
        assert a - eps <= ell <= b + eps


@settings(max_examples=30, deadline=None)
@given(system=_END_SYSTEMS, data=st.data())
def test_exhaustive_gap_is_the_max_of_word_level_end_sums(system, data):
    # end_sums takes the level pass's terms and additions on each word, so
    # the exhaustive gap is the max of the per-word values, bit for bit;
    # on affine branches it is 0.0, as g_w' is the width's constant
    n = data.draw(st.integers(1, int(math.log(256, system.m) + 1e-9)))
    table = CylinderTable(system, n)
    width, d_lo, d_hi = end_sums(system, np.array(list(table.words())))
    assert np.array_equal(width, table.diameters())
    lam = -np.log(width) / n
    per_word = np.maximum(np.abs(lam - d_lo / n), np.abs(lam - d_hi / n))
    assert lemma1_gap(system, n) == (
        0.0 if _affine(system) else np.max(per_word))


@pytest.mark.fixed_seed
@settings(max_examples=25, deadline=None)
@given(case=st.sampled_from([(MP, 0), (manneville_pomeau_system(0.25), 0),
                             (MP2, 0), (EX2, 0), (EX2, 1)]),
       potential=st.sampled_from([coordinate(), polynomial([0.3, -1.0, 2.0]),
                                  first_symbol([1.0, -0.5]),
                                  indicator_branch(0), indicator_branch(1)]),
       depth=st.integers(1, 20), horizon=st.integers(50, 3000),
       seed=st.integers(0, 2**16), chunk=st.integers(1, 64))
def test_sampler_terms_match_per_position_evaluation(case, potential, depth,
                                                     horizon, seed, chunk):
    # the sampler evaluates f per distinct window and g per distinct
    # (symbol, next window) pair; its averages equal those of f and g
    # evaluated at every position's own midpoint, bit for bit.  A small
    # chunk makes the running sums carry, and checkpoints fall, across
    # chunk boundaries
    system, symbol = case
    seen = {}

    def recorded(system, seq, depth):
        seen["seq"] = seq
        seen["out"] = _window_midpoints(system, seq, depth)
        return seen["out"]

    ks = list(range(1, 40))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(spectrum, "_window_midpoints", recorded)
        patch.setattr(spectrum, "_CHUNK", chunk)
        points = alternating_sampler(
            system, potential, block_marginal(CHAIN, 2), symbol, ks,
            [1.0 / (k * k) for k in ks], horizon=horizon, seed=seed,
            eval_depth=depth)
    seq, found = seen["seq"], seen["out"]
    assert seq.dtype == np.uint8
    window = found.of(seq, 0, len(seq) - depth + 1)
    per_position = (found.lo + 0.5 * found.width)[window]
    if potential.word_local:
        f_terms = np.asarray(potential.symbol_values(system.m))[
            seq[:window.size]]
    else:
        f_terms = np.asarray(potential.func(per_position), dtype=float)
    g_terms = neg_log_derivative(system, seq[:window.size - 1],
                                 per_position[1:])
    f_cum, g_cum = np.cumsum(f_terms), np.cumsum(g_terms)
    assert [(p.f_average, p.g_average) for p in points] == [
        (float(f_cum[p.n - 1] / p.n), float(g_cum[p.n - 1] / p.n))
        for p in points]


def test_sampler_logs_its_distinct_work(caplog):
    # every window of the all-0 word is the constant word: one distinct
    # window, 64 suffix nodes (one per column) and one g pair
    caplog.set_level(logging.DEBUG, logger="mfspec.spectrum")
    nu = BlockMeasure.dirac((0, 0), 2)
    points = alternating_sampler(MP, coordinate(), nu, 0, [1] * 40,
                                 [1.0 / (i + 1) for i in range(40)],
                                 horizon=4000, seed=1)
    records = [r for r in caplog.records
               if r.getMessage().startswith("alternating_sampler: ")]
    assert len(records) == 1
    assert records[0].name == "mfspec.spectrum"
    positions = int(records[0].getMessage().split()[1])
    assert positions >= points[-1].n + 1
    assert records[0].getMessage() == (
        f"alternating_sampler: {positions} positions, 1 distinct windows, "
        f"64 suffix nodes stepped, 1 distinct g pairs")


def test_first_calls_leave_logging_unimported():
    # with nothing configured no handler could take the debug records, so a
    # sweep and the sampler drop them without importing logging
    code = (
        "import sys\n"
        "from mfspec import (MarkovChainSpec, SolverOptions,\n"
        "                    alternating_sampler, block_marginal, coordinate,\n"
        "                    full_spectrum, manneville_pomeau_system)\n"
        "mp = manneville_pomeau_system(0.5)\n"
        "full_spectrum(mp, coordinate(), [0.0, 0.3], SolverOptions(n=6))\n"
        "chain = MarkovChainSpec(transition=[[0.9, 0.1], [0.2, 0.8]],\n"
        "                        initial=[2 / 3, 1 / 3])\n"
        "alternating_sampler(mp, coordinate(), block_marginal(chain, 2), 0,\n"
        "                    [1, 2, 3], [1.0, 0.25, 0.1], horizon=200)\n"
        "assert 'logging' not in sys.modules, 'logging was imported'\n")
    src = str(Path(spectrum.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr


def test_sampler_leaves_numpy_ma_unimported():
    # np.unique imports numpy.ma (NumPy 2.x), about 1 MB of resident
    # memory; the sampler finds its long-run symbols by a bincount instead.
    # The sampler, the sampled gap and the decay check of a 5-branch system
    # (m**8 > 65536, so it draws its words) draw from PcgStream: numpy's
    # random package would load secrets, hashlib and OpenSSL's _hashlib,
    # about 6 MB
    code = (
        "import sys\n"
        "from mfspec import (MarkovChainSpec, alternating_sampler,\n"
        "                    block_marginal, coordinate, lemma1_gap,\n"
        "                    linear_system, manneville_pomeau_system)\n"
        "chain = MarkovChainSpec(transition=[[0.9, 0.1], [0.2, 0.8]],\n"
        "                        initial=[2 / 3, 1 / 3])\n"
        "ks = list(range(1, 20))\n"
        "mp = manneville_pomeau_system(0.5)\n"
        "alternating_sampler(mp, coordinate(), block_marginal(chain, 2), 0,\n"
        "                    ks, [1.0 / (k * k) for k in ks], horizon=2000)\n"
        "lemma1_gap(mp, 10, sample=300, seed=2)\n"
        "linear_system([0.15] * 5)\n"
        "for name in ('numpy.ma', 'numpy.random', 'secrets', '_hashlib'):\n"
        "    assert name not in sys.modules, f'{name} was imported'\n")
    src = str(Path(spectrum.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr


def test_sampler_degenerate_schedule_tracks_measure_average():
    # k = 0 inserts no parabolic blocks, so the average follows the measure
    from mfspec.potentials import induced_word_function
    from mfspec.symbolic import abramov_stats
    nu = block_marginal(CHAIN, 2)
    f = induced_word_function(MP, coordinate(), depth=8)
    expected = abramov_stats(nu, [f]).averages[0]
    points = alternating_sampler(MP, coordinate(), nu, 0, [0] * 60,
                                 [0.1] * 60, horizon=4000, seed=3)
    assert abs(points[-1].f_average - expected) < 0.05
    assert points[-1].g_average > 0.2


def test_sampler_pure_parabolic_word():
    # Dirac measure on (0,0) makes every block constant: the potential
    # average follows the all-0 word down to the fixed-point value
    nu = BlockMeasure.dirac((0, 0), 2)
    points = alternating_sampler(MP, coordinate(), nu, 0, [1] * 40,
                                 [1.0 / (i + 1) for i in range(40)],
                                 horizon=4000, seed=1)
    f_vals = [p.f_average for p in points]
    assert all(b <= a + 1e-12 for a, b in zip(f_vals, f_vals[1:]))
    assert points[-1].f_average < 0.01
    # the geometric average is floored by the evaluation window, not by the
    # word itself; it must sit at the small truncation scale
    assert points[-1].g_average < 0.06


def test_sampler_growing_blocks_converge_to_fixed_point_value():
    nu = block_marginal(CHAIN, 2)
    ks = list(range(1, 120))
    eps = [1.0 / (k * k) for k in ks]
    points = alternating_sampler(MP, coordinate(), nu, 0, ks, eps,
                                 horizon=30000, seed=7)
    f_dev = [abs(p.f_average - 0.0) for p in points[-3:]]
    g_tail = [p.g_average for p in points[-3:]]
    assert f_dev[2] < f_dev[1] < f_dev[0]
    assert g_tail[2] < g_tail[1] < g_tail[0]


def test_sampler_deterministic_given_seed():
    nu = block_marginal(CHAIN, 2)
    runs = [alternating_sampler(MP, coordinate(), nu, 0, [1, 2, 3, 4],
                                [1, 1 / 2, 1 / 3, 1 / 4], horizon=200, seed=9)
            for _ in range(2)]
    assert runs[0] == runs[1]
