"""Estimator checks: Moran roots, both bound routes, dispatch, sampler."""

import logging
import math
import tracemalloc

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from scipy.optimize import brentq

from mfspec.errors import (AlphaUnreachableError, DegenerateCylinderError,
                           EnumerationLimitError, InfeasibleAlphaError,
                           InvalidScheduleError, MfspecError,
                           NoCylindersError, NotContractingError, SolverError)
from mfspec.geometry import (Branch, CylinderTable, IfsSystem,
                             example2_system, fold, lemma1_gap,
                             linear_system, manneville_pomeau_system)
from mfspec.oracle import besicovitch_spectrum, BesicovitchSpec
from mfspec.potentials import (coordinate, first_symbol, indicator_branch,
                               polynomial, potential_arrays)
from mfspec.spectrum import (DepthContext, Rows, SolverOptions,
                             _window_midpoints,
                             alternating_sampler,
                             full_spectrum, lower_bound, moran_dimension,
                             parabolic_interval, upper_bound)
from mfspec.symbolic import BlockMeasure, MarkovChainSpec, block_marginal

HALVES = linear_system([0.5, 0.5])
MIXED = linear_system([0.5, 1 / 3])
EX2 = example2_system()
MP = manneville_pomeau_system(0.5)
MP2 = manneville_pomeau_system(2.0)
COIN = first_symbol([1.0, 0.0])
COIN_SPEC = BesicovitchSpec(m=2, ratio=0.5, values=(1.0, 0.0))

MIXED_ROOT = brentq(lambda s: 2.0**-s + 3.0**-s - 1.0, 0.0, 2.0,
                    xtol=1e-14, rtol=8.9e-16)


def _word_phi(ctx):
    """Birkhoff sums of every depth-n word, in slot order."""
    table = CylinderTable(ctx.system, ctx.n)
    return table.birkhoff(potential_arrays(table, ctx.potential))


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


def test_moran_constant_word_filter():
    for n in (3, 5):
        s = moran_dimension(HALVES, n,
                            word_filter=lambda w: len(set(w)) == 1)
        assert s == pytest.approx(1.0 / n, abs=1e-9)


def test_moran_single_cylinder_is_zero():
    s = moran_dimension(HALVES, 4, word_filter=lambda w: w == (0, 0, 0, 0))
    assert s == 0.0


def test_moran_empty_filter():
    with pytest.raises(NoCylindersError):
        moran_dimension(HALVES, 3, word_filter=lambda w: False)


def test_moran_root_rejects_uncontracted():
    with pytest.raises(NotContractingError):
        Rows(-np.log([0.5, 1.0]), None, np.ones(2)).moran_root(1e-10)


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
    s, evals = Rows(ell, None, count).moran_root(1e-10)
    ref = _mp_moran_root(ell, count)
    assert abs(s - ref) <= 1e-14 * ref
    assert evals <= 10


# ---------------------------------------------------------------------------
# cover upper route
# ---------------------------------------------------------------------------

def test_upper_vacuous_window_gives_tiling_dimension():
    opts = SolverOptions(n=6, rho=0.6)
    res = upper_bound(HALVES, indicator_branch(0), 0.5, opts)
    assert res.cover_size == 64
    assert res.s_n == pytest.approx(1.0, abs=1e-9)


def test_upper_single_word_window():
    n = 8
    opts = SolverOptions(n=n, rho=1.0 / (2 * n))
    res = upper_bound(HALVES, COIN, 1.0, opts)
    assert res.cover_size == 1
    assert res.s_n == 0.0


def test_upper_single_row_cover_counts_its_words():
    # the window keeps only the words with 4 zeros out of 8: C(8, 4) = 70
    # cylinders of width 2^-8 in a single (width, phi) row, whose Moran root
    # is log 70 / (8 log 2), not the 0 of a single cylinder
    n = 8
    ctx = DepthContext(HALVES, COIN, SolverOptions(n=n, rho=1.0 / (4 * n)))
    res = upper_bound(HALVES, COIN, 0.5, context=ctx)
    kept = np.abs(ctx.rows.phi / n - 0.5) < res.half_width
    assert kept.sum() == 1
    assert res.cover_size == ctx.rows.count[kept][0] == 70
    expected = math.log(70) / (n * math.log(2))
    assert res.s_n == pytest.approx(expected, abs=1e-13)
    assert ctx.rows.where(kept).moran_root(1e-10)[0] \
        == pytest.approx(expected, abs=1e-13)


def test_upper_binomial_window_value():
    # cover keeps |k/n - alpha| < 2 rho (+ zero slack for first-symbol),
    # so the root satisfies 2^(n s) = sum of kept binomials
    n, alpha, rho = 14, 0.3, 0.05
    res = upper_bound(HALVES, COIN, alpha, SolverOptions(n=n, rho=rho))
    kept = [k for k in range(n + 1) if abs(k / n - alpha) < 2 * rho]
    expected = math.log(sum(math.comb(n, k) for k in kept)) / (n * math.log(2))
    assert res.cover_size == sum(math.comb(n, k) for k in kept)
    assert res.s_n == pytest.approx(expected, abs=1e-13)


def test_upper_unreachable_alpha():
    with pytest.raises(AlphaUnreachableError) as err:
        upper_bound(HALVES, COIN, 0.3, SolverOptions(n=4, rho=0.001))
    assert err.value.achievable == (0.0, 1.0)
    assert err.value.nearest == 0.25
    # under a Lyapunov floor the nearest average and the range are those of
    # the words the floor keeps: the all-0 word (lambda_8 ~ 0.35) is dropped
    ctx = DepthContext(MP, coordinate(), SolverOptions(n=8, delta=0.5))
    phi = _word_phi(ctx)
    avg = phi[CylinderTable(ctx.system, ctx.n).lambda_array >= 0.5] / 8
    with pytest.raises(AlphaUnreachableError) as err:
        upper_bound(MP, coordinate(), -1.0, context=ctx)
    assert err.value.nearest == np.min(avg) > np.min(phi / 8)
    assert err.value.achievable == (np.min(avg), np.max(avg))


def test_upper_tiling_cover_is_exactly_one():
    # the window keeps all 3^5 words, whose widths (powers of 2) tile [0, 1]:
    # the root is 1, and every printed digit of it must be right
    opts = SolverOptions(n=5, rho=0.6)
    res = upper_bound(linear_system([0.5, 0.25, 0.25]),
                      first_symbol([1.0, 0.0, 0.0]), 0.5, opts)
    assert res.cover_size == 3**5
    assert abs(res.s_n - 1.0) <= 4 * math.ulp(1.0)


def test_upper_parabolic_default_floor_matches_sweep():
    # a direct call and the sweep read the same cover floor from the context
    opts = SolverOptions(n=8)
    res = upper_bound(MP, coordinate(), 0.3, opts)
    point, = full_spectrum(MP, coordinate(), [0.3], opts)
    assert res.delta == point.delta == 1e-3 * math.log(2)
    assert res.s_n == point.upper


def test_upper_rho_must_exceed_slack():
    opts = SolverOptions(n=4, rho=1e-6)
    with pytest.raises(ValueError):
        upper_bound(MP, coordinate(), 0.5, opts)


# ---------------------------------------------------------------------------
# variational lower route
# ---------------------------------------------------------------------------

def test_lower_symmetric_alpha():
    res = lower_bound(HALVES, COIN, 0.5, SolverOptions(n=6))
    assert res.dim == pytest.approx(1.0, abs=1e-6)
    assert res.alpha_achieved == pytest.approx(0.5, abs=1e-9)
    assert res.lyapunov == pytest.approx(math.log(2), abs=1e-9)


def test_lower_boundary_dirac():
    res = lower_bound(HALVES, COIN, 1.0, SolverOptions(n=6))
    assert res.boundary
    assert res.dim == 0.0
    assert res.entropy_rate == 0.0
    support = res.measure.support()
    assert support == [(0,) * 6]


def test_lower_matches_closed_form():
    opts = SolverOptions(n=14)
    for alpha in (0.2, 0.3, 0.5, 0.7):
        res = lower_bound(HALVES, COIN, alpha, opts)
        assert res.dim == pytest.approx(besicovitch_spectrum(COIN_SPEC, alpha),
                                        abs=2e-8)


def test_lower_feasibility_and_gibbs_form():
    opts = SolverOptions(n=8)
    res = lower_bound(HALVES, COIN, 0.35, opts)
    nu = res.measure
    n = nu.n
    # constraint satisfied by the returned measure
    mean = sum(p * sum(1.0 for s in w if s == 0)
               for w, p in nu.weights.items())
    assert mean == pytest.approx(n * 0.35, abs=1e-6)
    # log nu(w) = t log D(w) + q phi(w) - log Z on the support
    table = CylinderTable(HALVES, n)
    logd = np.log(table.diameters())
    phi = np.array([sum(1.0 for s in w if s == 0) for w in table.words()])
    exponents = res.t * logd + res.q * phi
    logz = np.log(np.sum(np.exp(exponents - exponents.max()))) \
        + exponents.max()
    weights = np.array([nu.weights[w] for w in table.words()])
    residual = np.max(np.abs(np.log(weights) - (exponents - logz)))
    assert residual <= 1e-8


def test_lower_certifies_its_own_ratio():
    res = lower_bound(MP, coordinate(), 0.45, SolverOptions(n=8))
    nu = res.measure
    table = CylinderTable(MP, 8)
    ell = -np.log(table.diameters())
    weights = np.array([nu.weights[w] for w in table.words()])
    entropy = -np.sum(weights[weights > 0] * np.log(weights[weights > 0]))
    assert entropy / np.dot(weights, ell) == pytest.approx(res.dim, abs=1e-9)


def test_lower_infeasible_alpha():
    with pytest.raises(InfeasibleAlphaError) as err:
        lower_bound(HALVES, COIN, 1.5, SolverOptions(n=4))
    assert err.value.achievable == (0.0, 1.0)


def test_lower_logs_steps_rows_and_clamped_multiplier(caplog):
    # one large potential value caps |q| at 700/4000, too weak to pull the
    # mean potential sum down to 4e-6: the multiplier clamps and the
    # residual check rejects the point
    system = linear_system([1 / 3] * 3)
    potential = first_symbol([1000.0, 1e-3, 0.0])
    caplog.set_level(logging.DEBUG, logger="mfspec")
    with pytest.raises(SolverError):
        lower_bound(system, potential, 1e-6, SolverOptions(n=4))
    messages = [r.getMessage() for r in caplog.records]
    assert any(m.startswith("depth 4: 81 words in ") for m in messages)
    assert any(m.startswith("Dinkelbach step 1: t=0 ") for m in messages)
    assert any(m.startswith("multiplier clamped at q=-0.17") for m in messages)


def _eager_solve_q(ell, phi, count, t, target, tol, max_iter=80):
    """``_solve_q`` with both cap ends evaluated before the first step.

    Also returns how many cap ends a fallback step headed for while that end
    still bounded the bracket: the ends a lazy solver has to evaluate.
    """
    cap = 700.0 / max(float(np.max(np.abs(phi))), 1e-12)
    buffers = np.empty((2, ell.size))
    evals = 0
    headed = set()

    def stats(q):
        nonlocal evals
        evals += 1
        return Rows(ell, phi, count).gibbs(t, q, *buffers)

    lo, hi = -cap, cap
    gibbs = stats(lo)
    if target <= gibbs.e_phi:
        return lo, gibbs, evals, 0
    gibbs = stats(hi)
    if target >= gibbs.e_phi:
        return hi, gibbs, evals, 0
    q = 0.0
    for _ in range(max_iter):
        gibbs = stats(q)
        residual = gibbs.e_phi - target
        if abs(residual) <= tol:
            return q, gibbs, evals, len(headed & {-cap, cap})
        if residual > 0:
            hi = q
        else:
            lo = q
        variance = gibbs.variance
        step = q - residual / variance if variance > 1e-300 else None
        if step is None or not lo < step < hi:
            headed.add(lo if residual > 0 else hi)
            step = 0.5 * (lo + hi)
        q = step
    gibbs = stats(q)
    return q, gibbs, evals, len(headed & {-cap, cap})


@st.composite
def _gibbs_rows(draw):
    k = draw(st.integers(2, 50))
    scale = draw(st.sampled_from([1.0, 10.0, 1000.0]))
    ell = draw(st.lists(st.floats(0.05, 30.0), min_size=k, max_size=k))
    phi = draw(st.lists(st.floats(-1.0, 1.0), min_size=k, max_size=k))
    count = draw(st.lists(st.integers(1, 1000), min_size=k, max_size=k))
    assume(max(phi) - min(phi) >= 1e-3)
    return (np.array(ell), scale * np.array(phi), np.array(count, float),
            draw(st.floats(0.0, 2.0)))


@settings(max_examples=150, deadline=None)
@given(_gibbs_rows(), st.booleans(), st.floats(0.0, 1.0))
# three Newton steps in a row overshoot the upper cap: its end is evaluated
# once, not once per overshoot
@example((np.array([23.291920924517697, 8.636830719864905]),
          np.array([-362.27144460977723, -375.8796156139963]),
          np.array([482.0, 394.0]), 1.466143514010959), False, 0.87)
def test_lazy_cap_probes_match_eager_probes(rows, clamp, u):
    # interior targets: the same iterates, so q and every stat bit for bit,
    # minus the two up-front probes plus the ends actually needed; targets
    # beyond the Gibbs mean at a cap: the same clamp
    ell, phi, count, t = rows
    tol = 1e-9 * float(np.max(np.abs(phi)))
    cap = 700.0 / float(np.max(np.abs(phi)))
    buffers = np.empty((2, ell.size))
    low = Rows(ell, phi, count).gibbs(t, -cap, *buffers).e_phi
    high = Rows(ell, phi, count).gibbs(t, cap, *buffers).e_phi
    if clamp:
        # the cap 700 / max|phi| leaves room beyond its Gibbs mean only for
        # large |phi|; elsewhere the gap is below 10 tol and assume() drops it
        side = u < 0.5
        edge, extreme = (low, np.min(phi)) if side else (high, np.max(phi))
        target = edge + (0.1 + 0.8 * (2 * u % 1)) * (extreme - edge)
        assume(abs(target - edge) > 10 * tol)
    else:
        target = low + (0.01 + 0.98 * u) * (high - low)
        assume(min(target - low, high - target) > 10 * tol)
    q, gibbs, evals, ends = _eager_solve_q(ell, phi, count, t, target, tol)
    got_q, got_gibbs, got_evals = Rows(ell, phi, count).solve_q(
        t, target, tol)
    assert got_q == q and got_gibbs == gibbs
    if clamp:
        assert q == (-cap if side else cap)
    else:
        assert abs(q) < cap
        assert got_evals == evals - 2 + ends


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
    # Dinkelbach iteration reaches it in a handful of steps
    system, potential, alpha = case
    base = lower_bound(system, potential, alpha, SolverOptions(n=2))
    for n in range(2, 8):
        res = lower_bound(system, potential, alpha, SolverOptions(n=n))
        assert res.dim == pytest.approx(base.dim, abs=1e-9)
        assert res.iterations <= 8


def test_lower_delta_floor_masks_the_measure():
    # the smallest MP rate at n=8 is ~0.35, so a floor of 0.5 drops a few
    # near-neutral words (0.05 would drop none)
    opts = SolverOptions(n=8, delta=0.5)
    res = lower_bound(MP, coordinate(), 0.4, opts)
    ctx = DepthContext(MP, coordinate(), opts)
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
    res = lower_bound(MP, coordinate(), 0.4, SolverOptions(n=6))
    from mfspec.geometry import lemma1_gap
    assert res.lemma1_gap == pytest.approx(lemma1_gap(MP, 6), abs=1e-14)


def test_lower_beats_brute_force():
    from mfspec.oracle import brute_force_ratio
    opts = SolverOptions(n=2)
    for alpha in (0.3, 0.5, 0.75):
        res = lower_bound(HALVES, COIN, alpha, opts)
        ref = brute_force_ratio(HALVES, COIN, alpha, n=2, grid_step=0.01)
        assert res.dim >= ref - 0.01


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


def _ref_lower(ctx, alpha):
    """lower_bound over every word: (dim, iterations, boundary, p)."""
    opts, n = ctx.opts, ctx.n
    table = CylinderTable(ctx.system, ctx.n)
    phi, ell = _word_phi(ctx), -table.log_diameters
    mask = table.lambda_array >= opts.delta if opts.delta else None
    if mask is not None:
        if not mask.any():
            raise NoCylindersError("floor excludes every word")
        phi, ell = phi[mask], ell[mask]
    lo_avg, hi_avg = float(np.min(phi)) / n, float(np.max(phi)) / n
    tol = opts.boundary_tol
    if alpha < lo_avg - tol or alpha > hi_avg + tol:
        raise InfeasibleAlphaError(alpha, (lo_avg, hi_avg))
    at_hi = alpha >= hi_avg - opts.boundary_tol
    boundary = at_hi or alpha <= lo_avg + opts.boundary_tol
    if boundary:
        e_phi = float(np.max(phi) if at_hi else np.min(phi))
        sel = np.abs(phi - e_phi) <= 1e-9
        p = np.where(sel, 1.0 / sel.sum(), 0.0)
        entropy, e_ell, iterations = math.log(sel.sum()), ell[sel].mean(), 0
    else:
        q_tol = n * opts.alpha_tol * max(1.0, abs(alpha))
        t = 0.0
        for iterations in range(1, opts.max_iter + 1):
            _, (p, entropy, e_ell, e_phi, _) = _ref_solve_q(
                ell, phi, t, n * alpha, q_tol)
            if entropy / e_ell - t <= opts.t_tol:
                break
            t = entropy / e_ell
        if abs(e_phi - n * alpha) > 10.0 * q_tol:
            raise SolverError("residual after capping")
    if mask is not None:
        full = np.zeros(mask.size)
        full[mask] = p
        p = full
    return entropy / e_ell, iterations, boundary, p


def _ref_upper(ctx, alpha):
    """upper_bound over every word: (s_n, cover_size)."""
    half = 2.0 * ctx.rho + ctx.slack
    keep = np.abs(_word_phi(ctx) / ctx.n - alpha) < half
    table = CylinderTable(ctx.system, ctx.n)
    if ctx.cover_delta > 0.0:
        keep &= table.lambda_array >= ctx.cover_delta
    if not keep.any():
        raise AlphaUnreachableError(alpha, half, 0.0, (0.0, 0.0))
    logd = np.log(table.diameters()[keep])
    if keep.sum() == 1:
        return 0.0, 1

    def total(s):
        return float(np.exp(s * logd).sum())

    lo, hi = 0.0, 1.0
    while total(hi) > 1.0:
        hi *= 2.0
    while hi - lo > ctx.opts.moran_tol:
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


# the Moran bisection runs to 1e-13 here: at the default 1e-10 two sums that
# differ in the last bit can settle a dyadic root (1.0 for a tiling cover) on
# opposite sides, and the two answers differ by the resolution, not the rows
@settings(max_examples=120, deadline=None)
@given(_row_case(), st.data())
def test_rows_match_per_word_reference(case, data):
    system, potential, n = case
    # each floor above the smallest rate masks some words
    floors = np.unique(CylinderTable(system, n).lambda_array)[1:].tolist()
    delta = data.draw(st.none() | st.sampled_from(floors)) if floors else None
    opts = SolverOptions(n=n, delta=delta, moran_tol=1e-13)
    ctx = DepthContext(system, potential, opts)
    table = CylinderTable(ctx.system, ctx.n)
    phi, lam = _word_phi(ctx), table.lambda_array
    assert np.array_equal(np.unique(ctx.rows.ell / n), np.unique(lam))
    # every word's row carries the word's own width and sum, bit for bit
    assert np.array_equal(ctx.rows.ell[ctx.word_row],
                          -table.log_diameters)
    assert np.array_equal(ctx.rows.phi[ctx.word_row], phi)
    assert np.array_equal(np.bincount(ctx.word_row), ctx.rows.count)
    if delta is not None:
        assert ctx.rows.count[ctx.floor(delta)].sum() == \
            (lam >= delta).sum()
    kept = phi if delta is None else phi[lam >= delta]
    lo, hi = float(np.min(kept)) / n, float(np.max(kept)) / n
    u = data.draw(st.floats(0.02, 0.98)
                  | st.sampled_from([-0.05, 0.0, 1.0, 1.05]))
    alpha = lo + u * (hi - lo)

    ref = _outcome(_ref_lower, ctx, alpha)
    got = _outcome(lower_bound, system, potential, alpha, None, ctx)
    if isinstance(ref, type):
        assert got is ref
    else:
        assert not isinstance(got, type), got
        dim, iterations, boundary, p = ref
        assert got.dim == pytest.approx(dim, abs=1e-12)
        assert (got.iterations, got.boundary) == (iterations, boundary)
        assert np.array_equal(got.measure.p == 0.0, p == 0.0)
        assert np.max(np.abs(got.measure.p - p)) <= 1e-12

    ref = _outcome(_ref_upper, ctx, alpha)
    got = _outcome(upper_bound, system, potential, alpha, None, ctx)
    if isinstance(ref, type):
        assert got is ref
    else:
        assert not isinstance(got, type), got
        assert got.s_n == pytest.approx(ref[0], abs=1e-12)
        assert got.cover_size == ref[1]


@settings(max_examples=100, deadline=None)
@given(_row_case(), st.data())
def test_lower_measure_is_the_per_word_gibbs_formula(case, data):
    # the measure gathered through word_row equals the Gibbs weights formed
    # word by word, exp(q*phi - t*ell - shift) / z, bit for bit
    system, potential, n = case
    floors = np.unique(CylinderTable(system, n).lambda_array)[1:].tolist()
    delta = data.draw(st.none() | st.sampled_from(floors)) if floors else None
    ctx = DepthContext(system, potential, SolverOptions(n=n, delta=delta))
    table = CylinderTable(ctx.system, ctx.n)
    phi, logd = _word_phi(ctx), table.log_diameters
    lam = table.lambda_array
    keep = lam >= delta if delta else np.ones(phi.size, dtype=bool)
    lo, hi = float(np.min(phi[keep])) / n, float(np.max(phi[keep])) / n
    u = data.draw(st.floats(0.02, 0.98) | st.sampled_from([0.0, 1.0]))
    alpha = lo + u * (hi - lo)
    res = _outcome(lower_bound, system, potential, alpha, None, ctx)
    assume(not isinstance(res, type))

    if res.boundary:
        at_hi = alpha >= hi - ctx.opts.boundary_tol
        e_phi = float(np.max(phi[keep]) if at_hi else np.min(phi[keep]))
        tie = keep & (np.abs(phi - e_phi) <= 1e-9)
        p = np.where(tie, 1.0 / float(tie.sum()), 0.0)
    else:
        mask = ctx.floor(delta)
        rows = ctx.rows if mask is None else ctx.rows.where(mask)
        shift, z = rows.log_z(res.t, res.q, *np.empty((2, rows.ell.size)))
        logw = res.q * phi
        logw += res.t * logd
        logw -= shift
        logw[~keep] = -np.inf
        p = np.exp(logw) / z
    assert np.array_equal(res.measure.p, p)


# ---------------------------------------------------------------------------
# the one-level pass against a stored table
# ---------------------------------------------------------------------------

def _ref_context(system, potential, n):
    """(rows, word_row, lemma1_gap, slack) formed from a stored table.

    The Birkhoff sums tile the suffix sums, the geometric potential is
    evaluated level by level at the stored midpoints, and words are grouped
    on (width, phi) with a dict, the lowest slot keeping its pair.
    """
    table = CylinderTable(system, n)
    m = system.m

    def birkhoff(levels):
        s = levels[0]
        for v in levels[1:]:
            s = v + np.tile(s, m)
        return s

    g = [np.array([-math.log(float(b.derivative(0.5)))
                   for b in system.branches])]
    g += [np.concatenate([-np.log(np.asarray(b.derivative(table.mid(k)),
                                             dtype=float))
                          for b in system.branches]) for k in range(1, n)]
    gap = float(np.max(np.abs(table.lambda_array - birkhoff(g) / n)))
    slack = 0.0 if potential.word_local else (
        0.5 * potential.lipschitz
        * math.fsum(float(np.max(table.diameters(k)))
                    for k in range(1, n + 1)) / n)
    width = table.diameters()
    phi = birkhoff(potential_arrays(table, potential))
    first = {}
    for key in zip(width.tolist(), phi.tolist()):
        first.setdefault(key, key)
    keys = sorted(first.values())
    row_of = {key: i for i, key in enumerate(keys)}
    word_row = np.array([row_of[first[key]] for key in
                         zip(width.tolist(), phi.tolist())], dtype=np.int32)
    rows = Rows(-np.log(np.array([k[0] for k in keys])),
                np.array([k[1] for k in keys]),
                np.bincount(word_row).astype(float))
    return rows, word_row, gap, slack


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


@settings(max_examples=100, deadline=None)
@given(_pass_case())
def test_one_level_pass_matches_stored_table(case):
    system, potential, n = case
    ctx = DepthContext(system, potential, SolverOptions(n=n))
    rows, word_row, gap, slack = _ref_context(system, potential, n)
    for got, ref in zip(ctx.rows, rows):
        assert np.array_equal(got, ref)
    assert np.array_equal(ctx.word_row, word_row)
    assert ctx.word_row.dtype == np.int32
    assert ctx.lemma1_gap == gap
    assert ctx.slack == slack


def _traced_peak(fn) -> int:
    """Peak bytes numpy and Python allocate while ``fn`` runs."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        if not tracing:
            tracemalloc.stop()


def test_depth_context_keeps_one_level():
    # a table of every level took 8.5 word arrays here, 10 with the gap
    n = 16
    DepthContext(HALVES, COIN, SolverOptions(n=4))
    peak = _traced_peak(lambda: DepthContext(HALVES, COIN,
                                             SolverOptions(n=n)))
    assert peak <= 6.5 * 8 * 2**n


def test_word_cap_is_checked_before_allocating():
    # one level at n=18 would take 2 MB
    opts = SolverOptions(n=18, word_cap=2**17)

    def build():
        with pytest.raises(EnumerationLimitError):
            DepthContext(HALVES, COIN, opts)

    assert _traced_peak(build) < 1_000_000


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


def _clustered_runs(depth):
    """Symbol runs whose lengths cluster at depth - 1, depth and depth + 1."""
    length = st.one_of(st.sampled_from([depth - 1, depth, depth + 1]),
                       st.integers(1, 2 * depth + 2)).filter(lambda n: n > 0)
    return st.lists(length, min_size=1, max_size=12)


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
    lo, width = fold(system, sliding_window_view(seq, depth))
    assert np.array_equal(_window_midpoints(system, seq, depth),
                          lo + 0.5 * width)


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
