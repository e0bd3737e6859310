"""Cylinder geometry, branch validation and contraction-gap checks."""

import dataclasses
import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from mfspec import geometry
from mfspec.errors import (DegenerateCylinderError, EnumerationLimitError,
                           InsufficientDepthError)
from mfspec.geometry import (Branch, CylinderTable, IfsSystem,
                             cylinder_interval, example2_system, fold,
                             g_eval, geometric_potential, lambda_n,
                             lemma1_gap, linear_system,
                             manneville_pomeau_system, project, top_level)
from mfspec.potentials import coordinate, first_symbol, polynomial

HALVES = linear_system([0.5, 0.5])
MIXED = linear_system([0.5, 1 / 3])
EX2 = example2_system()
MP = manneville_pomeau_system(0.5)


# ---------------------------------------------------------------------------
# cylinders
# ---------------------------------------------------------------------------

def test_binary_subdivision():
    iv = cylinder_interval(HALVES, (1, 0))
    assert (iv.lo, iv.hi) == (0.5, 0.75)


def test_example2_left_branch_image():
    iv = cylinder_interval(EX2, (0,))
    assert iv.lo == 0.0
    assert iv.hi == pytest.approx(0.5, abs=1e-15)


def test_example2_constant_word_formula():
    # the left branch iterates [0,1] onto [0, 1/(n+1)]
    for n in (1, 3, 5, 9):
        iv = cylinder_interval(EX2, (0,) * n)
        assert iv.lo == 0.0
        assert iv.hi == pytest.approx(1 / (n + 1), abs=1e-12)
        assert lambda_n(EX2, (0,) * n) == pytest.approx(math.log(n + 1) / n,
                                                        abs=1e-12)


def test_nesting_and_shrinkage():
    rng = np.random.default_rng(11)
    for system in (HALVES, MIXED, EX2, MP):
        for _ in range(15):
            w = tuple(rng.integers(0, system.m, size=6))
            parent = cylinder_interval(system, w)
            for a in range(system.m):
                child = cylinder_interval(system, w + (a,))
                assert parent.lo - 1e-12 <= child.lo
                assert child.hi <= parent.hi + 1e-12
                assert child.diameter <= parent.diameter + 1e-15


def test_depth1_open_disjointness():
    for system in (HALVES, MIXED, EX2, MP):
        images = sorted((cylinder_interval(system, (a,)) for a in
                         range(system.m)), key=lambda iv: iv.lo)
        for left, right in zip(images, images[1:]):
            assert right.lo >= left.hi - 1e-12


def test_linear_diameters_exact():
    table = CylinderTable(MIXED, 6)
    ratios = np.array([0.5, 1 / 3])
    for idx, w in enumerate(table.words()):
        expected = np.prod(ratios[list(w)])
        assert table.diameters()[idx] == pytest.approx(expected, rel=1e-13)


def test_lambda_examples():
    assert lambda_n(MIXED, (0, 1)) == pytest.approx(
        (math.log(2) + math.log(3)) / 2, abs=1e-12)
    for w in ((0, 0, 0), (1, 0, 1), (1, 1, 1, 1)):
        assert lambda_n(HALVES, w) == pytest.approx(math.log(2), abs=1e-12)


def test_lambda_degenerate_cylinder():
    tiny = linear_system([0.01, 0.01])
    with pytest.raises(DegenerateCylinderError):
        lambda_n(tiny, (0,) * 200)


def test_projection():
    point, err = project(HALVES, (1,) * 12)
    assert err == pytest.approx(2.0**-13)
    assert abs(point - 1.0) <= 2.0**-12
    point, err = project(EX2, (0,) * 9)
    assert err == pytest.approx(1 / 20, abs=1e-12)
    assert abs(point) <= 1 / 10
    point, _ = project(MIXED, (1,))
    assert point == pytest.approx(0.5 + 1 / 6, abs=1e-12)


# ---------------------------------------------------------------------------
# geometric potential
# ---------------------------------------------------------------------------

def test_g_constant_for_linear_branches():
    for suffix in ((1,), (0, 1), (1, 1, 0)):
        assert g_eval(MIXED, (0,) + suffix) == pytest.approx(math.log(2),
                                                             abs=1e-14)
        assert g_eval(MIXED, (1,) + suffix) == pytest.approx(math.log(3),
                                                             abs=1e-14)


def test_g_needs_a_suffix():
    with pytest.raises(InsufficientDepthError):
        g_eval(MP, (0,))


def test_g_vanishes_at_parabolic_points():
    # left MP branch along all-0 suffixes: derivative -> 1 at the fixed point
    vals = [g_eval(MP, (0,) * n) for n in (3, 6, 12, 24, 48)]
    assert all(b < a for a, b in zip(vals, vals[1:]))
    assert vals[-1] < 0.05
    # example2 right branch with suffix cylinders shrinking to {1}
    vals = [g_eval(EX2, (1,) * n) for n in (3, 6, 12, 24, 48)]
    assert all(b < a for a, b in zip(vals, vals[1:]))
    assert vals[-1] < 0.05


def test_mean_value_identity_on_sampled_words():
    # -log(D_n / D_{n-1}(suffix)) is a branch log-derivative somewhere on the
    # suffix cylinder, so it lies between the endpoint values (the shipped
    # branch derivatives are monotone)
    rng = np.random.default_rng(5)
    for system in (EX2, MP):
        for _ in range(25):
            w = tuple(rng.integers(0, system.m, size=7))
            suffix = cylinder_interval(system, w[1:])
            ratio = (cylinder_interval(system, w).diameter / suffix.diameter)
            lo = -math.log(float(system.branches[w[0]].derivative(suffix.lo)))
            hi = -math.log(float(system.branches[w[0]].derivative(suffix.hi)))
            lo, hi = min(lo, hi), max(lo, hi)
            assert lo - 1e-10 <= -math.log(ratio) <= hi + 1e-10


# ---------------------------------------------------------------------------
# system validation
# ---------------------------------------------------------------------------

def test_mp_inverse_branches_are_sections():
    # composing the forward map with each inverse branch is the identity
    beta = 0.5
    grid = np.linspace(0.0, 1.0, 1000)
    forward = lambda x: x + x ** (1 + beta)
    left, right = MP.branches
    assert np.max(np.abs(forward(left.map(grid)) - grid)) < 1e-10
    assert np.max(np.abs(forward(right.map(grid)) - (grid + 1.0))) < 1e-10


def _mp_inverse_reference(target, beta):
    """Root of x + x^(1+beta) = target, Newton from the right in 60 digits."""
    with mpmath.workdps(60):
        t, b = mpmath.mpf(target), mpmath.mpf(beta)
        x = min(t, mpmath.mpf(1))
        for _ in range(200):
            step = (x + x ** (1 + b) - t) / (1 + (1 + b) * x ** b)
            if abs(step) <= x * mpmath.mpf(10) ** -50:
                break
            x -= step
        return x


@pytest.mark.parametrize("beta", [0.1, 0.25])
def test_mp_small_beta_inverse_matches_mpmath(beta):
    system = manneville_pomeau_system(beta)
    left, right = system.branches
    assert left.map(0.0) == 0.0
    grid = np.concatenate([[1e-300, 1e-30, 1e-10, 1e-3],
                           np.linspace(0.0, 1.0, 21)])
    for branch, offset in ((left, 0), (right, 1)):
        for y, x in zip(grid, branch.map(grid)):
            ref = _mp_inverse_reference(mpmath.mpf(float(y)) + offset, beta)
            if ref == 0:
                assert x == 0.0
            else:
                assert abs(x - ref) <= 4 * np.spacing(float(ref)), (beta, y)


_EXACT_BETAS = (0.25, 0.5, 1.0, 2.0)  # 1 + beta is exact in binary


def _inverse_grid(seed=7):
    """y sampled uniformly on [0, 1], log-uniformly down to 1e-300 and
    at 1 - 2^-k up to one ulp below 1, with 0 and 1 themselves."""
    rng = np.random.default_rng(seed)
    return np.concatenate([[0.0, 1e-300, 1.0], rng.random(24),
                           10.0 ** rng.uniform(-300, 0, 24),
                           1.0 - 2.0 ** -np.arange(1, 54, 4)])


@pytest.mark.parametrize("beta", _EXACT_BETAS)
def test_mp_inverse_is_within_two_ulp_of_mpmath(beta):
    # the branch solves x + x^(1+beta) = fl(y + offset); against its
    # 60-digit root, 3,000 sampled y per branch stayed under 1 ulp at each
    # of these beta, from the cubic start with one Newton step as from
    # min(target, hi) with the monotone loop
    system = manneville_pomeau_system(beta)
    left, right = system.branches
    assert left.map(0.0) == 0.0
    assert right.map(0.0) == system.params["cut"]
    for branch, offset in ((left, 0.0), (right, 1.0)):
        grid = _inverse_grid()
        for y, x in zip(grid, branch.map(grid)):
            ref = _mp_inverse_reference(float(y + offset), beta)
            if ref == 0:
                assert x == 0.0
            else:
                assert abs(x - ref) <= 2 * np.spacing(float(ref)), (beta, y)


def _newton_from_the_right(y, beta, lo, hi, offset):
    """The inverse started at min(target, hi), two powers per step: the
    monotone loop as it ran before the branches tabulated a start."""
    target = np.atleast_1d(np.asarray(y, dtype=float)) + offset
    x = np.minimum(target, hi)
    for _ in range(100):
        residual = x - target + x ** (1.0 + beta)
        step = np.maximum(
            x - residual / (1.0 + (1.0 + beta) * x ** beta), lo)
        if not np.any(step < x):
            return x
        x = np.minimum(step, x)
    raise AssertionError("Newton from the right did not settle")


_INVERSE_SYSTEMS = {beta: manneville_pomeau_system(beta)
                    for beta in _EXACT_BETAS}


@pytest.mark.fixed_seed
@settings(max_examples=100, deadline=None)
@given(st.sampled_from(_EXACT_BETAS), st.sampled_from([0, 1]),
       st.lists(st.floats(0.0, 1.0) | st.floats(0.0, 1e-6)
                | st.floats(1.0 - 1e-6, 1.0), min_size=1, max_size=50))
def test_mp_inverse_within_an_ulp_of_newton_from_the_right(beta, side, ys):
    # the cubic start and its one certified Newton step move some points
    # by one ulp and none by more (at beta with an inexact 1 + beta, as
    # 0.1, x^(1+beta) carries that rounding, and the two differ by more)
    system = _INVERSE_SYSTEMS[beta]
    cut = system.params["cut"]
    lo, hi = (0.0, cut) if side == 0 else (cut, 1.0)
    ys = np.array(ys)
    ref = _newton_from_the_right(ys, beta, lo, hi, float(side))
    got = system.branches[side].map(ys)
    assert np.all(np.abs(got - ref) <= np.spacing(ref))


@pytest.mark.fixed_seed
@settings(max_examples=100, deadline=None)
@given(st.sampled_from(_EXACT_BETAS), st.sampled_from([0, 1]),
       st.lists(st.floats(0.0, 1.0) | st.floats(0.0, 1e-6)
                | st.floats(1.0 - 1e-6, 1.0), min_size=1, max_size=50))
def test_mp_inverse_fallback_within_an_ulp_of_newton_from_the_right(
        beta, side, ys):
    # at these beta no sampled point fails the one-step certificate; with
    # a zero threshold every point that a step still moves continues the
    # monotone loop from its Newton point, which ends where the old one did
    system = _INVERSE_SYSTEMS[beta]
    cut = system.params["cut"]
    lo, hi = (0.0, cut) if side == 0 else (cut, 1.0)
    ys = np.append(ys, 0.0)
    ref = _newton_from_the_right(ys, beta, lo, hi, float(side))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(geometry, "_NEWTON_CERTIFIED", 0.0)
        got = system.branches[side].map(ys)
    assert np.all(np.abs(got - ref) <= np.spacing(ref))
    assert got[-1] == (0.0 if side == 0 else cut)


@pytest.mark.parametrize("beta", [1e-4, 0.01, 10.0, 1000.0])
def test_mp_inverse_at_extreme_beta_is_within_four_ulp_of_mpmath(beta):
    # y^beta underflows for most y at beta = 1000 and sits near 1 for all
    # of them at beta = 1e-4; the tables are built without a warning and
    # the start, step and fallback stay within 4 ulp of a 60-digit root
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        system = manneville_pomeau_system(beta)
    left, right = system.branches
    assert left.map(0.0) == 0.0
    assert right.map(0.0) == system.params["cut"]
    for branch, offset in ((left, 0.0), (right, 1.0)):
        grid = _inverse_grid()
        for y, x in zip(grid, branch.map(grid)):
            ref = _mp_inverse_reference(float(y + offset), beta)
            if ref == 0:
                assert x == 0.0
            else:
                assert abs(x - ref) <= 4 * np.spacing(float(ref)), (beta, y)


def test_mp_inverse_takes_one_newton_step_per_call(monkeypatch):
    # on the n=16 pass (54 map calls of at most 4097 points; the gap's
    # terms invert nothing) every point's cubic start is certified by one
    # Newton step: the parabolic branch takes two powers a call (s = y^beta
    # for its start and x^beta for the step) and the other branch one, so
    # no point falls back to the monotone loop
    powers = [0]

    class CountingNumpy:
        def __getattr__(self, name):
            return getattr(np, name)

        def power(self, *args, **kwargs):
            powers[0] += 1
            return np.power(*args, **kwargs)

    calls = []

    def per_call(fn, side):
        def counted(y):
            before = powers[0]
            out = fn(y)
            calls.append((side, powers[0] - before))
            return out
        return counted

    counted = IfsSystem(branches=tuple(dataclasses.replace(
        b, map=per_call(b.map, side), derivative=per_call(b.derivative, side))
        for side, b in enumerate(MP.branches)), name=MP.name)
    calls.clear()
    monkeypatch.setattr(geometry, "np", CountingNumpy())
    top_level(counted, 16, coordinate(), gap=True)
    assert sorted(set(calls)) == [(0, 2), (1, 1)]
    assert [side for side, _ in calls].count(0) == 27
    assert len(calls) == 54


def test_mp_parabolic_flags():
    assert MP.parabolic_symbols == (0,)
    assert EX2.parabolic_symbols == (0, 1)
    assert HALVES.parabolic_symbols == ()


def test_overlapping_images_rejected():
    with pytest.raises(ValueError):
        linear_system([0.6, 0.6])
    with pytest.raises(ValueError):
        linear_system([0.5, 0.4], offsets=[0.0, 0.3])


def test_hyperbolic_branch_with_unit_derivative_rejected():
    with pytest.raises(ValueError):
        Branch(map=lambda x: np.asarray(x, dtype=float),
               derivative=lambda x: np.ones_like(np.asarray(x, dtype=float)))


def test_parabolic_flag_must_match_derivative():
    with pytest.raises(ValueError):
        Branch(map=lambda x: 0.5 * np.asarray(x, dtype=float),
               derivative=lambda x: np.full_like(
                   np.asarray(x, dtype=float), 0.5),
               parabolic=True, fixed_point=0.0)


def test_derivative_at_image_must_match_derivative():
    # the Manneville-Pomeau branches declare 1/f'(x) at x = map(y), which
    # is checked against the sampled derivative: a constant 0.5 in its
    # place moved lemma1_gap at n=8 from 0.35105 to 0.34210
    for branch in MP.branches:
        with pytest.raises(ValueError, match=f"branch {branch.label!r}: "
                           "derivative_at_image"):
            dataclasses.replace(branch, derivative_at_image=lambda x: 0.5)


def test_slope_must_match_derivative():
    # linear branches declare their ratio; a slope the sampled derivative
    # does not have everywhere, or at all, is refused
    assert [b.slope for b in MIXED.branches] == [0.5, 1 / 3]
    assert [b.slope for b in MP.branches + EX2.branches] == [None] * 4
    with pytest.raises(ValueError, match="declared slope"):
        dataclasses.replace(HALVES.branches[0], slope=0.4)
    right = MP.branches[1]  # its derivative at 0.5, but not elsewhere
    with pytest.raises(ValueError, match="declared slope"):
        dataclasses.replace(right, slope=float(right.derivative(0.5)))


# ---------------------------------------------------------------------------
# contraction-rate gap
# ---------------------------------------------------------------------------

def test_gap_zero_for_linear_systems():
    for ratios in ([0.5, 0.5], [0.5, 1 / 3], [0.3, 0.2, 0.4]):
        system = linear_system(ratios)
        for n in (3, 6, 9):
            assert lemma1_gap(system, n) <= 1e-12


def test_gap_decreases_for_parabolic_systems():
    mp_gaps = [lemma1_gap(MP, n) for n in (4, 8, 12)]
    assert mp_gaps[2] < mp_gaps[1] < mp_gaps[0]
    ex_gaps = [lemma1_gap(EX2, n) for n in (4, 8, 12)]
    assert ex_gaps[2] < ex_gaps[1] < ex_gaps[0]


def test_gap_sampled_mode_bounded_by_exhaustive():
    exact = lemma1_gap(MP, 10)
    sampled = lemma1_gap(MP, 10, sample=300, seed=2)
    assert sampled <= exact + 1e-12
    assert sampled == lemma1_gap(MP, 10, sample=300, seed=2)  # deterministic


@pytest.mark.parametrize("n, sample, name", [
    (6, 0, "sample"), (0, 5, "n"), (0, None, "n")])
def test_gap_rejects_empty_inputs(n, sample, name):
    # no words or no symbols leave nothing to take the sup over
    with pytest.raises(ValueError, match=f"{name}[ =]"):
        lemma1_gap(MP, n, sample=sample)


def test_gap_walks_call_no_mp_derivative():
    # Manneville-Pomeau branches declare their derivative at the image
    # point, 1/f'(x), so neither gap walk inverts a point for its terms
    calls = []

    def counted(derivative):
        def call(y):
            calls.append(np.size(y))
            return derivative(y)
        return call

    system = IfsSystem(branches=tuple(dataclasses.replace(
        b, derivative=counted(b.derivative)) for b in MP.branches))
    calls.clear()  # the branches' own checks at construction called it
    top_level(system, 16, coordinate(), gap=True)
    lemma1_gap(system, 16, sample=1000, seed=1)
    assert calls == []


def test_gap_cap_guard():
    with pytest.raises(EnumerationLimitError):
        lemma1_gap(HALVES, 25)


def test_table_word_roundtrip():
    table = CylinderTable(MIXED, 5)
    for idx in (0, 7, 19, 31):
        w = table.word(idx)
        assert np.ravel_multi_index(w, (2,) * 5) == idx
        iv = cylinder_interval(MIXED, w)
        assert table.lo(5)[idx] == pytest.approx(iv.lo, abs=1e-15)
        assert table.hi(5)[idx] == pytest.approx(iv.hi, abs=1e-15)


@st.composite
def _system_and_words(draw):
    kind = draw(st.sampled_from(["linear", "example2", "mp"]))
    if kind == "linear":
        m = draw(st.integers(2, 4))
        raw = draw(st.lists(st.floats(0.05, 1.0), min_size=m, max_size=m))
        total = draw(st.floats(0.3, 1.0))
        system = linear_system([total * r / sum(raw) for r in raw])
    else:
        system = EX2 if kind == "example2" else MP
    n = draw(st.integers(1, 7))
    rows = draw(st.lists(
        st.lists(st.integers(0, system.m - 1), min_size=n, max_size=n),
        min_size=1, max_size=20))
    return system, np.array(rows)


@settings(max_examples=60, deadline=None)
@given(_system_and_words())
def test_fold_matches_cylinder_table(case):
    # the word-array fold and the exhaustive table take the same branch
    # steps, so their results agree bit for bit
    system, words = case
    n = words.shape[1]
    table = CylinderTable(system, n)
    slots = words @ system.m ** np.arange(n - 1, -1, -1)
    lo, width = fold(system, words)
    assert np.array_equal(lo, table.lo(n)[slots])
    assert np.array_equal(width, table.diameters(n)[slots])


def test_fold_of_uint8_words_equals_int64_words():
    # with more than 128 distinct suffixes a node key symbol * P + parent
    # formed in uint8 would wrap (or overflow past P = 255)
    system = linear_system([0.3, 0.2, 0.4])
    words = np.random.default_rng(3).integers(0, 3, size=(400, 9))
    assert len(np.unique(words[:, 1:], axis=0)) > 128
    for got, want in zip(fold(system, words.astype(np.uint8)),
                         fold(system, words)):
        assert np.array_equal(got, want)


def test_geometric_potential_matches_g_eval():
    g = geometric_potential(MP, depth=6)
    for w in ((0, 1), (1, 0, 1), (0, 0, 0, 1)):
        assert g.evaluate(w) == pytest.approx(g_eval(MP, w), abs=1e-14)


# ---------------------------------------------------------------------------
# one branch step
# ---------------------------------------------------------------------------

_MP_BETAS = {beta: manneville_pomeau_system(beta) for beta in (0.25, 0.5, 2.0)}


@st.composite
def _cylinders(draw):
    """(lo, width) arrays on [0, 1]: a chain of adjacent cylinders, each
    right end bit for bit the next left end, then a subset of it, a
    shuffle of it, the chain with widths one ulp short (right ends at or
    one rounding left of the next left end), or cylinders that share no
    end."""
    start = draw(st.just(0.0) | st.floats(0.0, 0.5))
    widths = draw(st.lists(st.just(0.0) | st.floats(0.0, 1.0), min_size=1,
                           max_size=30))
    scale = (1.0 - start) / max(sum(widths), 1.0)
    lo, width = [start], [w * scale for w in widths]
    for w in width[:-1]:
        lo.append(lo[-1] + w)
    lo, width = np.array(lo), np.array(width)
    kind = draw(st.sampled_from(["shared", "subset", "shuffled", "short",
                                 "apart"]))
    if kind == "subset":
        keep = np.array(draw(st.lists(st.booleans(), min_size=lo.size,
                                      max_size=lo.size)))
        lo, width = (lo[keep], width[keep]) if keep.any() else (lo, width)
    elif kind == "shuffled":
        order = np.array(draw(st.permutations(range(lo.size))))
        lo, width = lo[order], width[order]
    elif kind == "short":
        width = np.nextafter(width, 0.0)
    elif kind == "apart":
        width = width * 0.5
    return lo, width


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(sorted(_MP_BETAS)), _cylinders())
def test_image_of_maps_each_distinct_endpoint_once(beta, cylinders):
    # a shared endpoint takes its neighbour's image, which is exact because
    # the Newton inverse acts elementwise: the step equals mapping both
    # endpoints stacked, bit for bit
    lo, width = cylinders
    branches = _MP_BETAS[beta].branches
    for branch in branches:
        ref_lo, ref_hi = branch.map(np.stack([lo, lo + width]))
        image_lo, image_width = branch.image_of(lo, width)
        assert np.array_equal(image_lo, ref_lo)
        assert np.array_equal(image_width, ref_hi - ref_lo)


def _counting(system):
    """A copy of ``system`` whose branch callables count the points they
    are given, and the one-element list holding the count."""
    points = [0]

    def wrap(fn):
        if fn is None:
            return None

        def counted(x, *rest):
            points[0] += np.size(x)
            return fn(x, *rest)
        return counted

    branches = tuple(dataclasses.replace(
        b, map=wrap(b.map), derivative=wrap(b.derivative),
        map_width=wrap(b.map_width)) for b in system.branches)
    return IfsSystem(branches=branches, name=system.name), points


@pytest.mark.parametrize("system, points", [
    # 2^17 - 2 left ends over the 16 levels and one unshared right end per
    # branch call (54 calls of at most 4096 words); mapping both ends of
    # every word took 393,210
    # the gap's end terms are read at the image ends through
    # derivative_at_image, not counted here; midpoint derivatives took
    # 2^17 - 2 more points (262,194)
    ((MP, coordinate()), 131_124),
    # map at lo and map_width once per word; the end terms through
    # derivative_at_image, where midpoint derivatives took 393,210
    ((EX2, coordinate()), 262_140),
    # map at lo once per word (2^17 - 2 points), the width slope * width,
    # and no g term: an affine gap is 0.0; a map_width call per word took
    # 262,142, midpoint derivatives 393,210
    ((HALVES, coordinate()), 131_070),
    # affine branches and a word-local potential: compositions, not words,
    # are folded by their slopes, with no branch call; the per-word pass
    # took 262,142
    ((HALVES, first_symbol([1.0, 0.0])), 0),
], ids=["mp-coordinate", "ex2-coordinate", "halves-coordinate",
        "halves-coin"])
def test_level_pass_branch_points_are_pinned(system, points):
    system, potential = system
    counted, count = _counting(system)
    count[0] = 0  # the system's own checks at construction called them too
    top_level(counted, 16, potential, gap=True)
    assert count[0] == points


@st.composite
def _word_pass_case(draw):
    """A system whose level pass keeps each word a row (a branch without a
    slope, or affine branches with a ``func`` potential), a potential and
    a depth."""
    system = draw(st.sampled_from([MP, _MP_BETAS[2.0], EX2, HALVES, MIXED]))
    potentials = [coordinate(), polynomial([0.3, -1.0, 2.0])]
    if not system.affine:  # else a word-local potential takes compositions
        potentials.append(first_symbol([1.0, -0.5]))
    return system, draw(st.sampled_from(potentials)), draw(st.integers(1, 9))


@pytest.mark.fixed_seed
@settings(max_examples=40, deadline=None)
@given(_word_pass_case(), st.integers(1, 64))
@example((MP, coordinate(), 9), 1)
@example((EX2, first_symbol([1.0, -0.5]), 9), 7)
def test_level_pass_is_bit_equal_at_any_chunk_size(case, chunk):
    # the level pass steps each branch over one _CHUNK of parents at a
    # time, phi and the gap's end sums in the same step, block 0 last;
    # with chunks of 1 to 64 words a level of 2^9 words takes up to 512
    # calls per branch, and every output equals the one-chunk pass's bits
    system, potential, n = case
    ref = top_level(system, n, potential, gap=True)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(geometry, "_CHUNK", chunk)
        got = top_level(system, n, potential, gap=True)
    assert np.array_equal(got.width.view(np.int64), ref.width.view(np.int64))
    assert np.array_equal(got.phi.view(np.int64), ref.phi.view(np.int64))
    assert got.gap.hex() == ref.gap.hex()
    assert [d.hex() for d in got.max_diameters] == [
        d.hex() for d in ref.max_diameters]
