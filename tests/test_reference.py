"""The transfer-operator reference (``tests/reference.py``) on E_2 and on
equal-ratio linear systems, against printed constants and closed forms."""

import functools
import math

import pytest

from mfspec.oracle import BesicovitchSpec, besicovitch_spectrum
from reference import Collocation

# E_2: x -> (x + b) / (a*x + a*b + 1), a, b in {1, 2}; g' = 1/(a*x + a*b + 1)^2
E2_BRANCHES = tuple(
    (lambda x, a=a, b=b: (x + b) / (a * x + a * b + 1),
     lambda x, a=a, b=b: 1.0 / (a * x + a * b + 1) ** 2)
    for a in (1, 2) for b in (1, 2))
# Jenkinson-Pollicott, ETDS 21 (2001)
E2_DIMENSION = 0.53128050627720514162
# b(alpha) for phi(x) = x, and the Lyapunov spectrum L(alpha), both at N = 24
COORDINATE = {0.38: 0.21118054491142, 0.45: 0.44342729816609,
              0.55: 0.53126496243431}
LYAPUNOV = {2.0: 0.200527180537, 2.3: 0.488472944067, 2.8: 0.488634363457}


@functools.lru_cache(maxsize=None)
def e2(N, coordinate):
    return Collocation(E2_BRANCHES, (lambda a, y: y) if coordinate else None,
                       N)


@functools.lru_cache(maxsize=None)
def e2_value(kind, alpha, N=24):
    if kind == "coordinate":
        return e2(N, True).birkhoff_spectrum(alpha)
    return e2(N, False).lyapunov_spectrum(alpha)


def test_e2_dimension_is_the_printed_constant():
    for N in (24, 32):
        assert abs(e2(N, False).dimension() - E2_DIMENSION) <= 1e-13


@pytest.mark.parametrize("kind, alpha, value, tol", [
    *(("coordinate", a, v, 1e-13) for a, v in COORDINATE.items()),
    *(("lyapunov", a, v, 1e-12) for a, v in LYAPUNOV.items())])
def test_e2_spectra_are_pinned_and_converged_in_N(kind, alpha, value, tol):
    assert abs(e2_value(kind, alpha) - value) <= tol
    assert abs(e2_value(kind, alpha, N=32) - e2_value(kind, alpha)) <= 1e-12


def test_lyapunov_spectrum_refuses_a_level_below_the_least_exponent():
    # 2*log((3 + sqrt 5)/2) ~ 1.925 is E_2's least exponent; below it the
    # minimum over t runs off to the t bound
    assert 2 * math.log((3 + math.sqrt(5)) / 2) > 1.9
    with pytest.raises(ValueError, match="bound"):
        e2(24, False).lyapunov_spectrum(1.9)


@pytest.mark.parametrize("ratio, values", [
    (0.5, (1.0, 0.0)), (0.3, (0.2, -0.4, 1.0)), (0.25, (0.0, 0.5, 0.5, 2.0))])
def test_equal_ratio_linear_systems_match_the_closed_form(ratio, values):
    # constant derivatives and first-symbol potentials: L_{t,q} maps
    # constants to constants, so a few nodes are exact
    m = len(values)
    branches = [(lambda x, a=a: ratio * x + a / m,
                 lambda x: ratio + 0.0 * x) for a in range(m)]
    reference = Collocation(branches, lambda a, y: values[a] + 0.0 * y, N=6)
    spec = BesicovitchSpec(m=m, ratio=ratio, values=values)
    lo, hi = min(values), max(values)
    for alpha in (lo + 0.2 * (hi - lo), (lo + hi) / 2, lo + 0.7 * (hi - lo)):
        assert reference.birkhoff_spectrum(alpha) == pytest.approx(
            besicovitch_spectrum(spec, alpha), abs=1e-9)
