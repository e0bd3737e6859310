"""Independent closed-form and brute-force references for the estimators.

Everything here is deliberately small and self-contained: closed formulas,
scalar root finding by plain bisection (``_bisect``) and simplex grid search
only.  This module must never import the spectrum estimators, so acceptance
tests always compare two independent code paths; it needs numpy alone.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleAlphaError
from .geometry import IfsSystem, fold
from .potentials import PotentialSpec, induced_word_function
from .symbolic import MarkovChainSpec, birkhoff_sum

_MAX_GRID_POINTS = 5_000_000


def _bisect(f, lo: float, hi: float) -> float:
    """Root of ``f`` in [lo, hi], where f(lo) and f(hi) differ in sign: the
    bracket is halved until f vanishes at its midpoint or no double lies
    strictly inside it."""
    lo_positive = f(lo) > 0.0
    mid = 0.5 * (lo + hi)
    while lo < mid < hi and (value := f(mid)) != 0.0:
        if (value > 0.0) == lo_positive:
            lo = mid
        else:
            hi = mid
        mid = 0.5 * (lo + hi)
    return mid


@dataclass(frozen=True)
class BesicovitchSpec:
    """Equal-ratio linear system with a first-symbol potential."""

    m: int
    ratio: float
    values: tuple[float, ...]

    def __post_init__(self):
        if self.m < 2:
            raise ValueError("need at least 2 symbols")
        if not 0.0 < self.ratio < 1.0:
            raise ValueError("ratio must lie in (0,1)")
        if self.m * self.ratio > 1.0 + 1e-12:
            raise ValueError("images must fit inside [0,1]")
        if len(self.values) != self.m:
            raise ValueError("one value per symbol required")


def besicovitch_spectrum(spec: BesicovitchSpec, alpha: float) -> float:
    """max{H(p) : sum p_i c_i = alpha} / log(1/r), by 1-D Lagrange root finding.

    The maximizer is the exponential family p_i(q) proportional to
    exp(q c_i); q is located by bracketed root finding on the strictly
    increasing mean map (``_bisect``).
    """
    c = np.asarray(spec.values, dtype=float)
    lo, hi = float(np.min(c)), float(np.max(c))
    if not lo - 1e-12 <= alpha <= hi + 1e-12:
        raise InfeasibleAlphaError(alpha, (lo, hi))
    log_contraction = math.log(1.0 / spec.ratio)

    def entropy_at(q: float) -> tuple[float, float]:
        # H(p(q)) = log Z(q) - q * mean(q) for p_i = e^{q c_i} / Z
        a = q * c
        shift = float(a.max())
        w = np.exp(a - shift)
        z = float(w.sum())
        p = w / z
        mean = float(p @ c)
        return shift + math.log(z) - q * mean, mean

    if hi - lo <= 1e-12 or abs(alpha - lo) <= 1e-12:
        mult = int(np.sum(np.abs(c - lo) <= 1e-12))
        return math.log(mult) / log_contraction
    if abs(alpha - hi) <= 1e-12:
        mult = int(np.sum(np.abs(c - hi) <= 1e-12))
        return math.log(mult) / log_contraction

    def mean_gap(q: float) -> float:
        return entropy_at(q)[1] - alpha

    span = 1.0
    while mean_gap(-span) > 0 or mean_gap(span) < 0:
        span *= 2.0
        if span > 1e9:
            raise InfeasibleAlphaError(alpha, (lo, hi))
    q = _bisect(mean_gap, -span, span)
    h, _ = entropy_at(q)
    return h / log_contraction


def similarity_dimension(expansions) -> float:
    """Root s in [0, 2] of Moran's equation sum_i b_i^-s = 1: the dimension
    of the self-similar set with contraction ratios 1/b_i."""
    return _bisect(lambda s: sum(b**-s for b in expansions) - 1.0, 0.0, 2.0)


@dataclass(frozen=True)
class MarkovBlockEntropy:
    n: int
    block_entropy: float
    rate: float


def markov_block_entropy_exact(chain: MarkovChainSpec,
                               n: int) -> MarkovBlockEntropy:
    """Exact block entropy of a stationary chain: H_n = H(p) + (n-1) h.

    h is the row-entropy average -sum_i p_i sum_j P_ij log P_ij; no word
    enumeration is involved.
    """
    if not chain.stationary:
        raise ValueError("exact block entropy needs a stationary chain")
    if n < 1:
        raise ValueError("block length must be >= 1")
    p = chain.initial
    P = chain.transition
    h = -math.fsum(p[i] * P[i, j] * math.log(P[i, j])
                   for i in range(chain.m) for j in range(chain.m)
                   if P[i, j] > 0)
    h1 = -math.fsum(pi * math.log(pi) for pi in p if pi > 0)
    return MarkovBlockEntropy(n=n, block_entropy=h1 + (n - 1) * h, rate=h)


def brute_force_ratio(system: IfsSystem, potential: PotentialSpec,
                      alpha: float, n: int, grid_step: float) -> float:
    """Exhaustive simplex grid search for the depth-n entropy/length ratio.

    Grids word-weight vectors at resolution ``grid_step``, keeps those whose
    potential mean is within grid_step * max|phi| of n*alpha, and returns the
    best entropy-over-log-diameter ratio.  Intentionally tiny: refuses more
    than 8 words or oversized grids.
    """
    if grid_step < 0.01:
        raise ValueError("grid_step below 0.01 refused; this oracle is tiny")
    count = system.m**n
    if count > 8:
        raise ValueError(
            f"{system.m}^{n} = {count} words exceed the brute-force limit of 8")
    levels = round(1.0 / grid_step)
    est = math.comb(levels + count - 1, count - 1)
    if est > _MAX_GRID_POINTS:
        raise ValueError(f"simplex grid of {est} points refused")

    f = induced_word_function(system, potential, n)
    words = list(system.alphabet.words(n))
    phi = [birkhoff_sum(f, w) for w in words]
    ell = (-np.log(fold(system, np.array(words))[1])).tolist()
    target = n * alpha
    slack = grid_step * max(1.0, max(abs(v) for v in phi))

    best = None
    nearest = None
    for combo in itertools.combinations(range(levels + count - 1), count - 1):
        bars = (-1, *combo, levels + count - 1)
        counts = [bars[i + 1] - bars[i] - 1 for i in range(count)]
        mean = sum(k * v for k, v in zip(counts, phi)) / levels
        gap = abs(mean - target)
        if nearest is None or gap < nearest[0]:
            nearest = (gap, mean)
        if gap > slack:
            continue
        h = -sum((k / levels) * math.log(k / levels)
                 for k in counts if k > 0)
        length = sum((k / levels) * v for k, v in zip(counts, ell))
        ratio = h / length
        if best is None or ratio > best:
            best = ratio
    if best is None:
        lo = min(phi) / n
        hi = max(phi) / n
        raise InfeasibleAlphaError(alpha, (lo, hi))
    return best
