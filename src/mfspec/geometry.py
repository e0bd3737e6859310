"""Interval IFS branches, cylinder geometry and the contraction-rate gap.

An ``IfsSystem`` is a finite ordered family of increasing C^1 self-maps of
[0,1] with pairwise disjoint open images (endpoint touching allowed, as for
the inverse branches of a piecewise-onto expanding map).  The cylinder of a
word w = (w_1..w_n) is the interval obtained by composing the branches in
word order and applying the composition to [0,1]; since branches are
increasing, endpoint images suffice.

Depth-n rates: lambda_n(w) = -(1/n) log diam(cylinder(w)).  The geometric
potential g assigns to a word the branch log-derivative at (an approximation
of) the projected shifted sequence; ``lemma1_gap`` measures how far the two
notions are apart at a given depth, which is the uniform-approximation
residual attached to every variational dimension report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import (DegenerateCylinderError, InsufficientDepthError,
                     SolverError)
from .symbolic import (DEFAULT_WORD_CAP, Alphabet, Word, WordFunction,
                       slot_words, word_label)

_PARABOLIC_TOL = 1e-9
_VALIDATION_GRID = 513
_NEWTON_MAX_ITER = 100


@dataclass(frozen=True)
class Interval:
    """A closed subinterval of [0,1]."""

    lo: float
    hi: float

    def __post_init__(self):
        if not self.lo <= self.hi:
            raise ValueError(f"interval endpoints out of order: {self.lo}, {self.hi}")

    @property
    def diameter(self) -> float:
        return self.hi - self.lo

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.lo + self.hi)

    def contains(self, x: float, slack: float = 0.0) -> bool:
        return self.lo - slack <= x <= self.hi + slack


@dataclass(frozen=True)
class Branch:
    """One increasing C^1 branch of an interval IFS.

    ``map`` and ``derivative`` must accept floats and numpy arrays alike.
    A parabolic branch declares its indifferent fixed point explicitly;
    detection is by flag plus a numeric check, never by inference.

    ``image_of`` is the one step every cylinder computation takes through a
    branch: it maps the interval [lo, lo+width] to its image (lo', width'),
    evaluating ``map`` at lo once.  ``map_width`` optionally gives the image
    width in a cancellation-free form (e.g. r*width for an affine branch);
    without it the width is an endpoint difference, whose relative error
    grows as cylinders shrink far from 0.
    """

    map: Callable
    derivative: Callable
    parabolic: bool = False
    fixed_point: float | None = None
    label: str = ""
    map_width: Callable | None = None

    def image_of(self, lo, width):
        image_lo = self.map(lo)
        if self.map_width is not None:
            return image_lo, self.map_width(lo, width)
        return image_lo, self.map(lo + width) - image_lo

    def __post_init__(self):
        grid = np.linspace(0.0, 1.0, _VALIDATION_GRID)
        d = np.asarray(self.derivative(grid), dtype=float)
        if np.any(d <= 0):
            raise ValueError(f"branch {self.label!r}: derivative must be positive")
        if self.parabolic:
            if self.fixed_point is None:
                raise ValueError(
                    f"branch {self.label!r}: parabolic branch needs a fixed point")
            fp = self.fixed_point
            if abs(float(self.map(fp)) - fp) > 1e-9:
                raise ValueError(
                    f"branch {self.label!r}: declared fixed point is not fixed")
            if abs(float(self.derivative(fp)) - 1.0) > _PARABOLIC_TOL:
                raise ValueError(
                    f"branch {self.label!r}: derivative at fixed point is not 1")
        else:
            # sampled check only; hyperbolicity is not certified
            if np.max(d) >= 1.0:
                raise ValueError(
                    f"branch {self.label!r}: non-parabolic branch has sampled "
                    f"derivative >= 1")
        lo, hi = float(self.map(0.0)), float(self.map(1.0))
        if not (-1e-12 <= lo <= hi <= 1.0 + 1e-12):
            raise ValueError(f"branch {self.label!r}: image {lo, hi} not inside [0,1]")

    @property
    def image(self) -> Interval:
        return Interval(float(self.map(0.0)), float(self.map(1.0)))


@dataclass(frozen=True)
class IfsSystem:
    """An ordered family of branches with pairwise disjoint open images."""

    branches: tuple[Branch, ...]
    name: str = ""
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "branches", tuple(self.branches))
        if len(self.branches) < 2:
            raise ValueError("a system needs at least 2 branches")
        images = [b.image for b in self.branches]
        order = sorted(range(len(images)), key=lambda i: images[i].lo)
        for a, b in zip(order, order[1:]):
            if images[b].lo < images[a].hi - 1e-12:
                raise ValueError(
                    f"open images of branches {a} and {b} overlap")
        self._check_diameter_decay()

    def _check_diameter_decay(self, depth: int = 8, samples: int = 128) -> None:
        # Sampled sanity check that cylinder diameters shrink with depth;
        # uniform decay is assumed, not certified.
        d1 = max(b.image.diameter for b in self.branches)
        if self.m**depth <= 65536:
            widths = CylinderTable(self, depth).diameters()
        else:
            rng = np.random.default_rng(0)
            words = rng.integers(0, self.m, size=(samples, depth))
            widths = fold(self, words)[1]
        if float(np.max(widths)) >= d1:
            raise ValueError(
                f"system {self.name!r}: sampled cylinder diameters do not "
                f"decrease by depth {depth}")

    @property
    def m(self) -> int:
        return len(self.branches)

    @property
    def alphabet(self) -> Alphabet:
        return Alphabet(self.m)

    @property
    def parabolic_symbols(self) -> tuple[int, ...]:
        return tuple(i for i, b in enumerate(self.branches) if b.parabolic)

    @property
    def has_parabolic(self) -> bool:
        return any(b.parabolic for b in self.branches)

    def apply_derivative(self, symbol: int, x):
        return self.branches[symbol].derivative(x)


# ---------------------------------------------------------------------------
# word-level operations
# ---------------------------------------------------------------------------

def _suffix_cylinders(system: IfsSystem, words: np.ndarray):
    """Yield the cylinders of ``words[:, j:]`` for j = n-1, ..., 0.

    ``words`` is a (count, n) symbol array.  Each yield is the pair of
    (lo, width) arrays, updated in place between yields, so the last one
    holds the cylinders of the whole rows.
    """
    lo, width = np.zeros(len(words)), np.ones(len(words))
    for column in reversed(np.asarray(words).T):
        for a, branch in enumerate(system.branches):
            sel = column == a
            if sel.any():
                lo[sel], width[sel] = branch.image_of(lo[sel], width[sel])
        yield lo, width


def fold(system: IfsSystem, words) -> tuple[np.ndarray, np.ndarray]:
    """Cylinder (lo, width) arrays of the rows of a (count, n) symbol array.

    Words are folded through the branches right to left with
    ``Branch.image_of``, so widths stay cancellation-free where the branch
    family allows; the results equal the matching ``CylinderTable`` slots.
    """
    lo, width = np.zeros(len(words)), np.ones(len(words))
    for lo, width in _suffix_cylinders(system, words):
        pass
    return lo, width


def neg_log_derivative(system: IfsSystem, symbols: np.ndarray,
                       points: np.ndarray) -> np.ndarray:
    """-log of branch ``symbols[i]``'s derivative at ``points[i]``."""
    out = np.empty(len(points))
    for a, branch in enumerate(system.branches):
        sel = symbols == a
        if sel.any():
            out[sel] = -np.log(np.asarray(branch.derivative(points[sel]),
                                          dtype=float))
    return out


def _fold_cylinder(system: IfsSystem, w: Word) -> tuple[float, float]:
    """(lo, width) of the cylinder of ``w``."""
    system.alphabet.validate_word(w)
    lo, width = fold(system, np.array([w]))
    return float(lo[0]), float(width[0])


def cylinder_interval(system: IfsSystem, w: Word) -> Interval:
    """The interval image of [0,1] under the branch composition of ``w``."""
    lo, width = _fold_cylinder(system, w)
    return Interval(lo, lo + width)


def lambda_n(system: IfsSystem, w: Word) -> float:
    """Depth-n contraction rate -(1/n) log diam of the cylinder of ``w``."""
    width = _fold_cylinder(system, w)[1]
    if width <= 0.0:
        raise DegenerateCylinderError(word_label(w))
    return -math.log(width) / len(w)


def g_eval(system: IfsSystem, w: Word) -> float:
    """Geometric potential of a word: branch log-derivative at the shifted point.

    The shifted projection is approximated by the midpoint of the suffix
    cylinder, so at least one suffix symbol is required.
    """
    if len(w) < 2:
        raise InsufficientDepthError(
            "geometric potential needs a word of length >= 2")
    suffix_mid = cylinder_interval(system, tuple(w)[1:]).midpoint
    return -math.log(float(system.apply_derivative(w[0], suffix_mid)))


def project(system: IfsSystem, w: Word) -> tuple[float, float]:
    """Projection estimate for any sequence starting with ``w``.

    Returns (midpoint, half-diameter) of the cylinder; every true projected
    point of the cylinder lies within the error of the midpoint.
    """
    lo, width = _fold_cylinder(system, w)
    return lo + 0.5 * width, 0.5 * width


# ---------------------------------------------------------------------------
# exhaustive cylinder tables
# ---------------------------------------------------------------------------

def cylinder_levels(system: IfsSystem, depth: int):
    """Yield (lo, width) of the depth-k cylinders for k = 1..depth: slot
    a*m^(k-1) + j is branch a's ``image_of`` slot j of depth k-1 (depth 0 is
    [0,1]), the step ``fold`` takes.  Each level overwrites the buffers the
    yielded views share in place, block 0 (which overlaps the last) last."""
    m = system.m
    lo, width = np.empty(m**depth), np.empty(m**depth)
    lo[0], width[0] = 0.0, 1.0
    for size in (m**k for k in range(depth)):
        for a in reversed(range(m)):
            block = slice(a * size, (a + 1) * size)
            lo[block], width[block] = system.branches[a].image_of(
                lo[:size], width[:size])
        yield lo[:m * size], width[:m * size]


def _add_level(sums: np.ndarray, size: int, m: int, block: Callable) -> None:
    """Birkhoff sums one level deeper in place, S(a w) = v(a w) + S(w), from
    S in ``sums[:size]`` and v in ``block(a)``; block 0 overlaps S: last."""
    for a in reversed(range(m)):
        np.add(block(a), sums[:size], out=sums[a * size:(a + 1) * size])


class CylinderTable:
    """All cylinder intervals of a system up to a given depth.

    Slot ``i`` at depth k holds the word whose base-m encoding is ``i``, first
    symbol most significant (lexicographic order).  Each level is a copy of
    one from ``cylinder_levels``, so every slot equals the fold of its word;
    sums over them are numpy pairwise sums, reproducible bit-for-bit.
    """

    def __init__(self, system: IfsSystem, depth: int,
                 cap: int = DEFAULT_WORD_CAP):
        system.alphabet.check_cap(depth, cap)
        self.system = system
        self.depth = depth
        self._lo, self._width = zip(*[(lo.copy(), width.copy()) for lo, width
                                      in cylinder_levels(system, depth)])

    @property
    def m(self) -> int:
        return self.system.m

    def lo(self, k: int) -> np.ndarray:
        return self._lo[k - 1]

    def hi(self, k: int) -> np.ndarray:
        return self._lo[k - 1] + self._width[k - 1]

    def mid(self, k: int) -> np.ndarray:
        return self._lo[k - 1] + 0.5 * self._width[k - 1]

    def diameters(self, k: int | None = None) -> np.ndarray:
        k = self.depth if k is None else k
        return self._width[k - 1]

    def word(self, idx: int, k: int | None = None) -> Word:
        """Decode a slot index back into its word."""
        return slot_words(self.m, self.depth if k is None else k, [idx])[0]

    def index(self, w: Word) -> int:
        return int(np.ravel_multi_index(tuple(w), (self.m,) * len(w)))

    def words(self, k: int | None = None):
        """All words at depth k in slot order."""
        return self.system.alphabet.words(self.depth if k is None else k)

    def birkhoff(self, values: list[np.ndarray]) -> np.ndarray:
        """Birkhoff sums over all depth-n words from per-depth value arrays."""
        sums = np.empty(self.m**self.depth)
        sums[:self.m] = values[0]
        for v in values[1:]:
            v = v.reshape(self.m, -1)
            _add_level(sums, v.shape[1], self.m, v.__getitem__)
        return sums

    @property
    def log_diameters(self) -> np.ndarray:
        d = self.diameters()
        if np.any(d <= 0.0):
            idx = int(np.argmax(d <= 0.0))
            raise DegenerateCylinderError(word_label(self.word(idx)))
        return np.log(d)

    @property
    def lambda_array(self) -> np.ndarray:
        """lambda_n over all depth-n words."""
        return -self.log_diameters / self.depth


def top_level(system: IfsSystem, n: int, cap: int = DEFAULT_WORD_CAP,
              values: Sequence[float] | None = None,
              func: Callable | None = None, gap: bool = False) -> tuple:
    """One pass over the cylinder levels 1..n, keeping only the current one.

    Returns (width, phi, gap, max_diameters): depth-n widths and Birkhoff
    sums of ``values`` per first symbol or ``func`` at midpoints (None if
    neither) in slot order, sup |lambda_n - A_n g| if ``gap`` (g: branch
    -log-derivatives at 0.5, then at suffix midpoints) and the largest width
    per depth.  The cap is checked before allocating; a zero depth-n width
    raises ``DegenerateCylinderError`` (lowest slot) before any log.
    """
    system.alphabet.check_cap(n, cap)
    m, branches = system.m, system.branches
    phi = None if values is None and func is None else np.empty(m**n)
    if gap:
        g = np.empty(m**n)
        g[:m] = [-math.log(float(b.derivative(0.5))) for b in branches]
    max_diameters = []
    for k, (lo, width) in enumerate(cylinder_levels(system, n), start=1):
        size = width.size // m  # words one level up
        max_diameters.append(float(np.max(width)))
        if func is not None or (gap and k < n):
            mid = lo + 0.5 * width
        if phi is not None:
            level = values if func is None else np.asarray(
                func(mid), dtype=float).reshape(m, size)
            if k == 1:
                phi[:m] = np.ravel(level)
            else:
                _add_level(phi, size, m, level.__getitem__)
        if gap and k < n:
            _add_level(g, m * size, m, lambda a: -np.log(np.asarray(
                branches[a].derivative(mid), dtype=float)))
        mid = level = None
    if np.any(width <= 0.0):
        slot = int(np.argmax(width <= 0.0))
        raise DegenerateCylinderError(word_label(slot_words(m, n, [slot])[0]))
    if not gap:
        return width, phi, None, max_diameters
    lam = np.negative(np.log(width, out=lo), out=lo)  # -log(width)/n - g/n
    lam /= n
    g /= n
    lam -= g
    return width, phi, float(np.max(np.abs(lam, out=lam))), max_diameters


def lemma1_gap(system: IfsSystem, n: int, sample: int | None = None,
               seed: int = 0, cap: int = DEFAULT_WORD_CAP) -> float:
    """Sup over depth-n words of |lambda_n(w) - A_n g(w)|.

    ``sample=None`` enumerates all m^n words (cap-guarded, ``top_level``)
    and returns the true word-level sup; otherwise that many pseudo-random
    words are drawn with the fixed seed.  Vanishes identically for linear
    systems and decays with n when branch derivatives are continuous.
    """
    if sample is None:
        return top_level(system, n, cap, gap=True)[2]
    rng = np.random.default_rng(seed)
    words = rng.integers(0, system.m, size=(sample, n))
    # before symbol w_j is applied the fold holds the suffix cylinder whose
    # midpoint the geometric potential of w_j is evaluated at
    mid = np.full(sample, 0.5)
    gsum = np.zeros(sample)
    for column, (lo, width) in zip(reversed(words.T),
                                   _suffix_cylinders(system, words)):
        gsum += neg_log_derivative(system, column, mid)
        mid = lo + 0.5 * width
    if np.any(width <= 0.0):
        bad = int(np.argmax(width <= 0.0))
        raise DegenerateCylinderError(word_label(tuple(words[bad])))
    lam = -np.log(width) / n
    return float(np.max(np.abs(lam - gsum / n)))


def geometric_potential(system: IfsSystem, depth: int,
                        cap: int = DEFAULT_WORD_CAP) -> WordFunction:
    """The geometric potential as a word function with declared error bounds.

    Words of length 1 are evaluated at the midpoint of [0,1] (the suffix
    cylinder of an empty suffix).  The bound at length k is the largest
    oscillation of a branch log-derivative over a depth-(k-1) cylinder, by
    endpoint differences (exact for monotone derivatives, as shipped).
    """
    system.alphabet.check_cap(depth, cap)

    def oscillation(lo, hi) -> float:
        return max([0.0] + [float(np.max(np.abs(
            np.log(np.asarray(b.derivative(hi), dtype=float))
            - np.log(np.asarray(b.derivative(lo), dtype=float)))))
            for b in system.branches])

    bounds = [oscillation(np.zeros(1), np.ones(1))] + [oscillation(
        lo, lo + width) for lo, width in cylinder_levels(system, depth - 1)]

    def evaluate(w: Word) -> float:
        if len(w) == 1:
            return -math.log(float(system.apply_derivative(w[0], 0.5)))
        return g_eval(system, w)

    def error_bound(k: int) -> float:
        if not 1 <= k <= depth:
            raise ValueError(f"error bound enumerated only up to depth {depth}")
        return bounds[k - 1]

    return WordFunction(evaluate=evaluate, error_bound=error_bound,
                        name=f"g[{system.name}]")


# ---------------------------------------------------------------------------
# shipped system constructors
# ---------------------------------------------------------------------------

def linear_system(ratios: Sequence[float],
                  offsets: Sequence[float] | None = None) -> IfsSystem:
    """Affine branches x -> o_i + r_i x, stacked left to right by default."""
    ratios = [float(r) for r in ratios]
    if any(not 0.0 < r < 1.0 for r in ratios):
        raise ValueError("linear ratios must lie in (0, 1)")
    if offsets is None:
        offsets = np.concatenate([[0.0], np.cumsum(ratios)[:-1]]).tolist()
    else:
        offsets = [float(o) for o in offsets]
        if len(offsets) != len(ratios):
            raise ValueError("offsets and ratios must have the same length")
    if offsets[-1] + ratios[-1] > 1.0 + 1e-12:
        raise ValueError("branch images must fit inside [0,1]")

    def make(r, o, i):
        return Branch(
            map=lambda x, r=r, o=o: o + r * np.asarray(x, dtype=float),
            derivative=lambda x, r=r: np.full_like(
                np.asarray(x, dtype=float), r),
            map_width=lambda lo, width, r=r: r * width,
            label=f"affine{i}",
        )

    branches = tuple(make(r, o, i)
                     for i, (r, o) in enumerate(zip(ratios, offsets)))
    return IfsSystem(branches=branches, name="linear",
                     params={"ratios": ratios, "offsets": offsets})


def example2_system() -> IfsSystem:
    """Inverse branches of x/(1-x) on [0,1/2] and (2x-1)/x on (1/2,1].

    Both branches are parabolic: the left at 0, the right at 1.  The branch
    images tile [0,1].
    """

    def s1(y):
        y = np.asarray(y, dtype=float)
        return y / (1.0 + y)

    def s1d(y):
        y = np.asarray(y, dtype=float)
        return 1.0 / (1.0 + y) ** 2

    def s1w(lo, width):
        # s1(lo+w) - s1(lo) = w / ((1+lo)(1+lo+w)), exact difference form
        lo = np.asarray(lo, dtype=float)
        return width / ((1.0 + lo) * (1.0 + lo + width))

    def s2(y):
        y = np.asarray(y, dtype=float)
        return 1.0 / (2.0 - y)

    def s2d(y):
        y = np.asarray(y, dtype=float)
        return 1.0 / (2.0 - y) ** 2

    def s2w(lo, width):
        # s2(lo+w) - s2(lo) = w / ((2-lo)(2-lo-w))
        lo = np.asarray(lo, dtype=float)
        return width / ((2.0 - lo) * (2.0 - lo - width))

    branches = (
        Branch(map=s1, derivative=s1d, parabolic=True, fixed_point=0.0,
               map_width=s1w, label="left"),
        Branch(map=s2, derivative=s2d, parabolic=True, fixed_point=1.0,
               map_width=s2w, label="right"),
    )
    return IfsSystem(branches=branches, name="example2")


def manneville_pomeau_system(beta: float) -> IfsSystem:
    """Inverse branches of x + x^(1+beta) mod 1 on [0,1], for any beta > 0.

    The forward map is piecewise onto with branch domains split where
    x + x^(1+beta) crosses 1; the left inverse branch is parabolic at 0.  The
    forward map is convex and increasing, so Newton's method started right
    of the root, at min(target, hi), decreases monotonically onto it;
    iteration stops once no entry decreases, which leaves the fixed point 0
    exact.  The same inverse, applied to 1, finds the cut.
    """
    if not 0.0 < beta:
        raise ValueError("beta must be positive")

    def forward_derivative(x):
        return 1.0 + (1.0 + beta) * np.asarray(x, dtype=float) ** beta

    def invert(y, lo, hi, offset):
        y = np.asarray(y, dtype=float)
        scalar = y.ndim == 0
        target = np.atleast_1d(y) + offset
        x = np.minimum(target, hi)
        for _ in range(_NEWTON_MAX_ITER):
            # x - target is exact on the left branch (Sterbenz), so the
            # residual carries no rounding of the forward value itself
            residual = x - target + x ** (1.0 + beta)
            step = np.maximum(x - residual / forward_derivative(x), lo)
            if not np.any(step < x):
                return x[0] if scalar else x
            x = np.minimum(step, x)
        raise SolverError(f"Manneville-Pomeau inverse (beta={beta:g}) did "
                          f"not settle in {_NEWTON_MAX_ITER} Newton steps")

    cut = float(invert(1.0, 0.0, 1.0, 0.0))

    def left(y):
        return invert(y, 0.0, cut, 0.0)

    def left_derivative(y):
        return 1.0 / forward_derivative(left(y))

    def right(y):
        return invert(y, cut, 1.0, 1.0)

    def right_derivative(y):
        return 1.0 / forward_derivative(right(y))

    branches = (
        Branch(map=left, derivative=left_derivative, parabolic=True,
               fixed_point=0.0, label="left"),
        Branch(map=right, derivative=right_derivative, label="right"),
    )
    return IfsSystem(branches=branches, name="manneville_pomeau",
                     params={"beta": float(beta), "cut": float(cut)})
