"""Interval IFS branches, cylinder geometry and the contraction-rate gap.

An ``IfsSystem`` is a finite ordered family of increasing C^1 self-maps of
[0,1] with pairwise disjoint open images (endpoint touching allowed, as for
the inverse branches of a piecewise-onto expanding map).  The cylinder of a
word w = (w_1..w_n) is the interval obtained by composing the branches in
word order and applying the composition to [0,1]; since branches are
increasing, endpoint images suffice.

Depth-n rates: lambda_n(w) = -(1/n) log diam(cylinder(w)).  The geometric
potential g assigns to a word the branch log-derivative at (an approximation
of) the projected shifted sequence; ``lemma1_gap`` measures how far lambda_n
is from -(1/n) log g_w' over a cylinder, the uniform-approximation residual
attached to every variational dimension report.  ``top_level`` gives the
depth-n rows: words, or symbol compositions for affine word-local systems.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import (DegenerateCylinderError, InsufficientDepthError,
                     SolverError)
from .symbolic import Alphabet, Word, WordFunction, slot_words, word_label

_PARABOLIC_TOL = 1e-9
_VALIDATION_GRID = 513
_NEWTON_MAX_ITER = 100
_CHUNK = 4096  # words per branch evaluation in a level pass
_INVERSE_TABLE = 1024  # cells of a Manneville-Pomeau branch's start table
_NEWTON_CERTIFIED = 1e-10  # relative Newton step that ends an MP inverse


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

    def contains(self, x: float) -> bool:
        return self.lo <= x <= self.hi


@dataclass(frozen=True)
class Branch:
    """One increasing C^1 branch of an interval IFS.

    ``map`` and ``derivative`` must accept floats and numpy arrays alike.
    A parabolic branch declares its indifferent fixed point explicitly;
    detection is by flag plus a numeric check, never by inference.

    ``image_of`` is the one step every cylinder computation takes through a
    branch: it maps the interval [lo, lo+width] to its image (lo', width').
    An affine branch declares its constant ``slope``, which must equal the
    sampled derivative exactly: its image width is slope * width, next to
    one ``map`` call at lo (``top_level`` enumerates a system of them with
    a word-local potential, or none, by symbol compositions).  Otherwise
    ``map_width`` optionally gives the image width in a cancellation-free
    form, next to one ``map`` call at lo; without it the width is an
    endpoint difference, whose relative error grows as cylinders shrink
    far from 0, and ``map`` (elementwise) runs once per distinct endpoint:
    a right end bit for bit the next left end takes that end's image, so k
    adjacent cylinders cost k + 1 points.  ``derivative_at_image`` may give
    the derivative at y from x = map(y), as 1/f'(x) for an inverse branch,
    and must agree with the sampled derivative to a relative 1e-9.
    """

    map: Callable
    derivative: Callable
    parabolic: bool = False
    fixed_point: float | None = None
    label: str = ""
    map_width: Callable | None = None
    slope: float | None = None
    derivative_at_image: Callable | None = None

    def image_of(self, lo, width):
        if self.slope is not None:
            return self.map(lo), self.slope * width
        if self.map_width is not None:
            return self.map(lo), self.map_width(lo, width)
        image_lo, image_hi = _at_ends(self.map, lo, lo + width)
        return image_lo, image_hi - image_lo

    def end_terms(self, lo, width, image_lo, image_width):
        """-log of the derivative at lo and lo + width, rows 0 and 1, read
        at the images' ends where declared."""
        if self.derivative_at_image is None:
            return _at_ends(lambda y: _g(self, y), lo, lo + width)
        return _at_ends(lambda x: -np.log(self.derivative_at_image(x)),
                        image_lo, image_lo + image_width)

    def __post_init__(self):
        grid = np.linspace(0.0, 1.0, _VALIDATION_GRID)
        d = np.asarray(self.derivative(grid), dtype=float)
        if np.any(d <= 0):
            raise ValueError(f"branch {self.label!r}: derivative must be positive")
        if self.slope is not None and not np.all(d == self.slope):
            raise ValueError(
                f"branch {self.label!r}: sampled derivative is not the "
                f"declared slope {self.slope!r}")
        if self.derivative_at_image is not None and not np.allclose(
                self.derivative_at_image(self.map(grid)), d, 1e-9, 0.0):
            raise ValueError(f"branch {self.label!r}: derivative_at_image "
                             f"does not match the sampled derivative")
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
            *_, (_, widths) = cylinder_levels(self, depth)
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

    @property
    def affine(self) -> bool:  # every branch declares its slope
        return all(b.slope is not None for b in self.branches)


def _at_ends(f, lo, hi) -> np.ndarray:
    """f at lo and at hi, rows 0 and 1, from one call of the elementwise
    ``f``: a right end bit for bit the next left end takes that end's value."""
    own = np.ones(hi.size, dtype=bool)  # as bits: -0.0 is not 0.0
    own[:-1] = hi[:-1].view(np.int64) != lo[1:].view(np.int64)
    value, at = f(np.concatenate([lo, hi[own]])), np.empty((2, lo.size))
    at[0], at[1, :-1] = value[:lo.size], value[1:lo.size]
    at[1, own] = value[lo.size:]
    return at


# ---------------------------------------------------------------------------
# word-level operations
# ---------------------------------------------------------------------------

def _distinct(keys: np.ndarray, size: int) -> tuple[np.ndarray, np.ndarray]:
    """The distinct ``keys`` (ints in [0, size)) in ascending order and the
    index of each key among them, by a dense remap rather than a sort."""
    used = np.zeros(size, dtype=bool)
    used[keys] = True
    return np.flatnonzero(used), (np.cumsum(used) - 1)[keys]


def _suffix_cylinders(system: IfsSystem, columns, rows: int, sums=None):
    """Step each distinct suffix of ``rows`` words once, right to left.

    ``columns`` yields the words' symbol columns from last to first.  The
    suffix from column j on is a node, named by its symbol at j and its
    parent (the suffix from j+1 on), and numbered in slot order, symbol
    before parent, as the level pass numbers its children: each branch's
    nodes are one contiguous block, and ``Branch.image_of`` runs once per
    block.  Yields (node, symbol, parent, lo, width, sums) per column:
    each row's node, and per node its symbol, its parent's index into the
    previous yield, its cylinder and, from ``sums`` (2, 1) at the root,
    its parent's end sums plus its ``Branch.end_terms``.  Rows sharing a suffix
    share its node, so trailing runs and repeated rows are stepped once
    and gathered through ``node``.
    """
    m = system.m
    node, lo, width = np.zeros(rows, dtype=np.intp), np.zeros(1), np.ones(1)
    for column in columns:
        key = np.multiply(column, lo.size, dtype=np.intp)  # uint8 would wrap
        keys, node = _distinct(np.add(key, node, out=key), lo.size * m)
        symbol, parent = np.divmod(keys, lo.size)
        lo, width = lo[parent], width[parent]
        sums = None if sums is None else sums[:, parent]
        ends = np.searchsorted(symbol, np.arange(m + 1))
        for branch, start, stop in zip(system.branches, ends, ends[1:]):
            if start < stop:
                block = slice(start, stop)
                image = branch.image_of(lo[block], width[block])
                if sums is not None:
                    sums[:, block] += branch.end_terms(lo[block],
                                                       width[block], *image)
                lo[block], width[block] = image
        yield node, symbol, parent, lo, width, sums


def fold(system: IfsSystem, words) -> tuple[np.ndarray, np.ndarray]:
    """Cylinder (lo, width) arrays of the rows of a (count, n) symbol array.

    Words are folded through the branches right to left with
    ``Branch.image_of``, once per distinct suffix (``_suffix_cylinders``),
    so widths stay cancellation-free where the branch family allows; the
    results equal the matching ``CylinderTable`` slots.
    """
    words = np.asarray(words)
    node = np.zeros(len(words), dtype=np.intp)
    lo, width = np.zeros(1), np.ones(1)
    for node, _, _, lo, width, _ in _suffix_cylinders(
            system, reversed(words.T), len(words)):
        pass
    return lo[node], width[node]


def _g(branch: Branch, x):
    """-log branch'(x): the one formula every geometric potential term takes."""
    return -np.log(branch.derivative(x))


def end_sums(system: IfsSystem, words) -> tuple[np.ndarray, ...]:
    """(width, D_lo, D_hi) of the rows of a (count, n >= 1) symbol array:
    -log g_w' at 0 and 1, summed bit for bit as the level pass sums them."""
    for node, *_, width, sums in _suffix_cylinders(system, reversed(
            np.asarray(words).T), len(words), np.zeros((2, 1))):
        pass
    return width[node], *sums[:, node]


def neg_log_derivative(system: IfsSystem, symbols: np.ndarray,
                       points: np.ndarray) -> np.ndarray:
    """-log of branch ``symbols[i]``'s derivative at ``points[i]``."""
    out = np.empty(len(points))
    for a, branch in enumerate(system.branches):
        sel = symbols == a
        if sel.any():
            out[sel] = _g(branch, points[sel])
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
    return float(-np.log(width) / len(w))


def g_eval(system: IfsSystem, w: Word) -> float:
    """Geometric potential of a word: branch log-derivative at the shifted point.

    The shifted projection is approximated by the midpoint of the suffix
    cylinder (``project``), so at least one suffix symbol is required.
    """
    if len(w) < 2:
        raise InsufficientDepthError(
            "geometric potential needs a word of length >= 2")
    return float(_g(system.branches[w[0]], project(system, tuple(w)[1:])[0]))


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

def _parts(size: int):
    """Consecutive slices of range(size), ``_CHUNK`` entries or fewer."""
    return (slice(i, min(i + _CHUNK, size)) for i in range(0, size, _CHUNK))


def _image_level(branches: Sequence[Branch], lo, width, size: int,
                 ends=None) -> None:
    """Cylinders one level deeper in place: slot a*size + j becomes branch
    a's ``image_of`` of slot j of ``lo``, ``width``.  Block 0, which
    overlaps the parents, goes last, one ``_CHUNK`` of slots per call, so a
    branch's temporaries never grow with the depth; ``ends(a, part, lo,
    width, image_lo, image_width)`` sees each call before its write."""
    for a in reversed(range(len(branches))):
        for part in _parts(size):
            image = branches[a].image_of(lo[part], width[part])
            if ends:
                ends(a, part, lo[part], width[part], *image)
            lo[a * size:][part], width[a * size:][part] = image
            del image  # freed before the next call's temporaries


def cylinder_levels(system: IfsSystem, depth: int):
    """Yield (lo, width) of the depth-k cylinders for k = 1..depth: slot
    a*m^(k-1) + j is branch a's ``image_of`` slot j of depth k-1 (depth 0 is
    [0,1]), the step ``fold`` takes.  Each level overwrites the buffers the
    yielded views share in place (``_image_level``)."""
    m = system.m
    lo, width = np.empty(m**depth), np.empty(m**depth)
    lo[0], width[0] = 0.0, 1.0
    for size in (m**k for k in range(depth)):
        _image_level(system.branches, lo, width, size)
        yield lo[:m * size], width[:m * size]


def _add_level(sums: np.ndarray, size: int, m: int, block) -> None:
    """Birkhoff sums one level deeper in place, S(a w) = v(a w) + S(w), from
    S in ``sums[:size]`` and v in ``block``, an array broadcastable to (m,
    size); block 0 overlaps S: last.  At most ``_CHUNK`` slots take one
    broadcast add."""
    if m * size <= _CHUNK:
        np.add(block, sums[:size], out=sums[:m * size].reshape(m, size))
        return
    whole = np.broadcast_to(block, (m, size))
    for a in reversed(range(m)):
        for part in _parts(size):
            np.add(whole[a, part], sums[part], out=sums[a * size:][part])


class CylinderTable:
    """All cylinder intervals of a system up to a given depth.

    Slot ``i`` at depth k holds the word whose base-m encoding is ``i``, first
    symbol most significant (lexicographic order).  Each level is a copy of
    one from ``cylinder_levels``, so every slot equals the fold of its word;
    sums over them are numpy pairwise sums, reproducible bit-for-bit.
    """

    def __init__(self, system: IfsSystem, depth: int):
        system.alphabet.check_cap(depth)
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

    def words(self, k: int | None = None):
        """All words at depth k in slot order."""
        return self.system.alphabet.words(self.depth if k is None else k)

    def birkhoff(self, values: list[np.ndarray]) -> np.ndarray:
        """Birkhoff sums over all depth-n words from per-depth value arrays."""
        sums = np.empty(self.m**self.depth)
        sums[:self.m] = values[0]
        for v in values[1:]:
            v = v.reshape(self.m, -1)
            _add_level(sums, v.shape[1], self.m, v)
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


class LevelPass(NamedTuple):
    """What ``top_level`` keeps of the depth-n level: one ``width`` and
    ``phi`` per row, the rows ``DepthContext`` takes in this order.  With
    ``kind`` None each word is a row, in slot order, and ``count`` is 1.0;
    else symbol s is of kind ``kind[s]``, and row i is a composition of n
    over the kinds with the values of its lowest word ``words[i]`` and
    ``count[i]`` words.  ``gap`` is the Lemma-1 gap (None unless asked
    for), ``max_diameters`` the largest width per depth and ``nodes`` the
    number of cylinders stepped."""

    width: np.ndarray
    phi: np.ndarray | None
    gap: float | None
    max_diameters: list[float]
    count: np.ndarray | float
    words: np.ndarray | None
    kind: np.ndarray | None
    nodes: int


def _rate_gap(width: np.ndarray, sums, n: int) -> float:
    """Max of |lambda_n - D/n| over cylinders of ``width`` and their end
    sums D in ``sums``, formed as |(-log width)/n - D/n| elementwise."""
    lam = np.log(width)
    np.negative(lam, out=lam)
    lam /= n
    return max(float(np.max(np.abs(lam - d / n))) for d in sums)


def compositions(k: int, n: int) -> np.ndarray:
    """The compositions of n over k kinds as rows of sorted digits, in
    lexicographic order."""
    return np.fromiter(itertools.combinations_with_replacement(range(k), n),
                       np.dtype((np.intp, n)), math.comb(n + k - 1, n))


def _composition_level(system: IfsSystem, n: int, potential,
                       gap: bool) -> LevelPass:
    """``top_level`` of an affine system whose potential is word-local or
    absent: one row per composition of n over the symbol kinds."""
    slope = np.array([b.slope for b in system.branches])
    value = None if potential is None else np.asarray(
        potential.symbol_values(system.m), dtype=float)
    kinds = {}  # bit-equal (slope, value) pairs, in order of first symbol
    kind = np.array([kinds.setdefault(bits, len(kinds)) for bits in zip(*(
        key.view(np.int64).tolist() for key in (slope, value)
        if key is not None))])
    lowest = np.unique(kind, return_index=True)[1]  # each kind's first symbol
    words, size = lowest[compositions(lowest.size, n)], np.bincount(kind)
    rows, digits = len(words), kind[np.c_[words, words[:, -1]]]
    count, run = np.ones(rows, dtype=np.int64), np.zeros(rows, dtype=np.intp)
    width, phi, max_diameters = np.ones(rows), np.full(rows, -0.0), []
    for j in reversed(range(n)):  # suffixes; run: the digit's place in its
        # run (the repeated last digit starts it at 1), so each count is an
        # integer multinomial times prod size^count; -0.0 + v is v, bit-wise
        run = np.where(digits[:, j] == digits[:, j + 1], run + 1, 1)
        count = count * (n - j) // run * size[digits[:, j]]
        width = slope[words[:, j]] * width
        max_diameters.append(float(np.max(width)))
        phi = None if value is None else value[words[:, j]] + phi
    if np.any(width <= 0.0):
        raise DegenerateCylinderError(
            word_label(words[int(np.argmax(width <= 0.0))].tolist()))
    return LevelPass(width, phi, 0.0 if gap else None, max_diameters,
                     count.astype(float), words, kind, rows * n)


def top_level(system: IfsSystem, n: int, potential=None,
              gap: bool = False) -> LevelPass:
    """The depth-n rows of ``system`` as a ``LevelPass``: widths, Birkhoff
    sums of a ``PotentialSpec``'s ``on_cylinders`` values (None without
    ``potential``), the Lemma-1 gap if ``gap`` and the largest width per
    depth.  The cap is checked first; a zero depth-n width raises
    ``DegenerateCylinderError`` (the lowest word with one, or the first
    such row's lowest word) before any log.

    If every branch declares a slope and the potential is word-local or
    absent, a word's width prod r and sum sum v depend only on how often
    each kind occurs in it, symbols with bit-equal (slope, value) being
    one kind (slope alone without a potential).  The rows are then the
    ``compositions`` of n over the kinds, in the order of their lowest
    words (each kind's first symbol, ascending), each with that word's
    width and sum, folded right to left by ``slope * width`` and ``value +
    sum`` as ``fold`` takes them, and its number of words.  No ``map``
    call is made.  An all-affine gap is 0.0 exactly, with no end sums, as
    g_w' is the constant prod r the width is.  Otherwise one pass over
    the levels 1..n keeps only the current one, each word a row: level k
    forms the m*R children of its R words in slot order a*R + j, in place
    behind the parents, widths by ``_image_level`` and phi by
    ``_add_level``.  The gap reads the end sums D_lo, D_hi (``end_sums``)
    from ``Branch.end_terms`` in the image step, kept to depth n-1: depth
    n is formed by the chunk inside the max, before phi's last level.
    """
    system.alphabet.check_cap(n)
    if system.affine and (potential is None or potential.word_local):
        return _composition_level(system, n, potential, gap)
    m, branches = system.m, system.branches
    lo, width = np.zeros(m**n), np.ones(m**n)
    phi = None if potential is None else np.empty(m**n)
    first = np.arange(m)[:, None]
    value = potential.on_cylinders(m, first, 0.0, 1.0) if (  # word-local
        potential is not None and potential.word_local) else None
    rates, sums = [], [np.zeros(m**(n - 1)) for _ in range(2)] if (
        gap and not system.affine) else []

    def ends(a, part, *cylinders):  # block a's end sums, in place below n
        d_a = [np.add(t, d[part], out=d[a * size:][part] if k < n else None)
               for d, t in zip(sums, branches[a].end_terms(*cylinders))]
        if k == n and not np.any(cylinders[3] <= 0.0):  # else raised below
            rates.append(_rate_gap(cylinders[3], d_a, n))
    size, nodes, max_diameters = 1, 0, []
    for k in range(1, n + 1):  # size: words one level up
        _image_level(branches, lo, width, size, ends if sums else None)
        max_diameters.append(float(np.max(width[:m * size])))
        if k == n:
            if np.any(width <= 0.0):
                raise DegenerateCylinderError(word_label(slot_words(
                    m, n, [int(np.argmax(width <= 0.0))])[0]))
            sums = []  # freed before phi's last level
        if phi is not None:
            level = value if value is not None else potential.on_cylinders(
                m, first, lo[:m * size].reshape(m, -1),
                width[:m * size].reshape(m, -1))
            if k == 1:
                phi[:m] = np.ravel(np.broadcast_to(level, (m, 1)))
            else:
                _add_level(phi, size, m, level)
            level = None
        size *= m
        nodes += size
    return LevelPass(width, phi, max(rates, default=0.0) if gap else None,
                     max_diameters, 1.0, None, None, nodes)


def lemma1_gap(system: IfsSystem, n: int, sample: int | None = None,
               seed: int = 0) -> float:
    """Sup over depth-n words w and x in [0,1] of |lambda_n(w) + (1/n) log
    g_w'(x)|, as max(|ell - D_lo|, |ell - D_hi|)/n, ell = -log width
    (``end_sums``): exact where log g_w' is monotone, as on every shipped
    family (Moebius composites are Moebius; both Manneville-Pomeau
    log-derivatives decrease).  ``sample=None`` enumerates all m^n words
    (cap-guarded, ``top_level``), else that many words are drawn with the
    fixed seed.  0.0 exactly for an all-affine system (g_w' is the width,
    a constant), with no end sums formed; decays with n otherwise."""
    if n < 1:
        raise ValueError(f"lemma1_gap needs a depth n >= 1, got n={n}")
    if sample is None:
        return top_level(system, n, gap=True).gap
    if sample < 1:
        raise ValueError(f"lemma1_gap needs sample >= 1 words, got {sample}")
    words = np.random.default_rng(seed).integers(0, system.m, (sample, n))
    width, *sums = (fold(system, words)[1:] if system.affine
                    else end_sums(system, words))
    if np.any(width <= 0.0):
        bad = int(np.argmax(width <= 0.0))
        raise DegenerateCylinderError(word_label(tuple(words[bad])))
    return _rate_gap(width, sums, n) if sums else 0.0


def geometric_potential(system: IfsSystem, depth: int) -> WordFunction:
    """The geometric potential as a word function with declared error bounds.

    Words of length 1 are evaluated at the midpoint of [0,1] (the suffix
    cylinder of an empty suffix).  The bound at length k is the largest
    oscillation of a branch log-derivative over a depth-(k-1) cylinder, by
    endpoint differences (exact for monotone derivatives, as shipped).
    """
    system.alphabet.check_cap(depth)

    def oscillation(lo, hi) -> float:
        return max([0.0] + [float(np.max(np.abs(_g(b, lo) - _g(b, hi))))
                            for b in system.branches])

    bounds = [oscillation(np.zeros(1), np.ones(1))] + [oscillation(
        lo, lo + width) for lo, width in cylinder_levels(system, depth - 1)]

    def evaluate(w: Word) -> float:
        if len(w) == 1:
            return float(_g(system.branches[w[0]], 0.5))
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
            label=f"affine{i}",
            slope=r,
        )

    branches = tuple(make(r, o, i)
                     for i, (r, o) in enumerate(zip(ratios, offsets)))
    return IfsSystem(branches=branches, name="linear",
                     params={"ratios": ratios, "offsets": offsets})


def _mobius(a: float, b: float, c: float, d: float, **flags) -> Branch:
    """The branch y -> (a*y + b) / (c*y + d), with det = a*d - b*c > 0.

    Its derivative is det / den(y)^2 and its image width the exact
    difference det*w / (den(lo) * den(lo + w)), den(lo + w) = den(lo) + c*w.
    """
    det = a * d - b * c

    def den(y):
        return c * np.asarray(y, dtype=float) + d

    def map_width(lo, width):
        den_lo = den(lo)
        return det * width / (den_lo * (den_lo + c * width))

    return Branch(map=lambda y: (a * np.asarray(y, dtype=float) + b) / den(y),
                  derivative=lambda y: det / den(y) ** 2,
                  derivative_at_image=lambda x: (
                      a - c * np.asarray(x, dtype=float)) ** 2 / det,
                  map_width=map_width, **flags)


def example2_system() -> IfsSystem:
    """Inverse branches of x/(1-x) on [0,1/2] and (2x-1)/x on (1/2,1].

    Both branches are parabolic: the left at 0, the right at 1.  The branch
    images tile [0,1].
    """
    branches = (
        _mobius(1.0, 0.0, 1.0, 1.0, parabolic=True, fixed_point=0.0,
                label="left"),
        _mobius(0.0, 1.0, -1.0, 2.0, parabolic=True, fixed_point=1.0,
                label="right"),
    )
    return IfsSystem(branches=branches, name="example2")


def manneville_pomeau_system(beta: float) -> IfsSystem:
    """Inverse branches of x + x^(1+beta) mod 1 on [0,1], for any beta > 0.

    The forward map f is piecewise onto with branch domains split where
    x + x^(1+beta) crosses 1; the left inverse branch is parabolic at 0.
    Each Newton step takes one power, p = x^beta: residual (x - target) +
    x*p, derivative 1 + (1+beta)*p.

    Start.  When the system is built, each branch tabulates a cubic Hermite
    interpolant on ``_INVERSE_TABLE`` uniform cells.  The parabolic branch
    is x = y*R(s) with s = y^beta, where R + s*R^(1+beta) = 1: R(0) = 1,
    R(1) is the cut, R'(s) = -R^(1+beta) / (1 + (1+beta)*s*R^beta), and R
    is analytic in s, so the start is as good relatively at y = 1e-300 as
    at y = 1/2.  R is solved at the nodes directly, never as g(y)/y, which
    underflows for small beta.  The other branch interpolates x = g(y)
    against y with slopes 1/f'(x).  So a call takes one power for s on the
    parabolic branch and none on the other.

    Step and certificate.  The start, clamped into [lo, min(target, hi)],
    takes one Newton step.  A point that moved by c <= tol*x (tol =
    ``_NEWTON_CERTIFIED``) is done: f is convex with f' >= 1, so the next
    correction is at most f''/(2f') * c^2 <= beta/(2x) * c^2, a relative
    beta/2 * tol^2, below 2^-53 for every beta up to 2e4.  Any other point
    continues the monotone loop from its Newton point: a tangent step of
    the convex f lands right of the root, and from there Newton decreases
    monotonically onto it, stopping once no entry decreases (the fixed
    point 0 stays exact).  The same loop, from R = 1 or x = 1, builds the
    tables.  Points are solved ``_CHUNK`` at a time (a shorter remainder
    joins the part before), so the temporaries never grow with the input.
    """
    if not 0.0 < beta:
        raise ValueError("beta must be positive")

    def at_image(x):  # an inverse branch's derivative, 1/f'(x) at x = g(y)
        return 1.0 / (1.0 + (1.0 + beta) * np.asarray(x, dtype=float) ** beta)

    def newton(x, target, lo, p, xp, out, s=None):
        """The Newton step from x into ``out``, floored at lo; p and xp are
        scratch.  x - target is exact on the left branch (Sterbenz), so the
        residual carries no rounding of the forward value itself.  With s,
        the step solves x + s*x^(1+beta) = target instead."""
        np.power(x, beta, out=p)
        if s is not None:
            p *= s
        np.subtract(x, target, out=out)
        out += np.multiply(x, p, out=xp)  # the residual
        p *= 1.0 + beta
        p += 1.0  # the forward derivative
        out /= p
        np.subtract(x, out, out=out)
        np.maximum(out, lo, out=out)

    def descend(x, target, lo, s=None):
        """The monotone loop, in place from x right of the root."""
        p, xp, step = np.empty((3, x.size))
        for _ in range(_NEWTON_MAX_ITER):
            newton(x, target, lo, p, xp, step, s)
            if not (step < x).any():
                return x
            np.minimum(step, x, out=x)
        raise SolverError(
            f"Manneville-Pomeau inverse (beta={beta:g}) did not "
            f"settle in {_NEWTON_MAX_ITER} Newton steps")

    def hermite(x, dx):
        """Each cell's cubic in t in [0, 1], lowest power first, from node
        values x and slopes dx, then a constant cell for y = 1 itself."""
        d0, d1 = dx[:-1] / _INVERSE_TABLE, dx[1:] / _INVERSE_TABLE
        rise = np.diff(x)
        return np.stack([x, *(np.append(c, 0.0) for c in (
            d0, 3 * rise - 2 * d0 - d1, d0 + d1 - 2 * rise))])

    def invert(y, lo, hi, offset, table, parabolic):
        y = np.asarray(y, dtype=float)
        flat, inverse = y.ravel(), np.empty(y.size)
        # a chunk of cylinders and its last right end are one part
        starts = range(0, max(flat.size - _CHUNK, 0) + 1, _CHUNK)
        for part in map(slice, starts, [*starts[1:], flat.size]):
            target = flat[part] + offset
            top = np.minimum(target, hi)
            x, (at, xp, step) = inverse[part], np.empty((3, top.size))
            # the start: x(y), or y*R(s) at s = y^beta on the parabolic side
            u = np.power(flat[part], beta, out=at) if parabolic else flat[part]
            np.multiply(u, _INVERSE_TABLE, out=at)
            cell = at.astype(np.intp)
            at -= cell
            np.multiply(table[3].take(cell, mode="clip"), at, out=x)
            for k in (2, 1):  # Horner's rule
                x += table[k].take(cell, mode="clip")
                x *= at
            x += table[0].take(cell, mode="clip")
            if parabolic:
                x *= flat[part]
            np.maximum(x, lo, out=x)
            np.minimum(x, top, out=x)
            newton(x, target, lo, at, xp, step)
            np.abs(np.subtract(step, x, out=at), out=at)  # the step's size
            np.multiply(x, _NEWTON_CERTIFIED, out=xp)
            rest = np.flatnonzero(at > xp)  # not certified: the loop
            np.minimum(step, top, out=x)
            if rest.size:
                x[rest] = descend(x[rest], target[rest], lo)
        return inverse.reshape(y.shape)[()]

    nodes = np.linspace(0.0, 1.0, _INVERSE_TABLE + 1)
    ratio = descend(np.ones(nodes.size), 1.0, 0.0, nodes)  # R at s = nodes
    power, cut = ratio ** beta, float(ratio[-1])
    slope = -ratio * power / (1.0 + (1.0 + beta) * nodes * power)  # R'(s)
    image = descend(np.ones(nodes.size), nodes + 1.0, cut)  # the other branch

    def branch(lo, hi, offset, table, parabolic=False, **flags):
        def inverse(y):
            return invert(y, lo, hi, offset, table, parabolic)
        return Branch(map=inverse, derivative=lambda y: at_image(inverse(y)),
                      derivative_at_image=at_image, parabolic=parabolic,
                      **flags)

    branches = (branch(0.0, cut, 0.0, hermite(ratio, slope), parabolic=True,
                       fixed_point=0.0, label="left"),
                branch(cut, 1.0, 1.0, hermite(image, at_image(image)),
                       label="right"))
    return IfsSystem(branches=branches, name="manneville_pomeau",
                     params={"beta": float(beta), "cut": cut})
