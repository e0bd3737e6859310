"""Words, block measures, entropy and Birkhoff accounting on the full shift.

Symbols are 0-based integers 0..m-1 internally (1..m in rendered reports).
A length-n word indexes the cylinder of all sequences sharing its first n
symbols.  Block measures are dense probability vectors over the m^n words of
length n, in slot order (as in ``Alphabet.words`` and ``CylinderTable``);
all statistics of the induced n-th level Bernoulli concatenation are computed
from the block weights alone, never from materialized infinite sequences.

Entropy is in nats throughout.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType
from typing import Callable, Iterator, Mapping, Sequence

import numpy as np

from .errors import EnumerationLimitError

Word = tuple[int, ...]

#: Hard default on the number of words any operation will enumerate.
DEFAULT_WORD_CAP = 2**24

#: Weights below this are treated as exact zeros in entropy sums
#: (their contribution is below representable precision).
WEIGHT_FLOOR = 1e-300

_SUM_TOL = 1e-12
_STATIONARY_TOL = 1e-10


def word_label(w: Word) -> str:
    """Render a word with 1-based symbols, e.g. (0, 1, 0) -> '121'."""
    return "".join(str(s + 1) for s in w)


def slot_words(m: int, n: int, slots) -> list[Word]:
    """The length-n words at the given slot indices (base-m, first symbol
    most significant: the order of ``Alphabet.words``)."""
    digits = np.unravel_index(slots, (m,) * n)
    return list(zip(*(d.tolist() for d in digits)))


@dataclass(frozen=True)
class Alphabet:
    """A finite symbol set {0, ..., m-1}."""

    m: int

    def __post_init__(self):
        if self.m < 2:
            raise ValueError(f"alphabet needs at least 2 symbols, got {self.m}")

    def word_count(self, n: int) -> int:
        return self.m**n

    def check_cap(self, n: int, cap: int = DEFAULT_WORD_CAP) -> None:
        if n < 1:
            raise ValueError(f"word length must be >= 1, got {n}")
        if self.word_count(n) > cap:
            raise EnumerationLimitError(self.m, n, cap)

    def words(self, n: int, cap: int = DEFAULT_WORD_CAP) -> Iterator[Word]:
        """All length-n words in lexicographic order (first symbol varies slowest)."""
        self.check_cap(n, cap)
        return itertools.product(range(self.m), repeat=n)

    def validate_word(self, w: Word) -> None:
        if len(w) < 1:
            raise ValueError("words must have length >= 1")
        for s in w:
            if not 0 <= s < self.m:
                raise ValueError(f"symbol {s} outside alphabet of size {self.m}")


@dataclass(frozen=True)
class WordFunction:
    """A function of finite words approximating a continuous function on sequences.

    ``evaluate(w)`` returns the value attributed to the whole cylinder of ``w``;
    ``error_bound(n)`` bounds |true value at any sequence in the cylinder -
    evaluate(w)| for words of length n.  The bound must be nonincreasing in n
    and tend to 0 (checked empirically on the shipped instances).
    """

    evaluate: Callable[[Word], float]
    error_bound: Callable[[int], float]
    name: str = ""


@dataclass(frozen=True, eq=False)
class BlockMeasure:
    """Probability weights over the m^n words of length n, dense in slot order.

    ``p[i]`` is the weight of the word whose base-m digits, first symbol most
    significant, spell i.
    """

    m: int
    n: int
    p: np.ndarray

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("block length must be >= 1")
        p = np.asarray(self.p, dtype=float)
        object.__setattr__(self, "p", p)
        if p.shape != (self.m**self.n,):
            raise ValueError(f"{p.size} weights for {self.m}^{self.n} words")
        if (p < 0).any():
            raise ValueError(f"negative weight {p.min()} in block measure")
        # numpy's pairwise sum of nonnegative weights errs by at most
        # ~(18 + log2(m**n / 128)) * eps relative (unrolled 128-blocks, then
        # halving), under 4e-15 at the 2^24 word cap and far inside
        # _SUM_TOL; a NaN or an infinite sum fails the comparison below
        total = float(np.sum(p))
        if not abs(total - 1.0) <= _SUM_TOL:
            raise ValueError(f"weights sum to {total!r}, not 1 within {_SUM_TOL}")

    @classmethod
    def dirac(cls, w: Word, m: int) -> "BlockMeasure":
        p = np.zeros(m**len(w))
        p[np.ravel_multi_index(tuple(w), (m,) * len(w))] = 1.0
        return cls(m=m, n=len(w), p=p)

    @classmethod
    def uniform_full(cls, alphabet: Alphabet, n: int,
                     cap: int = DEFAULT_WORD_CAP) -> "BlockMeasure":
        alphabet.check_cap(n, cap)
        count = alphabet.word_count(n)
        return cls(m=alphabet.m, n=n, p=np.full(count, 1.0 / count))

    def support(self) -> list[Word]:
        slots = np.flatnonzero(self.p > WEIGHT_FLOOR)
        return slot_words(self.m, self.n, slots)

    @cached_property
    def weights(self) -> Mapping[Word, float]:
        """Read-only word-keyed view of ``p``, built on first access."""
        words = slot_words(self.m, self.n, np.arange(self.p.size))
        return MappingProxyType(dict(zip(words, self.p.tolist())))


@dataclass(frozen=True)
class MarkovChainSpec:
    """A finite-state Markov chain used as a test-measure generator."""

    transition: np.ndarray
    initial: np.ndarray
    stationary: bool = True

    def __post_init__(self):
        P = np.asarray(self.transition, dtype=float)
        p = np.asarray(self.initial, dtype=float)
        object.__setattr__(self, "transition", P)
        object.__setattr__(self, "initial", p)
        if P.ndim != 2 or P.shape[0] != P.shape[1]:
            raise ValueError("transition matrix must be square")
        if p.shape != (P.shape[0],):
            raise ValueError("initial vector length must match matrix size")
        if np.any(P < 0) or np.any(p < 0):
            raise ValueError("probabilities must be nonnegative")
        if np.max(np.abs(P.sum(axis=1) - 1.0)) > _SUM_TOL:
            raise ValueError("transition rows must sum to 1")
        if abs(p.sum() - 1.0) > _SUM_TOL:
            raise ValueError("initial vector must sum to 1")
        if self.stationary and np.max(np.abs(p @ P - p)) > _STATIONARY_TOL:
            raise ValueError("initial vector is not stationary for the matrix")

    @property
    def m(self) -> int:
        return self.transition.shape[0]

    @classmethod
    def iid(cls, p: Sequence[float]) -> "MarkovChainSpec":
        p = np.asarray(p, dtype=float)
        return cls(transition=np.tile(p, (len(p), 1)), initial=p)


def shannon_entropy(measure: BlockMeasure) -> float:
    """Shannon entropy sum_w p(w) log(1/p(w)) in nats, with 0 log(1/0) = 0."""
    return math.fsum(-p * math.log(p)
                     for p in measure.p.tolist() if p > WEIGHT_FLOOR)


def block_marginal(chain: MarkovChainSpec, n: int,
                   cap: int = DEFAULT_WORD_CAP) -> BlockMeasure:
    """Length-n word marginal of a Markov chain.

    weight(w_1..w_n) = p_{w_1} * prod_k P_{w_k, w_{k+1}}.  Enumerates all
    m^n words (guarded by ``cap``), appending one symbol per level so the
    array is already in slot order.
    """
    m = chain.m
    Alphabet(m).check_cap(n, cap)
    weights = chain.initial.copy()
    for k in range(1, n):
        last = np.arange(m**k) % m
        weights = (weights[:, None] * chain.transition[last, :]).ravel()
    return BlockMeasure(m=m, n=n, p=weights)


def birkhoff_sum(f: WordFunction, w: Word) -> float:
    """Sum of f over the suffixes w, sigma(w), ..., last symbol.

    Shifts past the end of the word are truncated: the k-th term is f
    evaluated on the length-(n-k) suffix, so dividing by n approximates the
    depth-n Birkhoff average of the induced sequence function with error at
    most (1/n) * sum_k error_bound(n-k).
    """
    w = tuple(w)
    return math.fsum(f.evaluate(w[k:]) for k in range(len(w)))


def birkhoff_average(f: WordFunction, w: Word) -> float:
    return birkhoff_sum(f, w) / len(w)


def variation_bound(f: WordFunction, n: int) -> float:
    """Upper bound on the n-th variation of the induced sequence function."""
    if n < 1:
        raise ValueError("variation depth must be >= 1")
    return 2.0 * f.error_bound(n)


@dataclass(frozen=True)
class AbramovStats:
    """Per-shift statistics of the Bernoulli extension of a block measure."""

    n: int
    entropy_rate: float
    averages: tuple[float, ...]


def abramov_stats(measure: BlockMeasure,
                  fs: Sequence[WordFunction]) -> AbramovStats:
    """Convert block-level statistics to per-shift statistics.

    The n-th level Bernoulli extension of the block measure has shift
    entropy H(measure)/n, and the per-shift mean of each f equals
    (1/n) * sum_w p(w) * birkhoff_sum(f, w).  With f the geometric
    potential this is the Lyapunov exponent; with f the target potential it
    is the constrained integral.
    """
    n = measure.n
    rate = shannon_entropy(measure) / n
    slots = np.flatnonzero(measure.p > WEIGHT_FLOOR)
    support = list(zip(slot_words(measure.m, n, slots),
                       measure.p[slots].tolist()))
    avgs = tuple(
        math.fsum(p * birkhoff_sum(f, w) for w, p in support) / n for f in fs)
    return AbramovStats(n=n, entropy_rate=rate, averages=avgs)
