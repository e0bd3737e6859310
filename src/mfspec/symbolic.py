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
import operator
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

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


_M32, _M64, _M128 = 2**32 - 1, 2**64 - 1, 2**128 - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


class PcgStream:
    """numpy's ``default_rng(seed)`` draws, bit for bit, without its random
    package: SeedSequence's hash of the seed's 32-bit words seeds PCG64, a
    128-bit LCG with XSL-RR output (O'Neill, HMC-CS-2014-0905).  A negative
    seed is a ``ValueError``, a non-integer one (``1.5``) a ``TypeError``."""

    @staticmethod
    def _hasher(const: int, mult: int) -> Callable[[int], int]:
        def hashmix(value: int) -> int:  # each call steps the constant
            nonlocal const
            value = (value ^ const) * (const := const * mult & _M32) & _M32
            return value ^ value >> 16
        return hashmix

    def __init__(self, seed: int):
        seed = operator.index(seed)
        if seed < 0:
            raise ValueError(f"seed must be nonnegative, got {seed}")
        words = [seed >> k & _M32 for k in range(0, seed.bit_length() or 1, 32)]
        hashmix = self._hasher(0x43B0D7E5, 0x931E8875)
        pool = [hashmix(w) for w in (words + [0] * 4)[:4]]
        # each pool word into every other, then each word past the pool
        for src, dst in [*itertools.permutations(range(4), 2),
                         *itertools.product(range(4, len(words)), range(4))]:
            x = (0xCA01F9DD * pool[dst]
                 - 0x4973F715 * hashmix((pool + words[4:])[src])) & _M32
            pool[dst] = x ^ x >> 16
        state = self._hasher(0x8B51F9DD, 0x58F38DED)  # 4 uint64 words
        a, b, c, d = (state(pool[i]) | state(pool[i + 1]) << 32
                      for i in (0, 2, 0, 2))
        self._inc = inc = (c << 65 | d << 1 | 1) & _M128  # pcg64_set_seed
        self._state = (inc + (a << 64 | b)) * _PCG_MULT + inc & _M128
        self._half = np.zeros(0, dtype=np.uint64)  # a high half not yet used

    def _next64(self, k: int) -> np.ndarray:
        s, inc, out = self._state, self._inc, []
        for _ in range(k):
            s = (s * _PCG_MULT + inc) & _M128
            x, r = (s >> 64 ^ s) & _M64, s >> 122
            out.append((x >> r | x << 64 - r) & _M64)
        self._state = s
        return np.array(out, dtype=np.uint64)

    def random(self, k: int) -> np.ndarray:
        """k doubles in [0, 1), as ``Generator.random(k)``."""
        return (self._next64(k) >> 11) * 2.0**-53

    def integers(self, m: int, shape) -> np.ndarray:
        """int64 in [0, m), 1 <= m <= 2**32, as ``Generator.integers(0, m,
        shape)``: Lemire's method on the 32-bit halves numpy buffers."""
        out = np.zeros(math.prod(shape), dtype=np.int64)
        need = out.size if m > 1 else 0
        while need:  # a rejected half is skipped: draw again for it
            draws = self._next64((need - self._half.size + 1) // 2)
            halves = np.append(self._half, np.c_[draws & _M32, draws >> 32])
            prod, self._half = halves[:need] * np.uint64(m), halves[need:]
            kept = prod[(prod & _M32) >= 2**32 % m] >> 32
            out[-need:][:kept.size] = kept
            need -= kept.size
        return out.reshape(shape)


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

    def check_cap(self, n: int) -> None:
        """Refuse n unless m^n <= ``DEFAULT_WORD_CAP``; a far depth (a
        config's n = 10**9) is refused on logarithms, before m^n is formed."""
        if n < 1:
            raise ValueError(f"word length must be >= 1, got {n}")
        if (n > math.log(DEFAULT_WORD_CAP, self.m) + 1.0
                or self.word_count(n) > DEFAULT_WORD_CAP):
            raise EnumerationLimitError(self.m, n, DEFAULT_WORD_CAP)

    def words(self, n: int) -> Iterator[Word]:
        """All length-n words in lexicographic order (first symbol varies slowest)."""
        self.check_cap(n)
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


def check_weights(p: np.ndarray, count: np.ndarray | float = 1.0) -> None:
    """Refuse weights that are not a probability vector: ``ValueError`` on a
    negative weight, or unless sum(count * p) is 1 within ``_SUM_TOL``, where
    ``count[i]`` words share weight ``p[i]`` (a scalar count is 1.0)."""
    if (p < 0).any():
        raise ValueError(f"negative weight {p.min()} in block measure")
    # numpy's pairwise sum of nonnegative weights errs by at most
    # ~(18 + log2(m**n / 128)) * eps relative (unrolled 128-blocks, then
    # halving), under 4e-15 at the 2^24 word cap and far inside
    # _SUM_TOL; a NaN or an infinite sum fails the comparison below
    total = float(np.sum(p * count if np.ndim(count) else p))
    if not abs(total - 1.0) <= _SUM_TOL:
        raise ValueError(f"weights sum to {total!r}, not 1 within {_SUM_TOL}")


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
        check_weights(p)

    @classmethod
    def dirac(cls, w: Word, m: int) -> "BlockMeasure":
        p = np.zeros(m**len(w))
        p[np.ravel_multi_index(tuple(w), (m,) * len(w))] = 1.0
        return cls(m=m, n=len(w), p=p)

    @classmethod
    def uniform_full(cls, alphabet: Alphabet, n: int) -> "BlockMeasure":
        alphabet.check_cap(n)
        count = alphabet.word_count(n)
        return cls(m=alphabet.m, n=n, p=np.full(count, 1.0 / count))

    def support(self) -> list[Word]:
        slots = np.flatnonzero(self.p > WEIGHT_FLOOR)
        return slot_words(self.m, self.n, slots)


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
    """Shannon entropy sum_w p(w) log(1/p(w)) in nats, with 0 log(1/0) = 0:
    one pairwise sum over the weights above ``WEIGHT_FLOOR``, in one array."""
    p = measure.p
    terms = np.log(p, out=np.zeros_like(p), where=p > WEIGHT_FLOOR)
    return -float(np.multiply(terms, p, out=terms).sum())


def block_marginal(chain: MarkovChainSpec, n: int) -> BlockMeasure:
    """Length-n word marginal of a Markov chain.

    weight(w_1..w_n) = p_{w_1} * prod_k P_{w_k, w_{k+1}}.  Enumerates all
    m^n words (at most ``DEFAULT_WORD_CAP``), appending one symbol per
    level so the array is already in slot order.
    """
    m = chain.m
    Alphabet(m).check_cap(n)
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
    avgs = ()
    if fs:  # list the support words only when some f reads them
        slots = np.flatnonzero(measure.p > WEIGHT_FLOOR)
        support = list(zip(slot_words(measure.m, n, slots),
                           measure.p[slots].tolist()))
        avgs = tuple(math.fsum(p * birkhoff_sum(f, w) for w, p in support) / n
                     for f in fs)
    return AbramovStats(n=n, entropy_rate=rate, averages=avgs)
