"""Dimension estimators for Birkhoff-average level sets of an interval IFS.

Two routes are combined per level value alpha:

* a variational lower route: maximize block entropy over expected log
  cylinder length among depth-n block measures whose mean potential sum is
  n * alpha.  The maximizer is a Gibbs measure exp(-t*ell + q*phi) whose
  (t, q) solves log Z = q * n * alpha at mean n * alpha; then H/L = t.  One
  Newton solver takes every root the estimators need (Moran roots are its
  q = 0 case; at an end of the achievable range the value is the extreme
  words' Moran root), and a sweep continues it from level to level.  The
  value is the entropy/length ratio of an explicitly constructed feasible
  measure, hence a certified finite-depth value.

* a cover upper route: the Moran exponent of the depth-n cylinders whose
  word average falls inside the alpha window, widened to the resolution the
  window actually certifies (twice the window plus the word-approximation
  slack).

Both routes read every depth-n input from one ``DepthContext``: its
system, potential, options, (width, phi) rows (words, or symbol
compositions on affine branches with a word-local potential) and Lyapunov
floor, so both columns estimate the same level set, lambda_n >= delta.

Systems with indifferent fixed points get special dispatch: on the interval
spanned by the potential values at those fixed points, the level-set
dimension equals the attractor dimension, so both routes are replaced by the
unfiltered Moran estimate and the point is flagged.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .errors import (AlphaUnreachableError, InfeasibleAlphaError,
                     InvalidScheduleError, MfspecError, NoCylindersError,
                     NotContractingError, SolverError)
# CylinderTable and potential_arrays: unused here, wrapped by perfbench
from .geometry import (_CHUNK, CylinderTable, IfsSystem, Interval, _parts,
                       _suffix_cylinders, compositions, neg_log_derivative,
                       top_level)
from .potentials import PotentialSpec, potential_arrays
from .symbolic import WEIGHT_FLOOR, BlockMeasure, PcgStream, check_weights

_Q_EXP_LIMIT = 700.0
_TIE_TOL = 1e-9
_SCHEDULE_TOL = 1e-12


# The (t, q) solver settles once H/L is within MORAN_TOL of t and the mean
# within ALPHA_TOL per symbol of its target, and gives up after MAX_ITER
# steps; a level within BOUNDARY_TOL of the achievable edge is a boundary.
MORAN_TOL = 1e-10
ALPHA_TOL = 1e-9
BOUNDARY_TOL = 1e-9
MAX_ITER = 200


@dataclass(frozen=True)
class SolverOptions:
    """Knobs shared by the depth-n estimators.

    ``rho`` is the alpha-window half-width for the cover route (None picks
    max(0.05, twice the word-approximation slack)).  ``delta`` is the
    Lyapunov floor of both routes, excluding words with lambda_n below it
    (None picks ``DepthContext.delta``'s default).
    """

    n: int = 10
    rho: float | None = None
    delta: float | None = None

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("solver depth n must be >= 2")
        if self.rho is not None and not 0 < self.rho < math.inf:
            raise ValueError("rho must be positive and finite")
        if self.delta is not None and not 0 <= self.delta < math.inf:
            raise ValueError("delta must be nonnegative and finite")


@dataclass(frozen=True)
class LowerBoundResult:
    """Certified feasible value of the depth-n variational problem.

    ``row_weights`` is one word's weight per row of ``context.rows`` (0 on
    the rows ``mask``, the floor's or a boundary's, leaves out), checked
    by ``lower_bound`` to sum to 1 over the words.  It is formed when
    first read, from (t, q) and the partition sum ``z`` by
    ``Rows.word_weights`` as the solve formed it, bit for bit, and
    ``measure``, the per-word ``BlockMeasure``, gathers it through
    ``context.word_row``.  So a result holds no word array, and a sweep
    that reads only the numbers forms none after the context.
    """

    dim: float
    t: float
    q: float | None
    alpha_achieved: float
    lyapunov: float
    entropy_rate: float
    iterations: int
    gibbs_evals: int
    boundary: bool
    z: float = field(repr=False, compare=False)
    mask: np.ndarray | None = field(repr=False, compare=False)
    context: DepthContext = field(repr=False, compare=False)

    @cached_property
    def row_weights(self) -> np.ndarray:
        rows, mask = self.context.rows.where(self.mask), self.mask
        w = rows.word_weights(self.t, self.q or 0.0, self.z,
                              np.empty_like(rows.ell), np.empty_like(rows.ell))
        if mask is None:
            return w
        weights = np.zeros(mask.size)  # the masked rows weigh nothing
        weights[mask] = w
        return weights

    @cached_property
    def measure(self) -> BlockMeasure:
        ctx = self.context
        return BlockMeasure(m=ctx.system.m, n=ctx.n,
                            p=self.row_weights.take(ctx.word_row))


@dataclass(frozen=True)
class UpperBoundResult:
    """Moran exponent of the windowed depth-n cylinder cover."""

    s_n: float
    cover_size: int
    moran_evals: int


@dataclass(frozen=True)
class SpectrumPoint:
    """One row of a spectrum table (the attractor row has no alpha or flag)."""

    alpha: float | None
    lower: float | None
    upper: float | None
    in_parabolic_interval: bool | None
    n: int
    rho: float | None = None
    delta: float | None = None
    lemma1_gap: float | None = None
    iterations: int | None = None
    t: float | None = None
    q: float | None = None
    cover_size: int | None = None
    gibbs_evals: int | None = None
    moran_evals: int | None = None
    error: str | None = None


@dataclass(frozen=True)
class SamplerCheckpoint:
    """Birkhoff diagnostics at the end of one alternating stage."""

    stage: int
    n: int
    f_average: float
    g_average: float
    k: int
    eps: float


def _debug(msg: str, *args) -> None:
    """Debug record on the ``mfspec.spectrum`` logger (silent by default).

    Emitted only once something else has imported ``logging``: before that
    no handler can exist, so the record would be dropped, and neither the
    package's import nor its first call loads ``logging``.
    """
    logging = sys.modules.get("logging")
    if logging is not None:
        logging.getLogger(__name__).debug(msg, *args)


# ---------------------------------------------------------------------------
# partition function over (width, phi) rows
# ---------------------------------------------------------------------------

class _Gibbs(NamedTuple):
    """Moments of the word weights exp(-t*ell + q*phi - shift) / z:
    ``cov`` is Cov(ell, phi) and ``var`` is Var(phi)."""

    shift: float
    z: float
    entropy: float
    e_ell: float
    e_phi: float
    cov: float
    var: float


class Rows(NamedTuple):
    """Depth-n cylinders as rows, with their partition function.

    Row i stands for ``count[i]`` cylinders of minus log-diameter ``ell[i]``
    and Birkhoff sum ``phi[i]``; rows may come in any order, and two rows
    may share a pair.  ``log_z`` alone forms the weights of
    Z(t, q) = sum count * exp(-t*ell + q*phi): the Gibbs statistics are its
    derivatives, and a Moran root solves Z(s, 0) = 1 without ``phi``.  A
    scalar count is 1.0, one word per row: ``log_z`` skips the multiply.
    """

    ell: np.ndarray
    phi: np.ndarray | None
    count: np.ndarray | float

    def where(self, mask: np.ndarray | None) -> Rows:
        return self if mask is None else Rows(  # None: no floor
            *(a if np.ndim(a) == 0 else a[mask] for a in self))

    def words(self) -> float:
        """The number of cylinders the rows stand for."""
        return float(np.sum(np.broadcast_to(self.count, self.ell.shape)))

    def log_z(self, t, q, w, tmp=None) -> tuple[float, float]:
        """Max-shifted partition sum: ``(shift, z)`` with log Z = shift + log z.

        ``w`` ends up holding the row weights count * exp(-t*ell + q*phi -
        shift) and ``tmp`` is scratch; both have the length of the rows.  At
        q = 0 the q*phi term is skipped: bit-exact, since x + 0*phi = x.
        """
        np.multiply(self.ell, -t, out=w)
        if q != 0.0:
            np.multiply(self.phi, q, out=tmp)
            w += tmp
        shift = float(w.max())
        w -= shift
        np.exp(w, out=w)
        if np.ndim(self.count) or self.count != 1.0:  # x * 1.0 = x
            w *= self.count
        return shift, float(w.sum())

    def word_weights(self, t, q, z, w, tmp) -> np.ndarray:
        """One word's weight per row, exp(-t*ell + q*phi - shift) / z, into
        ``w``: ``log_z`` with unit counts, so with the same shift, over the
        ``z`` the counted ``log_z`` gave at (t, q)."""
        Rows(self.ell, self.phi, 1.0).log_z(t, q, w, tmp)
        w /= z
        return w

    def gibbs(self, t, q, w, tmp) -> _Gibbs:
        """Gibbs moments at (t, q) in one pass over the two buffers ``log_z``
        takes; ``w`` ends up holding the weights times phi - E[phi].

        phi is centred at its Gibbs mean before the second moments are
        summed, so Var(phi) and Cov(ell, phi) are sums of centred products
        and do not cancel, however far the mean is from a target.  Rows
        without ``phi`` (Moran rows) read it as 0 and need no ``tmp``."""
        shift, z = self.log_z(t, q, w, tmp)
        e_ell = float(w @ self.ell) / z
        if self.phi is None:
            return _Gibbs(shift, z, shift + math.log(z) + t * e_ell, e_ell,
                          0.0, 0.0, 0.0)
        e_phi = float(w @ self.phi) / z
        np.subtract(self.phi, e_phi, out=tmp)
        w *= tmp
        entropy = shift + math.log(z) + t * e_ell - q * e_phi
        return _Gibbs(shift, z, entropy, e_ell, e_phi,
                      float(w @ self.ell) / z, float(w @ tmp) / z)

    def moran_root(self) -> tuple[float, int]:
        """Unique s >= 0 with Z(s, 0) = 1 and the partition sums it took:
        ``_solve_tq`` with q pinned at 0, whose Newton steps climb from log C
        / max ell (C >= 1 the count; the root on rows of one width) onto the
        convex decreasing log Z(s, 0), to within about MORAN_TOL squared;
        the point the last step reaches is not summed."""
        ell = self.ell
        if ell.size == 0:
            raise NoCylindersError("no cylinders to cover with")
        if float(np.min(ell)) <= 0.0:
            raise NotContractingError(
                "some cylinder diameter is >= 1; increase the depth n")
        s, _, _, sums, settled = _solve_tq(Rows(ell, None, self.count), 0.0,
                                           0.0, np.empty_like(ell))
        if not settled:
            raise SolverError(f"Moran root did not settle in {MAX_ITER} steps")
        _debug("Moran root over %d rows: s=%.17g after %d sums", ell.size, s,
               sums)
        return s, sums


def moran_dimension(system: IfsSystem, n: int) -> float:
    """Moran exponent of every depth-n cylinder: the attractor estimate.

    The sum runs over ``top_level``'s rows with their word counts: on
    affine branches, one per composition of n over the distinct slopes
    (n + 1 of them on linear [1/2, 1/3]), else one per word.
    """
    level = top_level(system, n)
    ell = np.negative(np.log(level.width, out=level.width), out=level.width)
    return Rows(ell, None, level.count).moran_root()[0]


# ---------------------------------------------------------------------------
# shared depth-n arrays
# ---------------------------------------------------------------------------

class DepthContext:
    """Depth-n data shared by both estimator routes.

    ``rows`` is the only depth-n state: the depth-n rows of one
    ``top_level`` call, in its order, which also gives ``lemma1_gap`` and
    ``slack``.  Everything the routes compute (the partition sum
    ``Rows.log_z`` behind the Gibbs and Moran solvers, the cover window,
    the Lyapunov ``floor``, the block measure's weights) is a sum over
    rows or depends on a word only through its (width, phi) pair, so no
    row order or further grouping is needed.  On affine branches with a
    word-local potential a row is a composition of n over the symbol kinds,
    with its lowest-slot word's width and sum and its word count (linear
    [1/2, 1/2] at n=18: 2^18 words, 19 rows; the context peaks at 0.01
    word arrays).  Otherwise each word is a row, in slot order, and
    ``rows.count`` is the scalar 1.0.  ``word_row`` maps each word to its
    row, formed when first read (``LowerBoundResult.measure`` reads it, a
    sweep does not).  One debug record gives the words, rows and nodes.
    ``delta`` is the Lyapunov floor of both routes: ``opts.delta``, else
    1e-3 * log m on parabolic systems, else 0.  ``floor`` and
    ``phi_range`` are formed from it once, from the rows' values: a
    composition is judged by its lowest word's rate and sum.
    """

    def __init__(self, system: IfsSystem, potential: PotentialSpec,
                 opts: SolverOptions | None = None):
        self.opts = opts or SolverOptions()
        self.system = system
        self.potential = potential
        self.n = self.opts.n
        self.delta = self.opts.delta if self.opts.delta is not None else (
            1e-3 * math.log(system.m) if system.has_parabolic else 0.0)
        level = top_level(system, self.n, potential, gap=True)
        self.lemma1_gap, self._kind = level.gap, level.kind
        self.slack = (0.5 * potential.lipschitz
                      * math.fsum(level.max_diameters) / self.n)
        ell = level.width
        self.rows = Rows(np.negative(np.log(ell, out=ell), out=ell),
                         level.phi, level.count)
        _debug("depth %d: %d words in %d (width, phi) rows, %d nodes stepped",
               self.n, system.m**self.n, ell.size, level.nodes)

    @cached_property
    def word_row(self) -> np.ndarray:
        """Each word's row (int32, m^n entries in slot order), formed when
        first read: the identity, or its composition's by child maps
        composed as ``fold`` names suffixes (symbol a before a composition
        of j - 1 makes the one of j its sorted kind digits name)."""
        m, n, kind = self.system.m, self.n, self._kind
        if kind is None:
            return np.arange(m**n, dtype=np.int32)
        k, row = int(kind.max()) + 1, kind  # depth 1: each symbol's kind
        for j in range(2, n + 1):  # sorted digits compare as their codes
            below, scale = compositions(k, j - 1), k ** np.arange(j)[::-1]
            child = np.sort(np.c_[np.repeat(kind, len(below)),
                                  np.tile(below, (m, 1))]) @ scale
            row = np.searchsorted(compositions(k, j) @ scale, child).reshape(
                m, -1)[:, row].ravel()
        return row.astype(np.int32)

    @cached_property
    def floor(self) -> np.ndarray | None:
        """Rows with lambda_n = ell / n >= ``delta``: None if that is every
        row, ``NoCylindersError`` if it is none."""
        mask = self.rows.ell / self.n >= self.delta
        if mask.all():
            return None
        if not mask.any():
            raise NoCylindersError(
                f"Lyapunov floor {self.delta:g} excludes every word")
        return mask

    @cached_property
    def phi_range(self) -> tuple[float, float]:
        """Least and greatest Birkhoff sum among the rows ``floor`` keeps."""
        phi = self.rows.where(self.floor).phi
        return float(np.min(phi)), float(np.max(phi))

    @cached_property
    def attractor_root(self) -> tuple[float, int]:
        """Moran root of every row and the partition sums it took."""
        return self.rows.moran_root()

    @property
    def attractor_dimension(self) -> float:
        return self.attractor_root[0]

    @property
    def rho(self) -> float:
        """Cover window half-width; ValueError unless it exceeds the slack."""
        rho = self.opts.rho
        if rho is None:
            return max(0.05, 2.0 * self.slack)
        if rho <= self.slack:
            raise ValueError(
                f"window rho={rho:g} must exceed the word-approximation slack "
                f"{self.slack:g} at depth {self.n}")
        return rho


# ---------------------------------------------------------------------------
# parabolic dispatch interval
# ---------------------------------------------------------------------------

def parabolic_interval(system: IfsSystem,
                       potential: PotentialSpec) -> Interval | None:
    """Potential-value span of the indifferent fixed points, or None.

    On this interval the level-set dimension equals the attractor dimension;
    a system with no parabolic branch returns None and the spectrum dispatch
    never takes the flagged path.  The constant word of symbol s is the
    width-0 cylinder at s's fixed point.
    """
    symbols = system.parabolic_symbols
    if not symbols:
        return None
    vals = potential.on_cylinders(system.m, np.array(symbols), np.array(
        [system.branches[s].fixed_point for s in symbols]), 0.0)
    return Interval(float(np.min(vals)), float(np.max(vals)))


# ---------------------------------------------------------------------------
# cover upper route
# ---------------------------------------------------------------------------

def upper_bound(ctx: DepthContext, alpha: float) -> UpperBoundResult:
    """Moran exponent of the cylinders whose word average sits near alpha.

    The cover keeps words with |A_n f - alpha| below twice the window rho
    plus the word-approximation slack; that widened half-width is what a
    finite-depth window actually certifies about means over the covered
    cylinders.  The context's Lyapunov floor (``DepthContext.floor``)
    drops words with lambda_n below ``DepthContext.delta``, as in the lower
    route.  The exponent is ``Rows.moran_root`` over the kept rows, and
    ``moran_evals`` counts its partition sums.  An empty window raises
    ``AlphaUnreachableError`` with the nearest word average and the range of
    averages among the words the floor keeps (``NoCylindersError`` if it
    keeps none), or ``InfeasibleAlphaError`` if alpha is not finite.
    """
    n = ctx.n
    half = 2.0 * ctx.rho + ctx.slack
    mask = ctx.floor
    rows = ctx.rows
    keep = rows.phi / n  # the window test's one float temporary
    keep = np.abs(np.subtract(keep, alpha, out=keep), out=keep) < half
    if mask is not None:
        keep &= mask
    if not keep.any():
        lo_phi, hi_phi = ctx.phi_range
        achievable = lo_phi / n, hi_phi / n
        if not math.isfinite(alpha):
            raise InfeasibleAlphaError(alpha, achievable)
        avg = rows.where(mask).phi / n
        nearest = float(avg[np.argmin(np.abs(avg - alpha))])
        raise AlphaUnreachableError(alpha, half, nearest, achievable)
    # copy once, through window and floor together, only what Moran sums read
    cover = Rows(rows.ell, None, rows.count).where(keep)
    s, evals = cover.moran_root()
    return UpperBoundResult(s_n=s, cover_size=int(cover.words()),
                            moran_evals=evals)


# ---------------------------------------------------------------------------
# variational lower route
# ---------------------------------------------------------------------------

def _solve_tq(rows: Rows, target: float, tol: float, w: np.ndarray,
              tmp: np.ndarray | None = None, start: tuple | None = None,
              cap: float = 0.0) -> tuple:
    """Root (t, q) of F = (log Z - q*target, E[phi] - target) on ``rows``:
    the point, its moments (None for a Moran root), steps and if settled.

    From ``start`` (None: q = 0 and log C / max ell, the root if the rows
    have one width), each step evaluates the moments, which hold F's
    Jacobian (-E[ell], E[phi] - target; -Cov(ell, phi), Var(phi)).  A point
    whose merit |E[phi] - target| / sqrt(Var(phi)) + |H/L - t| is at most
    half the one before's takes Newton's step; any other, or one where
    Newton's dq has no positive divisor while Var(phi) > 0, the safeguarded
    step: t to H/L (Dinkelbach's), q by the q part of Newton's step given
    that dt.  Both keep |dq| * sqrt(Var(phi)) <= 2 and |q| <= ``cap`` (0
    pins q, and every step is then Newton's).  A point past the target from
    the one before, by over ``tol`` and no less than two back, is halved
    back toward it.  Once within ``tol`` with H/L within MORAN_TOL of t, the
    point one Newton step on is returned, unevaluated on rows without
    ``phi``.  It stops unsettled after MAX_ITER steps, or with q at the cap
    short of the target (logged).
    """
    t, q = start or (math.log(rows.words()) / float(np.max(rows.ell)), 0.0)
    q = min(max(q, -cap), cap)
    settled = start is None and float(np.ptp(rows.ell)) == 0.0
    last, kept = math.inf, []  # kept: the last two points
    for steps in range(MAX_ITER + 1):
        if settled and rows.phi is None:  # a Moran root: s is all it gives
            return t, q, None, steps, True
        gibbs = rows.gibbs(t, q, w, tmp)
        if settled or steps == MAX_ITER:
            return t, q, gibbs, steps, settled
        residual = gibbs.e_phi - target
        if (len(kept) == 2 and residual * kept[1][2] < 0.0
                and abs(residual) > tol and abs(residual) >= abs(kept[0][2])):
            _debug("halving back: residual %.3g", residual)
            t, q = 0.5 * (t + kept[1][0]), 0.5 * (q + kept[1][1])
            continue
        kept = [*kept[-1:], (t, q, residual)]
        ratio = gibbs.entropy / gibbs.e_ell
        sd = max(math.sqrt(gibbs.var), 1e-150)
        merit = abs(ratio - t) + abs(residual) / sd
        _debug("Newton step %d: t=%.17g q=%.17g residual=%.3g", steps + 1,
               t, q, residual)
        settled = abs(residual) <= tol and abs(ratio - t) <= MORAN_TOL
        if not settled and abs(q) == cap and q * residual < 0.0:
            _debug("multiplier clamped at q=%.17g: target %.17g beyond "
                   "the Gibbs mean %.17g", q, target, gibbs.e_phi)
            return t, q, gibbs, steps, False
        # Newton: dt solves F's first row, dq divides by E[ell]'s complement
        k = residual / gibbs.e_ell
        dt = (gibbs.shift + math.log(gibbs.z) - q * target) / gibbs.e_ell
        den = gibbs.var - gibbs.cov * k
        newton, last = settled or not cap or merit <= 0.5 * last, merit
        if not newton or den <= 0.0 < gibbs.var:  # the safeguarded step
            k, dt, den = 0.0, ratio - t, gibbs.var
        dq = gibbs.cov * dt - residual
        if den > 0.0:
            dq = min(max(dq / den, -2.0 / sd), 2.0 / sd)
        elif dq:  # phi is constant under the measure: head for the cap
            dq = math.copysign(2.0 * cap, dq)
        dq = min(max(q + dq, -cap), cap) - q
        t, q = t + dt + k * dq, q + dq


def lower_bound(ctx: DepthContext, alpha: float, *,
                start: tuple[float, float] = (0.0, 0.0)) -> LowerBoundResult:
    """Best entropy/length ratio over depth-n block measures with mean alpha.

    The maximizer is the Gibbs measure exp(-t*ell + q*phi) / Z with ratio
    H/L = t and mean potential sum n * alpha: ``_solve_tq`` from ``start``
    (a sweep's prediction), once more from (0, 0) if that start clamps or
    does not settle.  ``iterations`` counts both attempts' steps, the
    restart as one; ``gibbs_evals`` is ``iterations`` + 1.  A point off the
    constraint by over 10 times its tolerance raises ``SolverError``.  At a
    boundary alpha only the extreme words meet the constraint: their rows
    join the floor mask, q is pinned at 0 (reported as None) and ``dim`` is
    their Moran root t itself.  The final word weights exp(q*phi - t*ell -
    shift) / z, one per (width, phi) row (``Rows.word_weights``), are
    formed in the solve's buffers and checked as a ``BlockMeasure``'s are;
    the result keeps (t, q, z, mask), from which ``LowerBoundResult``
    forms them again, bit for bit, when first read.
    """
    n = ctx.n
    mask = ctx.floor
    target = n * alpha
    lo_phi, hi_phi = ctx.phi_range
    lo_avg, hi_avg = lo_phi / n, hi_phi / n
    if not lo_avg - BOUNDARY_TOL <= alpha <= hi_avg + BOUNDARY_TOL:  # or NaN
        raise InfeasibleAlphaError(alpha, (lo_avg, hi_avg))

    at_hi = alpha >= hi_avg - BOUNDARY_TOL
    boundary = at_hi or alpha <= lo_avg + BOUNDARY_TOL
    aim = (hi_phi if at_hi else lo_phi) if boundary else target
    if boundary:  # only the extreme words meet the constraint
        tie = np.abs(ctx.rows.phi - aim) <= _TIE_TOL
        mask = tie if mask is None else mask & tie
    rows = ctx.rows.where(mask)
    cap = 0.0 if boundary else _Q_EXP_LIMIT / max(  # max |phi|, unformed
        -float(np.min(rows.phi)), float(np.max(rows.phi)), 1e-12)
    q_tol = n * ALPHA_TOL * max(1.0, abs(alpha))
    w, tmp = np.empty((2, rows.ell.size))
    iterations = -1
    for begin in (None,) if boundary else dict.fromkeys((start, (0.0, 0.0))):
        t, q, gibbs, steps, settled = _solve_tq(rows, aim, q_tol, w, tmp,
                                                begin, cap)
        iterations += steps + 1
        if settled:
            break
    e_phi = gibbs.e_phi
    if not settled and (steps == MAX_ITER or abs(e_phi - target) > 10 * q_tol):
        raise SolverError(
            f"(t, q) unsettled after {iterations} steps, constraint residual "
            f"{abs(e_phi - target):g}, |q| cap {cap:g}: alpha={alpha:g} in "
            f"[{lo_avg:.6g}, {hi_avg:.6g}] at depth {n}")
    check_weights(rows.word_weights(t, q, gibbs.z, w, tmp), rows.count)
    entropy, e_ell = gibbs.entropy, gibbs.e_ell
    return LowerBoundResult(
        dim=t if boundary else entropy / e_ell, t=t,
        q=None if boundary else q,
        alpha_achieved=e_phi / n, lyapunov=e_ell / n,
        entropy_rate=entropy / n, iterations=iterations,
        gibbs_evals=iterations + 1, boundary=boundary, z=gibbs.z, mask=mask,
        context=ctx)


# ---------------------------------------------------------------------------
# spectrum sweep
# ---------------------------------------------------------------------------

def full_spectrum(system: IfsSystem, potential: PotentialSpec,
                  alphas: Iterable[float],
                  opts: SolverOptions | None = None) -> list[SpectrumPoint]:
    """Lower and upper estimates for level values, sorted by alpha, NaN last.

    Points inside the indifferent-fixed-point interval are flagged and get
    the unfiltered attractor estimate for both columns.  Estimator errors are
    per point: a failed point carries its message and the sweep continues.
    A zero depth-n width (``DegenerateCylinderError``) and an invalid ``rho``
    are sweep-level preconditions, raised before any point is computed.
    Each interior level's (t, q) solve starts from the secant through the
    last two interior levels solved, at most 4 spacings on.
    """
    ctx = DepthContext(system, potential, opts)
    interval = parabolic_interval(system, potential)
    rho = ctx.rho  # alpha-independent precondition; fail before sweeping
    solved = [(-math.inf, 0.0, 0.0)] * 2  # two cold starts, then (alpha, t, q)

    def compute(alpha: float) -> SpectrumPoint:
        if interval is not None and interval.contains(alpha):
            s = ctx.attractor_dimension
            return SpectrumPoint(
                alpha=alpha, lower=s, upper=s, in_parabolic_interval=True,
                n=ctx.n, rho=rho, delta=0.0, lemma1_gap=ctx.lemma1_gap,
                moran_evals=ctx.attractor_root[1])
        point, errors = {"lower": None, "upper": None}, []
        try:
            (a0, t0, q0), (a1, t1, q1) = solved[-2:]
            u = min((alpha - a1) / (a1 - a0), 4.0) if a1 != a0 else 0.0
            lb = lower_bound(ctx, alpha, start=(t1 + u * (t1 - t0),
                                                q1 + u * (q1 - q0)))
            if not lb.boundary:
                solved.append((alpha, lb.t, lb.q))
            point.update(lower=lb.dim, t=lb.t, q=lb.q,
                         iterations=lb.iterations, gibbs_evals=lb.gibbs_evals)
        except MfspecError as exc:
            errors.append(f"lower: {exc}")
        try:
            ub = upper_bound(ctx, alpha)
            point.update(upper=ub.s_n, cover_size=ub.cover_size,
                         moran_evals=ub.moran_evals)
        except MfspecError as exc:
            errors.append(f"upper: {exc}")
        return SpectrumPoint(
            alpha=alpha, in_parabolic_interval=False, n=ctx.n, rho=rho,
            delta=ctx.delta, lemma1_gap=ctx.lemma1_gap,
            error="; ".join(errors) or None, **point)

    return [compute(a) for a in sorted(map(float, alphas),
                                       key=lambda a: (math.isnan(a), a))]


# ---------------------------------------------------------------------------
# alternating-block sampler
# ---------------------------------------------------------------------------

class _Windows(NamedTuple):
    """The distinct length-``depth`` windows of a symbol sequence.

    Window i has first symbol ``first[i]`` and cylinder [lo[i], lo[i] +
    width[i]].  The window starting at ``starts[j]`` (sorted) is
    ``start_window[j]``; every other start lies in a run of one symbol at
    least ``depth`` long, and its window is that symbol's ``symbol_window``
    (-1 for a symbol with no such run).  ``nodes`` suffix nodes were stepped.
    """

    first: np.ndarray
    lo: np.ndarray
    width: np.ndarray
    starts: np.ndarray
    start_window: np.ndarray
    symbol_window: np.ndarray
    nodes: int

    def of(self, seq: np.ndarray, a: int, b: int) -> np.ndarray:
        """Window index of the windows of ``seq`` starting at a, ..., b - 1."""
        window = self.symbol_window[seq[a:b]]
        i, j = np.searchsorted(self.starts, (a, b))
        window[self.starts[i:j] - a] = self.start_window[i:j]
        return window


def _window_midpoints(system: IfsSystem, seq: np.ndarray,
                      depth: int) -> _Windows:
    """Cylinders of the distinct length-``depth`` windows of ``seq``.

    A window lies inside one run of a symbol exactly when that run, read
    from the window's start, is at least ``depth`` long; all such windows
    are that symbol's constant word, one row per symbol.  So only the starts
    s with r1 - s < depth in a run [r0, r1) that is not the last vary, and
    they are found from the run boundaries alone, compared one ``_CHUNK``
    of positions at a time: the map holds O(runs * depth) entries and
    nothing per position.  Each varying window is a row
    whose column j is ``seq[starts + j]``, read without a 2-D copy, and
    ``_suffix_cylinders`` steps each distinct suffix of the rows once, so
    the cylinders equal a per-window ``fold`` bit for bit.
    """
    count = len(seq) - depth + 1
    edges = np.concatenate([np.zeros(0, dtype=np.intp)] + [
        np.flatnonzero(seq[part.start + 1:part.stop + 1] != seq[part])
        + part.start + 1 for part in _parts(len(seq) - 1)])
    run_lo, run_hi = np.append(0, edges), np.append(edges, len(seq))
    begin = np.maximum(run_lo[:-1], edges - depth + 1)
    size = np.maximum(np.minimum(edges, count) - begin, 0)
    starts = (np.repeat(begin - np.cumsum(size) + size, size)
              + np.arange(size.sum()))
    symbols = np.flatnonzero(np.bincount(seq[run_lo[run_hi - run_lo >= depth]],
                                         minlength=system.m))
    nodes = 0
    for node, first, _, lo, width, _ in _suffix_cylinders(system, (
            np.append(seq[starts + j], symbols)
            for j in reversed(range(depth))), starts.size + symbols.size):
        nodes += lo.size
    symbol_window = np.full(system.m, -1, dtype=np.intp)
    symbol_window[symbols] = node[starts.size:]
    return _Windows(first, lo, width, starts, node[:starts.size],
                    symbol_window, nodes)


def alternating_sampler(system: IfsSystem, potential: PotentialSpec,
                        measure: BlockMeasure, symbol: int,
                        k_schedule: Sequence[int],
                        eps_schedule: Sequence[float], horizon: int,
                        seed: int = 0, eval_depth: int = 64
                        ) -> list[SamplerCheckpoint]:
    """Generate an alternating-block word and stream its Birkhoff averages.

    Stage i appends i symbols drawn from the Bernoulli extension of
    ``measure`` followed by i * k_i copies of the indifferent ``symbol``;
    a checkpoint is emitted after each stage with the running averages of
    the potential and of the geometric potential.  As the parabolic blocks
    dominate, the potential average should approach the potential value at
    the indifferent fixed point while the geometric average decays to 0.
    A seed gives the blocks numpy's ``default_rng(seed).choice`` draws on
    the block weights: the same inverse-cdf search on ``PcgStream``.

    The finite schedule must have nondecreasing k_i and nonincreasing
    k_i * eps_i (the numeric stand-ins for k_i -> infinity, k_i eps_i -> 0).
    Suffixes during evaluation are truncated at ``eval_depth`` (>= 1)
    symbols; the truncation error is bounded by the potential oscillation
    over cylinders of that depth.  A window inside one run of a symbol is
    that symbol's constant word, and the other windows share their suffixes
    (``_window_midpoints``), so the cost is one branch step per distinct
    suffix, one potential value per distinct window and one derivative per
    distinct (symbol, next window) pair; the long parabolic blocks add
    almost nothing.  One ``mfspec.spectrum`` debug record per call gives
    these counts.  The word is held as one byte per symbol; the terms and
    running sums are formed one ``_CHUNK`` of positions at a time, each
    chunk's sum carried into the next, so memory beyond the word does not
    grow with ``horizon`` and every checkpoint equals a whole-array cumsum
    bit for bit.
    """
    if symbol not in system.parabolic_symbols:
        raise ValueError(f"symbol {symbol} is not an indifferent branch")
    if measure.m != system.m:
        raise ValueError(f"measure has {measure.m} symbols but the system "
                         f"has {system.m} branches")
    ks = [int(k) for k in k_schedule]
    eps = [float(e) for e in eps_schedule]
    if len(ks) != len(eps):
        raise InvalidScheduleError("k and eps schedules differ in length")
    if not ks:
        raise InvalidScheduleError("empty schedule")
    if any(k < 0 for k in ks) or any(e < 0 for e in eps):
        raise InvalidScheduleError("schedule entries must be nonnegative")
    if any(b < a for a, b in zip(ks, ks[1:])):
        raise InvalidScheduleError("k schedule must be nondecreasing")
    if eval_depth < 1:
        raise InvalidScheduleError(f"eval_depth must be >= 1, got {eval_depth}")
    products = [k * e for k, e in zip(ks, eps)]
    if any(b > a + _SCHEDULE_TOL for a, b in zip(products, products[1:])):
        raise InvalidScheduleError(
            "k_i * eps_i must be nonincreasing within tolerance")

    stream = PcgStream(seed)
    dtype = np.min_scalar_type(system.m - 1)
    slots = np.flatnonzero(measure.p > WEIGHT_FLOOR)
    cdf = np.cumsum(measure.p[slots] / measure.p[slots].sum())
    cdf /= cdf[-1]
    block_shape = (measure.m,) * measure.n

    chunks: list[np.ndarray] = []
    marks: list[tuple[int, int]] = []  # (stage, cumulative length)
    total = 0

    def emit_stage(i: int, k: int) -> int:
        draws = cdf.searchsorted(stream.random(-(-i // measure.n)), "right")
        words = np.stack(np.unravel_index(slots[draws], block_shape), axis=1)
        chunks.append(words.ravel()[:i].astype(dtype))
        if k:
            chunks.append(np.full(i * k, symbol, dtype=dtype))
        return i * (1 + k)

    stage = 0
    for i, k in enumerate(ks, start=1):
        if total + i * (1 + k) > horizon:
            break
        total += emit_stage(i, k)
        marks.append((i, total))
        stage = i
    if not marks:
        raise ValueError("horizon too small for even one stage")
    # continue the construction past the last checkpoint so every checkpoint
    # position is evaluated on a full-depth window, not a sequence-end stub
    while total < marks[-1][1] + eval_depth:
        stage += 1
        if stage <= len(ks):
            total += emit_stage(stage, ks[stage - 1])
        else:
            pad = marks[-1][1] + eval_depth - total
            chunks.append(np.full(pad, symbol, dtype=dtype))
            total += pad
    seq = np.concatenate(chunks)
    chunks.clear()  # the word is held once from here on

    # one full-depth window per position; the padding above guarantees
    # every checkpoint position and its successor have one
    windows = _window_midpoints(system, seq, eval_depth)
    count = len(seq) - eval_depth + 1
    m = system.m
    # position p's g term: symbol seq[p] at window p + 1's midpoint, one
    # derivative per distinct (next window, symbol) pair
    mids = windows.lo + 0.5 * windows.width
    used = np.zeros(mids.size * m, dtype=bool)
    for a in range(0, count - 1, _CHUNK):
        b = min(a + _CHUNK, count - 1)
        used[windows.of(seq, a + 1, b + 1) * m + seq[a:b]] = True
    pairs = np.flatnonzero(used)
    g_pair = np.empty(used.size)
    g_pair[pairs] = neg_log_derivative(system, pairs % m, mids[pairs // m])
    f_window = potential.on_cylinders(m, windows.first, windows.lo,
                                      windows.width)
    _debug("alternating_sampler: %d positions, %d distinct windows, "
           "%d suffix nodes stepped, %d distinct g pairs",
           count, mids.size, windows.nodes, pairs.size)
    # running sums one chunk at a time: a chunk's first term takes the sum
    # carried from the chunk before (not the first chunk's, where 0.0 +
    # -0.0 would drop a sign), so each sum is the same sequence of additions
    # as a whole-array cumsum
    ends = np.array([nq for _, nq in marks])
    f_at, g_at = np.empty(ends.size), np.empty(ends.size)
    f_carry = g_carry = 0.0
    for a in range(0, ends[-1], _CHUNK):
        b = min(a + _CHUNK, ends[-1])
        window = windows.of(seq, a, b + 1)
        f_cum = f_window[window[:-1]]
        g_cum = g_pair[window[1:] * m + seq[a:b]]
        if a:
            f_cum[0] += f_carry
            g_cum[0] += g_carry
        np.cumsum(f_cum, out=f_cum)
        np.cumsum(g_cum, out=g_cum)
        f_carry, g_carry = f_cum[-1], g_cum[-1]
        done = slice(*np.searchsorted(ends, (a + 1, b + 1)))
        f_at[done] = f_cum[ends[done] - 1 - a]
        g_at[done] = g_cum[ends[done] - 1 - a]
    return [
        SamplerCheckpoint(stage=i, n=nq, f_average=float(f_at[j] / nq),
                          g_average=float(g_at[j] / nq),
                          k=ks[i - 1], eps=eps[i - 1])
        for j, (i, nq) in enumerate(marks)
    ]
