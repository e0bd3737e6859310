"""Dimension estimators for Birkhoff-average level sets of an interval IFS.

Two routes are combined per level value alpha:

* a variational lower route: maximize block entropy over expected log
  cylinder length among depth-n block measures whose mean potential sum is
  n * alpha.  The maximizer of the linearized objective is an exponential
  family in (log-diameter, potential sum), so the inner problem is a 1-D
  monotone root find, and the outer fractional program is solved by
  Dinkelbach's iteration t <- entropy/length of the last inner maximizer.
  At an end of the achievable range the constraint only confines the
  measure to the extreme words, and the same iteration runs on them with
  q held at 0, converging to their Moran root.  The returned value is the
  entropy/length ratio of an explicitly constructed feasible measure, hence
  a certified finite-depth value, with the depth-n contraction-rate gap
  attached.

* a cover upper route: the Moran exponent of the depth-n cylinders whose
  word average falls inside the alpha window, widened to the resolution the
  window actually certifies (twice the window plus the word-approximation
  slack).

Both routes read every depth-n input from one ``DepthContext``: its
system, potential, options and (width, phi) rows.

Systems with indifferent fixed points get special dispatch: on the interval
spanned by the potential values at those fixed points, the level-set
dimension equals the attractor dimension, so both routes are replaced by the
unfiltered Moran estimate and the point is flagged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .errors import (AlphaUnreachableError, InfeasibleAlphaError,
                     InvalidScheduleError, MfspecError, NoCylindersError,
                     NotContractingError, SolverError)
# CylinderTable and potential_arrays: unused here, wrapped by perfbench
from .geometry import (CylinderTable, IfsSystem, Interval, _distinct,
                       _suffix_cylinders, neg_log_derivative, top_level)
from .potentials import PotentialSpec, potential_arrays
from .symbolic import DEFAULT_WORD_CAP, WEIGHT_FLOOR, BlockMeasure

_Q_EXP_LIMIT = 700.0
_Q_MAX_ITER = 80
_TIE_TOL = 1e-9
_SCHEDULE_TOL = 1e-12


# The outer iteration stops once a step gains at most T_TOL (lower route) or
# MORAN_TOL (Moran roots) and fails after MAX_ITER steps; the multiplier solve
# meets the constraint to ALPHA_TOL per symbol, and a level value within
# BOUNDARY_TOL of the achievable edge is a boundary value.
T_TOL = 1e-8
MORAN_TOL = 1e-10
ALPHA_TOL = 1e-9
BOUNDARY_TOL = 1e-9
MAX_ITER = 200


@dataclass(frozen=True)
class SolverOptions:
    """Knobs shared by the depth-n estimators.

    ``rho`` is the alpha-window half-width for the cover route (None picks
    max(0.05, twice the word-approximation slack)).  ``delta`` is the
    Lyapunov floor excluding words with lambda_n below it (None means no
    floor, except that parabolic systems apply a small default floor to the
    cover route, ``DepthContext.cover_delta``).  ``word_cap`` bounds the
    number of depth-n words.  ``seed`` is a no-op: every estimator is
    deterministic and none reads it; it is kept so that configs carrying a
    ``seed`` key stay valid and round-trip.
    """

    n: int = 10
    rho: float | None = None
    delta: float | None = None
    word_cap: int = DEFAULT_WORD_CAP
    seed: int = 0

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("solver depth n must be >= 2")
        if self.rho is not None and self.rho <= 0:
            raise ValueError("rho must be positive")
        if self.delta is not None and self.delta < 0:
            raise ValueError("delta must be nonnegative")


@dataclass(frozen=True)
class LowerBoundResult:
    """Certified feasible value of the depth-n variational problem."""

    dim: float
    t: float
    q: float | None
    alpha_achieved: float
    lyapunov: float
    entropy_rate: float
    iterations: int
    gibbs_evals: int
    n: int
    boundary: bool
    lemma1_gap: float
    measure: BlockMeasure


@dataclass(frozen=True)
class UpperBoundResult:
    """Moran exponent of the windowed depth-n cylinder cover."""

    s_n: float
    cover_size: int
    moran_evals: int
    half_width: float
    rho: float
    delta: float
    n: int


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

    ``logging`` is imported on first use, so importing the package does not
    load it.
    """
    import logging
    logging.getLogger(__name__).debug(msg, *args)


def _ratio_iteration(step, t: float, tol: float,
                     name: str) -> tuple[float, float, int]:
    """t <- step(t), the ratio H/L of the measure maximizing H - t*L, until
    a step gains at most ``tol``: Dinkelbach's iteration under the lower
    route's constraint, Newton's on log Z(t, 0) = 0 without it (q = 0).
    From below both climb, so a step rounding turns back also stops it.
    Returns the last point stepped from, its step and the step count."""
    for steps in range(1, MAX_ITER + 1):
        nxt = step(t)
        if nxt - t <= tol:
            return t, nxt, steps
        t = nxt
    raise SolverError(
        f"{name} did not settle to {tol:g} within {MAX_ITER} steps")


# ---------------------------------------------------------------------------
# partition function over (width, phi) rows
# ---------------------------------------------------------------------------

class _Gibbs(NamedTuple):
    """Stats of the word weights exp(-t*ell + q*phi - shift) / z."""

    shift: float
    z: float
    entropy: float
    e_ell: float
    e_phi: float
    variance: float


class Rows(NamedTuple):
    """Depth-n cylinders grouped into rows, with their partition function.

    Row i stands for ``count[i]`` cylinders of minus log-diameter ``ell[i]``
    and Birkhoff sum ``phi[i]``.  ``log_z`` alone forms the weights of
    Z(t, q) = sum count * exp(-t*ell + q*phi): the Gibbs statistics are its
    derivatives, and a Moran root solves Z(s, 0) = 1 without ``phi``.  A
    scalar count of 1 makes the weights those of one word per row.
    """

    ell: np.ndarray
    phi: np.ndarray | None
    count: np.ndarray | float

    def where(self, mask: np.ndarray | None) -> Rows:
        return self if mask is None else Rows(  # None: no floor
            self.ell[mask], self.phi[mask], self.count[mask])

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
        w *= self.count
        return shift, float(w.sum())

    def gibbs(self, t, q, w, tmp) -> _Gibbs:
        """Gibbs stats at (t, q), in the two buffers ``log_z`` takes."""
        shift, z = self.log_z(t, q, w, tmp)
        e_phi = float(w @ self.phi) / z
        e_ell = float(w @ self.ell) / z
        entropy = shift + math.log(z) + t * e_ell - q * e_phi
        np.subtract(self.phi, e_phi, out=tmp)
        np.square(tmp, out=tmp)
        variance = float(w @ tmp) / z
        return _Gibbs(shift, z, entropy, e_ell, e_phi, variance)

    def solve_q(self, t, target, tol):
        """Find q with the Gibbs mean of phi equal to target (monotone in q).

        Newton steps from q = 0 with bisection fallback inside the bracket
        [-cap, cap]; |q| is capped so the exponent stays within floating
        range.  A cap end is evaluated only when a step, or the bisection
        fallback, heads for that end while it still bounds the bracket: if
        the target lies beyond the Gibbs mean there, the multiplier clamps at
        the cap (logged; the caller checks the residual), otherwise the
        fallback bisects.  The midpoint uses only the bracket's value, so a
        probe never moves an iterate.  Returns q, its stats and the number of
        Gibbs evaluations.
        """
        scale = max(float(np.max(np.abs(self.phi))), 1e-12)
        cap = _Q_EXP_LIMIT / scale
        buffers = np.empty((2, self.ell.size))
        evals = 0

        def stats(q):
            nonlocal evals
            evals += 1
            return self.gibbs(t, q, *buffers)

        lo, hi = -cap, cap
        unprobed = {lo, hi}
        q = 0.0
        for _ in range(_Q_MAX_ITER):
            gibbs = stats(q)
            residual = gibbs.e_phi - target
            if abs(residual) <= tol:
                return q, gibbs, evals
            if residual > 0:
                hi = q
            else:
                lo = q
            variance = gibbs.variance
            step = q - residual / variance if variance > 1e-300 else None
            if step is None or not lo < step < hi:
                end = lo if residual > 0 else hi
                if end in unprobed:
                    unprobed.discard(end)
                    gibbs = stats(end)
                    if (target <= gibbs.e_phi if residual > 0
                            else target >= gibbs.e_phi):
                        _debug("multiplier clamped at q=%.17g: target %.17g "
                               "lies beyond the Gibbs mean %.17g there "
                               "(t=%.17g)", end, target, gibbs.e_phi, t)
                        return end, gibbs, evals
                step = 0.5 * (lo + hi)
            q = step
        gibbs = stats(q)
        return q, gibbs, evals

    def moran_root(self) -> tuple[float, int]:
        """Unique s >= 0 with Z(s, 0) = 1 and the partition sums it took.

        The lower route's iteration at q = 0, from log C / max ell for the
        total count C >= 1: the ratio H/L at s is Newton's step
        s + f(s) / E_s[ell] on f(s) = log Z(s, 0), kept in that form since
        the ratio form rounds differently.  The step that stops it is taken,
        so the root is within about MORAN_TOL squared.  Cylinders of one
        width take no sum: the start is their root.
        """
        ell = self.ell
        if ell.size == 0:
            raise NoCylindersError("no cylinders to cover with")
        ell_min = float(np.min(ell))
        if ell_min <= 0.0:
            raise NotContractingError(
                "some cylinder diameter is >= 1; increase the depth n")
        log_c = math.log(float(self.count.sum()))
        s = log_c / float(np.max(ell))
        evals = 0
        if s < log_c / ell_min:
            w = np.empty_like(ell)

            def newton(s):
                shift, z = self.log_z(s, 0.0, w)
                return s + (shift + math.log(z)) * z / float(w @ ell)

            _, s, evals = _ratio_iteration(newton, s, MORAN_TOL, "Moran root")
        _debug("Moran root over %d rows: s=%.17g after %d sums", ell.size, s,
               evals)
        return s, evals


def moran_dimension(system: IfsSystem, n: int) -> float:
    """Moran exponent of every depth-n cylinder: the attractor estimate."""
    d = top_level(system, n)[0]
    return Rows(-np.log(d), None, np.ones(d.size)).moran_root()[0]


# ---------------------------------------------------------------------------
# shared depth-n arrays
# ---------------------------------------------------------------------------

class DepthContext:
    """Depth-n data shared by both estimator routes.

    ``rows`` is the only depth-n state: words whose cylinder width and
    Birkhoff sum are bit-equal share one row, and everything the routes
    compute (the partition sum ``Rows.log_z`` behind the Gibbs and Moran
    solvers, the cover window, the Lyapunov ``floor``, the block measure's
    weights) depends on a word only through that pair, so the grouping is
    exact.  ``word_row`` maps each word, in slot order, to its row; it is
    the one way back from rows to words, and ``rows.count`` is its bincount.
    Grouping pays for linear systems with word-local potentials (linear
    [1/2, 1/2] at n=18: 2^18 words, 19 rows); on Manneville-Pomeau no two
    words merge and it costs one sort.  Widths, sums, ``lemma1_gap`` and
    ``slack`` come from one ``top_level`` pass, which keeps one level.
    """

    def __init__(self, system: IfsSystem, potential: PotentialSpec,
                 opts: SolverOptions | None = None):
        self.opts = opts or SolverOptions()
        self.system = system
        self.potential = potential
        self.n = self.opts.n
        values = (potential.symbol_values(system.m) if potential.word_local
                  else None)
        width, phi, self.lemma1_gap, diameters = top_level(
            system, self.n, self.opts.word_cap, values, potential.func,
            gap=True)
        self.slack = 0.0 if potential.word_local else (
            0.5 * potential.lipschitz * math.fsum(diameters) / self.n)
        order = np.lexsort((phi, width))
        width = width[order]
        phi = phi[order]
        new = np.empty(width.size, dtype=bool)
        new[0] = True
        np.not_equal(width[1:], width[:-1], out=new[1:])
        new[1:] |= phi[1:] != phi[:-1]
        ell, phi = -np.log(width[new]), phi[new]
        del width
        row = np.cumsum(new, dtype=np.int32)
        row -= 1
        self.word_row = np.empty_like(row)
        self.word_row[order] = row
        self.rows = Rows(ell, phi, np.bincount(row).astype(float))
        _debug("depth %d: %d words in %d (width, phi) rows", self.n,
               row.size, ell.size)

    def floor(self, delta: float | None) -> np.ndarray | None:
        """Rows with lambda_n = ell / n >= delta; None if no floor,
        ``NoCylindersError`` if it keeps no row."""
        if not delta:
            return None
        mask = self.rows.ell / self.n >= delta
        if not mask.any():
            raise NoCylindersError(
                f"Lyapunov floor {delta:g} excludes every word")
        return mask

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

    @property
    def cover_delta(self) -> float:
        """Lyapunov floor of the cover route.

        ``opts.delta`` when set; otherwise a small default floor on parabolic
        systems, which keeps near-neutral words out of the cover, else none.
        """
        if self.opts.delta is not None:
            return self.opts.delta
        return 1e-3 * math.log(self.system.m) if self.system.has_parabolic \
            else 0.0


# ---------------------------------------------------------------------------
# parabolic dispatch interval
# ---------------------------------------------------------------------------

def parabolic_interval(system: IfsSystem,
                       potential: PotentialSpec) -> Interval | None:
    """Potential-value span of the indifferent fixed points, or None.

    On this interval the level-set dimension equals the attractor dimension;
    a system with no parabolic branch returns None and the spectrum dispatch
    never takes the flagged path.
    """
    symbols = system.parabolic_symbols
    if not symbols:
        return None
    if potential.word_local:  # the constant word's first-symbol value
        vals = [potential.symbol_values(system.m)[s] for s in symbols]
    else:
        vals = [float(potential.func(system.branches[s].fixed_point))
                for s in symbols]
    return Interval(min(vals), max(vals))


# ---------------------------------------------------------------------------
# cover upper route
# ---------------------------------------------------------------------------

def upper_bound(ctx: DepthContext, alpha: float) -> UpperBoundResult:
    """Moran exponent of the cylinders whose word average sits near alpha.

    The cover keeps words with |A_n f - alpha| below twice the window rho
    plus the word-approximation slack; that widened half-width is what a
    finite-depth window actually certifies about means over the covered
    cylinders, and is reported back.  A positive Lyapunov floor additionally
    drops words with lambda_n below it; ``DepthContext.cover_delta`` says
    which floor applies.  The exponent is ``Rows.moran_root`` over the kept
    rows, and ``moran_evals`` counts its partition sums.  An empty window
    raises ``AlphaUnreachableError`` with the nearest word average and the
    range of averages among the words the floor keeps (``NoCylindersError``
    if it keeps none).
    """
    rho = ctx.rho
    half = 2.0 * rho + ctx.slack
    delta = ctx.cover_delta
    mask = ctx.floor(delta)
    rows = ctx.rows
    keep = np.abs(rows.phi / ctx.n - alpha) < half
    if mask is not None:
        keep &= mask
    if not keep.any():
        avg = rows.where(mask).phi / ctx.n
        nearest = float(avg[np.argmin(np.abs(avg - alpha))])
        raise AlphaUnreachableError(
            alpha, half, nearest, (float(np.min(avg)), float(np.max(avg))))
    # copy once, through window and floor together, only what Moran sums read
    count = rows.count[keep]
    s, evals = Rows(rows.ell[keep], None, count).moran_root()
    return UpperBoundResult(s_n=s, cover_size=int(count.sum()),
                            moran_evals=evals, half_width=half, rho=rho,
                            delta=delta, n=ctx.n)


# ---------------------------------------------------------------------------
# variational lower route
# ---------------------------------------------------------------------------

def lower_bound(ctx: DepthContext, alpha: float) -> LowerBoundResult:
    """Best entropy/length ratio over depth-n block measures with mean alpha.

    Dinkelbach's iteration drives max H - t*L to zero over the constrained
    simplex: starting from t = 0, each inner problem is solved exactly by the
    exponential-family measure with the multiplier q tuned so the mean
    potential sum hits n * alpha, and t moves to that measure's ratio H/L.
    The ratios increase, and every iterate is a feasible measure.  At a
    boundary alpha the constraint only confines the measure to the extreme
    words: their rows join the floor mask and the same iteration runs on
    them with q held at 0 (reported as None), which climbs to their Moran
    root.  Everything runs over the context's (width, phi) rows: the floor,
    the tie set and the final word weight exp(q*phi - t*ell - shift) / z are
    formed once per row, and the returned per-word measure gathers them
    through ``ctx.word_row``, so feasibility and the Gibbs form can be
    re-verified independently.
    """
    n = ctx.n
    mask = ctx.floor(ctx.opts.delta)
    rows = ctx.rows.where(mask)
    target = n * alpha
    lo_phi, hi_phi = float(np.min(rows.phi)), float(np.max(rows.phi))
    lo_avg, hi_avg = lo_phi / n, hi_phi / n
    if alpha < lo_avg - BOUNDARY_TOL or alpha > hi_avg + BOUNDARY_TOL:
        raise InfeasibleAlphaError(alpha, (lo_avg, hi_avg))

    at_hi = alpha >= hi_avg - BOUNDARY_TOL
    boundary = at_hi or alpha <= lo_avg + BOUNDARY_TOL
    if boundary:  # only the extreme words meet the constraint
        tie = np.abs(ctx.rows.phi - (hi_phi if at_hi else lo_phi)) <= _TIE_TOL
        mask = tie if mask is None else mask & tie
        rows = ctx.rows.where(mask)
    q_tol = n * ALPHA_TOL * max(1.0, abs(alpha))
    solves = []  # (q, Gibbs stats, evaluations) at each t stepped from

    def dinkelbach(t):
        solves.append(
            (0.0, rows.gibbs(t, 0.0, *np.empty((2, rows.ell.size))), 1)
            if boundary else rows.solve_q(t, target, q_tol))
        q, gibbs, evals = solves[-1]
        _debug("Dinkelbach step %d: t=%.17g q=%.17g gibbs_evals=%d",
               len(solves), t, q, evals)
        return gibbs.entropy / gibbs.e_ell

    t, _, iterations = _ratio_iteration(dinkelbach, 0.0, T_TOL,
                                        "Dinkelbach iteration")
    q, gibbs, _ = solves[-1]
    e_phi = gibbs.e_phi
    if abs(e_phi - target) > 10.0 * q_tol:
        raise SolverError(
            f"constraint residual {abs(e_phi - target):g} after "
            f"multiplier capping; alpha={alpha:g} is too close to the "
            f"achievable edge [{lo_avg:.6g}, {hi_avg:.6g}] at depth {n}")
    # one word's weight per row: log_z with unit counts, same shift
    row_p, tmp = np.empty((2, rows.ell.size))
    Rows(rows.ell, rows.phi, 1.0).log_z(t, q, row_p, tmp)
    row_p /= gibbs.z
    if mask is not None:  # the masked rows weigh nothing
        kept, row_p = row_p, np.zeros(mask.size)
        row_p[mask] = kept
    entropy, e_ell = gibbs.entropy, gibbs.e_ell
    return LowerBoundResult(
        dim=entropy / e_ell, t=t, q=None if boundary else q,
        alpha_achieved=e_phi / n, lyapunov=e_ell / n,
        entropy_rate=entropy / n, iterations=iterations,
        gibbs_evals=sum(evals for *_, evals in solves), n=n,
        boundary=boundary, lemma1_gap=ctx.lemma1_gap,
        measure=BlockMeasure(m=ctx.system.m, n=n,
                             p=row_p.take(ctx.word_row)))


# ---------------------------------------------------------------------------
# spectrum sweep
# ---------------------------------------------------------------------------

def full_spectrum(system: IfsSystem, potential: PotentialSpec,
                  alphas: Iterable[float],
                  opts: SolverOptions | None = None) -> list[SpectrumPoint]:
    """Lower and upper estimates for a grid of level values, sorted by alpha.

    Points inside the indifferent-fixed-point interval are flagged and get
    the unfiltered attractor estimate for both columns.  Estimator errors are
    per point: a failed point carries its message and the sweep continues.
    A zero depth-n width (``DegenerateCylinderError``) and an invalid ``rho``
    are sweep-level preconditions, raised before any point is computed.
    """
    ctx = DepthContext(system, potential, opts)
    interval = parabolic_interval(system, potential)
    rho = ctx.rho  # alpha-independent precondition; fail before sweeping

    def compute(alpha: float) -> SpectrumPoint:
        if interval is not None and interval.contains(alpha):
            s = ctx.attractor_dimension
            return SpectrumPoint(
                alpha=alpha, lower=s, upper=s, in_parabolic_interval=True,
                n=ctx.n, rho=rho, delta=0.0, lemma1_gap=ctx.lemma1_gap,
                moran_evals=ctx.attractor_root[1])
        point, errors = {"lower": None, "upper": None}, []
        try:
            lb = lower_bound(ctx, alpha)
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
            delta=ctx.cover_delta, lemma1_gap=ctx.lemma1_gap,
            error="; ".join(errors) or None, **point)

    return [compute(a) for a in sorted(float(a) for a in alphas)]


# ---------------------------------------------------------------------------
# alternating-block sampler
# ---------------------------------------------------------------------------

def _window_midpoints(system: IfsSystem, seq: np.ndarray, depth: int):
    """Cylinder midpoints of the distinct length-``depth`` windows of ``seq``.

    Returns (mids, window, nodes): position p's window has midpoint
    ``mids[window[p]]``, and ``nodes`` suffix nodes were stepped.  A window
    lies inside one run of a symbol exactly when that run, read from the
    window's start, is at least ``depth`` long; all such windows are that
    symbol's constant word, one row per symbol.  Each other window is a row
    whose column j is ``seq[starts + j]``, read without a 2-D copy, and
    ``_suffix_cylinders`` steps each distinct suffix of the rows once, so
    the midpoints equal a per-window ``fold`` bit for bit.
    """
    starts = np.arange(len(seq) - depth + 1)
    run_starts = np.flatnonzero(np.diff(seq)) + 1
    run_ends = np.append(run_starts, len(seq))[
        np.searchsorted(run_starts, starts, side="right")]
    constant = run_ends - starts >= depth
    varying, heads = starts[~constant], seq[starts[constant]]
    symbols = np.unique(heads)
    nodes = 0
    for node, _, _, lo, width in _suffix_cylinders(system, (
            np.append(seq[varying + j], symbols)
            for j in reversed(range(depth))), varying.size + symbols.size):
        nodes += lo.size
    window = np.empty(starts.size, dtype=np.intp)
    window[varying] = node[:varying.size]
    window[constant] = node[varying.size:][np.searchsorted(symbols, heads)]
    return lo + 0.5 * width, window, nodes


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
    these counts.
    """
    if symbol not in system.parabolic_symbols:
        raise ValueError(f"symbol {symbol} is not an indifferent branch")
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

    rng = np.random.default_rng(seed)
    slots = np.flatnonzero(measure.p > WEIGHT_FLOOR)
    weights = measure.p[slots] / measure.p[slots].sum()
    block_shape = (measure.m,) * measure.n

    chunks: list[np.ndarray] = []
    marks: list[tuple[int, int]] = []  # (stage, cumulative length)
    total = 0

    def emit_stage(i: int, k: int) -> int:
        draws = rng.choice(len(slots), size=-(-i // measure.n), p=weights)
        words = np.stack(np.unravel_index(slots[draws], block_shape), axis=1)
        chunks.append(words.ravel()[:i].astype(np.int64))
        if k:
            chunks.append(np.full(i * k, symbol, dtype=np.int64))
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
            chunks.append(np.full(pad, symbol, dtype=np.int64))
            total += pad
    seq = np.concatenate(chunks)

    # one full-depth window per position; the padding above guarantees
    # every checkpoint position and its successor have one
    mids, window, nodes = _window_midpoints(system, seq, eval_depth)
    if potential.word_local:
        vals = np.asarray(potential.symbol_values(system.m))
        f_terms = vals[seq[:window.size]]
    else:
        f_terms = np.asarray(potential.func(mids), dtype=float)[window]
    # position p's g term: symbol seq[p] at window p + 1's midpoint
    m = system.m
    pairs, pair = _distinct(window[1:] * m + seq[:window.size - 1],
                            mids.size * m)
    g_terms = neg_log_derivative(system, pairs % m, mids[pairs // m])[pair]
    _debug("alternating_sampler: %d positions, %d distinct windows, "
           "%d suffix nodes stepped, %d distinct g pairs",
           window.size, mids.size, nodes, pairs.size)
    f_cum = np.cumsum(f_terms)
    g_cum = np.cumsum(g_terms)
    return [
        SamplerCheckpoint(stage=i, n=nq, f_average=float(f_cum[nq - 1] / nq),
                          g_average=float(g_cum[nq - 1] / nq),
                          k=ks[i - 1], eps=eps[i - 1])
        for i, nq in marks
    ]
