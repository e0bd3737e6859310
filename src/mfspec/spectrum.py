"""Dimension estimators for Birkhoff-average level sets of an interval IFS.

Two routes are combined per level value alpha:

* a variational lower route: maximize block entropy over expected log
  cylinder length among depth-n block measures whose mean potential sum is
  n * alpha.  The maximizer of the linearized objective is an exponential
  family in (log-diameter, potential sum), so the inner problem is a 1-D
  monotone root find, and the outer fractional program is solved by
  Dinkelbach's iteration t <- entropy/length of the last inner maximizer.
  The returned value is the entropy/length ratio of an explicitly
  constructed feasible measure, hence a certified finite-depth value, with
  the depth-n contraction-rate gap attached.

* a cover upper route: the Moran exponent of the depth-n cylinders whose
  word average falls inside the alpha window, widened to the resolution the
  window actually certifies (twice the window plus the word-approximation
  slack).

Systems with indifferent fixed points get special dispatch: on the interval
spanned by the potential values at those fixed points, the level-set
dimension equals the attractor dimension, so both routes are replaced by the
unfiltered Moran estimate and the point is flagged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import (AlphaUnreachableError, InfeasibleAlphaError,
                     InvalidScheduleError, MfspecError, NoCylindersError,
                     NotContractingError, SolverError)
# CylinderTable and potential_arrays: unused here, wrapped by perfbench
from .geometry import (CylinderTable, IfsSystem, Interval, fold,
                       neg_log_derivative, top_level)
from .potentials import PotentialSpec, potential_arrays
from .symbolic import DEFAULT_WORD_CAP, WEIGHT_FLOOR, BlockMeasure, Word

_Q_EXP_LIMIT = 700.0
_TIE_TOL = 1e-9
_SCHEDULE_TOL = 1e-12


@dataclass(frozen=True)
class SolverOptions:
    """Knobs shared by the depth-n estimators.

    ``rho`` is the alpha-window half-width for the cover route (None picks
    max(0.05, twice the word-approximation slack)).  ``delta`` is the
    Lyapunov floor excluding words with lambda_n below it (None means no
    floor, except that parabolic systems apply a small default floor to the
    cover route, ``DepthContext.cover_delta``).  The lower route stops its
    Dinkelbach iteration once a step raises the ratio by at most ``t_tol``
    and raises ``SolverError`` after ``max_iter`` steps.  Moran roots (the
    cover route and the attractor estimate) stop once a safeguarded Newton
    step is at most ``moran_tol`` (``Rows.moran_root``).  ``seed`` is a
    no-op: every estimator is deterministic and none reads it; it is kept so
    that configs carrying a ``seed`` key stay valid and round-trip.
    """

    n: int = 10
    rho: float | None = None
    delta: float | None = None
    t_tol: float = 1e-8
    alpha_tol: float = 1e-9
    moran_tol: float = 1e-10
    boundary_tol: float = 1e-9
    max_iter: int = 200
    word_cap: int = DEFAULT_WORD_CAP
    seed: int = 0

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("solver depth n must be >= 2")
        for name in ("t_tol", "alpha_tol", "moran_tol", "boundary_tol"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.rho is not None and self.rho <= 0:
            raise ValueError("rho must be positive")
        if self.delta is not None and self.delta < 0:
            raise ValueError("delta must be nonnegative")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")


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
    """One row of a spectrum table."""

    alpha: float
    lower: float | None
    upper: float | None
    in_parabolic_interval: bool
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

    def where(self, mask: np.ndarray) -> Rows:
        return Rows(self.ell[mask], self.phi[mask], self.count[mask])

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

    def solve_q(self, t, target, tol, max_iter=80):
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
        for _ in range(max_iter):
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

    def moran_root(self, tol: float) -> tuple[float, int]:
        """Unique s >= 0 with Z(s, 0) = 1 and the partition sums it took.

        f(s) = log Z(s, 0) is convex and decreasing with f'(s) = -E_s[ell];
        its root lies in [log C / max ell, log C / min ell] for the total
        count C >= 1 (a single cylinder, or cylinders of one width, close the
        bracket).  Newton starts at the left end, where f >= 0, and climbs
        onto the root; every evaluation narrows the bracket, and a step
        longer than ``tol`` that leaves it is replaced by bisection.  The
        iteration stops once a step is at most ``tol``, or no double lies
        strictly inside the bracket, and returns the point that step reaches:
        after a bisection step that short the root is within ``tol``, after a
        Newton step within about its square.
        """
        ell = self.ell
        if ell.size == 0:
            raise NoCylindersError("no cylinders to cover with")
        ell_min = float(np.min(ell))
        if ell_min <= 0.0:
            raise NotContractingError(
                "some cylinder diameter is >= 1; increase the depth n")
        log_c = math.log(float(self.count.sum()))
        lo = s = log_c / float(np.max(ell))
        hi = log_c / ell_min
        w = np.empty_like(ell)
        evals = 0
        while lo < hi:
            evals += 1
            shift, z = self.log_z(s, 0.0, w)
            f = shift + math.log(z)
            if f > 0.0:
                lo = s
            elif f < 0.0:
                hi = s
            else:
                break
            step = s + f * z / float(w @ ell)
            # a short step is taken even where rounding puts it on a bracket end
            if abs(step - s) > tol and not lo < step < hi:
                step = 0.5 * (lo + hi)
            done = abs(step - s) <= tol or not lo < step < hi
            s = step
            if done:
                break
        _debug("Moran root over %d rows: s=%.17g after %d sums", ell.size, s,
               evals)
        return s, evals


def moran_dimension(system: IfsSystem, n: int,
                    word_filter: Callable[[Word], bool] | None = None,
                    cap: int = DEFAULT_WORD_CAP, tol: float = 1e-10) -> float:
    """Moran exponent of the depth-n cylinders passing ``word_filter``.

    With no filter this estimates the attractor dimension.
    """
    d = top_level(system, n, cap)[0]
    if word_filter is not None:
        keep = np.fromiter((bool(word_filter(w)) for w in
                            system.alphabet.words(n)), bool, d.size)
        d = d[keep]
    return Rows(-np.log(d), None, np.ones(d.size)).moran_root(tol)[0]


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
        return self.rows.moran_root(self.opts.moran_tol)

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
    vals = [potential.fixed_point_value(system, s) for s in symbols]
    return Interval(min(vals), max(vals))


# ---------------------------------------------------------------------------
# cover upper route
# ---------------------------------------------------------------------------

def upper_bound(system: IfsSystem, potential: PotentialSpec, alpha: float,
                opts: SolverOptions | None = None,
                context: DepthContext | None = None) -> UpperBoundResult:
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
    ctx = context or DepthContext(system, potential, opts)
    opts = ctx.opts
    rho = ctx.rho
    half = 2.0 * rho + ctx.slack
    delta = ctx.cover_delta
    mask = ctx.floor(delta)
    rows = ctx.rows
    keep = np.abs(rows.phi / ctx.n - alpha) < half
    if mask is not None:
        keep &= mask
    if not keep.any():
        avg = (rows.phi if mask is None else rows.phi[mask]) / ctx.n
        nearest = float(avg[np.argmin(np.abs(avg - alpha))])
        raise AlphaUnreachableError(
            alpha, half, nearest, (float(np.min(avg)), float(np.max(avg))))
    # copy once, through window and floor together, only what Moran sums read
    count = rows.count[keep]
    s, evals = Rows(rows.ell[keep], None, count).moran_root(opts.moran_tol)
    return UpperBoundResult(s_n=s, cover_size=int(count.sum()),
                            moran_evals=evals, half_width=half, rho=rho,
                            delta=delta, n=ctx.n)


# ---------------------------------------------------------------------------
# variational lower route
# ---------------------------------------------------------------------------

def lower_bound(system: IfsSystem, potential: PotentialSpec, alpha: float,
                opts: SolverOptions | None = None,
                context: DepthContext | None = None) -> LowerBoundResult:
    """Best entropy/length ratio over depth-n block measures with mean alpha.

    Dinkelbach's iteration drives max H - t*L to zero over the constrained
    simplex: starting from t = 0, each inner problem is solved exactly by the
    exponential-family measure with the multiplier q tuned so the mean
    potential sum hits n * alpha, and t moves to that measure's ratio H/L.
    The ratios increase, and every iterate is a feasible measure.  At a
    boundary alpha the constraint forces support on the extreme words and the
    uniform measure over them is returned.  Everything runs over the
    context's (width, phi) rows: the floor, the tie set and the final word
    weight exp(q*phi - t*ell - shift) / z are formed once per row, and the
    returned per-word measure gathers them through ``ctx.word_row``, so
    feasibility and the Gibbs form can be re-verified independently.
    """
    ctx = context or DepthContext(system, potential, opts)
    opts = ctx.opts
    n = ctx.n
    mask = ctx.floor(opts.delta)
    rows = ctx.rows if mask is None else ctx.rows.where(mask)
    phi = rows.phi
    target = n * alpha
    lo_avg = float(np.min(phi)) / n
    hi_avg = float(np.max(phi)) / n
    if alpha < lo_avg - opts.boundary_tol or alpha > hi_avg + opts.boundary_tol:
        raise InfeasibleAlphaError(alpha, (lo_avg, hi_avg))

    at_hi = alpha >= hi_avg - opts.boundary_tol
    boundary = at_hi or alpha <= lo_avg + opts.boundary_tol
    if boundary:
        e_phi = float(np.max(phi) if at_hi else np.min(phi))
        # the uniform measure on the extreme words is the Gibbs measure of
        # their rows at t = q = 0
        tie = np.abs(phi - e_phi) <= _TIE_TOL
        ties = rows.where(tie)
        gibbs = ties.gibbs(0.0, 0.0, *np.empty((2, ties.ell.size)))
        t, q, iterations, gibbs_evals = gibbs.entropy / gibbs.e_ell, None, 0, 0
        row_p = np.where(tie, 1.0 / gibbs.z, 0.0)
    else:
        q_tol = n * opts.alpha_tol * max(1.0, abs(alpha))
        t = 0.0
        gibbs_evals = 0
        for iterations in range(1, opts.max_iter + 1):
            q, gibbs, evals = rows.solve_q(t, target, q_tol)
            gibbs_evals += evals
            _debug("Dinkelbach step %d: t=%.17g q=%.17g gibbs_evals=%d",
                   iterations, t, q, evals)
            ratio = gibbs.entropy / gibbs.e_ell
            if ratio - t <= opts.t_tol:
                break
            t = ratio
        else:
            raise SolverError(
                f"Dinkelbach iteration did not settle to {opts.t_tol:g} "
                f"within {opts.max_iter} steps")
        e_phi = gibbs.e_phi
        if abs(e_phi - target) > 10.0 * q_tol:
            raise SolverError(
                f"constraint residual {abs(e_phi - target):g} after "
                f"multiplier capping; alpha={alpha:g} is too close to the "
                f"achievable edge [{lo_avg:.6g}, {hi_avg:.6g}] at depth {n}")
        # one word's weight per row: log_z with unit counts, same shift
        row_p, tmp = np.empty((2, phi.size))
        Rows(rows.ell, phi, 1.0).log_z(t, q, row_p, tmp)
        row_p /= gibbs.z
    if mask is not None:  # the floored rows weigh nothing
        kept, row_p = row_p, np.zeros(mask.size)
        row_p[mask] = kept
    entropy, e_ell = gibbs.entropy, gibbs.e_ell
    return LowerBoundResult(
        dim=entropy / e_ell, t=t, q=q, alpha_achieved=e_phi / n,
        lyapunov=e_ell / n, entropy_rate=entropy / n, iterations=iterations,
        gibbs_evals=gibbs_evals, n=n, boundary=boundary,
        lemma1_gap=ctx.lemma1_gap,
        measure=BlockMeasure(m=system.m, n=n, p=row_p.take(ctx.word_row)))


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
        lower = upper = None
        t = q = None
        iterations = cover = gibbs_evals = moran_evals = None
        errors = []
        try:
            lb = lower_bound(system, potential, alpha, context=ctx)
            lower, t, q, iterations = lb.dim, lb.t, lb.q, lb.iterations
            gibbs_evals = lb.gibbs_evals
        except MfspecError as exc:
            errors.append(f"lower: {exc}")
        try:
            ub = upper_bound(system, potential, alpha, context=ctx)
            upper, cover, moran_evals = ub.s_n, ub.cover_size, ub.moran_evals
        except MfspecError as exc:
            errors.append(f"upper: {exc}")
        return SpectrumPoint(
            alpha=alpha, lower=lower, upper=upper,
            in_parabolic_interval=False, n=ctx.n, rho=rho,
            delta=ctx.cover_delta, lemma1_gap=ctx.lemma1_gap,
            iterations=iterations, t=t, q=q, cover_size=cover,
            gibbs_evals=gibbs_evals, moran_evals=moran_evals,
            error="; ".join(errors) or None)

    return [compute(a) for a in sorted(float(a) for a in alphas)]


# ---------------------------------------------------------------------------
# alternating-block sampler
# ---------------------------------------------------------------------------

def _window_midpoints(system: IfsSystem, seq: np.ndarray,
                      depth: int) -> np.ndarray:
    """Cylinder midpoints of the length-``depth`` windows of ``seq``.

    A window lies inside one run of a symbol exactly when that run, read
    from the window's start, is at least ``depth`` long; all such windows
    are the same constant word, folded once per symbol.  Every other window
    is folded as its own row.  ``fold`` treats rows independently, so the
    result equals the midpoints of ``fold(system,
    sliding_window_view(seq, depth))`` bit for bit.
    """
    windows = sliding_window_view(seq, depth)
    starts = np.arange(len(windows))
    run_starts = np.flatnonzero(np.diff(seq)) + 1
    run_ends = np.append(run_starts, len(seq))[
        np.searchsorted(run_starts, starts, side="right")]
    constant = run_ends - starts >= depth

    def midpoints(words):
        lo, width = fold(system, words)
        return lo + 0.5 * width

    mids = np.empty(len(windows))
    mids[~constant] = midpoints(windows[~constant])
    heads = seq[:len(windows)]
    for a in np.unique(heads[constant]):
        mids[constant & (heads == a)] = midpoints(np.full((1, depth), a))
    return mids


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
    that symbol's constant word, so the cost is one fold per window that
    crosses a symbol change plus one per symbol that has a constant window;
    the long parabolic blocks add almost nothing.
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
    mids = _window_midpoints(system, seq, eval_depth)
    if potential.word_local:
        vals = np.asarray(potential.symbol_values(system.m))
        f_terms = vals[seq[:len(mids)]]
    else:
        f_terms = np.asarray(potential.func(mids), dtype=float)
    g_terms = neg_log_derivative(system, seq[:len(mids) - 1], mids[1:])
    f_cum = np.cumsum(f_terms)
    g_cum = np.cumsum(g_terms)
    return [
        SamplerCheckpoint(stage=i, n=nq, f_average=float(f_cum[nq - 1] / nq),
                          g_average=float(g_cum[nq - 1] / nq),
                          k=ks[i - 1], eps=eps[i - 1])
        for i, nq in marks
    ]
