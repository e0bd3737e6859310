"""A transfer-operator reference for the spectra of analytic IFS.

Chebyshev collocation of the transfer operator

    L_{t,q} f(x) = sum_a g_a'(x)^t * exp(q * phi(a, g_a(x))) * f(g_a(x))

at N first-kind Chebyshev nodes of [0, 1], with barycentric interpolation.
The pressure P(t, q) is the log of the leading eigenvalue.  For analytic,
uniformly contracting branches the error falls geometrically in N
(Jenkinson-Pollicott, ETDS 21 (2001); Bandtlow-Slipantschuk (2020)), so
E_2 and linear systems qualify; a parabolic branch does not.

Branches are (map, derivative) callables on arrays and the potential is a
callable of (symbol, x), where x is the image point g_a(x).  numpy and
scipy only: nothing here reads mfspec, so the estimators can be checked
against it.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np
from scipy.optimize import brentq, minimize_scalar

Branch = tuple[Callable[[np.ndarray], np.ndarray],
               Callable[[np.ndarray], np.ndarray]]
Potential = Callable[[int, np.ndarray], np.ndarray]

# the intervals of the outer minimum.  On E_2 the pressures at N = 24 and
# N = 32 agree within 1e-11 on them (t = 8: 1.2e-11; t = 15: 1.6e-6, where
# the eigenfunction peaks too sharply for the nodes).  A minimizer at an end
# means the level lies outside the spectrum's domain, or so near its edge
# (within -P'(8) ~ 1.9288 of E_2's least exponent 1.9248) that the
# collocation cannot follow it
_T_BOUND = 8.0
_Q_BOUND = 50.0
_EDGE = 1e-3


class Collocation:
    """The collocated operator of one system at N nodes: ``pressure(t, q)``
    and the spectra built on it."""

    def __init__(self, branches: Sequence[Branch],
                 potential: Potential | None = None, N: int = 24):
        j = np.arange(N)
        nodes = 0.5 + 0.5 * np.cos((2 * j + 1) * math.pi / (2 * N))
        weights = (-1.0)**j * np.sin((2 * j + 1) * math.pi / (2 * N))
        self._log_derivative, self._phi, self._interp = [], [], []
        for a, (g, dg) in enumerate(branches):
            y = g(nodes)
            diff = y[:, None] - nodes[None, :]
            exact = diff == 0.0
            diff[exact] = 1.0
            basis = weights / diff
            basis /= basis.sum(axis=1, keepdims=True)
            hit = exact.any(axis=1)
            basis[hit] = exact[hit]
            self._interp.append(basis)
            self._log_derivative.append(np.log(dg(nodes)))
            self._phi.append(np.zeros(N) if potential is None
                             else potential(a, y))

    def pressure(self, t: float, q: float = 0.0) -> float:
        """log of the leading eigenvalue of the collocated L_{t,q}."""
        matrix = sum(np.exp(t * ld + q * phi)[:, None] * basis
                     for ld, phi, basis in zip(self._log_derivative,
                                               self._phi, self._interp))
        return math.log(max(abs(np.linalg.eigvals(matrix))))

    def root_t(self, q: float = 0.0, alpha: float = 0.0) -> float:
        """The t with P(t, q) = q * alpha (P falls in t: every g_a' < 1)."""
        def f(t):
            return self.pressure(t, q) - q * alpha

        lo, hi = -1.0, 1.0
        while f(lo) < 0.0:
            lo *= 2.0
        while f(hi) > 0.0:
            hi *= 2.0
        return brentq(f, lo, hi, xtol=1e-15, rtol=4 * np.finfo(float).eps)

    def dimension(self) -> float:
        """The attractor's dimension: the root of P(t, 0) = 0 (Bowen)."""
        return self.root_t()

    def birkhoff_spectrum(self, alpha: float) -> float:
        """b(alpha) = min_q T(q), with P(T(q), q) = q * alpha."""
        return _minimum(lambda q: self.root_t(q, alpha), _Q_BOUND, alpha)

    def lyapunov_spectrum(self, alpha: float) -> float:
        """L(alpha) = min_t (P(t) + t * alpha) / alpha, for alpha strictly
        inside [lambda_min, lambda_max]."""
        return _minimum(lambda t: (self.pressure(t) + t * alpha) / alpha,
                        _T_BOUND, alpha)


def _minimum(f: Callable[[float], float], bound: float, alpha: float) -> float:
    """min of a convex f over [-bound, bound]; ``ValueError`` when the
    minimizer runs to an end, where the level has no equilibrium state."""
    found = minimize_scalar(f, bounds=(-bound, bound), method="bounded",
                            options={"xatol": 1e-10})
    if abs(found.x) > bound * (1.0 - _EDGE):
        raise ValueError(f"alpha={alpha}: the minimum runs to the bound "
                         f"{math.copysign(bound, found.x)}; the level lies "
                         f"outside the spectrum's domain")
    return float(found.fun)
