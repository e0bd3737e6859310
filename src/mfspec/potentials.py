"""Potentials on [0,1] and their induced word functions.

A potential F on the interval induces a function on sequences via the
projection; at finite depth the value on a word is F at the cylinder
midpoint, with the cylinder diameter times the Lipschitz bound as declared
error.  Word-local potentials (first-symbol values, branch indicators) are
exact at every depth.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .geometry import (CylinderTable, IfsSystem, cylinder_interval,
                       cylinder_levels)
from .symbolic import DEFAULT_WORD_CAP, Word, WordFunction


@dataclass(frozen=True)
class PotentialSpec:
    """A potential to average along orbits.

    Either ``func`` (a vectorized map [0,1] -> R with Lipschitz constant
    ``lipschitz``) or ``values`` (one number per symbol; the induced function
    depends on the first symbol only) must be set.
    """

    name: str
    func: Callable | None = None
    lipschitz: float = 0.0
    values: tuple[float, ...] | None = None
    branch_index: int | None = None

    def __post_init__(self):
        if (self.func is None) == (self.values is None
                                   and self.branch_index is None):
            raise ValueError(
                "exactly one of func / values / branch_index must be set")

    @property
    def word_local(self) -> bool:
        return self.func is None

    def symbol_values(self, m: int) -> tuple[float, ...]:
        """Per-symbol values of a word-local potential."""
        if self.values is not None:
            if len(self.values) != m:
                raise ValueError(
                    f"potential {self.name!r} has {len(self.values)} values "
                    f"for {m} symbols")
            return self.values
        if self.branch_index is not None:
            if not 0 <= self.branch_index < m:
                raise ValueError(
                    f"branch index {self.branch_index} outside 0..{m - 1}")
            return tuple(1.0 if i == self.branch_index else 0.0
                         for i in range(m))
        raise ValueError(f"potential {self.name!r} is not word-local")

    def fixed_point_value(self, system: IfsSystem, symbol: int) -> float:
        """Value of the induced function along the constant-``symbol`` word.

        For word-local potentials this is the symbol value; otherwise F at
        the branch fixed point (declared for parabolic branches, located by
        deep iteration for contracting ones).
        """
        if self.word_local:
            return self.symbol_values(system.m)[symbol]
        branch = system.branches[symbol]
        if branch.fixed_point is not None:
            x = branch.fixed_point
        else:
            x = cylinder_interval(system, (symbol,) * 64).midpoint
        return float(self.func(x))


def coordinate() -> PotentialSpec:
    """F(x) = x."""
    return PotentialSpec(name="coordinate",
                         func=lambda x: np.asarray(x, dtype=float),
                         lipschitz=1.0)


def polynomial(coefficients: Sequence[float]) -> PotentialSpec:
    """F(x) = c_0 + c_1 x + ... with a coefficient-sum Lipschitz bound."""
    coeffs = tuple(float(c) for c in coefficients)
    lip = sum(k * abs(c) for k, c in enumerate(coeffs))

    def func(x):
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        for c in reversed(coeffs):
            out = out * x + c
        return out

    return PotentialSpec(name="polynomial", func=func, lipschitz=lip)


def first_symbol(values: Sequence[float]) -> PotentialSpec:
    """Word-local potential assigning a fixed value per leading symbol."""
    return PotentialSpec(name="first_symbol",
                         values=tuple(float(v) for v in values))


def indicator_branch(index: int) -> PotentialSpec:
    """Indicator of the cylinder of one branch (1 on it, 0 elsewhere)."""
    return PotentialSpec(name="indicator_branch", branch_index=int(index))


def induced_word_function(system: IfsSystem, spec: PotentialSpec, depth: int,
                          cap: int = DEFAULT_WORD_CAP) -> WordFunction:
    """Word-level form of the induced sequence function, with error bounds
    enumerated up to ``depth``."""
    if spec.word_local:
        vals = spec.symbol_values(system.m)

        def evaluate(w: Word) -> float:
            return vals[w[0]]

        return WordFunction(evaluate=evaluate, error_bound=lambda k: 0.0,
                            name=spec.name)

    system.alphabet.check_cap(depth, cap)
    bounds = [0.5 * spec.lipschitz * float(np.max(width))
              for _, width in cylinder_levels(system, depth)]
    func = spec.func

    def evaluate(w: Word) -> float:
        return float(func(cylinder_interval(system, w).midpoint))

    def error_bound(k: int) -> float:
        if not 1 <= k <= depth:
            raise ValueError(f"error bound enumerated only up to depth {depth}")
        return bounds[k - 1]

    return WordFunction(evaluate=evaluate, error_bound=error_bound,
                        name=spec.name)


def potential_arrays(table: CylinderTable,
                     spec: PotentialSpec) -> list[np.ndarray]:
    """Per-depth arrays of induced values over an exhaustive cylinder table:
    the value of the first symbol, or ``func`` at the cylinder midpoints."""
    depths = range(1, table.depth + 1)
    if spec.word_local:
        v = np.asarray(spec.symbol_values(table.m), dtype=float)
        return [np.repeat(v, table.m ** (k - 1)) for k in depths]
    return [np.asarray(spec.func(table.mid(k)), dtype=float) for k in depths]
