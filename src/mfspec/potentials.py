"""Potentials on [0,1] and their induced word functions.

A potential F on the interval induces a function on sequences via the
projection; at finite depth the value on a word is F at the cylinder
midpoint, with the cylinder diameter times the Lipschitz bound as declared
error.  Word-local potentials (first-symbol values, branch indicators) are
exact at every depth.  ``PotentialSpec.on_cylinders`` evaluates both kinds
on cylinders, for every caller in the package.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .geometry import (CylinderTable, IfsSystem, _fold_cylinder,
                       cylinder_levels)
from .symbolic import Word, WordFunction


@dataclass(frozen=True)
class PotentialSpec:
    """A potential to average along orbits.

    Exactly one of ``func`` (a vectorized map [0,1] -> R with Lipschitz
    constant ``lipschitz``), ``values`` (one number per symbol) and
    ``branch_index`` (the indicator of one symbol) is set; the last two are
    word-local: the induced function depends on the first symbol only.
    """

    name: str
    func: Callable | None = None
    lipschitz: float = 0.0
    values: tuple[float, ...] | None = None
    branch_index: int | None = None

    def __post_init__(self):
        if sum(x is not None for x in (self.func, self.values,
                                       self.branch_index)) != 1:
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

    def on_cylinders(self, m: int, first, lo, width) -> np.ndarray:
        """Values on cylinders [lo, lo + width] of words starting with symbol
        ``first`` (broadcast together; m symbols): the first symbol's value
        if word-local, reading neither ``lo`` nor ``width``, else ``func``
        at the midpoint lo + 0.5 * width (a point is a width-0 cylinder)."""
        if self.word_local:
            return np.asarray(self.symbol_values(m), dtype=float)[first]
        return np.asarray(self.func(lo + 0.5 * width), dtype=float)


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


def induced_word_function(system: IfsSystem, spec: PotentialSpec,
                          depth: int) -> WordFunction:
    """Word-level form of the induced sequence function, with error bounds
    enumerated up to ``depth`` (0.0, unenumerated, when word-local)."""
    bounds = None
    if not spec.word_local:
        system.alphabet.check_cap(depth)
        bounds = [0.5 * spec.lipschitz * float(np.max(width))
                  for _, width in cylinder_levels(system, depth)]

    def evaluate(w: Word) -> float:
        return float(spec.on_cylinders(system.m, w[0],
                                       *_fold_cylinder(system, w)))

    def error_bound(k: int) -> float:
        if bounds is None:
            return 0.0
        if not 1 <= k <= depth:
            raise ValueError(f"error bound enumerated only up to depth {depth}")
        return bounds[k - 1]

    return WordFunction(evaluate=evaluate, error_bound=error_bound,
                        name=spec.name)


def potential_arrays(table: CylinderTable,
                     spec: PotentialSpec) -> list[np.ndarray]:
    """Per-depth ``spec.on_cylinders`` arrays over an exhaustive table."""
    m = table.m
    return [spec.on_cylinders(m, np.repeat(np.arange(m), m**(k - 1)),
                              table.lo(k), table.diameters(k))
            for k in range(1, table.depth + 1)]
