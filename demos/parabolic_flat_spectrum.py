"""Flat spectra caused by indifferent fixed points.

Two systems with neutral fixed points are swept with the coordinate
potential.  The two-branch system with inverse branches y/(1+y) and 1/(2-y)
is parabolic at both endpoints, so the flagged interval spans every
achievable level value and the whole spectrum collapses to the attractor
dimension.  The intermittent-map system (inverse branches of
x + x^(1+beta) mod 1) is parabolic only at 0: exactly the level alpha = 0
is flagged, and every other level gets the two depth-n columns.  These are
not two-sided there: its spectrum is flat too, b(alpha) = 1 on
[0, alpha_ac], where alpha_ac ~ 0.369 is the mean of x under the
absolutely continuous invariant measure, and both columns read below 1 on
that part (at alpha = 0.2, lower 0.749 and upper 0.980).  Reaching it takes
long excursions near 0, which no depth-n word holds.
"""

from mfspec import (SolverOptions, coordinate, example2_system, full_spectrum,
                    manneville_pomeau_system, parabolic_interval)

opts = SolverOptions(n=10)
grid = [0.0, 0.2, 0.4, 0.6, 0.8]

for system in (example2_system(), manneville_pomeau_system(0.5)):
    span = parabolic_interval(system, coordinate())
    print(f"system={system.name}  indifferent interval="
          f"[{span.lo:g}, {span.hi:g}]")
    print(f"{'alpha':>6} {'lower':>9} {'upper':>9} {'flagged':>8}")
    for p in full_spectrum(system, coordinate(), grid, opts):
        lower = "-" if p.lower is None else f"{p.lower:9.5f}"
        upper = "-" if p.upper is None else f"{p.upper:9.5f}"
        print(f"{p.alpha:6.2f} {lower:>9} {upper:>9} "
              f"{'yes' if p.in_parabolic_interval else 'no':>8}")
    print()
