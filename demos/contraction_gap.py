"""How fast do cylinder contraction rates match Birkhoff averages?

The variational route optimizes against exact cylinder log-diameters while
the theory speaks about Birkhoff averages of the branch log-derivative.
For affine branches the two coincide identically; with an indifferent fixed
point they drift apart near the neutral symbol and reconcile only slowly as
the depth grows.  The sup-gap below, over every cylinder and every point of
it, is attached to every lower-bound report as its honesty term.
"""

from mfspec import lemma1_gap, linear_system, manneville_pomeau_system

print("affine ratios (1/2, 1/3): exact at every depth")
mixed = linear_system([0.5, 1 / 3])
for n in (4, 8, 12):
    print(f"  n={n:2d}  sup gap = {lemma1_gap(mixed, n):.2e}")

print()
print("intermittent system, beta = 0.5: polynomially shrinking gap")
mp = manneville_pomeau_system(0.5)
for n in (4, 8, 12, 16):
    print(f"  n={n:2d}  sup gap = {lemma1_gap(mp, n):.6f}")

print()
print("a smaller beta steepens log f' at the neutral point: a larger gap, "
      "decaying more slowly")
steep = manneville_pomeau_system(0.25)
for n in (4, 8, 12, 16):
    print(f"  n={n:2d}  sup gap = {lemma1_gap(steep, n):.6f}")
