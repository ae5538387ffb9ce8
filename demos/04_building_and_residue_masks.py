"""Growing a solution with ever-larger gaps, and residue-class certificates.

Run as: python3 demos/04_building_and_residue_masks.py
"""

from lacunary import (
    ResidueMask,
    residue_certificate,
    build_lacunary,
    coefficient_masks,
    verify_partial_lacunary,
)
from lacunary.corpus import (
    fibonacci_operator,
    vanish_on_multiples_operator,
)

op = vanish_on_multiples_operator(2)

# build_lacunary places finite blocks one after another, each separated
# from the previous by a strictly larger gap, until the latest gap
# reaches the target.  The partial solution extends by zeros to a global
# solution whose support gaps grow without bound.
out = build_lacunary(op, min_gap=20, budget=200)
print("ray:", out.ray)
print("block anchors:", [b.anchor for b in out.blocks])
print("gap profile:  ", out.gap_profile)
print("verifies:     ", verify_partial_lacunary(op, out))

# The blocks' supports are disjoint, so their sum's support is their union.
points = tuple(sorted(n for b in out.blocks for n in b.support_set()))
print("assembled support:", points)
print("its gaps:         ", tuple(b - a for a, b in zip(points, points[1:])))

# A budget too small to fit the requested gap reports Inconclusive
# rather than guessing.
print("tight budget:", build_lacunary(op, min_gap=20, budget=20).reason)

# Residue certificates prove solution-space structure without any linear
# algebra: if every coefficient lives on residue classes that never meet
# a proposed solution support (mod a common modulus), each product
# a_k(n) x(n+k) vanishes identically.
masks = coefficient_masks(op)
nonzero_residues = ResidueMask(3, frozenset({1, 2}))
cert = residue_certificate(op, masks, nonzero_residues)
print("mask {1, 2} mod 3 certified:", cert.certified)

with_zero = ResidueMask(3, frozenset({0, 1, 2}))
cert = residue_certificate(op, masks, with_zero)
print("mask {0, 1, 2} mod 3 certified:", cert.certified, "conflicts:", cert.conflicts)

# Constant nonzero coefficients admit no such separation.
fib = fibonacci_operator()
cert = residue_certificate(fib, coefficient_masks(fib), ResidueMask(1, frozenset({0})))
print("fibonacci certified:", cert.certified)
