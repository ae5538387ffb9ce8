"""Tour of the sequence descriptions and the residual of an operator.

Run as: python3 demos/01_sequences_and_operators.py
"""

from fractions import Fraction

from lacunary import (
    FiniteTable,
    GeometricSupport,
    OperatorSpec,
    Periodic,
    ResiduePolynomial,
    Window,
    residual,
)

# Four ways to describe a bi-infinite sequence exactly.

table = FiniteTable(anchor=0, values=(Fraction(1), Fraction(1), Fraction(2)))
print("finite table:", [table.value_at(n) for n in range(-2, 5)])

alternating = Periodic(period=2, values=(Fraction(1), Fraction(-1)))
print("periodic:    ", [alternating.value_at(n) for n in range(-2, 5)])

# Value n^2 on even indices, zero on odd ones.
squares_on_evens = ResiduePolynomial(
    modulus=2, per_class={0: (Fraction(0), Fraction(0), Fraction(1))}
)
print("residue poly:", [squares_on_evens.value_at(n) for n in range(-2, 5)])

# Support at 3 * 2^m + 1: the gaps between nonzero entries keep doubling.
doubling = GeometricSupport(scale=3, shift=1, value=Fraction(1))
points = tuple(n for n in Window(0, 1000).indices() if doubling.value_at(n))
print("doubling support points:", points)
print("gaps between them:      ", tuple(b - a for a, b in zip(points, points[1:])))

# An operator is a list of coefficient sequences; residual(op, x, n) is
# sum_k a_k(n) x(n+k), the amount by which x fails the equation at n.
fib = OperatorSpec(
    (Periodic.constant(-1), Periodic.constant(-1), Periodic.constant(1))
)
fib_table = FiniteTable(0, (Fraction(1), Fraction(1), Fraction(2), Fraction(3), Fraction(5)))
print("fibonacci residuals:", [residual(fib, fib_table, n) for n in range(0, 3)])
