"""Exact kernels on windows and dimension lower-bound certificates.

Run as: python3 demos/02_kernels_and_certificates.py
"""

from lacunary import (
    Window,
    certify_dimension,
    finite_support_kernel,
    free_kernel_dim,
    verify_dimension_certificate,
)
from lacunary.corpus import fibonacci_operator, vanish_on_multiples_operator

# The vanish-on-multiples operator of order 2 constrains x only at the
# multiples of 3, so every index off those multiples carries a free unit
# solution.
op = vanish_on_multiples_operator(2)

kb = finite_support_kernel(op, Window(0, 12))
print("kernel dimension on [0, 12]:", kb.dimension)
for sol in kb.solutions:
    print("  solution supported on", sorted(sol.support_set()))

# certify_dimension sweeps [-budget, budget] left to right, keeping each
# block whose support misses the ones already taken, until it can hand
# back k solutions with pairwise disjoint supports.  The certificate is a
# self-contained object; verification recomputes every residual.
cert = certify_dimension(op, k=50, budget=100)
print("certified dimension >=", cert.k, "inside window", (cert.window.lo, cert.window.hi))
print("certificate verifies:", verify_dimension_certificate(op, cert))

# The Fibonacci rule is the standing counterexample: no finite-support
# solution other than zero, so the search reports Inconclusive.
fib = fibonacci_operator()
print("fibonacci free kernel dimension:", free_kernel_dim(fib, Window(0, 50)))
outcome = certify_dimension(fib, k=1, budget=200)
print("fibonacci certify outcome:", outcome.reason)
