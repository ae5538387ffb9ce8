"""Independent reference implementations used to cross-check the library.

Everything here is deliberately naive and shares no code with the package
internals: plain rational Gauss-Jordan with a different pivot rule, and
window systems assembled from unit-sequence residuals instead of the
library's matrix constructor.  The two exceptions run on the library's
kernel: symmetric_window_certify, an earlier certify search kept as a
reference for the block sweep, and uncached_first_blocks, the block search
with every window solved; per_entry_certificate reads a certificate's
solutions with the library's parse_rational.  trimmed_solution builds the
FiniteSolution of a table with zeros at its ends, for tests that draw one,
and assembled the FiniteTable of a partial lacunary solution's block sum.
build_parser is the argparse parser the command line used to have, kept as
the reference for the parse of its option table.
"""

import argparse
import math
import re
from fractions import Fraction

from lacunary import (
    DimensionCertificate,
    FiniteSolution,
    FiniteTable,
    Inconclusive,
    Window,
    finite_support_kernel,
)
from lacunary.cli import UsageError
from lacunary.jsonio import parse_rational


def naive_rref(matrix):
    """Reduced row echelon form over Fractions; returns (rows, pivot cols).

    Pivots by largest absolute value in the column, unlike the library's
    first-nonzero rule, so agreement is not an artifact of shared choices.
    """
    rows = [[Fraction(v) for v in row] for row in matrix]
    ncols = len(rows[0]) if rows else 0
    pivots = []
    top = 0
    for col in range(ncols):
        candidates = [i for i in range(top, len(rows)) if rows[i][col] != 0]
        if not candidates:
            continue
        best = max(candidates, key=lambda i: abs(rows[i][col]))
        rows[top], rows[best] = rows[best], rows[top]
        pv = rows[top][col]
        rows[top] = [v / pv for v in rows[top]]
        for j in range(len(rows)):
            if j != top and rows[j][col] != 0:
                f = rows[j][col]
                rows[j] = [a - f * b for a, b in zip(rows[j], rows[top])]
        pivots.append(col)
        top += 1
        if top == len(rows):
            break
    return rows, pivots


def naive_rank_nullspace(matrix, ncols):
    """(rank, nullspace basis in QQ^ncols) straight from the reduced echelon form."""
    rows, pivots = naive_rref(matrix)
    pivot_set = set(pivots)
    basis = []
    for free in (c for c in range(ncols) if c not in pivot_set):
        v = [Fraction(0)] * ncols
        v[free] = Fraction(1)
        for i, c in enumerate(pivots):
            v[c] = -rows[i][free]
        basis.append(tuple(v))
    return len(pivots), basis


def dense_windowed_check(op, x, w):
    """First (n, residual) that is nonzero for n in [w.lo, w.hi - r], or None.

    Evaluates the equation at every fully windowed index, support or not.
    """
    for n in range(w.lo, w.hi - op.order + 1):
        total = sum(
            (op.coeffs[k].value_at(n) * x.value_at(n + k) for k in range(op.order + 1)),
            Fraction(0),
        )
        if total != 0:
            return n, total
    return None


def every_equation_check(op, x):
    """Whether a finite-support x solves every equation n in [min - r, max].

    Sums all r + 1 terms of each equation, zeros of x and indices past its
    table included: the check is_global_solution_finite replaces.
    """
    w = Window(x.min_support - op.order, x.max_support + op.order)
    return dense_windowed_check(op, x, w) is None


def naive_verify_certificate(op, k, window, solutions):
    """The verdict on a dimension certificate, decided pair by pair and equation by equation.

    For a well-formed certificate, whether every solution passes
    every_equation_check.  Otherwise the library's message: the solutions
    are taken in order up to the first that leaves the window, and two of
    those with intersecting support sets are reported before it.
    """
    if k != len(solutions):
        return "certificate must contain exactly k solutions"
    inside = []
    for s in solutions:
        if s.min_support < window.lo or s.max_support > window.hi:
            break
        inside.append({s.anchor + i for i, v in enumerate(s.values) if v != 0})
    if any(a & b for i, a in enumerate(inside) for b in inside[i + 1 :]):
        return "solution supports are not pairwise disjoint"
    if len(inside) < len(solutions):
        return "solution support leaves the certificate window"
    return all(every_equation_check(op, s) for s in solutions)


def pairwise_residue_conflicts(coeff_masks, sol_mask):
    """Every (k, rho, tau) with rho + k = tau mod the lcm modulus, trying all pairs."""
    m = math.lcm(sol_mask.modulus, *(mask.modulus for mask in coeff_masks))
    return tuple(
        (k, rho, tau)
        for k, mask in enumerate(coeff_masks)
        for rho in range(m) if rho % mask.modulus in mask.allowed
        for tau in range(m) if tau % sol_mask.modulus in sol_mask.allowed
        if (rho + k) % m == tau
    )


def unit_residual(op, m, n):
    """Residual at n of the sequence that is 1 at index m and 0 elsewhere."""
    total = Fraction(0)
    for k in range(op.order + 1):
        if n + k == m:
            total += op.coeffs[k].value_at(n)
    return total


def support_confined_system(op, lo, hi):
    """All equations a support-confined solution on [lo, hi] must satisfy."""
    r = op.order
    return [
        [unit_residual(op, m, n) for m in range(lo, hi + 1)]
        for n in range(lo - r, hi + 1)
    ]


def free_boundary_system(op, lo, hi):
    """Only the equations whose terms all fall inside [lo, hi]."""
    return [
        [unit_residual(op, m, n) for m in range(lo, hi + 1)]
        for n in range(lo, hi - op.order + 1)
    ]


def support_confined_nullity(op, lo, hi):
    rank, _ = naive_rank_nullspace(support_confined_system(op, lo, hi), hi - lo + 1)
    return hi - lo + 1 - rank


def densify(band_rows, ncols):
    """Dense rows of a system given as (first column, entries) band rows."""
    dense = []
    for first, entries in band_rows:
        row = [Fraction(0)] * ncols
        for j, value in enumerate(entries):
            row[first + j] = Fraction(value)
        dense.append(row)
    return dense


def matrix_times_vector(matrix, vector):
    return [sum((Fraction(a) * b for a, b in zip(row, vector)), Fraction(0)) for row in matrix]


def spans_equal(basis_a, basis_b, ncols):
    """Whether two vector lists span the same subspace of QQ^ncols."""
    rank_a, _ = naive_rank_nullspace([list(v) for v in basis_a], ncols)
    rank_b, _ = naive_rank_nullspace([list(v) for v in basis_b], ncols)
    stacked = [list(v) for v in basis_a] + [list(v) for v in basis_b]
    rank_ab, _ = naive_rank_nullspace(stacked, ncols)
    return rank_a == rank_b == rank_ab


def symmetric_window_certify(op, k, budget):
    """Search growing symmetric windows for k disjoint-support solutions.

    Window half-widths run r+1, 2(r+1), 4(r+1), ... up to the budget.  On
    each window the finite-support kernel basis is scanned leftmost-first
    and vectors whose supports overlap anything already taken are skipped.
    """
    best_dim = 0
    half = op.order + 1
    while half <= budget:
        w = Window(-half, half)
        kb = finite_support_kernel(op, w)
        best_dim = max(best_dim, kb.dimension)
        if kb.dimension >= k:
            candidates = sorted(
                kb.solutions,
                key=lambda s: (s.min_support, s.max_support, s.values),
            )
            taken = []
            used = set()
            for s in candidates:
                supp = s.support_set()
                if used & supp:
                    continue
                taken.append(s)
                used |= supp
                if len(taken) == k:
                    return DimensionCertificate(k, w, tuple(taken))
        half *= 2
    return Inconclusive(
        reason=f"no {k} disjoint solutions within budget {budget}",
        best_kernel_dim=best_dim,
    )


def uncached_first_blocks(op, d, edge, budget, widen=False):
    """The block search of certify and build, solving every window it tries.

    Windows anchored at edge double along the ray of sign d from width
    r + 1, clipped to [-budget, budget].  The first that holds a solution
    is returned (with widen, the one a doubling after it); empty if a
    clipped window holds none or |edge| > budget.
    """
    if abs(edge) > budget:
        return ()
    width = op.order + 1
    while True:
        lo, hi = sorted((edge, max(-budget, min(edge + d * (width - 1), budget))))
        solutions = finite_support_kernel(op, Window(lo, hi)).solutions
        if hi - lo + 1 < width or (solutions and not widen):
            return solutions
        if solutions:
            widen = False
        width *= 2


def trimmed_solution(anchor, values):
    """The FiniteSolution of `values` at `anchor` with its end zeros cut; None if all are 0."""
    values = tuple(map(Fraction, values))
    nonzero = [i for i, v in enumerate(values) if v]
    if not nonzero:
        return None
    return FiniteSolution(anchor + nonzero[0], values[nonzero[0] : nonzero[-1] + 1])


def assembled(partial):
    """The sum of a partial lacunary solution's blocks as one FiniteTable over their hull."""
    lo = min(b.min_support for b in partial.blocks)
    hi = max(b.max_support for b in partial.blocks)
    values = [Fraction(0)] * (hi - lo + 1)
    for b in partial.blocks:
        for i, v in enumerate(b.values):
            values[b.anchor + i - lo] += v
    return FiniteTable(lo, tuple(values))


def per_entry_certificate(data):
    """The dimension certificate `data`, each solution read on its own, entry by entry.

    The reference for the library's reader, which parses each distinct
    table of a certificate once: here every entry of every solution goes
    through parse_rational, and the checks run in the reader's order, so the
    first bad solution raises the reader's ValueError.
    """
    solutions = []
    for item in data["solutions"]:
        if not isinstance(item, dict):
            raise ValueError("finite solution JSON must be an object")
        if "anchor" not in item:
            raise ValueError("finite solution has no key 'anchor'")
        anchor = item["anchor"]
        if isinstance(anchor, bool) or not isinstance(anchor, int):
            raise ValueError(f"anchor must be an integer, got {anchor!r}")
        if "values" not in item:
            raise ValueError("finite solution has no key 'values'")
        values = item["values"]
        if not isinstance(values, list):
            raise ValueError(f"values must be a list, got {values!r}")
        solutions.append(FiniteSolution(anchor, tuple(parse_rational(v) for v in values)))
    return DimensionCertificate(data["k"], Window(*data["window"]), solutions)


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)  # -50:50 is a window, not an option
        self._negative_number_matcher = re.compile(r"^-\d+(:-?\d+)?$|^-\d*\.\d+$")

    def error(self, message: str) -> None:  # noqa: A003 - argparse hook
        raise UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="lacunary",
        description=(
            "Exact witnesses for infinite-dimensional solution spaces of "
            "linear difference equations with sequence coefficients."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_text: str, *, operator=True, sequence=False, window=False):
        p = sub.add_parser(name, help=help_text)
        if operator:
            p.add_argument("--operator", required=True, metavar="FILE")
        if sequence:
            p.add_argument("--sequence", required=True, metavar="FILE")
        if window:
            p.add_argument("--window", required=True, metavar="LO:HI")
        p.add_argument("--format", choices=("json", "text"), default="json")
        p.add_argument("--out", metavar="FILE")
        return p

    add("check", "verify a sequence solves the equation on a window", sequence=True, window=True)
    add("kernel", "basis of global solutions supported inside a window", window=True)
    p = add("certify", "prove a lower bound on the solution space dimension")
    p.add_argument("--k", required=True, type=int, metavar="INT")
    p.add_argument("--budget", type=int, default=1000, metavar="INT")
    add("split", "cut a windowed solution at long zero runs", sequence=True, window=True)
    p = add("build", "assemble a solution with ever-growing support gaps")
    p.add_argument("--gap", required=True, type=int, metavar="INT")
    p.add_argument("--budget", type=int, default=1000, metavar="INT")
    p = add("verify", "re-check a serialized certificate against an operator")
    p.add_argument("--certificate", required=True, metavar="FILE")
    p = add("corpus", "emit a corpus entry, or the manifest without a name", operator=False)
    p.add_argument("name", nargs="?", default=None)
    return parser
