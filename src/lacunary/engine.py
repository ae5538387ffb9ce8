"""Budgeted constructive witnesses for infinite-dimensional solution spaces.

Three procedures, all exact and all budget-bounded:

* :func:`certify_dimension` proves dim >= k by exhibiting k verified
  finite-support solutions with pairwise disjoint supports;
* :func:`split_lacunary` cuts a solution with long zero runs into
  independent finite-support solutions, the route from a lacunary solution
  to an infinite-dimensional solution space;
* :func:`build_lacunary` assembles a solution with ever-growing support
  gaps out of finite-support blocks, the reverse route.

Certify and build share one verified block search on doubling windows
along a ray: build places its earliest-ending blocks at growing gaps,
certify sweeps blocks left to right and keeps those with disjoint supports.
With periodic coefficients it solves each translation class of windows
once per call and translates the verified basis to the others.

Witnesses are sparse, so windowed residual checks evaluate only equations
that meet the support: any other multiplies zeros only.

Each can also return :class:`Inconclusive`: the budget ran out without a
witness.  That is never a claim that the solution space is
finite-dimensional; these are semi-algorithms by nature.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import islice
from operator import eq
from typing import Iterator, Optional, Union

from .linalg import KernelBasis, VerificationFailure, _eliminate, finite_support_kernel
from .operators import FiniteSolution, OperatorSpec, _first_non_solution, first_residual
from .sequences import ZERO, Record, SequenceSpec, Window

__all__ = [
    "DimensionCertificate",
    "Inconclusive",
    "NotASolutionOnWindow",
    "PartialLacunarySolution",
    "SplitResult",
    "build_lacunary",
    "certify_dimension",
    "split_lacunary",
    "verify_dimension_certificate",
    "verify_kernel_basis",
    "verify_partial_lacunary",
    "windowed_residual_check",
]

class NotASolutionOnWindow(Exception):
    """The sequence fails the equation at some fully-windowed index."""

    def __init__(self, n: int, value: Fraction) -> None:
        super().__init__(f"residual at n={n} is {value}, not 0")
        self.n = n
        self.value = value


class Inconclusive(Record):
    """Budget exhausted without a witness; not a negative answer.

    best_kernel_dim: the disjoint solutions certify found (a bound dim >= it).
    best_gap: the largest gap build reached, if it placed two blocks.
    """

    reason: str
    best_kernel_dim: Optional[int] = None
    best_gap: Optional[int] = None


class DimensionCertificate(Record):
    """k verified finite-support solutions with pairwise disjoint supports.

    Disjoint supports make the solutions linearly independent, so a valid
    certificate proves the solution space has dimension at least k.  All
    structural invariants are enforced here; the residual checks against a
    concrete operator live in verify_dimension_certificate.  Solutions that
    share a table object (as read certificates do) share one offset scan.
    """

    k: int
    window: Window
    solutions: tuple[FiniteSolution, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "solutions", tuple(self.solutions))
        if self.k < 1:
            raise ValueError("a dimension certificate needs k >= 1")
        if len(self.solutions) != self.k:
            raise ValueError("certificate must contain exactly k solutions")
        # one sorted list of every support point: disjoint iff no point repeats
        lo, hi = self.window.lo, self.window.hi
        offsets: dict[int, list[int]] = {}  # id of a table -> its nonzero offsets past 0
        points: list[int] = []
        leaves = False
        for s in self.solutions:
            anchor, values = s.anchor, s.values
            if anchor < lo or anchor + len(values) - 1 > hi:
                leaves = True
                break  # an overlap among the solutions before it is reported first
            points.append(anchor)  # a table starts nonzero: its anchor is a support point
            if (at := offsets.get(id(values))) is None:
                at = [i for i, v in enumerate(islice(values, 1, None), 1) if v]
                offsets[id(values)] = at
            if at:
                points += map(anchor.__add__, at)
        points.sort()
        if any(map(eq, points, islice(points, 1, None))):
            raise ValueError("solution supports are not pairwise disjoint")
        if leaves:
            raise ValueError("solution support leaves the certificate window")


class SplitResult(Record):
    """The pieces split_lacunary cut from a solution on window, leftmost first."""

    pieces: tuple[FiniteSolution, ...]
    window: Window


def _along(s: FiniteSolution, d: int) -> tuple[int, int]:
    """Where s starts and ends along the ray of sign d, in the coordinate d * n."""
    a, b = d * s.min_support, d * s.max_support
    return min(a, b), max(a, b)


class PartialLacunarySolution(Record):
    """Finite-support blocks with strictly growing gaps along one ray.

    Blocks are listed in construction order: ascending supports on the
    positive ray, descending on the negative ray.  gap_profile[i] is the
    distance from block i to block i+1 measured along the ray, so the zero
    run between them has length gap_profile[i] - 1; the construction keeps
    gap_profile[i] >= i + 2.  The blocks' sum is one solution whose support
    gaps reach the profile's maximum: a finite prefix of a lacunary solution.
    """

    blocks: tuple[FiniteSolution, ...]
    gap_profile: tuple[int, ...]
    ray: str

    def __post_init__(self) -> None:
        object.__setattr__(self, "blocks", tuple(self.blocks))
        object.__setattr__(self, "gap_profile", tuple(self.gap_profile))
        if self.ray not in ("positive", "negative"):  # read from JSON, so maybe unhashable
            raise ValueError(f"unknown ray: {self.ray!r}")
        if not self.blocks:
            raise ValueError("need at least one block")
        if len(self.gap_profile) != len(self.blocks) - 1:
            raise ValueError("gap profile length must be block count minus 1")
        d = 1 if self.ray == "positive" else -1
        for i, gap in enumerate(self.gap_profile):
            actual = _along(self.blocks[i + 1], d)[0] - _along(self.blocks[i], d)[1]
            if gap != actual:
                raise ValueError(f"gap_profile[{i}] = {gap} but blocks are {actual} apart")
            if gap < i + 2:
                raise ValueError(f"gap_profile[{i}] = {gap} violates the i + 2 lower bound")


def windowed_residual_check(
    op: OperatorSpec, x: SequenceSpec, w: Window
) -> list[tuple[int, int]]:
    """Verify the equation at every index whose terms all lie inside w.

    Checks residual(op, x, n) = 0 for n in [w.lo, w.hi - r], the equations
    that read x only on [w.lo, w.hi]; nothing is assumed about x outside
    the window.  Raises NotASolutionOnWindow at the first failure.  An
    equation with no support point among its terms multiplies zeros only:
    it is skipped, so the check is complete and fails where a scan would.
    The support is read lazily and not kept, so a failure ends the walk
    without reading the rest of the window.  Returns the runs of the
    support it walked: the (first, last) support points of each stretch
    between zero runs of length >= r + 1, in order.
    """
    r = op.order
    runs: list[tuple[int, int]] = []

    def walk() -> Iterator[int]:
        for n in x.support_points(w):
            if runs and n - runs[-1][1] <= r + 1:
                runs[-1] = (runs[-1][0], n)
            else:
                runs.append((n, n))
            yield n

    failure = first_residual(op, x, walk(), w.lo, w.hi - r)
    if failure:
        raise NotASolutionOnWindow(*failure)
    return runs


def certify_dimension(
    op: OperatorSpec, k: int, budget: int
) -> Union[DimensionCertificate, Inconclusive]:
    """Sweep [-budget, budget] left to right for k disjoint-support solutions.

    From each edge, starting at -budget, the widened block search's
    solutions are taken earliest-starting first, each iff its support
    misses every support taken so far; the sweep resumes one past the
    earliest start, so interleaved solutions are still found; the block
    search solves each translation class of windows once per call.
    Disjoint supports make the solutions independent, so the certificate
    (window: the hull of the supports) is unconditionally sound: dim >= k.
    """
    if k < 1:
        raise ValueError("k must be positive")
    if budget < 1:
        raise ValueError("budget must be positive")
    taken: list[FiniteSolution] = []
    used: set[int] = set()
    edge = -budget
    solved: dict[tuple[int, int], tuple[FiniteSolution, ...]] = {}
    while len(taken) < k:
        candidates = _first_blocks(op, 1, edge, budget, solved, widen=True)
        if not candidates:
            return Inconclusive(
                reason=f"no {k} disjoint solutions within budget {budget}",
                best_kernel_dim=len(taken),
            )
        for s in sorted(candidates, key=lambda s: (s.min_support, s.max_support, s.values)):
            supp = s.support_set()
            if len(taken) < k and not used & supp:
                taken.append(s)
                used |= supp
        edge = min(s.min_support for s in candidates) + 1
    hull = Window(min(s.min_support for s in taken), max(s.max_support for s in taken))
    return DimensionCertificate(k, hull, tuple(taken))


def split_lacunary(op: OperatorSpec, x: SequenceSpec, w: Window) -> list[FiniteSolution]:
    """Cut a windowed solution at its long zero runs into verified pieces.

    After the windowed residual check passes, the runs it returns are the
    support of x inside w segmented at maximal zero runs of length >= r+1,
    walked once.  A segment qualifies as a piece only if it has at least
    r+1 verified zeros on both sides inside the window (segments flush
    against a window edge are dropped: their completeness cannot be
    checked).  Qualifying pieces are re-checked as global solutions, once
    per translation class, and have pairwise disjoint supports; they are
    returned leftmost first.  An empty list means no cut qualified, which
    is not an error.
    """
    r = op.order
    segments = windowed_residual_check(op, x, w)
    last = len(segments) - 1
    pieces = [
        FiniteSolution(lo, tuple(x.value_at(n) for n in range(lo, hi + 1)))
        for i, (lo, hi) in enumerate(segments)
        if (i > 0 or lo - w.lo >= r + 1) and (i < last or w.hi - hi >= r + 1)
    ]
    bad = _first_non_solution(op, pieces)
    if bad is not None:
        raise VerificationFailure(f"piece anchored at {bad.anchor} fails residual re-verification")
    return pieces


def _first_blocks(
    op: OperatorSpec,
    d: int,
    edge: int,
    budget: int,
    solved: dict[tuple[int, int], tuple[FiniteSolution, ...]],
    widen: bool = False,
) -> tuple[FiniteSolution, ...]:
    """The verified solutions of the first window from edge that holds one.

    Windows anchored at edge double along the ray of sign d from width
    r + 1, clipped to [-budget, budget]; empty if a clipped window holds no
    solution or |edge| > budget.  On the positive ray the earliest-ending
    basis vector is the earliest-ending solution overall: the vector of free
    column f ends at f, any solution ends at its last free column with a
    nonzero coefficient, and smaller windows held none.  widen returns the
    window one doubling further, so solutions straddling that one are in it
    too.

    Each translation class of windows is solved once per search: with a
    common period p (op.period), the system on [lo, hi] is the one on
    [lo mod p, ...] shifted by a multiple of p, and the kernel basis is
    canonical, so `solved` keeps the verified basis of each
    (lo mod p, hi - lo) and a window of that class gets its translate.
    Without a period the shift is 0, so a class is one window.
    """
    if abs(edge) > budget:
        return ()
    width = op.order + 1
    period = op.period
    translate = FiniteSolution._trusted  # a verified table, not checked again
    while True:
        lo, hi = sorted((edge, max(-budget, min(edge + d * (width - 1), budget))))
        shift = lo - lo % period if period else 0
        key = (lo - shift, hi - lo)
        if key not in solved:
            solved[key] = finite_support_kernel(op, Window(lo - shift, hi - shift)).solutions
        solutions = tuple(translate(s.anchor + shift, s.values) for s in solved[key])
        if hi - lo + 1 < width or (solutions and not widen):
            return solutions
        widen = widen and not solutions  # widen once past the first hit
        width *= 2


def build_lacunary(
    op: OperatorSpec, min_gap: int, budget: int
) -> Union[PartialLacunarySolution, Inconclusive]:
    """Assemble blocks with strictly growing gaps until one reaches min_gap.

    Each ray is tried in turn (positive first).  Block i+1 is the block
    search's earliest-ending solution from an edge a target distance beyond
    block i, where the target at step i is max(i + 2, twice the previous
    gap): at least the i + 2 ramp the gap profile must dominate, but
    accelerating so a requested gap is reached in logarithmically many
    blocks instead of linearly many indices.  All windows stay inside
    [-budget, budget]; if neither ray produces the requested gap the
    outcome is Inconclusive.
    """
    if min_gap < 1:
        raise ValueError("min_gap must be positive")
    if budget < 1:
        raise ValueError("budget must be positive")
    best_gap = 0
    solved: dict[tuple[int, int], tuple[FiniteSolution, ...]] = {}
    for d, ray in ((1, "positive"), (-1, "negative")):
        blocks: list[FiniteSolution] = []
        gaps: list[int] = []
        while True:
            if not blocks:
                edge = 0
            else:
                target = max(len(gaps) + 2, 2 * gaps[-1] if gaps else 0)
                edge = d * (_along(blocks[-1], d)[1] + target)
            candidates = _first_blocks(op, d, edge, budget, solved)
            if not candidates:
                break
            found = min(candidates, key=lambda s: (_along(s, d)[::-1], s.values))
            if blocks:
                gaps.append(_along(found, d)[0] - _along(blocks[-1], d)[1])
                best_gap = max(best_gap, gaps[-1])
            blocks.append(found)
            if gaps and gaps[-1] >= min_gap:
                result = PartialLacunarySolution(tuple(blocks), tuple(gaps), ray)
                if not verify_partial_lacunary(op, result):
                    raise VerificationFailure("assembled prefix fails re-verification")
                return result
    return Inconclusive(
        reason=f"no gap of {min_gap} reached within budget {budget} on either ray",
        best_gap=best_gap if best_gap else None,
    )


def verify_dimension_certificate(op: OperatorSpec, cert: DimensionCertificate) -> bool:
    """Re-check a certificate against an operator from first principles."""
    return _first_non_solution(op, cert.solutions) is None


class _SparseSum(dict):
    """A finite-support sequence as index -> value; absent indices are 0."""

    def value_at(self, n: int) -> Fraction:
        return self.get(n, ZERO)


def verify_partial_lacunary(op: OperatorSpec, partial: PartialLacunarySolution) -> bool:
    """Re-check every block and their sum, the nonzero entries of the disjoint blocks."""
    if _first_non_solution(op, partial.blocks) is not None:
        return False
    total = _SparseSum(
        (b.anchor + i, v) for b in partial.blocks for i, v in enumerate(b.values) if v
    )
    support = sorted(total)
    return first_residual(op, total, support, support[0] - op.order, support[-1]) is None


def verify_kernel_basis(op: OperatorSpec, basis: KernelBasis) -> bool:
    """Re-check a kernel basis: genuine solutions, linearly independent.

    Only the columns the solutions reach are ranked: the others add no rank.
    """
    solutions = basis.solutions
    if _first_non_solution(op, solutions) is not None:
        return False
    if not solutions:
        return True
    lo = min(s.anchor for s in solutions)
    ncols = max(s.max_support for s in solutions) - lo + 1
    return len(_eliminate([(s.anchor - lo, s.values) for s in solutions], ncols)) == len(solutions)
