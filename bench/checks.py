"""Independent checks of lacunary's outputs; none of them calls lacunary.linalg.

Each check takes the parsed output of one operation and returns None when
it is correct, or a one-line reason when it is not.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

# SHA-256 of `lacunary kernel` output on corpus operators, recorded at the
# seed commit f63deb0.  The CLI's canonical JSON must stay byte-identical.
KERNEL_DIGESTS = {
    ("vanish_on_multiples_r2", 0, 100): "9c0c2a2d88c2b6a7f9d0778836790d20fb13659a5b2247da39dc1b94c79d0345",
    ("vanish_on_multiples_r2", 0, 200): "dd5c0274bafa82dcaab5ed2651cc973b031647e9386fce3549b63ad789ed946d",
    ("fibonacci", 0, 400): "51ca0dfe4c648a9053a9e50bdb90635c78f4be786c94396ae7a2ba8f68e7a7e5",
}


def _coefficient(spec: dict):
    """Evaluator n -> a(n) for a residue_poly coefficient spec."""
    if spec.get("kind") != "residue_poly":
        raise ValueError(f"no independent evaluator for {spec.get('kind')!r} coefficients")
    modulus = spec["modulus"]
    per_class = {
        int(residue): [Fraction(c) for c in poly] for residue, poly in spec["per_class"].items()
    }

    def value(n: int) -> Fraction:
        acc = Fraction(0)
        for c in reversed(per_class.get(n % modulus, ())):
            acc = acc * n + c
        return acc

    return value


def exact_rank(rows: list[dict[int, Fraction]]) -> int:
    """Rank over Q of sparse rows {column: value}, by plain Gaussian elimination."""
    pivots: dict[int, dict[int, Fraction]] = {}
    for row in rows:
        row = {c: v for c, v in row.items() if v}
        while row:
            c = min(row)
            prow = pivots.get(c)
            if prow is None:
                inv = 1 / row[c]
                pivots[c] = {j: v * inv for j, v in row.items()}
                break
            f = row[c]
            for j, v in prow.items():
                nv = row.get(j, 0) - f * v
                if nv:
                    row[j] = nv
                else:
                    row.pop(j, None)
    return len(pivots)


def window_nullity(operator: dict, lo: int, hi: int) -> int:
    """Dimension of the solutions supported in [lo, hi], from its window system.

    One equation per index n in [lo - r, hi]: sum_k a_k(n) x(n + k) = 0 with
    x zero outside the window.
    """
    coeffs = [_coefficient(c) for c in operator["coeffs"]]
    r = len(coeffs) - 1
    rows = []
    for n in range(lo - r, hi + 1):
        rows.append({n + k - lo: a(n) for k, a in enumerate(coeffs) if lo <= n + k <= hi})
    return hi - lo + 1 - exact_rank(rows)


def doubling_pieces(scale: int, shift: int, order: int, lo: int, hi: int) -> list[dict]:
    """The pieces `split` must cut from the support scale * 2**m + shift on [lo, hi].

    Points closer than order + 2 share a piece; a piece needs order + 1
    zeros inside the window on both sides.
    """
    points = []
    step = scale
    while step + shift <= hi:
        if step + shift >= lo:
            points.append(step + shift)
        step *= 2
    segments: list[list[int]] = []
    for p in points:
        if segments and p - segments[-1][-1] < order + 2:
            segments[-1].append(p)
        else:
            segments.append([p])
    pieces = []
    for seg in segments:
        if seg[0] - lo < order + 1 or hi - seg[-1] < order + 1:
            continue
        values = ["0/1"] * (seg[-1] - seg[0] + 1)
        for p in seg:
            values[p - seg[0]] = "1/1"
        pieces.append({"anchor": seg[0], "values": values})
    return pieces


def check_kernel_dimension(data: dict, expected: int) -> Optional[str]:
    got = len(data.get("vectors", ()))
    if got != expected:
        return f"kernel dimension {got}, independent rank gives {expected}"
    return None


def check_certificate(data: dict, k: int) -> Optional[str]:
    if data.get("kind") != "dimension_certificate" or data.get("k") != k:
        return f"expected a dimension certificate with k={k}"
    if len(data.get("solutions", ())) != k:
        return f"certificate holds {len(data.get('solutions', ()))} solutions, not {k}"
    return None


def check_partial(data: dict, gap: int) -> Optional[str]:
    if data.get("kind") != "partial_lacunary":
        return "expected a partial lacunary solution"
    if max(data.get("gap_profile") or [0]) < gap:
        return f"largest gap {max(data.get('gap_profile') or [0])} is below {gap}"
    return None


def check_inconclusive(data: dict) -> Optional[str]:
    if data.get("kind") != "inconclusive":
        return "expected an inconclusive outcome"
    return None


def check_valid(data: dict, kind: str) -> Optional[str]:
    if data != {"command": "verify", "kind": kind, "valid": True}:
        return f"expected a valid {kind}, got {data}"
    return None


def check_ok(data: dict) -> Optional[str]:
    if data.get("ok") is not True:
        return f"check did not report ok: {data}"
    return None


def check_pieces(data: dict, expected: list[dict]) -> Optional[str]:
    if data.get("pieces") != expected:
        return "split pieces differ from the closed-form doubling supports"
    return None
