"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
lines; timings cover the library calls only, not test scaffolding.
"""

import time
from fractions import Fraction

from lacunary import (
    DimensionCertificate,
    Inconclusive,
    ResidueMask,
    Window,
    build_lacunary,
    certify_dimension,
    finite_support_kernel,
    free_kernel_dim,
    is_global_solution_finite,
    residual,
    residue_certificate,
    split_lacunary,
    window_matrix,
    windowed_residual_check,
)
from lacunary.cli import main as cli_main
from lacunary.corpus import (
    coefficient_masks,
    fibonacci_operator,
    geometric_lacunary_sequence,
    random_residue_operator,
    vanish_on_multiples_operator,
)
from lacunary.jsonio import (
    certificate_from_json,
    dimension_certificate_to_json,
    dumps_canonical,
    operator_to_json,
)

from .oracles import (
    densify,
    matrix_times_vector,
    naive_rank_nullspace,
    spans_equal,
    support_confined_nullity,
    support_confined_system,
)


def report(number, ok, description):
    print(f"acceptance {number}: {'PASS' if ok else 'FAIL'} - {description}")
    assert ok, f"acceptance criterion {number} failed: {description}"


def test_acceptance_1_kernel_dimensions_match_counting_oracle():
    worst = 0.0
    ok = True
    for r in (1, 2, 3):
        op = vanish_on_multiples_operator(r)
        for top in (8, 50, 100):
            expected = sum(1 for n in range(top + 1) if n % (r + 1) != 0)
            start = time.perf_counter()
            kb = finite_support_kernel(op, Window(0, top))
            elapsed = time.perf_counter() - start
            worst = max(worst, elapsed)
            oracle = support_confined_nullity(op, 0, top)
            ok = ok and kb.dimension == expected == oracle
    ok = ok and worst < 1.0
    report(
        1, ok,
        "kernel dimension on [0,N] counts indices off the multiples of r+1 "
        f"for r in {{1,2,3}}, N in {{8,50,100}} (worst case {worst:.3f}s)",
    )


def test_acceptance_2_certify_fifty_dimensions():
    op = vanish_on_multiples_operator(2)
    start = time.perf_counter()
    cert = certify_dimension(op, 50, 100)
    elapsed = time.perf_counter() - start
    ok = isinstance(cert, DimensionCertificate) and cert.k == 50
    if ok:
        seen = set()
        for sol in cert.solutions:
            supp = sol.support_set()
            ok = ok and not (seen & supp) and is_global_solution_finite(op, sol)
            seen |= supp
        _, round_tripped = certificate_from_json(dimension_certificate_to_json(cert))
        from lacunary import verify_dimension_certificate

        ok = ok and verify_dimension_certificate(op, round_tripped)
    ok = ok and elapsed < 5.0
    report(
        2, ok,
        "certify_dimension k=50 budget=100 yields 50 disjoint re-verified "
        f"solutions and the serialized certificate verifies ({elapsed:.3f}s)",
    )


def test_acceptance_3_split_into_eight_pieces():
    op = vanish_on_multiples_operator(2)
    lac = geometric_lacunary_sequence(2)
    start = time.perf_counter()
    pieces = split_lacunary(op, lac, Window(0, 1000))
    elapsed = time.perf_counter() - start
    expected = [[4, 7], [13], [25], [49], [97], [193], [385], [769]]
    ok = [sorted(p.support_set()) for p in pieces] == expected
    ok = ok and all(is_global_solution_finite(op, p) for p in pieces)
    ok = ok and elapsed < 1.0
    report(
        3, ok,
        "split_lacunary on [0,1000] yields exactly 8 independent pieces "
        f"{{4,7}},{{13}},...,{{769}} ({elapsed:.3f}s)",
    )


def test_acceptance_4_build_reaches_gap_twenty():
    op = vanish_on_multiples_operator(2)
    start = time.perf_counter()
    out = build_lacunary(op, 20, 200)
    elapsed = time.perf_counter() - start
    ok = not isinstance(out, Inconclusive)
    if ok:
        gaps = out.gap_profile
        ok = ok and all(b > a for a, b in zip(gaps, gaps[1:]))
        ok = ok and all(g >= i + 2 for i, g in enumerate(gaps))
        ok = ok and out.max_gap >= 20
        cw = out.covered_window()
        try:
            windowed_residual_check(
                op, out.assembled(), Window(cw.lo - op.order, cw.hi + op.order)
            )
        except Exception:
            ok = False
    ok = ok and elapsed < 2.0
    report(
        4, ok,
        "build_lacunary G=20 budget=200 returns a strictly increasing gap "
        f"profile with gap[i] >= i+2 reaching >= 20 ({elapsed:.3f}s)",
    )


def test_acceptance_5_fibonacci_negative_control(tmp_path, capsys):
    op = fibonacci_operator()
    ok = True
    for w in (Window(0, 200), Window(-100, 100), Window(-7, 3), Window(0, 0)):
        ok = ok and finite_support_kernel(op, w).dimension == 0
    ok = ok and free_kernel_dim(op, Window(0, 50)) == 2
    outcome = certify_dimension(op, 1, 200)
    ok = ok and isinstance(outcome, Inconclusive)
    op_file = tmp_path / "fibonacci.json"
    op_file.write_text(dumps_canonical(operator_to_json(op)))
    exit_code = cli_main(
        ["certify", "--operator", str(op_file), "--k", "1", "--budget", "200"]
    )
    capsys.readouterr()
    ok = ok and exit_code == 2
    report(
        5, ok,
        "fibonacci operator: zero finite-support kernel on windows of length "
        "<= 200, free dimension 2, certify Inconclusive with exit code 2",
    )


def test_acceptance_6_oracle_equivalence_suite():
    start = time.perf_counter()
    ok = True
    for seed in range(100):
        r = 1 + seed % 3
        modulus = 1 + seed % 4
        op = random_residue_operator(r, modulus, seed=seed)
        lo = -20 + (seed * 7) % 15
        length = 10 + (seed * 13) % 31  # lengths 10..40
        base = Window(lo, lo + length)
        matrix = support_confined_system(op, base.lo, base.hi)
        ok = ok and densify(window_matrix(op, base), base.size) == matrix
        _, oracle_vectors = naive_rank_nullspace(matrix, base.size)
        kernels = [
            finite_support_kernel(op, Window(base.lo - pad, base.hi + pad))
            for pad in (0, 5, 10)
        ]
        # the band kernel spans the oracle's nullspace, vector by vector exact
        vectors = densify(
            [(s.anchor - base.lo, s.values) for s in kernels[0].solutions], base.size
        )
        ok = ok and kernels[0].dimension == len(oracle_vectors)
        ok = ok and spans_equal(vectors, oracle_vectors, base.size)
        for v in vectors:
            ok = ok and all(
                e == 0 for e in matrix_times_vector(matrix, v)
            )
        dims = [kb.dimension for kb in kernels]
        ok = ok and dims[0] <= dims[1] <= dims[2]
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 30.0
    report(
        6, ok,
        "100 seeded random operators: window systems, kernel dimension and span "
        "match the naive oracle, M*v = 0 exactly, kernel growth is monotone "
        f"({elapsed:.3f}s)",
    )


def test_acceptance_7_residue_certificates():
    ok = True
    for r in (1, 2, 3):
        m = r + 1
        op = vanish_on_multiples_operator(r)
        masks = coefficient_masks(op)
        certified = residue_certificate(
            op, masks, ResidueMask(m, frozenset(range(1, m)))
        )
        refused = residue_certificate(op, masks, ResidueMask(m, frozenset(range(m))))
        ok = ok and certified.certified and not refused.certified
        # cross-check the certified mask against actual residuals: any
        # sequence supported on the nonzero residues must solve the equation
        lac = geometric_lacunary_sequence(r)
        ok = ok and all(residual(op, lac, n) == 0 for n in range(-r, 501))
    report(
        7, ok,
        "residue_certificate certifies nonzero-residue solution masks for "
        "r in {1,2,3}, refuses masks containing residue 0, and certified "
        "masks agree with residuals on [-r, 500]",
    )
