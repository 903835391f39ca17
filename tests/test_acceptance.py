"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
Criterion 9 contains one strict xfail: the setwise-equality ("full") reading
of the scalar axioms for the coordinate space is refuted by an exhaustive
scan (witness printed), so that clause is implemented faithfully and expected
to fail; everything else is green.
"""

import itertools
import random
import time

import pytest

from mvla import (Matrix, MatrixSet, Poly, builtin,
                  certify_algebraic_extension, characteristic,
                  classify_extension, det, dimension, divmod_holds, evaluate,
                  extension_space, find_inverse, find_nontrivial_kernel,
                  fn_space, homogeneous, is_inverse_pair, is_linearly_closed,
                  is_subspace,
                  linear_combinations, madd, mmul, mneg, mprod, mscale, msum,
                  pdivmod, pmul, principal_ideal, recheck_witness, solve_weak,
                  span, verify_axioms, verify_multigroup, verify_vspace)
from mvla.goldens import GOLDENS, load_golden
from mvla.linsys import SOLVED, LinearSystem, row_value_sets
from mvla.polys import all_polys
from mvla.structures import msum_sets
from conftest import (det_mod, mat_mul_mod, nullspace_vector_mod,
                      poly_divmod_mod, poly_eval_mod, poly_mul_mod,
                      solvable_mod)


def report(n, ok, detail, elapsed, budget):
    verdict = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {n}: {verdict} - {detail} ({elapsed:.1f}s / budget {budget}s)")
    assert ok, detail
    assert elapsed < budget, f"criterion {n} overran its {budget}s budget"


# -- criterion 1 -----------------------------------------------------------------


def _random_mutation(rng, S):
    while True:
        op = rng.choice(("sum", "prod"))
        a, b = rng.choice(S.elements), rng.choice(S.elements)
        current = S.sum_set(a, b) if op == "sum" else S.prod_set(a, b)
        size = rng.randint(1, len(S.elements))
        new = frozenset(rng.sample(S.elements, size))
        if new != current:
            return op, a, b, new


def test_criterion_1_builtin_axioms_and_mutations():
    t0 = time.monotonic()
    suite = [(builtin("K"), "multifield"), (builtin("Q2"), "multifield"),
             (builtin("Hp", 3), "hyperfield"), (builtin("Hp", 5), "hyperfield"),
             (builtin("Hp", 7), "hyperfield"),
             (builtin("Xn", 2), "multiring"), (builtin("Xn", 3), "multiring"),
             (builtin("Xn", 4), "multiring"),
             (builtin("Fp", 2), "superfield"), (builtin("Fp", 3), "superfield"),
             (builtin("Fp", 5), "superfield")]
    for S, kind in suite:
        assert verify_axioms(S, kind).passed, (S.name, kind)
    for n in (2, 3, 4):
        rep = verify_axioms(builtin("Xn", n), "hyperring")
        assert rep.verdict == "fail"
        ax, wit = rep.witnesses[0]
        assert ax == "hyper-dist" and recheck_witness(builtin("Xn", n), ax, wit)

    rng = random.Random(2026)
    skipped_valid = 0
    for S, kind in suite:
        found = 0
        attempts = 0
        while found < 100:
            attempts += 1
            assert attempts < 5000, f"mutation sampling stalled on {S.name}"
            op, a, b, new = _random_mutation(rng, S)
            mutated = S.with_entry(op, a, b, new)
            rep = verify_axioms(mutated, kind, witness_limit=1)
            if rep.passed:
                skipped_valid += 1  # e.g. K with 1+1 -> {0} is the field F2
                continue
            ax, wit = rep.witnesses[0]
            assert recheck_witness(mutated, ax, wit), (S.name, op, a, b, new, ax)
            found += 1
    report(1, True, f"11 structures verified, 1100 failing mutations "
                    f"re-checked, {skipped_valid} valid mutations skipped",
           time.monotonic() - t0, 10)


# -- criterion 2 -----------------------------------------------------------------


def test_criterion_2_worked_example_goldens():
    t0 = time.monotonic()
    for name in GOLDENS:
        stored = load_golden(name)
        assert stored is not None and GOLDENS[name]() == stored, name

    add_ab = load_golden("x2-matadd-AB")
    assert "members=9" in add_ab
    for a in (-1, 0, 1):
        for d in (-1, 0, 1):
            assert f"={a} 1 0 {d}\n" in add_ab

    mul_ab = load_golden("x2-matmul-AB")
    assert "members=3" in mul_ab
    for m in (-1, 0, 1):
        assert f"=-1 {m} 0 -1\n" in mul_ab

    mul_ac = load_golden("x2-matmul-AC")
    assert "members=1" in mul_ac and "=2 2 -1 2\n" in mul_ac

    nonassoc = load_golden("x2-nonassoc")
    assert "equal=no" in nonassoc and "intersect-nonempty=yes" in nonassoc
    assert "{-2} {-2 0 2}; {1} {-2}" in nonassoc
    assert "{-2} {-2 -1 0 1 2}; {1} {-2}" in nonassoc

    kq2 = load_golden("morphism-k-q2")
    assert "verdict=fail" in kq2 and "m-add @ (1, 1, 0)" in kq2
    h2h3 = load_golden("morphism-h2-h3")
    assert "morphism=pass" in h2h3 and "full=fail" in h2h3
    report(2, True, "all 8 goldens regenerate and match the expected sets",
           time.monotonic() - t0, 1)


# -- criterion 3 -----------------------------------------------------------------


def _dot(S, row, cols):
    return msum_sets(S, [S.mul_masks(r, c) for r, c in zip(row, cols)])


def _distributive_rowcol(S, equality):
    """A 2x2 product-box entry is a function of one row and one column, so
    quantifying over (row, column, column) covers every matrix triple."""
    singles = [1 << S.index(e) for e in S.elements]
    for row in itertools.product(singles, repeat=2):
        for colB in itertools.product(singles, repeat=2):
            for colC in itertools.product(singles, repeat=2):
                mixed = [S.add_masks(b, c) for b, c in zip(colB, colC)]
                left = S.mask_of(_dot(S, row, mixed))
                right = S.add_masks(S.mask_of(_dot(S, row, colB)),
                                    S.mask_of(_dot(S, row, colC)))
                if equality and left != right:
                    return False
                if not equality and left & ~right:
                    return False
    return True


def _associative_rowcol(S):
    """(AB)C = A(BC) entrywise; the entry depends on (row of A, B, col of C)."""
    singles = [1 << S.index(e) for e in S.elements]
    for row in itertools.product(singles, repeat=2):
        for bent in itertools.product(singles, repeat=4):
            B = [[bent[0], bent[1]], [bent[2], bent[3]]]
            for colC in itertools.product(singles, repeat=2):
                ab_row = [S.mask_of(_dot(S, row, [B[0][l], B[1][l]]))
                          for l in range(2)]
                left = S.mask_of(_dot(S, ab_row, colC))
                bc_col = [S.mask_of(_dot(S, B[k], colC)) for k in range(2)]
                right = S.mask_of(_dot(S, row, bc_col))
                if left != right:
                    return False
    return True


def test_criterion_3_matrix_laws(K, H3, X2):
    from mvla import all_matrices
    t0 = time.monotonic()
    mats = list(all_matrices(K, 2, 2))
    group = verify_multigroup(mats, lambda a, b: madd(a, b).members(),
                              lambda a: mneg(a).members()[0],
                              Matrix.zero(K, 2), subject="M2x2(K)")
    assert group.passed

    for S in (K, H3):
        one, zero = Matrix.identity(S, 2), Matrix.zero(S, 2)
        for A in all_matrices(S, 2, 2):
            assert mmul(A, zero) == MatrixSet.of(zero)
            assert mmul(zero, A) == MatrixSet.of(zero)
            assert mmul(A, one) == MatrixSet.of(A)
            assert mmul(one, A) == MatrixSet.of(A)

    assert _distributive_rowcol(K, equality=True)
    assert _distributive_rowcol(H3, equality=True)
    assert _distributive_rowcol(X2, equality=False)
    assert _associative_rowcol(H3)

    # decomposition cross-check against direct box computations
    rng = random.Random(77)
    for S in (K, H3, X2):
        for _ in range(40):
            A, B, C = (Matrix(S, 2, 2, [rng.choice(S.elements) for _ in range(4)])
                       for _ in range(3))
            left = mmul(A, madd(B, C))
            right = madd(mmul(A, B), mmul(A, C))
            assert all(l <= r for l, r in zip(left.entry_sets, right.entry_sets))
            if S is H3:
                assert left == right
                assert mmul(mmul(A, B), C) == mmul(A, mmul(B, C))
    report(3, True, "matrix multigroup, unit/zero, distributivity and "
                    "associativity laws exhausted at 2x2",
           time.monotonic() - t0, 60)


# -- criterion 4 -----------------------------------------------------------------


def test_criterion_4_determinants(Q2, H3):
    t0 = time.monotonic()
    for S, equality in ((Q2, False), (H3, True)):
        for combo in itertools.product(S.elements, repeat=4):
            A = Matrix(S, 2, 2, combo)
            dA = det(A)
            for lam in S.elements:
                left = det(mscale(lam, A))
                right = frozenset()
                for l2 in mprod(S, [lam, lam]):
                    right |= S.set_of(S.mul_masks(1 << S.index(l2),
                                                  S.mask_of(dA)))
                assert left <= right, (S.name, combo, lam)
                if equality:
                    assert left == right, (S.name, combo, lam)
    for S in (Q2, H3):
        for row in itertools.product(S.elements, repeat=2):
            assert det(Matrix.from_rows(S, [(S.zero, S.zero), row])) == {S.zero}
        for a, b, d in itertools.product(S.elements, repeat=3):
            A = Matrix.from_rows(S, [(a, b), (S.zero, d)])
            assert det(A) == mprod(S, [a, d])
    report(4, True, "scaling containment/equality, zero rows and triangular "
                    "products exhausted over Q2 and H3",
           time.monotonic() - t0, 10)


# -- criterion 5 -----------------------------------------------------------------


def test_criterion_5_division(H3):
    t0 = time.monotonic()
    polys = [f for f in all_polys(H3, 2) if not f.is_zero]
    assert len(polys) == 26
    multi_pair_instances = 0
    for f in polys:
        for g in polys:
            (q, r), *_ = pdivmod(f, g)
            assert divmod_holds(f, g, q, r), (f, g)
            assert r.is_zero or r.degree < g.degree
            pairs = pdivmod(f, g, all_pairs=True)
            if len(pairs) >= 2:
                multi_pair_instances += 1
            for q2, r2 in pairs:
                assert divmod_holds(f, g, q2, r2)
    assert multi_pair_instances >= 1
    report(5, True, f"all {len(polys) ** 2} divisions re-verified; "
                    f"{multi_pair_instances} instances have multiple pairs",
           time.monotonic() - t0, 60)


# -- criterion 6 -----------------------------------------------------------------


def test_criterion_6_triangular_invertibility(H3):
    t0 = time.monotonic()
    constructed = refuted = 0
    for a, b, d in itertools.product(H3.elements, repeat=3):
        A = Matrix.from_rows(H3, [(a, b), (0, d)])
        if H3.zero not in det(A):
            B = find_inverse(A)
            assert B is not None, A
            assert is_inverse_pair(A, B)
            constructed += 1
        else:
            assert find_inverse(A) is None
            for combo in itertools.product(H3.elements, repeat=4):
                assert not is_inverse_pair(A, Matrix(H3, 2, 2, combo))
            refuted += 1
    assert constructed == 12 and refuted == 15
    report(6, True, f"{constructed} inverses constructed and verified; "
                    f"{refuted} singular matrices exhaustively ruled out",
           time.monotonic() - t0, 60)


# -- criterion 7 -----------------------------------------------------------------


def _kernel_oracle(S, A):
    out = []
    for combo in itertools.product(S.elements, repeat=A.cols):
        if all(e == S.zero for e in combo):
            continue
        d = Matrix.column(S, combo)
        if all(S.zero in v for v in row_value_sets(homogeneous(A), d)):
            out.append(combo)
    return out


def test_criterion_7_linear_closedness(H3, H5):
    t0 = time.monotonic()
    assert is_linearly_closed(H3, 1, 2).passed
    assert is_linearly_closed(H3, 2, 3).passed
    for n, m in ((1, 2), (2, 3)):
        for combo in itertools.product(H3.elements, repeat=n * m):
            A = Matrix(H3, n, m, combo)
            out = find_nontrivial_kernel(A)
            oracle = _kernel_oracle(H3, A)
            assert oracle, (n, m, combo)
            assert out.status == SOLVED
            assert tuple(out.verdict.vector.entries) in oracle

    assert is_linearly_closed(H5, 1, 2).passed
    for combo in itertools.product(H5.elements, repeat=2):
        A = Matrix(H5, 1, 2, combo)
        out = find_nontrivial_kernel(A)
        assert out.status == SOLVED
        assert tuple(out.verdict.vector.entries) in _kernel_oracle(H5, A)

    rng = random.Random(500)
    for _ in range(500):
        A = Matrix(H5, 2, 3, [rng.choice(H5.elements) for _ in range(6)])
        out = find_nontrivial_kernel(A)
        oracle = _kernel_oracle(H5, A)
        assert oracle and out.status == SOLVED
        assert tuple(out.verdict.vector.entries) in oracle
    report(7, True, "closedness certified for H3 at (1,2),(2,3) by full "
                    "enumeration and for H5 at (1,2) plus 500 random 2x3 "
                    "instances, always matching the exhaustive oracle",
           time.monotonic() - t0, 300)


# -- criterion 8 -----------------------------------------------------------------


def _classical_gf4_tables():
    # GF(4) = {0, 1, x, x+1} with x^2 = x + 1, characteristic 2
    els = [(0, 0), (1, 0), (0, 1), (1, 1)]

    def add(u, v):
        return ((u[0] + v[0]) % 2, (u[1] + v[1]) % 2)

    def mul(u, v):
        # (a + b x)(c + d x) with x^2 = x + 1
        a, b = u
        c, d = v
        const = (a * c + b * d) % 2
        lin = (a * d + b * c + b * d) % 2
        return (const, lin)

    return els, add, mul


def test_criterion_8_kronecker_construction(H3, h3_quotient_timed, gf4):
    # the budget covers the quotient search, which the session fixture ran
    (Kq, pair, gamma, p, rejected), search_s = h3_quotient_timed
    t0 = time.monotonic() - search_s
    assert p.degree == 2
    assert len(Kq.elements) == 9
    assert verify_axioms(Kq, "superfield").passed
    assert classify_extension(pair) == "full"
    rep = certify_algebraic_extension(pair, 2)
    assert rep.all_algebraic and len(rep.certificates) == 9
    assert all(c.witness.degree <= 2 for c in rep.certificates.values())
    assert rep.degree_claim_holds
    for el, cert in rep.certificates.items():
        assert Kq.zero in evaluate(cert.witness, el, Kq, via=pair.embedding)

    G4, pair4, g4 = gf4
    assert len(G4.elements) == 4 and G4.is_strict
    assert verify_axioms(G4, "superfield").passed
    els, add, mul = _classical_gf4_tables()
    assert set(G4.elements) == set(els)
    for u in els:
        for v in els:
            assert G4.sum_set(u, v) == {add(u, v)}
            assert G4.prod_set(u, v) == {mul(u, v)}
    report(8, True, f"quotient by {p!r} gives a 9-element superfield, a full "
                    f"extension, all elements algebraic of degree <= 2; the "
                    f"F2 construction reproduces GF(4)",
           time.monotonic() - t0, 300)


# -- criterion 9 -----------------------------------------------------------------


def _all_subspace_sets(V):
    rest = [v for v in V.vectors if v != V.vzero]
    out = []
    for r in range(len(rest) + 1):
        for extra in itertools.combinations(rest, r):
            cand = frozenset(extra) | {V.vzero}
            if is_subspace(V, cand)[0]:
                out.append(cand)
    return out


def test_criterion_9_vector_spaces(H3, h3_quotient):
    t0 = time.monotonic()
    V = fn_space(H3, 2)
    assert verify_vspace(V).passed

    Kq, pair, gamma, p, _ = h3_quotient
    VE = extension_space(pair)
    assert verify_vspace(VE).passed

    subspaces = _all_subspace_sets(V)
    subsets = [()]
    for r in (1, 2, 3):
        subsets.extend(itertools.combinations(V.vectors, r))
    spans = {}
    for A in subsets:
        Aset = frozenset(A)
        meet = frozenset(V.vectors)
        for W in subspaces:
            if Aset <= W:
                meet &= W
        got, cert = span(V, list(A))
        assert cert.passed and got == meet, A
        spans[A] = got
    for A in subsets:
        SA = spans[A]
        assert linear_combinations(V, sorted(SA, key=V.index)) == SA
        for B in subsets:
            if frozenset(A) <= frozenset(B):
                assert SA <= spans[B]
                if frozenset(B) <= SA:
                    assert spans[B] == SA

    closure = is_linearly_closed(H3, 2, 3)
    assert dimension(V, closure) == 2
    assert dimension(VE, closure) == 2  # deg p = 2 pins the dimension
    report(9, True, "vector space axioms, span laws by double computation, "
                    "and both dimensions equal 2",
           time.monotonic() - t0, 300)


@pytest.mark.xfail(strict=True, reason=(
    "setwise MV3 equality fails for the coordinate space over H3: with "
    "lam = mu = 1 and v = (1,1), (lam+mu)v is the 3-element shared-scalar set "
    "while lam v + mu v is the full 9-element coordinate box; the exhaustive "
    "scan therefore refutes the 'full' reading of this clause and the claim "
    "it derives from (see notes/decisions.md)"))
def test_criterion_9_full_clause_for_coordinate_space(H3):
    V = fn_space(H3, 2)
    rep = verify_vspace(V, full=True)
    print(f"ACCEPTANCE 9 (full clause): FAIL - MV3 witness {rep.witnesses[:1]}")
    assert rep.passed


# -- criterion 10 ----------------------------------------------------------------


def test_criterion_10_strict_field_regression(F3):
    t0 = time.monotonic()
    rng = random.Random(303)
    p = 3

    for _ in range(50):  # folds
        xs = [rng.randrange(p) for _ in range(rng.randint(0, 5))]
        assert msum(F3, xs) == {sum(xs) % p}
        prod = 1
        for x in xs:
            prod = (prod * x) % p
        assert mprod(F3, xs) == {prod}

    assert characteristic(F3) == 3
    for a in (1, 2):
        assert principal_ideal(F3, {a}).members == set(F3.elements)

    for _ in range(50):  # polynomial arithmetic
        f = tuple(rng.randrange(p) for _ in range(rng.randint(0, 4)))
        g = tuple(rng.randrange(p) for _ in range(rng.randint(0, 4)))
        pf, pg = Poly(F3, f), Poly(F3, g)
        got = pmul(pf, pg).members()
        assert len(got) == 1
        assert got[0].coeffs == poly_mul_mod(pf.coeffs, pg.coeffs, p)
        x = rng.randrange(p)
        assert evaluate(pf, x) == {poly_eval_mod(pf.coeffs, x, p)}
        if not pg.is_zero:
            ((q, r),) = pdivmod(pf, pg)
            assert (q.coeffs, r.coeffs) == poly_divmod_mod(pf.coeffs, pg.coeffs, p)

    for _ in range(50):  # matrices
        A = [[rng.randrange(p) for _ in range(2)] for _ in range(2)]
        B = [[rng.randrange(p) for _ in range(2)] for _ in range(2)]
        MA, MB = Matrix.from_rows(F3, A), Matrix.from_rows(F3, B)
        (got_mul,) = mmul(MA, MB).members()
        assert tuple(got_mul.row(i) for i in range(2)) == mat_mul_mod(A, B, p)
        assert det(MA) == {det_mod(A, p)}
        inv = find_inverse(MA)
        if det_mod(A, p) == 0:
            assert inv is None
        else:
            assert inv is not None and is_inverse_pair(MA, inv)

    for _ in range(50):  # linear systems
        rows, cols = rng.randint(1, 3), rng.randint(1, 3)
        A = [[rng.randrange(p) for _ in range(cols)] for _ in range(rows)]
        b = [rng.randrange(p) for _ in range(rows)]
        sys_ = LinearSystem.of(Matrix.from_rows(F3, A), [{v} for v in b])
        out = solve_weak(sys_)
        assert (out.status == SOLVED) == (solvable_mod(A, b, p) is not None)
        if cols > rows:
            kern = find_nontrivial_kernel(Matrix.from_rows(F3, A))
            assert (kern.status == SOLVED) == \
                (nullspace_vector_mod(A, p) is not None)

    VF = fn_space(F3, 2)
    for _ in range(50):  # spans against classical rank
        v = (rng.randrange(p), rng.randrange(p))
        w = (rng.randrange(p), rng.randrange(p))
        A = [[v[0], w[0]], [v[1], w[1]]]
        rank = 0
        if any(v) or any(w):
            rank = 1
        if nullspace_vector_mod(A, p) is None:
            rank = 2
        assert len(linear_combinations(VF, {v, w})) == p ** rank

    closure = is_linearly_closed(F3, 2, 3)
    assert dimension(VF, closure) == 2
    report(10, True, "strict F3 agrees with the classical oracles on every "
                     "sampled operation", time.monotonic() - t0, 60)
