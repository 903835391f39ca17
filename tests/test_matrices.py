import itertools
import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from mvla import (BlowupError, ElementaryOp, LinearSystem, Matrix, MatrixSet,
                  StructureError, all_matrices, apply_elementary, det, elementary,
                  builtin, find_inverse, is_inverse_pair, madd, mmul, mneg, mprod,
                  mscale, search_budget, structure_is, verify_multigroup)
from mvla.matrices import _index_product
from conftest import det_mod, mat_mul_mod


@pytest.fixture(scope="module")
def x2_triple(X2):
    A = Matrix.from_rows(X2, [(1, 1), (0, 1)])
    B = Matrix.from_rows(X2, [(-1, 1), (0, -1)])
    C = Matrix.from_rows(X2, [(2, 0), (-1, 2)])
    return A, B, C


def test_entries_are_carrier_indices_read_back_as_elements(Q2):
    M = Matrix.from_rows(Q2, [(1, -1), (0, 1)])  # carrier -1, 0, 1
    assert M.indices == (2, 0, 1, 2) and M.entries == (1, -1, 0, 1)
    assert M.entry(0, 1) == -1 and M.row(1) == (0, 1)
    assert Matrix.from_indices(Q2, 2, 2, (2, 0, 1, 2)) == M
    other = Matrix.from_rows(builtin("Q2"), [(1, -1), (0, 1)])
    # equal entries over equal but distinct bases: unequal, with one hash
    assert M != other and hash(M) == hash(other)
    with pytest.raises(StructureError):
        Matrix.from_rows(Q2, [(1, 2)])


def test_from_rows_refuses_ragged_and_empty_rows(H3):
    # ragged rows were re-cut to the first row's length: 3 x 2 here
    with pytest.raises(StructureError, match="one length"):
        Matrix.from_rows(H3, [(0, 1), (1, 2, 0), (2,)])
    with pytest.raises(StructureError, match="nonempty"):
        Matrix.from_rows(H3, [])
    with pytest.raises(StructureError):
        Matrix.from_rows(H3, [()])


def test_worked_sum_box(X2, x2_triple):
    A, B, _ = x2_triple
    box = madd(A, B)
    assert box.size == 9
    expected = {Matrix.from_rows(X2, [(a, 1), (0, d)])
                for a in (-1, 0, 1) for d in (-1, 0, 1)}
    assert set(box.members()) == expected


def test_worked_product_boxes(X2, x2_triple):
    A, B, C = x2_triple
    AB = mmul(A, B)
    assert set(AB.members()) == {Matrix.from_rows(X2, [(-1, m), (0, -1)])
                                 for m in (-1, 0, 1)}
    AC = mmul(A, C)
    assert set(AC.members()) == {Matrix.from_rows(X2, [(2, 2), (-1, 2)])}


def test_worked_nonassociativity(X2, x2_triple):
    A, B, C = x2_triple
    left = mmul(mmul(A, B), C)
    right = mmul(A, mmul(B, C))
    assert left.entry_set(0, 1) == {-2, 0, 2}
    assert right.entry_set(0, 1) == frozenset(X2.elements)
    assert left != right
    assert left.intersect(right) is not None  # proto-full keeps them overlapping


def test_identity_and_zero_laws_exhaustive_2x2(K, H3):
    for S in (K, H3):
        one = Matrix.identity(S, 2)
        zero = Matrix.zero(S, 2)
        zero_set = MatrixSet.of(zero)
        for A in all_matrices(S, 2, 2):
            assert mmul(A, one) == MatrixSet.of(A)
            assert mmul(one, A) == MatrixSet.of(A)
            assert mmul(A, zero) == zero_set
            assert mmul(zero, A) == zero_set
            assert madd(A, zero) == MatrixSet.of(A)


def test_identity_and_zero_laws_sampled_shapes(Q2, X2, H5):
    rng = random.Random(5)
    for S in (Q2, X2, H5):
        for rows in (1, 2, 3):
            for cols in (1, 2, 3):
                for _ in range(5):
                    entries = [rng.choice(S.elements) for _ in range(rows * cols)]
                    A = Matrix(S, rows, cols, entries)
                    assert mmul(A, Matrix.zero(S, cols, cols)).members() == \
                        (Matrix.zero(S, rows, cols),)
                    assert mmul(A, Matrix.identity(S, cols)) == MatrixSet.of(A)
                    assert mmul(Matrix.identity(S, rows), A) == MatrixSet.of(A)


def test_matrix_additive_multigroup_2x2_over_k(K):
    mats = list(all_matrices(K, 2, 2))
    rep = verify_multigroup(mats, lambda a, b: madd(a, b).members(),
                            lambda a: mneg(a).members()[0],
                            Matrix.zero(K, 2), subject="M2x2(K)")
    assert rep.passed


def test_matrix_additive_multigroup_1x2_over_q2(Q2):
    mats = list(all_matrices(Q2, 1, 2))
    rep = verify_multigroup(mats, lambda a, b: madd(a, b).members(),
                            lambda a: mneg(a).members()[0],
                            Matrix.zero(Q2, 1, 2), subject="M1x2(Q2)")
    assert rep.passed


def _dot_mask(S, row_masks, col_masks):
    from mvla.structures import msum_sets
    terms = [S.mul_masks(r, c) for r, c in zip(row_masks, col_masks)]
    return S.mask_of(msum_sets(S, terms))


def _distributivity_rowcol(S, equality):
    """Every product-box entry depends only on one row and two columns, so the
    2x2 law A(B+C) vs AB+AC reduces to all (row, col, col) triples."""
    els = [1 << S.index(e) for e in S.elements]
    for row in itertools.product(els, repeat=2):
        for colB in itertools.product(els, repeat=2):
            for colC in itertools.product(els, repeat=2):
                mixed = [S.add_masks(b, c) for b, c in zip(colB, colC)]
                left = _dot_mask(S, row, mixed)
                right = S.add_masks(_dot_mask(S, row, colB),
                                    _dot_mask(S, row, colC))
                if equality:
                    if left != right:
                        return False
                else:
                    if left & ~right:
                        return False
    return True


def test_left_distributivity_all_2x2(K, H3, X2):
    assert _distributivity_rowcol(K, equality=True)
    assert _distributivity_rowcol(H3, equality=True)
    assert _distributivity_rowcol(X2, equality=False)


def test_distributivity_direct_box_samples(H3, X2):
    rng = random.Random(9)
    for S, equality in ((H3, True), (X2, False)):
        for _ in range(60):
            A, B, C = (Matrix(S, 2, 2, [rng.choice(S.elements) for _ in range(4)])
                       for _ in range(3))
            left = mmul(A, madd(B, C))
            right_sets = madd(mmul(A, B), mmul(A, C))
            if equality:
                assert left == right_sets
            else:
                assert left.intersect(right_sets) == left  # boxwise containment
            # the mirrored law (B+C)A within BA+CA
            left2 = mmul(madd(B, C), A)
            right2 = madd(mmul(B, A), mmul(C, A))
            assert left2.intersect(right2) == left2


def test_associativity_setwise_over_h3_samples(H3):
    rng = random.Random(13)
    for _ in range(80):
        A, B, C = (Matrix(H3, 2, 2, [rng.choice(H3.elements) for _ in range(4)])
                   for _ in range(3))
        assert mmul(mmul(A, B), C) == mmul(A, mmul(B, C))


def test_proto_full_keeps_triple_products_overlapping(X2):
    rng = random.Random(17)
    for _ in range(40):
        A, B, C = (Matrix(X2, 2, 2, [rng.choice(X2.elements) for _ in range(4)])
                   for _ in range(3))
        left = mmul(mmul(A, B), C)
        right = mmul(A, mmul(B, C))
        assert left.intersect(right) is not None


def test_det_examples(K, H3):
    assert det(Matrix.from_rows(K, [(1, 1), (1, 1)])) == {0, 1}
    for a, b, d in itertools.product(H3.elements, repeat=3):
        A = Matrix.from_rows(H3, [(a, b), (0, d)])
        assert det(A) == mprod(H3, [a, d])
    assert det(Matrix.from_rows(H3, [(0, 0), (1, 2)])) == {0}
    assert det(Matrix.from_rows(H3, [(1, 0), (2, 0)])) == {0}  # zero column


def test_det_scaling_laws(Q2, H3):
    for A in all_matrices(Q2, 2, 2):
        dA = det(A)
        for lam in Q2.elements:
            left = det(mscale(lam, A))
            lam2 = mprod(Q2, [lam, lam])
            right = frozenset()
            for l2 in lam2:
                right |= Q2.set_of(Q2.mul_masks(1 << Q2.index(l2), Q2.mask_of(dA)))
            assert left <= right
    rng = random.Random(23)
    for _ in range(40):
        A = Matrix(H3, 2, 2, [rng.choice(H3.elements) for _ in range(4)])
        for lam in H3.elements:
            left = det(mscale(lam, A))
            (l2,) = mprod(H3, [lam, lam])
            right = H3.set_of(H3.mul_masks(1 << H3.index(l2), H3.mask_of(det(A))))
            assert left == right


def test_det_over_matrix_set_unions_members(X2, x2_triple):
    A, B, _ = x2_triple
    box = madd(A, B)
    expected = frozenset()
    for M in box.members():
        expected |= det(M)
    assert det(box) == expected


def test_det_guards(H3):
    with pytest.raises(StructureError):
        det(Matrix.zero(H3, 2, 3))
    # no size cap: the expansion is bounded by its terms alone, 7! = 5040 here
    I7 = Matrix.identity(H3, 7)
    assert det(I7) == {1}
    with search_budget(5039), pytest.raises(
            BlowupError, match="determinant terms: 5040 exceeds budget 5039"):
        det(I7)


def test_elementary_operations(H3, Q2):
    A = Matrix.from_rows(H3, [(1, 2), (0, 1)])
    sw = elementary(ElementaryOp.swap(0, 1), A)
    assert elementary(ElementaryOp.swap(0, 1), sw) == MatrixSet.of(A)
    assert elementary(ElementaryOp.scale(0, H3.one), A) == MatrixSet.of(A)
    with pytest.raises(StructureError):
        elementary(ElementaryOp.scale(0, H3.zero), A)
    col = Matrix.from_rows(Q2, [(1,), (-1,)])
    added = elementary(ElementaryOp.add(0, 1), col)
    assert set(added.members()) == {Matrix.from_rows(Q2, [(v,), (-1,)])
                                    for v in (-1, 0, 1)}


def test_row_operations_without_a_second_row_raise(H3):
    A = Matrix.from_rows(H3, [(1, 2), (0, 1)])
    sys_ = LinearSystem.of(A, [{0}, {1}])
    for op in (ElementaryOp("swap", 0), ElementaryOp("add", 1)):
        with pytest.raises(StructureError, match="needs a second row"):
            elementary(op, A)
        with pytest.raises(StructureError, match="needs a second row"):
            apply_elementary(sys_, op)


def test_find_inverse_examples(H3):
    I2 = Matrix.identity(H3, 2)
    assert find_inverse(I2) == I2
    A = Matrix.from_rows(H3, [(1, 2), (0, 1)])
    B = find_inverse(A)
    assert B is not None and is_inverse_pair(A, B)
    assert find_inverse(Matrix.from_rows(H3, [(0, 2), (0, 1)])) is None
    # a matrix that is not triangular is inverted by the same search
    P = Matrix.from_rows(H3, [(0, 1), (1, 0)])
    BP = find_inverse(P)
    assert BP is not None and is_inverse_pair(P, BP)


@pytest.mark.parametrize("args", [("Hp", 3), ("Hp", 5), ("Hp", 7), ("Q2",), ("Fp", 5)])
def test_dense_3x3_inverses_are_decided_in_a_tenth_of_a_second(args):
    # a full scan would test k^9 matrices: 1,953,125 over H5, 40,353,607 over H7
    S = builtin(*args)
    rng = random.Random(f"dense:{S.name}")
    nonzero = [e for e in S.elements if e != S.zero]
    A = Matrix.from_rows(S, [[rng.choice(nonzero) for _ in range(3)] for _ in range(3)])
    assert structure_is(S, "superfield")  # the cold check is not timed
    start = time.perf_counter()
    B = find_inverse(A)
    assert time.perf_counter() - start < 0.1
    assert B is not None and is_inverse_pair(A, B)


def test_inverse_budget_counts_row_set_candidates(H3):
    # rows of B come from R_0, R_1, R_2 (10 rows each), not from 3^9 matrices, and
    # only the rows visited are charged, on top of the 2*3*3^3 = 162 vectors of the
    # R_i and C_j: here the first of each set
    A = Matrix.from_rows(H3, [(1, 1, 2), (2, 1, 1), (1, 1, 1)])
    with search_budget(162 + 3):
        assert find_inverse(A) == Matrix.from_rows(H3, [(0, 1, 1), (1, 1, 1), (1, 0, 1)])
    with search_budget(162 + 2), pytest.raises(
            BlowupError, match="inverse search rows: 165 exceeds budget 164"):
        find_inverse(A)
    with search_budget(161), pytest.raises(
            BlowupError, match="inverse search tables: 162 exceeds budget 161"):
        find_inverse(A)


@pytest.mark.parametrize("args, seed, visited", [(("Hp", 5), 0, 335), (("Hp", 7), 2, 498)])
def test_dense_4x4_inverses_charge_the_rows_visited(args, seed, visited):
    # R_0 x ... x R_3 holds billions of candidates here; prefixes whose columns
    # already miss every C_j are dropped, and the charge counts the rows tried
    S = builtin(*args)
    rng = random.Random(seed)
    nonzero = [e for e in S.elements if e != S.zero]
    A = Matrix.from_rows(S, [[rng.choice(nonzero) for _ in range(4)] for _ in range(4)])
    B = find_inverse(A)
    assert B is not None and is_inverse_pair(A, B)
    work = 2 * 4 * len(S) ** 4 + visited  # the vectors of the R_i and C_j, then the rows
    with search_budget(work):
        assert find_inverse(A) == B
    with search_budget(work - 1), pytest.raises(
            BlowupError, match=f"inverse search rows: {work} exceeds budget {work - 1}"):
        find_inverse(A)


def test_inverse_tables_are_charged_before_they_are_built(H7):
    # a dense 6x6 over H7: its 12 tables hold 2*6*7^6 vectors, which took seconds
    # and tens of MB to build before the first row was charged
    rng = random.Random(0)
    nonzero = [e for e in H7.elements if e != H7.zero]
    A = Matrix.from_rows(H7, [[rng.choice(nonzero) for _ in range(6)] for _ in range(6)])
    assert structure_is(H7, "superfield")  # the cold check is not timed
    start = time.perf_counter()
    with search_budget(1), pytest.raises(
            BlowupError, match=f"inverse search tables: {2 * 6 * 7 ** 6} exceeds budget 1"):
        find_inverse(A)
    assert time.perf_counter() - start < 1.0


def test_find_inverse_guards(H3, X2):
    with pytest.raises(StructureError):
        find_inverse(Matrix.zero(H3, 2, 3))
    with pytest.raises(StructureError):
        find_inverse(Matrix.identity(X2, 2))


def test_strict_field_matrix_ops_match_classical(F3):
    rng = random.Random(31)
    for _ in range(50):
        A = [[rng.randrange(3) for _ in range(2)] for _ in range(2)]
        B = [[rng.randrange(3) for _ in range(2)] for _ in range(2)]
        MA = Matrix.from_rows(F3, A)
        MB = Matrix.from_rows(F3, B)
        got = mmul(MA, MB).members()
        assert len(got) == 1
        assert got[0].row(0) == mat_mul_mod(A, B, 3)[0]
        assert det(MA) == {det_mod(A, 3)}
        s = madd(MA, MB).members()
        assert len(s) == 1
        assert s[0].entries == tuple((a + b) % 3 for a, b in
                                     zip(MA.entries, MB.entries))


# -- the index-level product against the boxed one ---------------------------------------

# H5, because there not every element is its own inverse
PRODUCT_BASES = {name: builtin(*args) for name, args in
                 (("K", ("K",)), ("H3", ("Hp", 3)), ("H5", ("Hp", 5)), ("Q2", ("Q2",)))}


@st.composite
def matrix_pairs(draw):
    """A base and two matrices over it whose product AB is defined; square half the time."""
    S = PRODUCT_BASES[draw(st.sampled_from(sorted(PRODUCT_BASES)))]
    r, n = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    c = draw(st.sampled_from((r, draw(st.integers(1, 3)))))
    if draw(st.booleans()):
        r = n = c
    entries = st.sampled_from(range(len(S)))
    A = Matrix.from_indices(S, r, n, [draw(entries) for _ in range(r * n)])
    B = Matrix.from_indices(S, n, c, [draw(entries) for _ in range(n * c)])
    if draw(st.booleans()):
        # a near-inverse: the least inverse of each diagonal entry, zero elsewhere
        zero = S.index(S.zero)
        B = Matrix.from_indices(S, n, c, [
            (S.inverse_indices(A.indices[i * n + i]) or (zero,))[0] if i == j and i < r
            else zero for i in range(n) for j in range(c)])
    return A, B


@settings(max_examples=300, deadline=None)
@given(pair=matrix_pairs())
def test_index_product_matches_the_boxed_product(pair):
    A, B = pair
    boxed = mmul(MatrixSet.of(A), MatrixSet.of(B))
    assert tuple(_index_product(A, B)) == boxed.masks
    ident = Matrix.identity(A.base, A.rows)
    want = ident in boxed and ident in mmul(MatrixSet.of(B), MatrixSet.of(A))
    assert is_inverse_pair(A, B) == want


def test_index_product_checks_shapes_and_bases(H3):
    A, B = Matrix.zero(H3, 2, 3), Matrix.zero(H3, 2, 3)
    for f in (mmul, is_inverse_pair, _index_product):
        with pytest.raises(StructureError, match="inner dimensions"):
            f(A, B)
    with pytest.raises(StructureError, match="different structures"):
        is_inverse_pair(Matrix.identity(H3, 2), Matrix.identity(builtin("Hp", 3), 2))
    # AB is the 2x2 identity, but BA is 3x3: no inverse pair
    A = Matrix.from_indices(H3, 2, 3, (1, 0, 0, 0, 1, 0))
    B = Matrix.from_indices(H3, 3, 2, (1, 0, 0, 1, 0, 0))
    assert Matrix.identity(H3, 2) in mmul(A, B) and not is_inverse_pair(A, B)


def test_inverse_pair_takes_matrices_only(H3):
    ident = Matrix.identity(H3, 2)
    for A, B in ((MatrixSet.of(ident), ident), (ident, MatrixSet.of(ident))):
        with pytest.raises(StructureError, match="pair of matrices"):
            is_inverse_pair(A, B)
