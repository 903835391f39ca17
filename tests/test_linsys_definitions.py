"""Properties of the solve route that follow from the definitions, checked by brute force.

No reference here ports the code it checks: echelon form is read off the entries
(ref_echelon), a weak solution is a vector d with every row's value set r_i.d
(folded element by element through prod_set and sum_set) meeting B_i, and a kernel
vector is a nonzero weak solution of Ax = 0.  Small systems over the built-ins and over the 9-element
quotient superfields, whose products have several members, are enumerated or drawn
by hypothesis, and every vector of each is tried.
"""

import itertools
import random

from hypothesis import given, settings, strategies as st

from mvla import (BlowupError, LinearSystem, Matrix, TypeIError, builtin,
                  find_nontrivial_kernel, iter_scaled_systems)
from mvla.linsys import NO_SOLUTION, SOLVED, _route, homogeneous, iter_back_substitution
from test_linsys_reference import multi_superfields, ref_echelon, ref_leads

BUILTINS = (("K",), ("Q2",), ("Hp", 2), ("Hp", 3), ("Hp", 5), ("Fp", 3), ("Fp", 5), ("Xn", 1))


def superfields():
    return tuple(builtin(*args) for args in BUILTINS) + multi_superfields()


def value_set(S, row, d):
    """r.d: the set sum over j of the products r_j d_j, element by element."""
    acc = {S.zero}
    for a, x in zip(row, d):
        acc = {z for u in acc for v in S.prod_set(a, x) for z in S.sum_set(u, v)}
    return acc


def is_weak(S, rows, B, d):
    return all(value_set(S, row, d) & b for row, b in zip(rows, B))


def rows_of(A):
    return [A.row(i) for i in range(A.rows)]


def draw_system(S, rows, cols, pick, shape):
    """A over S, drawn entry by entry with pick(seq), and right sides of 1 to 2 members.
    shape "upper" zeroes every entry below the diagonal, so that rows may share a pivot
    column although the matrix is upper triangular."""
    A = [[S.zero if shape == "upper" and j < i else pick(S.elements) for j in range(cols)]
         for i in range(rows)]
    B = [frozenset({pick(S.elements), pick(S.elements)}) for _ in range(rows)]
    return A, B


def scaled_systems(S, A, B):
    """The scaled systems of Ax within B, or None when the walk passes its cap."""
    try:
        return tuple(iter_scaled_systems(LinearSystem.of(Matrix.from_rows(S, A), B)))
    except BlowupError:
        return None


def check_echelon(S, A, B):
    for scaled in scaled_systems(S, A, B) or ():
        assert ref_echelon(S, rows_of(scaled.A)), (S.name, A, B, scaled.A.entries)


def check_back_substitution(S, A, B):
    """On each scaled system with unit pivots (every one the walk builds, and an input
    passed through in echelon form with pivots 1), or any pivots over a structure with
    single-valued products: for each pattern of the free variables, all 0 or one of
    them 1, back substitution yields each weak solution with that pattern once and
    nothing else."""
    single = all(len(S.prod_set(a, b)) == 1 for a in S.elements for b in S.elements)
    for scaled in scaled_systems(S, A, B) or ():
        srows, n = rows_of(scaled.A), scaled.A.cols
        pivots = [p for p in ref_leads(S, srows) if p < n]
        if not single and any(srows[i][p] != S.one for i, p in enumerate(pivots)):
            continue
        free = [j for j in range(n) if j not in pivots]
        for one in [None] + free:
            try:
                got = [d.entries for d in iter_back_substitution(scaled, one)]
            except TypeIError:
                got = []
            want = [d for d in itertools.product(S.elements, repeat=n)
                    if all(d[j] == (S.one if j == one else S.zero) for j in free)
                    and is_weak(S, srows, scaled.B, d)]
            assert sorted(got, key=repr) == sorted(want, key=repr), \
                (S.name, A, B, scaled.A.entries, scaled.B, one)


def check_kernel_vector(S, A):
    """find_nontrivial_kernel's vector, and the scaled route's, is nonzero and weak; a
    no-solution answer leaves no nonzero weak vector."""
    M, zeros = Matrix.from_rows(S, A), [{S.zero}] * len(A)
    out = find_nontrivial_kernel(M)
    assert out.status in (SOLVED, NO_SOLUTION), (S.name, A)
    vectors = [out.verdict.vector.entries] if out.status == SOLVED else []
    route = next(_route(homogeneous(M), kernel=True), None)
    vectors += [route.vector.entries] if route is not None else []
    for d in vectors:
        assert any(x != S.zero for x in d) and is_weak(S, A, zeros, d), (S.name, A, d)
    if out.status == NO_SOLUTION:
        assert not any(is_weak(S, A, zeros, d) for d in itertools.product(S.elements,
                                                                          repeat=len(A[0]))
                       if any(x != S.zero for x in d)), (S.name, A)


def test_every_2x2_system_scales_into_echelon_form():
    for args in (("K",), ("Hp", 2)):
        S = builtin(*args)
        subsets = [frozenset(c) for r in (1, 2) for c in itertools.combinations(S.elements, r)]
        for entries in itertools.product(S.elements, repeat=4):
            for B in itertools.product(subsets, repeat=2):
                A = [entries[:2], entries[2:]]
                check_echelon(S, A, list(B))
                check_back_substitution(S, A, list(B))


def test_scaled_systems_and_back_substitution_on_seeded_systems():
    rng = random.Random(41)
    for S in superfields():
        shapes = ((1, 2), (2, 2), (2, 3), (3, 3)) if len(S) < 9 else ((1, 2), (2, 2), (2, 3))
        for (rows, cols), shape in itertools.product(shapes, ("dense", "upper")):
            for _ in range(4):
                A, B = draw_system(S, rows, cols, rng.choice, shape)
                check_echelon(S, A, B)
                check_back_substitution(S, A, B)


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_scaled_systems_and_back_substitution_on_drawn_superfields(data):
    S = data.draw(st.sampled_from(superfields()))
    rows, cols = data.draw(st.sampled_from(((1, 2), (2, 2), (2, 3), (3, 2))))
    shape = data.draw(st.sampled_from(("dense", "upper")))
    A, B = draw_system(S, rows, cols, lambda seq: data.draw(st.sampled_from(seq)), shape)
    check_echelon(S, A, B)
    check_back_substitution(S, A, B)


def test_kernel_vectors_are_nonzero_and_weak_on_seeded_matrices():
    rng = random.Random(43)
    for S in superfields():
        for rows, cols in ((1, 2), (1, 3), (2, 3), (3, 4)):
            if len(S) ** cols > 6561:
                continue
            for _ in range(5):
                check_kernel_vector(S, [[rng.choice(S.elements) for _ in range(cols)]
                                        for _ in range(rows)])


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_kernel_vectors_are_nonzero_and_weak_on_drawn_superfields(data):
    S = data.draw(st.sampled_from(superfields()))
    rows, cols = data.draw(st.sampled_from(((1, 2), (1, 3), (2, 3))))
    check_kernel_vector(S, [[data.draw(st.sampled_from(S.elements)) for _ in range(cols)]
                            for _ in range(rows)])
