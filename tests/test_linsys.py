import functools
import itertools
import random

import pytest

from mvla import linsys
from mvla import (BlowupError, ElementaryOp, LinearSystem, Matrix, StructureError,
                  TypeIError, apply_elementary, find_nontrivial_kernel,
                  homogeneous, is_linearly_closed, is_solution, is_weak_solution,
                  builtin, iter_scaled_systems, search_budget, solve_weak, verify_axioms)
from mvla.linsys import (NO_SOLUTION, SOLVED, classify_candidate, constructive_kernel,
                         iter_back_substitution, row_value_sets)
from mvla.matrices import _value_masks
from mvla.structures import Structure
from conftest import nullspace_vector_mod, solvable_mod


def col(S, entries):
    return Matrix.column(S, entries)


def test_zero_vector_solution_criterion(H3):
    A = Matrix.from_rows(H3, [(1, 2), (2, 1)])
    with_zero = LinearSystem.of(A, [{0, 1}, {0}])
    without = LinearSystem.of(A, [{0, 1}, {2}])
    z = col(H3, (0, 0))
    assert is_solution(with_zero, z) and is_weak_solution(with_zero, z)
    assert not is_weak_solution(without, z)


def test_right_hand_side_is_one_mask_per_row(H3):
    A = Matrix.from_rows(H3, [(1, 2), (0, 1)])
    sys_ = LinearSystem.of(A, [{2, 0}, [1, 1]])
    assert sys_.masks == (0b101, 0b010)
    assert sys_.B == (frozenset({0, 2}), frozenset({1}))
    for bad in ([{0}], [{0}, set()], [{0}, {3}]):
        with pytest.raises(StructureError):
            LinearSystem.of(A, bad)


def test_triangular_recipe_gives_weak_solutions(H3):
    # upper triangular [[a, b], [0, c]] with y0 from c^-1 D2 and
    # x0 from a^-1 D1 - b y0
    a, b, c = 1, 1, 2
    D1, D2 = frozenset({1}), frozenset({2})
    sys_ = LinearSystem.of(Matrix.from_rows(H3, [(a, b), (0, c)]), [D1, D2])
    (cinv,) = H3.inverses(c)
    from mvla.structures import mprod_sets, msum_sets
    for y0 in mprod_sets(H3, [[cinv], D2]):
        head = mprod_sets(H3, [[H3.inverse(a)], D1])
        tail = H3.neg_set(mprod_sets(H3, [[b], [y0]]))
        for x0 in msum_sets(H3, [head, tail]):
            assert is_weak_solution(sys_, col(H3, (x0, y0)))


def test_apply_elementary_swap_and_add(H3, Q2):
    sys_ = LinearSystem.of(Matrix.from_rows(H3, [(1, 2), (0, 1)]), [{1}, {2}])
    once = apply_elementary(sys_, ElementaryOp.swap(0, 1))
    assert len(once) == 1
    twice = apply_elementary(once[0], ElementaryOp.swap(0, 1))
    assert sys_ in twice

    qsys = LinearSystem.of(Matrix.from_rows(Q2, [(1, 1), (-1, 1)]),
                           [{1}, {-1, 1}])
    out = apply_elementary(qsys, ElementaryOp.add(0, 1))
    from mvla.structures import msum_sets
    want_B0 = msum_sets(Q2, [qsys.B[0], qsys.B[1]])
    assert out and all(o.B[0] == want_B0 and o.B[1] == qsys.B[1] for o in out)


def test_elementary_ops_transport_solutions_forward(H3):
    # every solution of the input stays a solution of some output system;
    # over a full base the same holds for weak solutions
    rng = random.Random(3)
    ops = [ElementaryOp.swap(0, 1), ElementaryOp.scale(0, 2),
           ElementaryOp.add(0, 1), ElementaryOp.add(1, 0)]
    for _ in range(25):
        A = Matrix(H3, 2, 2, [rng.choice(H3.elements) for _ in range(4)])
        B = [frozenset(rng.sample(H3.elements, rng.randint(1, 3)))
             for _ in range(2)]
        sys_ = LinearSystem.of(A, B)
        for op in ops:
            outs = apply_elementary(sys_, op)
            for d_entries in itertools.product(H3.elements, repeat=2):
                d = col(H3, d_entries)
                if is_solution(sys_, d):
                    assert any(is_solution(o, d) for o in outs), (A, B, op, d)
                if is_weak_solution(sys_, d):
                    assert any(is_weak_solution(o, d) for o in outs), (A, B, op, d)


def test_scale_system_shapes(H3):
    tri = LinearSystem.of(Matrix.from_rows(H3, [(1, 2), (0, 1)]), [{1}, {2}])
    assert tuple(iter_scaled_systems(tri)) == (tri,)
    full = LinearSystem.of(Matrix.from_rows(H3, [(2, 1), (1, 2)]), [{1}, {2}])
    outs = tuple(iter_scaled_systems(full))
    assert outs and all(o.A.is_upper_triangular for o in outs)


def test_solve_weak_answers_a_blowup_from_the_branches_within_the_cap(H7):
    # full scaling passes 4096 branches, but a verified candidate comes out of
    # the branches walked before the cap: the scaled route answers, no fallback
    A = Matrix.from_rows(H7, [(1, 2, 5, 3), (6, 5, 2, 1), (3, 1, 5, 5)])
    sys_ = LinearSystem.of(A, [{0}, {1}, {5}])
    with pytest.raises(BlowupError):
        tuple(iter_scaled_systems(sys_))
    out = solve_weak(sys_)
    assert (out.status, out.verdict.vector.entries, out.verdict.strength, out.note) == \
        (SOLVED, (3, 2, 0, 1), "weak", "")
    assert classify_candidate(sys_, out.verdict.vector) == out.verdict


def test_solve_weak_walks_only_the_branches_it_reads(H3, monkeypatch):
    sys_ = LinearSystem.of(Matrix.from_rows(H3, [(2, 1, 2), (1, 2, 2)]), [{0, 2}, {0, 2}])
    first, *rest = iter_scaled_systems(sys_)
    assert len(rest) == 2
    yielded = []

    def counting(s):
        for scaled in iter_scaled_systems(s):
            yielded.append(scaled)
            yield scaled

    monkeypatch.setattr(linsys, "iter_scaled_systems", counting)
    out = solve_weak(sys_)
    assert out.status == SOLVED and out.note == ""
    assert yielded == [first]


def test_solve_weak_needs_a_superfield(X2):
    a, b = X2.elements[3], X2.elements[4]
    for rows in ([(a, b), (b, a)], [(a, b), (X2.zero, a)]):
        with pytest.raises(StructureError, match="not a superfield"):
            solve_weak(LinearSystem.of(Matrix.from_rows(X2, rows), [{a}, {b}]))


def test_type_one_detection(H3):
    impossible = LinearSystem.of(Matrix.from_rows(H3, [(1, 1), (0, 0)]),
                                 [{1}, {2}])
    with pytest.raises(TypeIError):
        next(iter_back_substitution(impossible))
    fine = LinearSystem.of(Matrix.from_rows(H3, [(1, 1), (0, 0)]),
                           [{1}, {0, 2}])
    got = classify_candidate(fine, next(iter_back_substitution(fine)))
    assert got is not None and is_weak_solution(fine, got.vector)


def test_back_substitution_refuses_every_matrix_that_is_not_triangular(H3):
    # triangularity is read off the pivots: every matrix of each shape, rows past the
    # last column included, with right sides missing 0, so that a refused matrix is
    # refused before any row of zeros reads as type I
    refused = 0
    for rows, cols in itertools.product(range(1, 5), range(1, 4)):
        masks = (1 << H3.one_i,) * rows
        for entries in itertools.product(range(3), repeat=rows * cols):
            A = Matrix.from_indices(H3, rows, cols, entries)
            try:
                next(iter_back_substitution(LinearSystem(A, masks)), None)
            except TypeIError:
                pass
            except StructureError as exc:
                assert "scaled system" in str(exc) and not A.is_upper_triangular, entries
                refused += 1
    # the matrices with a nonzero entry below the diagonal, counted per shape
    assert refused == sum(3 ** (r * c) - 3 ** (r * c - sum(min(i, c) for i in range(r)))
                          for r in range(1, 5) for c in range(1, 4))


def test_back_substitute_classical_diagonal(F3):
    sys_ = LinearSystem.of(Matrix.from_rows(F3, [(2, 0), (0, 2)]), [{1}, {2}])
    got = classify_candidate(sys_, next(iter_back_substitution(sys_)))
    assert got is not None
    assert got.vector.entries == (2, 1)  # 2*2=4=1 and 2*1=2
    assert got.strength == "solution"


def test_solve_full_carrier_rhs(H3):
    A = Matrix.from_rows(H3, [(1, 2), (2, 2)])
    sys_ = LinearSystem.of(A, [set(H3.elements), set(H3.elements)])
    assert is_solution(sys_, col(H3, (0, 0)))
    out = solve_weak(sys_)
    assert out.status == SOLVED


def test_solve_weak_matches_exhaustive_oracle(H3):
    rng = random.Random(19)
    for _ in range(50):
        A = Matrix(H3, 2, 2, [rng.choice(H3.elements) for _ in range(4)])
        B = [frozenset(rng.sample(H3.elements, rng.randint(1, 2)))
             for _ in range(2)]
        sys_ = LinearSystem.of(A, B)
        out = solve_weak(sys_)
        oracle = [c for c in itertools.product(H3.elements, repeat=2)
                  if is_weak_solution(sys_, col(H3, c))]
        if oracle:
            assert out.status == SOLVED
            assert tuple(out.verdict.vector.entries) in oracle
            assert is_weak_solution(sys_, out.verdict.vector)
        else:
            assert out.status == NO_SOLUTION


def test_solver_agrees_with_classical_gaussian_oracle(F3):
    rng = random.Random(29)
    for rows in (1, 2, 3):
        for cols in (1, 2, 3):
            for _ in range(50):
                A = [[rng.randrange(3) for _ in range(cols)] for _ in range(rows)]
                b = [rng.randrange(3) for _ in range(rows)]
                sys_ = LinearSystem.of(Matrix.from_rows(F3, A),
                                       [{v} for v in b])
                out = solve_weak(sys_)
                classical = solvable_mod(A, b, 3)
                if classical is None:
                    assert out.status == NO_SOLUTION
                else:
                    assert out.status == SOLVED
                    got = tuple(out.verdict.vector.entries)
                    assert all(sum(A[i][j] * got[j] for j in range(cols)) % 3
                               == b[i] for i in range(rows))


def test_kernel_of_repeated_entry_row(H3, H5):
    for S in (H3, H5):
        for a in S.elements:
            if a == S.zero:
                continue
            out = find_nontrivial_kernel(Matrix.from_rows(S, [(a, a)]))
            assert out.status == SOLVED
            d = out.verdict.vector
            assert any(e != S.zero for e in d.entries)
            assert S.zero in row_value_sets(homogeneous(
                Matrix.from_rows(S, [(a, a)])), d)[0]


def test_kernel_shapes_guard(H3):
    with pytest.raises(StructureError):
        find_nontrivial_kernel(Matrix.identity(H3, 2))


def test_constructive_kernel_declines_matrices_that_are_not_wide(F3, H3):
    # its documented answer when a precondition fails is None, not an exception
    for S in (F3, H3):
        for rows in ([[1]], [[1], [2]], [[1, 2], [2, 1]], [[1, 1], [2, 0], [0, 1]]):
            assert constructive_kernel(Matrix.from_rows(S, rows)) is None


def test_kernel_exhaustive_agreement_h3(H3):
    # every 1x2 and 2x3 matrix has a kernel vector and the operation finds one
    for combo in itertools.product(H3.elements, repeat=2):
        out = find_nontrivial_kernel(Matrix(H3, 1, 2, combo))
        assert out.status == SOLVED
    for combo in itertools.product(H3.elements, repeat=6):
        A = Matrix(H3, 2, 3, combo)
        out = find_nontrivial_kernel(A)
        assert out.status == SOLVED
        d = out.verdict.vector
        assert all(H3.zero in v for v in row_value_sets(homogeneous(A), d))


def test_kernel_constructive_matches_oracle_h5(H5):
    rng = random.Random(37)
    for _ in range(60):
        A = Matrix(H5, 2, 3, [rng.choice(H5.elements) for _ in range(6)])
        out = find_nontrivial_kernel(A)
        oracle = nullspace_vector_mod(
            [[A.entry(i, j) for j in range(3)] for i in range(2)], 5)
        # hyperfield kernels are at least as rich as the classical ones
        assert out.status == SOLVED
        if oracle is not None:
            d = out.verdict.vector
            assert all(H5.zero in v for v in row_value_sets(homogeneous(A), d))


def test_linearly_closed_verdicts(H3, F3):
    assert is_linearly_closed(F3, 1, 2).passed
    assert is_linearly_closed(H3, 1, 2).passed
    with pytest.raises(StructureError):
        is_linearly_closed(H3, 2, 2)


def test_linearly_closed_refuses_shapes_without_rows(H3):
    # max_n < 1 covers no matrix: a pass would certify nothing, and dimension would
    # take it as its guard
    for max_n, max_m in ((0, 1), (-1, 3)):
        with pytest.raises(StructureError, match=r"need max_n >= 1"):
            is_linearly_closed(H3, max_n, max_m)


def _sticky_sum_table():
    """Sums that never reach 0 off the zero row: a + a = {a}.

    Reversibility (M1) forces 0 into a - a in every multigroup, so this table
    is NOT a superfield; it exists to exercise the certifier's counterexample
    path on a mutated table.
    """
    els = (0, 1, 2)
    s = {}
    for a in els:
        for b in els:
            if a == 0:
                s[(a, b)] = {b}
            elif b == 0:
                s[(a, b)] = {a}
            elif a == b:
                s[(a, b)] = {a}
            else:
                s[(a, b)] = {a, b}
    p = {(a, b): {(a * b) % 3} for a in els for b in els}
    return Structure("H3sticky", els, 0, 1, {a: a for a in els}, s, p)


def test_mutated_table_closure_counterexample():
    S = _sticky_sum_table()
    assert not verify_axioms(S, "superfield").passed  # M1 rules it out
    with pytest.raises(StructureError):
        is_linearly_closed(S, 1, 2)
    rep = is_linearly_closed(S, 1, 2, require_superfield=False)
    assert rep.verdict == "fail"
    shape, combo = rep.witnesses[0]
    assert shape == "1x2"
    A = Matrix(S, 1, 2, combo)
    for d_entries in itertools.product(S.elements, repeat=2):
        if all(e == S.zero for e in d_entries):
            continue
        vals = row_value_sets(homogeneous(A), Matrix.column(S, d_entries))
        assert S.zero not in vals[0]


def test_single_row_systems_are_always_closed_for_superfields(K, Q2, H3, F3):
    # a*F* covers every nonzero element in a superfield, so one-row
    # homogeneous systems always have nontrivial weak solutions
    for S in (K, Q2, H3, F3):
        rep = is_linearly_closed(S, 1, 2)
        assert rep.passed


def test_every_returned_verdict_reverifies(H3):
    rng = random.Random(41)
    for _ in range(30):
        A = Matrix(H3, 2, 2, [rng.choice(H3.elements) for _ in range(4)])
        B = [frozenset(rng.sample(H3.elements, rng.randint(1, 3)))
             for _ in range(2)]
        sys_ = LinearSystem.of(A, B)
        out = solve_weak(sys_)
        if out.status == SOLVED:
            verdict = classify_candidate(sys_, out.verdict.vector)
            assert verdict is not None
            assert verdict.strength == out.verdict.strength


def test_scaled_solution_transport_is_an_experiment_not_an_invariant(H3):
    # candidates that solve a scaled system but not the original exist; the
    # solver must therefore re-verify on the original system (it does)
    rng = random.Random(43)
    dropped = kept = 0
    for _ in range(40):
        A = Matrix(H3, 2, 2, [rng.choice(H3.elements) for _ in range(4)])
        B = [frozenset(rng.sample(H3.elements, rng.randint(1, 2)))
             for _ in range(2)]
        sys_ = LinearSystem.of(A, B)
        try:
            branches = tuple(iter_scaled_systems(sys_))
        except Exception:
            continue
        for scaled in branches:
            try:
                with search_budget(2000):
                    for d in iter_back_substitution(scaled):
                        if is_weak_solution(sys_, d):
                            kept += 1
                        else:
                            dropped += 1
                        break
            except (TypeIError, Exception):
                continue
    assert kept > 0  # transport holds often enough to be useful


@pytest.mark.parametrize("args", [("Hp", 3), ("Hp", 5), ("Hp", 7), ("Q2",), ("Fp", 5)])
def test_weak_mask_equals_the_full_fold(args):
    """_weak_mask stops folding rows once their AND reads 0; its mask is still the
    AND of every row's fold.  Tall systems with one-element right sides often have
    no weak solution, so some of these seeded ones stop early."""
    S, rng, early = builtin(*args), random.Random(59), 0
    for _ in range(60):
        rows, cols = rng.choice(((2, 2), (3, 2), (3, 3), (4, 2)))
        A = Matrix.from_indices(S, rows, cols, [rng.randrange(len(S)) for _ in range(rows * cols)])
        B = [1 << rng.randrange(len(S)) for _ in range(rows)]
        folds = [_value_masks(S, S._prod, A.indices[i * cols:(i + 1) * cols], (b,), {})[0]
                 for i, b in enumerate(B)]
        assert linsys._weak_mask(LinearSystem(A, tuple(B))) == functools.reduce(int.__and__, folds)
        early += any(not functools.reduce(int.__and__, folds[:j]) for j in range(1, rows))
    assert early
