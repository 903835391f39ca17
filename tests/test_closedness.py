"""The linear-closedness certifier against the full matrix scan.

The reference below is the certifier's former algorithm: every matrix of
every shape in canonical order, each decided by find_nontrivial_kernel.  The
row-set scan must give the same verdict, first witness and `checked`, also on
mutated tables where 0 is not neutral or not absorbing, so that its prefix
reduction is off.
"""

import itertools
import random
import time

import pytest

from mvla import (BlowupError, Matrix, builtin, homogeneous, is_linearly_closed,
                  is_weak_solution, search_budget)
from mvla.linsys import SOLVED, _zero_sets, find_nontrivial_kernel
from mvla.matrices import all_matrices

SHAPES = ((1, 3), (2, 3), (2, 4))


def reference_closed(F, max_n, max_m):
    """(verdict, witnesses, checked) of the full scan: every matrix, in order."""
    checked = 0
    for n in range(1, max_n + 1):
        for m in range(n + 1, max_m + 1):
            for A in all_matrices(F, n, m):
                checked += 1
                if find_nontrivial_kernel(A).status != SOLVED:
                    return "fail", ((f"{n}x{m}", A.entries),), checked
    return "pass", (), checked


def single_entry_mutants(S):
    """Every copy of S with one sum or product cell replaced by another nonempty set."""
    subsets = [frozenset(c) for r in range(1, len(S) + 1)
               for c in itertools.combinations(S.elements, r)]
    for op, table in (("sum", S._sum), ("prod", S._prod)):
        for a, b in itertools.product(S.elements, repeat=2):
            old = S.set_of(table[S.index(a)][S.index(b)])
            for new in subsets:
                if new != old:
                    yield S.with_entry(op, a, b, new)


def prefix_rule_holds(T):
    """s + 0 = {s} and a.0 = {0} for every element: the certifier's prefix condition."""
    zero = T.index(T.zero)
    return all(T._sum[s][zero] == 1 << s and T._prod[s][zero] == 1 << zero
               for s in range(len(T)))


def assert_matches_full_scan(mutants, shapes):
    """Compare every mutant at every shape; return how many had the prefix rule off."""
    prefix_off = 0
    for T in mutants:
        prefix_off += not prefix_rule_holds(T)
        for shape in shapes:
            rep = is_linearly_closed(T, *shape, require_superfield=False)
            got = (rep.verdict, rep.witnesses, rep.checked)
            assert got == reference_closed(T, *shape), (T._sum, T._prod, shape)
    return prefix_off


# The full scan is slow on three-element tables at (2, 4) (about 0.4 s per
# passing mutant), so Q2's 108 mutants run at (1, 3) and (2, 3) only and the
# other bases are sampled; the whole module runs in about 6 s.


def test_every_krasner_mutant_matches_the_full_scan():
    assert assert_matches_full_scan(single_entry_mutants(builtin("K")), SHAPES) > 0


def test_every_sign_mutant_matches_the_full_scan():
    mutants = list(single_entry_mutants(builtin("Q2")))
    assert len(mutants) == 108
    assert assert_matches_full_scan(mutants, SHAPES[:2]) > 0


def test_sampled_mutants_match_the_full_scan():
    rng = random.Random(13)
    prefix_off = 0
    for S, size in ((builtin("Q2"), 1), (builtin("Hp", 3), 1), (builtin("Fp", 3), 1),
                    (builtin("Fp", 2), 4), (builtin("Xn", 1), 1)):
        sample = rng.sample(list(single_entry_mutants(S)), size)
        prefix_off += assert_matches_full_scan(sample, SHAPES)
    assert prefix_off > 0


def test_counterexample_past_the_prefix_shape_when_zero_is_not_absorbing():
    # 1.0 = {1}: a zero-padded kernel of 1x2 need not be one of 1x3, and the
    # first counterexample sits at 1x3 although every 1x2 matrix has a kernel
    F2 = builtin("Fp", 2)
    T = F2.with_entry("prod", 0, 1, {0, 1}).with_entry("prod", 1, 0, {1})
    assert not prefix_rule_holds(T)
    for shape in SHAPES:
        rep = is_linearly_closed(T, *shape, require_superfield=False)
        assert (rep.verdict, rep.witnesses, rep.checked) == ("fail", (("1x3", (1, 1, 1)),), 12)
        assert reference_closed(T, *shape) == ("fail", (("1x3", (1, 1, 1)),), 12)
        assert rep.notes == "scanned=12"


@pytest.mark.parametrize("name, param, m", [("Hp", 3, 2), ("Q2", None, 3)])
def test_zero_sets_match_weak_solutions(name, param, m):
    F = builtin(name, param)
    Z = next(itertools.islice(_zero_sets(F), m - 1, None))
    vectors = list(itertools.product(F.elements, repeat=m))
    assert len(Z) == len(vectors)
    for r, row in enumerate(vectors):
        system = homogeneous(Matrix.from_rows(F, [row]))
        for d, entries in enumerate(vectors):
            nonzero = any(e != F.zero for e in entries)
            weak = is_weak_solution(system, Matrix.column(F, entries))
            assert (Z[r] >> d & 1) == (nonzero and weak), (row, entries)


@pytest.mark.parametrize("name, param, shape, checked, scanned", [
    ("Hp", 3, (3, 4), 538848, 85680),
    ("Hp", 7, (2, 3), 118041, 58702),
])
def test_pinned_passes_in_under_a_second(name, param, shape, checked, scanned):
    F = builtin(name, param)
    start = time.perf_counter()
    rep = is_linearly_closed(F, *shape)
    elapsed = time.perf_counter() - start
    assert (rep.verdict, rep.witnesses, rep.checked) == ("pass", (), checked)
    assert rep.notes == f"scanned={scanned}"
    assert elapsed < 1.0


def test_budget_counts_table_cells_and_row_sets():
    H3 = builtin("Hp", 3)
    # 1x2: 9 rows + 81 cells; 1x3 is covered by 1x2; 2x3: 351 row sets + 729 cells
    with search_budget(1170):
        assert is_linearly_closed(H3, 2, 3).checked == 765
    with search_budget(1169), pytest.raises(BlowupError,
                                            match="1170 at 2x3 exceeds budget 1169"):
        is_linearly_closed(H3, 2, 3)
    with search_budget(89), pytest.raises(BlowupError, match="90 at 1x2 exceeds budget 89"):
        is_linearly_closed(H3, 2, 3)
