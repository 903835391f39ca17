"""The one setwise sum and product, structures._setwise, against two references.

_setwise reads a structure's rows and keeps nothing; add_masks, mul_masks, sum_of and
prod_of go through it, and so do the two callers that cache it locally (the axiom
engine's line sums and a vector space's sums).  The references are a
frozenset union of element-level cells and the dict memo's loop that _setwise
replaced, which also carried a window cell's inexact bit into its sums.
"""

from __future__ import annotations

import functools
import itertools
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from mvla import Poly, Structure, builtin, quotient_pair
from mvla.axioms import _Table, _View, _line_sums
from mvla.structures import TropicalStructure, _setwise
from mvla.vspaces import extension_space, fn_space, span


def memo_loop(table, m1, m2):
    """The setwise op as the former memo computed it: the union of table[i][j] over
    the bits i of m1 and j of m2, and a bit above the carrier kept as it is."""
    carrier = (1 << len(table)) - 1
    res = (m1 | m2) & ~carrier
    m1 &= carrier
    while m1:
        low = m1 & -m1
        m1 ^= low
        row = table[low.bit_length() - 1]
        m = m2 & carrier
        while m:
            low = m & -m
            m ^= low
            res |= row[low.bit_length() - 1]
    return res


def frozenset_op(S, op, m1, m2):
    """The setwise op over element sets: the union of a op b, as a mask."""
    cell = S.sum_set if op == "sum" else S.prod_set
    return S.mask_of(frozenset().union(*(cell(a, b) for a in S.set_of(m1)
                                          for b in S.set_of(m2))))


def frozenset_fold(S, op, masks):
    unit = S.zero if op == "sum" else S.one
    return functools.reduce(lambda acc, m: frozenset_op(S, op, acc, m), masks[1:],
                            masks[0] if masks else S.mask_of([unit]))


@st.composite
def drawn_structures(draw):
    """A carrier of 1-10 elements with drawn sum and product tables: nonempty cells,
    no axiom assumed.  Ten elements take the masks past one byte."""
    k = draw(st.integers(1, 10))
    cells = st.integers(1, (1 << k) - 1)

    def table():
        return [[draw(cells) for _ in range(k)] for _ in range(k)]

    return Structure.from_masks("T", range(k), 0, min(1, k - 1),
                                draw(st.lists(st.integers(0, k - 1), min_size=k, max_size=k)),
                                table(), table())


def masks_of(k):
    """Empty, one-member, full and any masks of a carrier of k elements."""
    full = (1 << k) - 1
    return st.one_of(st.just(0), st.integers(0, k - 1).map((1).__lshift__), st.just(full),
                     st.integers(0, full))


@settings(max_examples=200, deadline=None)
@given(S=drawn_structures(), data=st.data())
def test_setwise_matches_the_frozenset_union_and_the_memo_loop(S, data):
    masks = masks_of(len(S))
    for _ in range(6):
        m1, m2 = data.draw(masks), data.draw(masks)
        for op, tab, method in (("sum", S._sum, S.add_masks), ("prod", S._prod, S.mul_masks)):
            want = frozenset_op(S, op, m1, m2)
            assert _setwise(tab, m1, m2) == method(m1, m2) == want, (op, m1, m2)
            assert memo_loop(tab, m1, m2) == want, (op, m1, m2)


@settings(max_examples=150, deadline=None)
@given(S=drawn_structures(), data=st.data())
def test_folds_match_the_frozenset_fold(S, data):
    nonempty = masks_of(len(S)).filter(bool)
    masks = data.draw(st.lists(nonempty, max_size=4))
    for op, fold in (("sum", S.sum_of), ("prod", S.prod_of)):
        assert fold(masks) == fold(iter(masks)) == frozenset_fold(S, op, masks), (op, masks)


def test_an_empty_operand_gives_the_empty_set():
    for S in (builtin("K"), builtin("Hp", 5), builtin("Xn", 4)):
        full = (1 << len(S)) - 1
        for tab in (S._sum, S._prod):
            for m in (0, 1, full):
                assert _setwise(tab, m, 0) == _setwise(tab, 0, m) == 0
        for m in (0, 1, full):
            assert S.add_masks(m, 0) == S.mul_masks(m, 0) == S.add_masks(0, m) == 0


def test_the_span_of_no_vectors_is_zero(H3):
    # the saturation sums its seed with the empty union of lam.g
    for V in (fn_space(H3, 2), fn_space(builtin("Q2"), 3)):
        W, report = span(V, [])
        assert W == {V.vzero} and report.verdict == "pass"


def _reference_line_sums(view, by_cols):
    """_line_sums of the view by the memo loop: entry (a, b, c) is ca + cb (by_cols) or
    ac + bc, inexact bits kept."""
    k, s, p = view.k, view.sum, view.prod
    return [memo_loop(s, p[c][a], p[c][b]) if by_cols else memo_loop(s, p[a][c], p[b][c])
            for a, b, c in itertools.product(range(k), repeat=3)]


@pytest.mark.parametrize("lo, hi", [(0, 0), (-1, 0), (0, 2), (-2, 2), (-3, 1), (-4, 4)])
def test_line_sums_keep_a_window_cell_inexact_bit(lo, hi):
    view = _View.of_window(TropicalStructure(), lo, hi)
    assert not view["sum"].exact  # the sums a + a, clipped at hi, carry the bit
    for by_cols in (True, False):
        got = _line_sums(view["sum"], view["prod"], by_cols)
        assert got == _reference_line_sums(view, by_cols), by_cols
    assert any(m & view.inex for m in got)


def _quotient(p, coeffs):
    F = builtin("Fp", p)
    return quotient_pair(F, Poly(F, coeffs))[0]


@pytest.mark.parametrize("S", [builtin("K"), builtin("Q2"), builtin("Hp", 5),
                               builtin("Hp", 11), builtin("Xn", 5), _quotient(3, (1, 0, 1)),
                               _quotient(5, (2, 0, 1))], ids=lambda S: S.name)
def test_line_sums_match_the_memo_loop_on_exact_tables(S):
    # K, Q2 and H5 take the whole tables' bytes path; H11, X5, GF(9) = F3[X]/(1+X^2) and
    # F5[X]/(2+X^2), of more than eight elements and one member in each product cell,
    # read the sum table's rows by the members' indices
    view = _View.of_structure(S)
    for by_cols in (True, False):
        assert list(_line_sums(view["sum"], view["prod"], by_cols)) == \
            _reference_line_sums(view, by_cols)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from((9, 11, 3)), st.booleans(), st.data())
def test_line_sums_match_the_memo_loop_on_random_tables(k, singles, data):
    # exact tables of any cells, beside the built-ins: the product's cells are single
    # members (read by index) or any nonempty sets (each distinct pair summed once)
    cell = st.integers(0, k - 1).map(lambda i: 1 << i) if singles else st.integers(1, (1 << k) - 1)
    rows = [data.draw(st.lists(c, min_size=k * k, max_size=k * k)) for c in
            (st.integers(1, (1 << k) - 1), cell)]
    sums, prods = ([r[i:i + k] for i in range(0, k * k, k)] for r in rows)
    view = SimpleNamespace(k=k, sum=sums, prod=prods)
    for by_cols in (True, False):
        assert list(_line_sums(_Table(sums, k), _Table(prods, k), by_cols)) == \
            _reference_line_sums(view, by_cols)


def test_a_space_caches_its_own_sums(H3, h3_quotient):
    # the space's cache answers as _setwise does on its sum table, and as the memo loop
    for V in (fn_space(H3, 2), extension_space(h3_quotient[1])):
        k = len(V.vectors)
        for m1, m2 in itertools.product((0, 1, 6, (1 << k) - 1), repeat=2):
            assert V._plus(m1, m2) == _setwise(V.sum, m1, m2) == memo_loop(V.sum, m1, m2)
