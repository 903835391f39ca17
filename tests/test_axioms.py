import ast
import collections
import functools
import itertools
import math
import operator
import random
import tracemalloc
import types
import unittest.mock
from array import array
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from mvla import (MorphismSpec, Poly, StructureError, WindowRequired, builtin,
                  check_morphism, extension_space, fn_space, is_full,
                  is_proto_full, matrix_space, mprod_sets, msum_sets, poly_space,
                  quotient_pair, recheck_witness, strict_ring, structure_is,
                  verify_axioms, verify_multigroup, verify_vspace)
from mvla import axioms, vspaces
from mvla.axioms import (KINDS, _Collector, _View, _scan_absorb, _scan_action,
                         _scan_hyper_dist, _scan_inverses, _scan_kind, _scan_m1,
                         _scan_no_zero_divisors, _scan_signs, _scan_weak_dist)
from mvla.structures import Structure, mprod, msum


def test_builtins_pass_their_kinds(K, Q2, H3, H5, H7, X2, F2, F3):
    for S, kind in [(K, "multifield"), (Q2, "multifield"),
                    (H3, "hyperfield"), (H5, "hyperfield"), (H7, "hyperfield"),
                    (X2, "multiring"), (builtin("Xn", 3), "multiring"),
                    (F2, "superfield"), (F3, "superfield"),
                    (K, "superfield"), (Q2, "superfield"), (H3, "superfield")]:
        rep = verify_axioms(S, kind)
        assert rep.passed, rep.summary()


def test_kaleidoscope_fails_hyperring_with_witness(X2):
    rep = verify_axioms(X2, "hyperring")
    assert rep.verdict == "fail"
    axiom, wit = rep.witnesses[0]
    assert axiom == "hyper-dist"
    assert recheck_witness(X2, axiom, wit)
    # the canonical counterexample shape: n(1-1) versus n-n
    a, b, c = 2, 1, -1
    left = frozenset().union(*(X2.prod_set(a, s) for s in X2.sum_set(b, c)))
    right = msum_sets(X2, [X2.prod_set(a, b), X2.prod_set(a, c)])
    assert left == {-2, 0, 2} and right == frozenset(X2.elements)


def test_mutated_k_fails_multigroup_on_m1(K):
    Km = K.with_entry("sum", 1, 1, {1})
    rep = verify_axioms(Km, "multigroup")
    assert rep.verdict == "fail"
    assert rep.witnesses[0][0] == "M1"
    assert recheck_witness(Km, *rep.witnesses[0])


def test_absorbing_zero_on_builtins(K, Q2, H3, H5, X2, F3, Z6):
    for S in (K, Q2, H3, H5, X2, F3, Z6):
        for a in S.elements:
            assert S.prod_set(a, S.zero) == {S.zero}
            assert S.prod_set(S.zero, a) == {S.zero}


def test_is_full(K, H3, X2, F2):
    assert is_full(H3) == (True, None)
    assert is_full(K)[0] and is_full(F2)[0]
    ok, wit = is_full(X2)
    assert not ok
    c, a, b = wit
    left = frozenset().union(*(X2.prod_set(c, s) for s in X2.sum_set(a, b)))
    right = msum_sets(X2, [X2.prod_set(c, a), X2.prod_set(c, b)])
    assert left != right


def test_is_proto_full(K, H3, X2):
    assert is_proto_full(K) == (True, None)
    assert is_proto_full(H3) == (True, None)
    verdict, wit = is_proto_full(X2)
    # cross-check the scan verdict on a few quadruples by direct evaluation
    def probe(a, b, c, d):
        left = frozenset()
        for s in msum_sets(X2, [X2.prod_set(a, b), X2.prod_set(a, c)]):
            left |= X2.prod_set(s, d)
        right = frozenset()
        for s in msum_sets(X2, [X2.prod_set(b, d), X2.prod_set(c, d)]):
            right |= X2.prod_set(a, s)
        return bool(left & right)
    if verdict:
        assert wit is None
        assert all(probe(*q) for q in itertools.product(X2.elements, repeat=4))
    else:
        assert not probe(*wit)


def test_inclusion_k_q2_is_not_a_morphism(K, Q2):
    rep = check_morphism(MorphismSpec.inclusion(K, Q2), witness_limit=10)
    assert rep.verdict == "fail"
    axioms = {ax for ax, _ in rep.witnesses}
    # 0 lands in 1+1 on the left but not on the right
    assert "m-add" in axioms
    assert ("m-add", (1, 1, 0)) in rep.witnesses


def test_morphism_check_stops_at_its_witness_limit(K, Q2):
    # m-zero, m-one and m-neg at 0 pass, m-neg at 1 fails: nothing after it counts
    spec = MorphismSpec.inclusion(K, Q2)
    for full in (False, True):
        rep = check_morphism(spec, full=full, witness_limit=1)
        assert (rep.witnesses, rep.checked) == ((("m-neg", (1,)),), 4)
    # the second witness is the first instance at the pair (1, 1)
    rep = check_morphism(spec, witness_limit=2)
    assert (rep.witnesses[-1], rep.checked) == (("m-add", (1, 1, 0)), 11)
    # the third is full-add at (1, 1); full-mul there is not examined
    rep = check_morphism(spec, full=True, witness_limit=3)
    assert (rep.witnesses[-1], rep.checked) == (("full-add", (1, 1)), 20)


def test_entry_points_refuse_a_witness_limit_below_one(K, Q2):
    """At 0 a collector counted a failure without keeping it, so the report read
    pass: the M1-breaking H3 mutant, the K->Q2 inclusion and a broken multigroup
    (verify_vspace's own test is in test_vspaces)."""
    mutant = builtin("Hp", 3).with_entry("sum", 1, 1, [1])
    assert verify_axioms(mutant, "superfield").witnesses[0][0] == "M1"
    for limit in (0, -1):
        with pytest.raises(StructureError, match="witness limit"):
            verify_axioms(mutant, "superfield", witness_limit=limit)
    spec = MorphismSpec.inclusion(K, Q2)
    assert not check_morphism(spec).passed
    with pytest.raises(StructureError, match="witness limit"):
        check_morphism(spec, witness_limit=0)
    assert not verify_multigroup([0, 1], lambda a, b: {a}, lambda a: a, 0).passed
    with pytest.raises(StructureError, match="witness limit"):
        verify_multigroup([0, 1], lambda a, b: {a}, lambda a: a, 0, witness_limit=0)


def test_inclusion_h2_h3_morphism_but_not_full(H2, H3):
    spec = MorphismSpec.inclusion(H2, H3)
    assert check_morphism(spec).passed
    rep = check_morphism(spec, full=True)
    assert rep.verdict == "fail"
    assert rep.witnesses[0][0] == "full-add"


def test_identity_is_full_morphism(H3, X2):
    for S in (H3, X2):
        assert check_morphism(MorphismSpec.inclusion(S, S), full=True).passed


def test_full_morphism_fold_identities(H3, F3):
    # image of iterated sums and of sums of products, setwise, tuples up to 3
    for S in (H3, F3):
        spec = MorphismSpec.inclusion(S, S)
        assert check_morphism(spec, full=True).passed
        f = spec.mapping
        els = S.elements
        for tup in itertools.product(els, repeat=3):
            assert frozenset(f[x] for x in msum(S, tup)) == msum(S, [f[x] for x in tup])
        for cs in itertools.product(els, repeat=2):
            for ds in itertools.product(els, repeat=2):
                left = frozenset(f[x] for x in msum_sets(
                    S, [S.prod_set(c, d) for c, d in zip(cs, ds)]))
                right = msum_sets(S, [S.prod_set(f[c], f[d])
                                      for c, d in zip(cs, ds)])
                assert left == right


def test_newton_binom_on_full_builtins(K, Q2, H3, F3):
    from math import comb
    for S in (K, Q2, H3, F3):
        assert is_full(S)[0]
        for a in S.elements:
            for b in S.elements:
                ab = S.sum_set(a, b)
                for n in (2, 3):
                    power = mprod_sets(S, [ab] * n)
                    terms = []
                    for j in range(n + 1):
                        prod = mprod(S, [a] * j + [b] * (n - j))
                        terms.extend([prod] * comb(n, j))
                    rhs = msum_sets(S, terms)
                    assert power <= rhs, (S.name, a, b, n)


def test_tropical_window_verdicts(trop):
    rep = verify_axioms(trop, "multifield", window=(-5, 5))
    assert rep.verdict == "pass-on-window"
    assert rep.skipped > 0
    with pytest.raises(WindowRequired):
        verify_axioms(trop, "multifield")


def test_scans_leave_the_structure_tables_as_they_are(H3, X2):
    """A finite structure's view is its own mask tables, not a copy."""
    for S in (H3, X2, strict_ring(6)):
        before = [[list(row) for row in tab] for tab in (S._sum, S._prod)]
        for kind in KINDS:
            verify_axioms(S, kind, witness_limit=10 ** 9)
        is_full(S), is_proto_full(S)
        assert [S._sum, S._prod] == before


def test_structure_is_caches(H3):
    assert structure_is(H3, "superfield")
    assert structure_is(H3, "superfield")  # cached path
    assert not structure_is(builtin("Xn", 2), "superfield")


def test_generic_multigroup_agrees_with_mask_scan(K, Q2, H3, X2):
    # same tables, same scanner: verdict, witnesses and checked all agree
    for S in (K, Q2, H3, X2, K.with_entry("sum", 1, 0, {0, 1})):
        rep = verify_multigroup(S.elements, S.sum_set, S.neg, S.zero,
                                subject=S.name)
        ref = verify_axioms(S, "multigroup")
        assert (rep.verdict, rep.witnesses, rep.checked) == \
            (ref.verdict, ref.witnesses, ref.checked), S.name


def test_generic_multigroup_rejects_escapes_before_scanning():
    # 1 + 0 = {0} breaks M2 at once, so a lazy scan with witness_limit=1
    # would stop before it ever evaluated the escaping pair (1, 1)
    def add(a, b):
        return {7} if (a, b) == (1, 1) else {0}

    with pytest.raises(StructureError):
        verify_multigroup([0, 1], add, lambda a: a, 0, witness_limit=1)
    with pytest.raises(StructureError):
        verify_multigroup([0, 1], lambda a, b: {a}, lambda a: a + 5, 0)


def test_multimonoid_kind(H3, X2):
    assert verify_axioms(H3, "multimonoid").passed
    assert verify_axioms(X2, "multimonoid").passed


def test_quasi_superfield_kind(K, H3):
    assert verify_axioms(K, "quasi-superfield").passed
    assert verify_axioms(H3, "quasi-superfield").passed
    assert not verify_axioms(builtin("Xn", 2), "quasi-superfield").passed


def test_inverse_uniqueness_on_full_superdomains(H3, H5):
    # a full superdomain gives unique inverses; the scan returns them sorted
    for S in (H3, H5):
        for a in S.elements:
            if a != S.zero:
                assert len(S.inverses(a)) == 1


def test_multiplicative_cancellation_on_full_superdomains(H3, H5, F3):
    # ax = ay with a nonzero forces x = y
    for S in (H3, H5, F3):
        assert is_full(S)[0]
        for a in S.elements:
            if a == S.zero:
                continue
            for x in S.elements:
                for y in S.elements:
                    if x != y:
                        assert S.prod_set(a, x) != S.prod_set(a, y), (S.name, a, x, y)


def test_kind_lattice_implications(K, Q2, H3, F2, F3):
    # superfield subsumes superdomain, quasi-superfield and superring
    for S in (K, Q2, H3, F2, F3):
        assert verify_axioms(S, "superfield").passed
        for weaker in ("superdomain", "quasi-superfield", "superring",
                       "multigroup", "multimonoid"):
            assert verify_axioms(S, weaker).passed, (S.name, weaker)


# -- the references read (mask, exact) cells, the engine's format before int cells ------
#
# The helpers below are the engine's tuple-cell helpers as they were before its
# tables held int cells, kept verbatim: a cell was (mask, exact), or None where
# the result escapes the window.  _tuple_view turns a view of int cells into
# that form, so every _ref_* loop runs as it did then.


def _union_over(tab, member_mask, other, left_side):
    """Union of tab[x][other] (or tab[other][x]) over members x of member_mask."""
    mask, exact = 0, True
    m = member_mask
    while m:
        low = m & -m
        m ^= low
        i = low.bit_length() - 1
        cell = tab[i][other] if left_side else tab[other][i]
        if cell is None:
            exact = False
        else:
            mask |= cell[0]
            exact = exact and cell[1]
    return mask, exact


def _sum_of_masks(view, m1, m2):
    """Union of sum[x][y] over members x of m1 and y of m2."""
    mask, exact = 0, True
    tab = view.sum
    while m1:
        low = m1 & -m1
        m1 ^= low
        row = tab[low.bit_length() - 1]
        mm2 = m2
        while mm2:
            low = mm2 & -mm2
            mm2 ^= low
            cell = row[low.bit_length() - 1]
            if cell is None:
                exact = False
            else:
                mask |= cell[0]
                exact = exact and cell[1]
    return mask, exact


def _containment(L, R):
    if L is None or R is None:
        return "skip"
    lm, lex = L
    rm, rex = R
    if lm & ~rm:
        return "fail" if rex else "skip"
    return "pass" if lex else "skip"


def _equality(L, R):
    a = _containment(L, R)
    b = _containment(R, L)
    if "fail" in (a, b):
        return "fail"
    if "skip" in (a, b):
        return "skip"
    return "pass"


def _membership(bit, R):
    if R is None:
        return "skip"
    rm, rex = R
    if rm >> bit & 1:
        return "pass"
    return "fail" if rex else "skip"


def _neg_mask(view, mask):
    out = 0
    i = 0
    while mask:
        if mask & 1:
            out |= 1 << view.neg[i]
        mask >>= 1
        i += 1
    return out


def _tuple_tab(tab, inex):
    """A table of int cells as (mask, exact) cells; an escaped cell becomes None."""
    if tab is None:
        return None
    return [[None if cell == inex else (cell & ~inex, cell < inex) for cell in row]
            for row in tab]


def _ref_view(elements, zero_i, one_i, neg, sum_tab, prod_tab, partial, act_tab=None):
    """A view of (mask, exact) cells as the references read it: its carrier and
    tables, with no _Table made of them."""
    return types.SimpleNamespace(elements=elements, k=len(elements), zero_i=zero_i,
                                 one_i=one_i, neg=neg, sum=sum_tab, prod=prod_tab,
                                 partial=partial, act=act_tab)


def _tuple_view(view):
    """The view with (mask, exact) cells, as the references read it."""
    return _ref_view(view.elements, view.zero_i, view.one_i, view.neg,
                     _tuple_tab(view.sum, view.inex), _tuple_tab(view.prod, view.inex),
                     view.partial, _tuple_tab(view.act, view.inex))


_TUPLE_LAWS = {axioms._containment: _containment, axioms._equality: _equality}


def _ref_window_view(trop, lo, hi):
    """A window tabulated into (mask, exact) cells from the rules that need no window:
    a sum cell holds every x of the window with x in a + b (sum_contains) and is
    inexact when a + b also holds hi + 1; a product cell holds prod_value, or is
    None when that escapes the window."""
    els = trop.window_elements(lo, hi)
    idx = {e: i for i, e in enumerate(els)}

    def sum_cell(a, b):
        members = sum(1 << idx[x] for x in els if trop.sum_contains(a, b, x))
        return members, not trop.sum_contains(a, b, hi + 1)

    def prod_cell(a, b):
        v = trop.prod_value(a, b)
        return (1 << idx[v], True) if v in idx else None

    sums = [[sum_cell(a, b) for b in els] for a in els]
    prods = [[prod_cell(a, b) for b in els] for a in els]
    neg = tuple(idx[trop.neg(e)] for e in els)
    return _ref_view(els, idx[trop.zero], idx[trop.one], neg, sums, prods, True)


WINDOWS = [(-5, 5), (-3, 3), (-1, 2), (0, 0), (0, 3), (-4, 0)]


@pytest.mark.parametrize("window", WINDOWS)
def test_window_cells_match_tuple_tabulation(trop, window):
    """Every window cell is its members' mask, plus the inexact bit when the window
    clips the result; an escape is the inexact bit alone.  Only a window holding a
    nonzero integer has an escaping product (lo + lo or hi + hi)."""
    view, ref = _View.of_window(trop, *window), _ref_window_view(trop, *window)
    got = _tuple_view(view)
    assert (got.sum, got.prod) == (ref.sum, ref.prod)
    assert (view.elements, view.zero_i, view.one_i, view.neg) == \
        (ref.elements, ref.zero_i, ref.one_i, ref.neg)
    flat = [c for tab in (view.sum, view.prod) for row in tab for c in row]
    assert (view.inex in flat) == (window != (0, 0))
    assert any(c > view.inex for c in flat)


# -- the associativity kernel against the per-triple loop -----------------------------


def _ref_scan_assoc(view, col, tab, axiom, law):
    """The per-triple loop that _scan_assoc replaced, kept as its reference."""
    els = view.elements
    k = view.k
    for i in range(k):
        for j in range(k):
            ab = tab[i][j]
            for c in range(k):
                if ab is None:
                    col.record("skip", axiom, (els[i], els[j], els[c]))
                    continue
                left = _union_over(tab, ab[0], c, True)
                left = (left[0], left[1] and ab[1])
                bc = tab[j][c]
                if bc is None:
                    right = (0, False)
                else:
                    r = _union_over(tab, bc[0], i, False)
                    right = (r[0], r[1] and bc[1])
                col.record(law(left, right), axiom, (els[i], els[j], els[c]))
                if col.done:
                    return


def _ref_scan_assoc_on_ints(view, col, tab, axiom, law):
    """_ref_scan_assoc, called the way the engine calls _scan_assoc."""
    _ref_scan_assoc(_tuple_view(view), col, _tuple_tab(tab, view.inex), axiom,
                    _TUPLE_LAWS[law])


_UNLIMITED = {"limit": 10 ** 9}
_LIMITED = ({"limit": 1}, {"limit": 3}, {"limit": 3, "stop_on_first": True})


class _Quiet(_Collector):
    """A collector for laws that must count every instance at once."""

    def record_all(self, instances):
        raise AssertionError("a passing exact table reached the per-instance path")


def _refused(*_args):
    raise AssertionError("a passing exact table of at most 8 elements gathered its cells")


def _exact(view):
    """Every cell of the view's sum and product tables is exact."""
    return all(cell >> view.k == 0 for tab in (view.sum, view.prod) if tab is not None
               for row in tab for cell in row)


def _scans_agree(view, laws, ref_scan, *ref_args):
    """The laws run on the view (by _scan_kind) and ref_scan on its tuple form give
    the same witnesses, checked and skipped under every witness setting; returns
    the reference's unlimited run.

    ref_scan gets the tuple view's table where ref_args name one of the view's
    tables, and the tuple-cell law where they name an int-cell law.  Laws
    without witnesses run once: the limits cannot change them.  On exact tables
    whose instances all pass, the laws must count them without recording any, and
    their whole-table, rotation and slab tests may not fail them: no instance
    reaches the per-instance path (record_all), and the laws over triples test
    every table of at most 8 elements whole (no _cells; the action scan gathers its
    unions with _cells at every size).  Associativity on a non-commutative table,
    which has no such test, is left out of that check.
    """
    tview = _tuple_view(view)
    swap = {id(view.sum): tview.sum, id(view.prod): tview.prod,
            **{id(law): ref_law for law, ref_law in _TUPLE_LAWS.items()}}
    ref_args = [swap.get(id(a), a) for a in ref_args]
    runs = []
    for kwargs in (_UNLIMITED,) + _LIMITED:
        new, ref = _scan_kind(view, laws, _Collector(**kwargs)), _Collector(**kwargs)
        ref_scan(tview, ref, *ref_args)
        assert (new.witnesses, new.checked, new.skipped) == \
            (ref.witnesses, ref.checked, ref.skipped), (ref_scan.__name__, ref_args[1:], kwargs)
        runs.append(ref)
        if not runs[0].witnesses:
            break
    tested = all(view[law.keywords["op"]].symmetric for law in laws
                 if law in _ASSOC.values())
    if not runs[0].witnesses and not runs[0].skipped and _exact(view) and tested:
        quiet = _Quiet(**_UNLIMITED)
        if view.k <= 8 and view.act is None:
            with unittest.mock.patch.object(axioms, "_cells", _refused):
                _scan_kind(view, laws, quiet)
        else:
            _scan_kind(view, laws, quiet)
        assert quiet.checked == runs[0].checked, (ref_scan.__name__, ref_args[1:])
    return runs[0]


# The ladders' associativity laws by axiom: each names its table and its law.
_ASSOC = {law.keywords["axiom"]: law
          for law in (axioms._GROUP[-1], axioms._MULTIMONOID[-1], axioms._MONOID[-1])}


def _assoc_agrees(view, axiom):
    law = _ASSOC[axiom]
    op = law.keywords["op"]
    return _scans_agree(view, (law,), _ref_scan_assoc, getattr(view, op), axiom,
                        law.keywords["law"])


def _all_assoc_agree(view):
    for axiom in ("M3", "M3-mult", "assoc-prod"):
        _assoc_agrees(view, axiom)


def _with_ref_assoc(scan_kind):
    """scan_kind with the per-triple loop run for each associativity law."""
    def ref_law(law):
        op, axiom, cell_law = law.keywords["op"], law.keywords["axiom"], law.keywords["law"]
        return lambda view, col: _ref_scan_assoc_on_ints(view, col, getattr(view, op), axiom,
                                                         cell_law)
    refs = {law: ref_law(law) for law in _ASSOC.values()}
    return lambda view, laws, col: scan_kind(view, [refs.get(law, law) for law in laws], col)


def _reports_agree(monkeypatch, run):
    """run() reports the same with the per-triple loop patched in."""
    new = run()
    with monkeypatch.context() as patched:
        for module in (axioms, vspaces):
            patched.setattr(module, "_scan_kind", _with_ref_assoc(_scan_kind))
        ref = run()
    assert new == ref
    return new


_BUILTINS = {"K": ("K",), "Q2": ("Q2",), "H2": ("Hp", 2), "H3": ("Hp", 3),
             "H5": ("Hp", 5), "H7": ("Hp", 7), "X1": ("Xn", 1), "X2": ("Xn", 2),
             "X3": ("Xn", 3), "F2": ("Fp", 2), "F3": ("Fp", 3), "F5": ("Fp", 5)}


@pytest.mark.parametrize("name", sorted(_BUILTINS) + ["Z6"])
def test_assoc_kernel_matches_per_triple_loop_on_builtins(monkeypatch, name):
    S = strict_ring(6) if name == "Z6" else builtin(*_BUILTINS[name])
    _all_assoc_agree(_View.of_structure(S))
    for kind in KINDS:
        _reports_agree(monkeypatch, lambda: verify_axioms(S, kind))


# (-3, 2), (-3, 3), (-7, 6) and (-7, 7) have 7, 8, 15 and 16 elements, the carrier
# sizes around one and two bytes of cell bits; every row of a window goes through
# the per-instance path.
@pytest.mark.parametrize("window", [(-5, 5), (-3, 3), (-3, 2), (-7, 6), (-7, 7)])
def test_assoc_kernel_matches_per_triple_loop_on_windows(monkeypatch, trop, window):
    view = _View.of_window(trop, *window)
    _all_assoc_agree(view)
    assert _assoc_agrees(view, "M3").skipped > 0
    for kind in ("multifield", "superring"):
        for kwargs in ({"witness_limit": 1}, {"witness_limit": 3},
                       {"stop_on_first": True}):
            rep = _reports_agree(monkeypatch, lambda: verify_axioms(
                trop, kind, window=window, **kwargs))
            assert rep.verdict == "pass-on-window"


def _space_view(V):
    """The view verify_vspace scans: the space's own tables."""
    return _View(V.vectors, V.zero_i, None, V.neg, V.sum, None, False, V.act)


@pytest.fixture(scope="module")
def carriers(K, Q2, H2, H3, h3_quotient):
    return {"H3^3": fn_space(H3, 3), "K^3": fn_space(K, 3), "K^5": fn_space(K, 5),
            "Q2^3": fn_space(Q2, 3), "M2x2(H2)": matrix_space(H2, 2, 2),
            "quotient|H3": extension_space(h3_quotient[1])}


@pytest.mark.parametrize("name", ["H3^3", "K^3", "K^5", "Q2^3", "M2x2(H2)", "quotient|H3"])
def test_assoc_kernel_matches_per_triple_loop_on_derived_carriers(
        monkeypatch, carriers, name):
    V = carriers[name]
    view = _space_view(V)
    assert _assoc_agrees(view, "M3").checked == view.k ** 3
    for full in (False, True):
        _reports_agree(monkeypatch, lambda: verify_vspace(V, full=full))


@st.composite
def partial_views(draw, sizes=st.integers(2, 5), odds=5):
    """A window-like view on 2-5 elements (or sizes) with escaped, inexact and
    failing cells: about one cell in odds + 1 escapes and one is inexact.

    Half the masks are the whole carrier, so some rows (a, b) pass whole and
    others fail.
    """
    k = draw(sizes)
    whole, inex = (1 << k) - 1, 1 << k
    masks = st.one_of(st.just(whole), st.integers(0, whole))

    def cell():
        shape = draw(st.integers(0, odds))
        if shape == 0:
            return inex
        return draw(masks) | (inex if shape == 1 else 0)

    def table():
        tab = [[cell() for _ in range(k)] for _ in range(k)]
        escape_at, inexact_at = draw(st.lists(st.integers(0, k * k - 1), min_size=2,
                                              max_size=2, unique=True))
        tab[escape_at // k][escape_at % k] = inex
        tab[inexact_at // k][inexact_at % k] = draw(masks) | inex
        return tab

    els = tuple(range(k))
    return _View(els, 0, 1, draw(st.permutations(els)), table(), table(), True)


@settings(max_examples=150, deadline=None)
@given(view=partial_views())
def test_assoc_kernel_matches_per_triple_loop_on_random_partial_tables(view):
    full = _assoc_agrees(view, "M3")
    assert full.skipped >= view.k  # the row (a, b) at the escaped cell
    assume(full.witnesses)
    _assoc_agrees(view, "M3-mult")
    _assoc_agrees(view, "assoc-prod")


def test_assoc_on_a_non_commutative_table_is_not_read_off_its_rotation():
    """0.x = {1} and 1.x = {0, 1}: (a.b).c is the whole carrier at every triple, so it
    equals its own rotation, yet (0.0).0 = {0, 1} is not within 0.(0.0) = {1}.  Only
    a commutative table may pass associativity by the rotation test; a.b = {a} passes
    it through the per-instance path."""
    tab = [[2, 2], [3, 3]]
    view = _View((0, 1), 0, 1, (0, 1), tab, tab, False)
    assert _assoc_agrees(view, "M3").witnesses[0] == ("M3", (0, 0, 0))
    assert _assoc_agrees(view, "assoc-prod").witnesses
    left = [[1, 1], [2, 2]]
    view = _View((0, 1), 0, 1, (0, 1), left, left, False)
    assert _assoc_agrees(view, "M3").checked == _assoc_agrees(view, "assoc-prod").checked == 8


# Carriers of 7 to 17 elements: exact packed cells of one, two and three bytes (8
# and 16 elements fill their bytes), and on random partial tables the sizes where a
# window's inexact bit would be the first bit of a new byte.  Few inexact cells, so
# that on exact tables wide rows pass whole as well as fail.
_BYTE_EDGES = st.sampled_from([7, 8, 9, 15, 16, 17])


@settings(max_examples=30, deadline=None)
@given(view=partial_views(_BYTE_EDGES, odds=60))
def test_assoc_kernel_matches_per_triple_loop_at_byte_boundaries(view):
    _all_assoc_agree(view)


# -- the rotation test of associativity against the per-triple loop --------------------
#
# On an exact commutative table of more than 8 elements _scan_assoc first tries
# _assoc_lanes_pass, which decides both laws at once; the per-triple loop
# (_ref_scan_assoc) is its reference.


def _members(mask):
    return [x for x in range(mask.bit_length()) if mask >> x & 1]


def _ref_assoc_witnesses(tab, law=axioms._containment, **kwargs):
    """The witnesses of the per-triple loop on the table tab of the elements 0 to
    k - 1, under the int-cell law and the collector settings kwargs.

    Its unions are memoized per (cell, element, side): the tables here hold few
    distinct cells, most of them the whole carrier, whose unions would otherwise
    take k steps at each of the k**3 triples."""
    k, unions, plain = len(tab), {}, _union_over

    def union_over(ttab, member_mask, other, left_side):
        key = member_mask, other, left_side
        if key not in unions:
            unions[key] = plain(ttab, member_mask, other, left_side)
        return unions[key]

    col = _Collector(**kwargs)
    with unittest.mock.patch.dict(globals(), {"_union_over": union_over}):
        _ref_scan_assoc_on_ints(_View(tuple(range(k)), 0, 1, tuple(range(k)), tab, tab, False),
                                col, tab, "M3", law)
    return col.witnesses


def _lanes_agree(tab, *steps):
    """_assoc_lanes_pass on an exact symmetric table of 9 or more elements, with
    chunks of all b values that _LANE_BYTES allows (step None, the default) and of
    each other step of b values, gives the per-triple loop's verdict under both
    laws; returns it."""
    k = len(tab)
    t = axioms._Table(tab, k)
    assert k > 8 and t.symmetric
    want = not _ref_assoc_witnesses(tab, limit=1)
    assert want == (not _ref_assoc_witnesses(tab, axioms._equality, limit=1))
    item = array(axioms._lanes(k)[0]).itemsize  # the chunks hold items of the first lane's
    for step in steps or (None,):
        with unittest.mock.patch.object(axioms, "_LANE_BYTES", step * k * k * item if step
                                        else axioms._LANE_BYTES):
            assert axioms._assoc_lanes_pass(axioms._Table(tab, k)) == want, step
    return want


def _product_table(tabs):
    """The componentwise table of tables of masks, on the tuples of their indices in
    lexicographic order."""
    points = list(itertools.product(*(range(len(t)) for t in tabs)))
    index = {p: n for n, p in enumerate(points)}

    def cell(p, q):
        return sum(1 << index[r] for r in itertools.product(
            *(_members(t[i][j]) for t, i, j in zip(tabs, p, q))))

    return [[cell(p, q) for q in points] for p in points]


def _relabelled(tab, perm):
    """tab with element x renamed perm[x]."""
    out = [[0] * len(tab) for _ in tab]
    for a, row in enumerate(tab):
        for b, cell in enumerate(row):
            out[perm[a]][perm[b]] = sum(1 << perm[x] for x in _members(cell))
    return out


def _widened(tab, a, b, x):
    """tab with x added to the cell a.b and its mirror."""
    out = [list(row) for row in tab]
    out[a][b] |= 1 << x
    out[b][a] = out[a][b]
    return out


@functools.cache
def _factor_tables():
    """The sum and product tables of built-in structures of 2 to 7 elements: each is
    exact, commutative and associative, and so is any componentwise product of them."""
    structures = [builtin(*args) for args in (("K",), ("Q2",), ("Hp", 3), ("Hp", 5),
                                              ("Xn", 1), ("Fp", 2), ("Fp", 3), ("Hp", 7))]
    return [tab for S in structures for tab in (S._sum, S._prod)]


@st.composite
def commutative_tables(draw):
    """An exact symmetric table on 9 to 40 elements (2 to 5 byte lanes): a relabelled
    componentwise product of built-in tables, which passes both laws; or, a third of
    the time each, one of its near misses, with a cell and its mirror widened by one
    element, or a random table whose cells are mostly the whole carrier."""
    factors = draw(st.lists(st.sampled_from(_factor_tables()), min_size=2, max_size=4)
                   .filter(lambda fs: 9 <= math.prod(map(len, fs)) <= 40))
    k = math.prod(map(len, factors))
    tab = _relabelled(_product_table(factors), draw(st.permutations(range(k))))
    shape = draw(st.sampled_from(["product", "near miss", "random"]))
    if shape == "near miss":
        a, b = draw(st.integers(0, k - 1)), draw(st.integers(0, k - 1))
        missing = [x for x in range(k) if not tab[a][b] >> x & 1]
        assume(missing)
        tab = _widened(tab, a, b, draw(st.sampled_from(missing)))
    elif shape == "random":
        rng, whole = random.Random(draw(st.integers(0, 2 ** 32))), (1 << k) - 1
        for a in range(k):
            for b in range(a, k):
                tab[a][b] = tab[b][a] = whole if rng.random() < 0.9 else rng.randrange(1, whole)
    return tab


@settings(max_examples=80, deadline=None)
@given(tab=commutative_tables(), step=st.sampled_from([None, 1, 2, 3]))
def test_rotation_test_matches_per_triple_loop_on_random_tables(tab, step):
    _lanes_agree(tab, step)


@settings(max_examples=30, deadline=None)
@given(tab=commutative_tables())
def test_scan_assoc_counts_and_witnesses_match_the_per_instance_path(tab):
    """The rotation test changes no count or witness: _scan_assoc with it and with
    every table sent to the per-instance path agree, under both laws and each witness
    limit (an unlimited collector would record a random table's many failing
    instances one by one)."""
    k = len(tab)
    view = _View(tuple(range(k)), 0, 1, tuple(range(k)), tab, tab, False)
    for axiom in ("M3", "assoc-prod"):  # on the sum and the product, both tab
        for kwargs in ({"limit": 40},) + _LIMITED:
            new, rows = _Collector(**kwargs), _Collector(**kwargs)
            _ASSOC[axiom](view, new)
            with unittest.mock.patch.object(axioms, "_assoc_lanes_pass", lambda t: False):
                _ASSOC[axiom](view, rows)
            assert (new.witnesses, new.checked, new.skipped) == \
                (rows.witnesses, rows.checked, rows.skipped), (axiom, kwargs)
            if not new.witnesses:  # the limits cannot change a pass
                break


@pytest.mark.parametrize("step", [None, 1, 2, 4])
def test_rotation_test_on_every_near_miss(H3, step):
    """Every cell a.b with a <= b of a passing 9-element table, widened with its
    mirror by its first missing element, under chunks of 1, 2, 4 and all b values."""
    base = _product_table([H3._sum, builtin("Xn", 1)._sum])
    assert _lanes_agree(base, step)
    verdicts = [_lanes_agree(_widened(base, a, b, _members(~base[a][b] & 511)[0]), step)
                for a in range(9) for b in range(a, 9) if base[a][b] != 511]
    assert verdicts.count(False) >= len(verdicts) // 2


@pytest.mark.parametrize("step", [1, 2, 3])
def test_rotation_test_sees_a_failure_at_one_middle_element(K, H5, step):
    """On K x H5, widening the cell (1, 0) + (1, 0) by (0, 1) breaks associativity
    only at triples (a, b, c) with b = (1, 0), so only the chunk of b values that
    holds (1, 0) sees it.  (1, 0), element 5, is moved to each place in turn."""
    base = _product_table([K._sum, H5._sum])
    for p in range(10):
        perm = list(range(10))
        perm[5], perm[p] = p, 5
        tab, near = _relabelled(base, perm), _widened(_relabelled(base, perm), p, p, perm[1])
        assert _lanes_agree(tab, step)
        assert not _lanes_agree(near, step)
        assert {b for _, (a, b, c) in _ref_assoc_witnesses(near, **_UNLIMITED)} == {p}


@pytest.mark.parametrize("step", [None, 1, 3])
def test_rotation_test_sees_a_failure_in_the_low_byte_lane_alone(step):
    """On 16 elements, 0 to 7 summed by xor and every other cell the whole carrier,
    associativity holds.  Widening 0+1 = {1} by 2 breaks it only among the members
    0 to 7, which every cell keeps in its low byte lane."""
    whole = (1 << 16) - 1
    tab = [[1 << (a ^ b) if a < 8 and b < 8 else whole for b in range(16)]
           for a in range(16)]
    assert _lanes_agree(tab, step)
    assert not _lanes_agree(_widened(tab, 0, 1, 2), step)


# The sizes where the rotation test's lane items change: 9 and 16 elements hold a
# cell in 2 bytes, 17 and 32 in 4, 33 and 64 in 8, 65 in 8 and 1, 81 in 8 and 4.
_ITEM_EDGES = {9: [("Hp", 3, "sum"), ("Xn", 1, "sum")], 16: [("K", None, "sum")] * 4,
               17: [("Fp", 17, "sum")], 32: [("K", None, "sum")] * 5,
               33: [("Fp", 11, "sum"), ("Hp", 3, "sum")], 64: [("K", None, "sum")] * 6,
               65: [("Hp", 5, "sum"), ("Fp", 13, "prod")], 81: [("Hp", 3, "sum")] * 4}


def _lane_items(k):
    return [array(code).itemsize for code in axioms._lanes(k)]


def test_lane_items_hold_the_cells_in_the_fewest_bytes():
    assert {k: _lane_items(k) for k in _ITEM_EDGES} == {
        9: [2], 16: [2], 17: [4], 32: [4], 33: [8], 64: [8], 65: [8, 1], 81: [8, 4]}
    assert _lane_items(243) == [8, 8, 8, 8] and _lane_items(8) == [1]


@pytest.mark.parametrize("k", sorted(_ITEM_EDGES))
def test_rotation_test_at_every_lane_item_boundary(k):
    """A relabelled componentwise product of built-in tables of k elements passes under
    each chunk size; with its identity's cell e.e widened by an element x, it fails
    at (e, e, e), where (e.e).e holds x and e.(e.e) does not."""
    factors = [getattr(builtin(name, *([] if p is None else [p])), "_" + op)
               for name, p, op in _ITEM_EDGES[k]]
    perm = list(range(k))
    random.Random(k).shuffle(perm)
    tab = _relabelled(_product_table(factors), perm)
    assert _lanes_agree(tab, None, 1, 3)
    e = next(a for a in range(k) if tab[a] == [1 << b for b in range(k)])
    assert not _lanes_agree(_widened(tab, e, e, k - 1 if e != k - 1 else 0), None, 1, 3)


@pytest.mark.parametrize("k, lo, n, items", [(72, 0, 64, [8, 1]), (72, 64, 8, [8, 1]),
                                             (81, 64, 16, [8, 4])])
def test_rotation_test_sees_a_failure_in_one_lane_alone(k, lo, n, items):
    """The k = 16 test above on k elements, its n xor-summed members lo to lo + n - 1
    (lo the zero): widening lo + (lo + 1) breaks associativity only among them, which
    every cell keeps in one lane: the low lane of 8-byte items (lo = 0) or the last
    one."""
    assert _lane_items(k) == items
    whole = (1 << k) - 1
    tab = [[1 << lo + (a - lo ^ b - lo) if lo <= min(a, b) and max(a, b) < lo + n else whole
            for b in range(k)] for a in range(k)]
    assert _lanes_agree(tab, None, 1, 3)
    assert not _lanes_agree(_widened(tab, lo, lo + 1, lo + 2), None, 1, 3)


@pytest.fixture(scope="module")
def workload_spaces(K, Q2, H2, H3, H5, F3):
    """The spaces of more than 8 vectors whose vector sums the benchmark's vspace
    workload verifies."""
    gf9 = quotient_pair(F3, Poly(F3, (1, 0, 1)))
    return {"H3^3": fn_space(H3, 3), "H3^4": fn_space(H3, 4), "K^5": fn_space(K, 5),
            "Q2^3": fn_space(Q2, 3), "X1^3": fn_space(builtin("Xn", 1), 3),
            "F3^3": fn_space(F3, 3), "H5^2": fn_space(H5, 2),
            "M2x2(H2)": matrix_space(H2, 2, 2), "K[X]<=3": poly_space(K, 3),
            "GF(9)|F3": extension_space(gf9[1])}


@pytest.mark.parametrize("name", ["H3^3", "H3^4", "K^5", "Q2^3", "X1^3", "F3^3", "H5^2",
                                  "M2x2(H2)", "K[X]<=3", "GF(9)|F3"])
def test_rotation_test_passes_the_workload_spaces(monkeypatch, workload_spaces, name):
    V = workload_spaces[name]
    assert _lanes_agree(V.sum)
    new = verify_vspace(V)
    monkeypatch.setattr(axioms, "_assoc_lanes_pass", lambda t: False)
    assert new == verify_vspace(V) and new.passed


def test_rotation_test_on_the_f11_superfield(monkeypatch):
    S = builtin("Fp", 11)
    assert _lanes_agree(S._sum) and _lanes_agree(S._prod)
    _all_assoc_agree(_View.of_structure(S))
    for kind in KINDS:
        _reports_agree(monkeypatch, lambda: verify_axioms(S, kind))


# -- the M1 and distributivity kernels against per-instance loops ----------------------


def _ref_m1(view, col, tab, axiom):
    """The per-member M1 loop that _scan_m1 replaced, kept as its reference."""
    els, k, neg = view.elements, view.k, view.neg
    for i in range(k):
        for j in range(k):
            cell = tab[i][j]
            if cell is None:
                col.record("skip", axiom, (els[i], els[j]))
                continue
            verdict, bad_c = "pass", None
            mm = cell[0]
            while mm and verdict != "fail":
                low = mm & -mm
                mm ^= low
                c = low.bit_length() - 1
                v1 = _membership(i, tab[c][neg[j]])
                v2 = _membership(j, tab[neg[i]][c])
                if "fail" in (v1, v2):
                    verdict, bad_c = "fail", els[c]
                elif "skip" in (v1, v2):
                    verdict = "skip"
            instance = (els[i], els[j]) if bad_c is None else (els[i], els[j], bad_c)
            col.record(verdict, axiom, instance)
            if col.done:
                return


def _ref_right_sum(view, x, y):
    """The unionwise sum of two product cells; unknown when either escapes."""
    if x is None or y is None:
        return 0, False
    m, exact = _sum_of_masks(view, x[0], y[0])
    return m, exact and x[1] and y[1]


def _ref_scan_weak_dist(view, col):
    """The per-triple loop that _scan_weak_dist replaced, kept as its reference.

    A sum a+b that escapes the window skips both sides of every c.
    """
    els, k = view.elements, view.k
    sum_tab, prod_tab = view.sum, view.prod
    for a in range(k):
        for b in range(k):
            ab = sum_tab[a][b]
            for c in range(k):
                if ab is None:
                    col.record("skip", "weak-dist", (els[c], els[a], els[b]))
                    col.record("skip", "weak-dist-right", (els[a], els[b], els[c]))
                    continue
                left = _union_over(prod_tab, ab[0], c, False)
                left = (left[0], left[1] and ab[1])
                right = _ref_right_sum(view, prod_tab[c][a], prod_tab[c][b])
                col.record(_containment(left, right), "weak-dist", (els[c], els[a], els[b]))
                if col.done:
                    return
                left2 = _union_over(prod_tab, ab[0], c, True)
                left2 = (left2[0], left2[1] and ab[1])
                right2 = _ref_right_sum(view, prod_tab[a][c], prod_tab[b][c])
                col.record(_containment(left2, right2), "weak-dist-right",
                           (els[a], els[b], els[c]))
                if col.done:
                    return


def _ref_scan_hyper_dist(view, col):
    """The per-triple loop that _scan_hyper_dist replaced, kept as its reference."""
    els, k = view.elements, view.k
    for a in range(k):
        for b in range(k):
            for c in range(k):
                bc = view.sum[b][c]
                if bc is None:
                    col.record("skip", "hyper-dist", (els[a], els[b], els[c]))
                    continue
                left = _union_over(view.prod, bc[0], a, False)
                left = (left[0], left[1] and bc[1])
                right = _ref_right_sum(view, view.prod[a][b], view.prod[a][c])
                col.record(_equality(left, right), "hyper-dist", (els[a], els[b], els[c]))
                if col.done:
                    return


def _ref_is_full(S):
    """The per-triple fullness loop that is_full replaced, kept as its reference."""
    view = _tuple_view(_View.of_structure(S))
    els, k = S.elements, view.k
    for c in range(k):
        for a in range(k):
            for b in range(k):
                left = _union_over(view.prod, view.sum[a][b][0], c, False)[0]
                right = _sum_of_masks(view, view.prod[c][a][0], view.prod[c][b][0])[0]
                if left != right:
                    return False, (els[c], els[a], els[b])
    return True, None


def _m1_agrees(view, tab):
    """M1 (a law of the sum) on tab, as the sum table of a view of view's carrier."""
    on = _View(view.elements, view.zero_i, view.one_i, view.neg, tab, None, view.partial)
    return _scans_agree(on, (_scan_m1,), _ref_m1, on.sum, "M1")


def _kernels_agree(view):
    """M1 on both tables, weak and exact distributivity: kernels and references agree."""
    _m1_agrees(view, view.sum)
    _m1_agrees(view, view.prod)
    _scans_agree(view, (_scan_weak_dist,), _ref_scan_weak_dist)
    _scans_agree(view, (_scan_hyper_dist,), _ref_scan_hyper_dist)


def _single_entry_mutants(S):
    """S with one table entry replaced, for every entry of both tables: by the whole
    carrier, or by {0} where the entry already is the whole carrier."""
    whole = frozenset(S.elements)
    for op in ("sum", "prod"):
        for a in S.elements:
            for b in S.elements:
                old = S.sum_set(a, b) if op == "sum" else S.prod_set(a, b)
                yield S.with_entry(op, a, b, {S.zero} if old == whole else whole)


@pytest.mark.parametrize("name", sorted(_BUILTINS) + ["Z6"])
def test_m1_and_dist_kernels_match_per_instance_loops_on_builtins(name):
    S = strict_ring(6) if name == "Z6" else builtin(*_BUILTINS[name])
    _kernels_agree(_View.of_structure(S))
    assert is_full(S) == _ref_is_full(S)


@pytest.mark.parametrize("name", sorted(_BUILTINS) + ["Z6"])
def test_m1_and_dist_kernels_match_per_instance_loops_on_single_entry_mutants(name):
    S = strict_ring(6) if name == "Z6" else builtin(*_BUILTINS[name])
    failing = 0
    for T in _single_entry_mutants(S):
        _kernels_agree(_View.of_structure(T))
        full = is_full(T)
        assert full == _ref_is_full(T)
        failing += not full[0]
    assert failing  # the mutants reach the per-instance paths


@pytest.mark.parametrize("window", [(-5, 5), (-3, 3)])
def test_m1_and_dist_kernels_match_per_instance_loops_on_windows(trop, window):
    _kernels_agree(_View.of_window(trop, *window))


@pytest.mark.parametrize("name", ["H3^3", "K^3", "K^5", "M2x2(H2)"])
def test_m1_kernel_matches_per_member_loop_on_derived_carriers(carriers, name):
    V = carriers[name]
    view = _space_view(V)
    assert _m1_agrees(view, view.sum).checked == view.k ** 2


@pytest.mark.parametrize("n", [4, 5, 6])
def test_m1_kernel_matches_per_member_loop_on_carriers_with_replaced_cells(K, n):
    """M1 on K^n, 16, 32 and 64 vectors (blocks of 16, 32 and 64 bits, K^6's
    over several chunks), as it is and with one sum cell replaced by the whole
    carrier or by one vector."""
    V = fn_space(K, n)
    k, rng = len(V.vectors), random.Random(n)
    view = _space_view(V)
    assert _m1_agrees(view, view.sum).checked == k * k
    for cell in ((1 << k) - 1, 1, 1 << k - 1):
        tab = [list(row) for row in V.sum]
        tab[rng.randrange(k)][rng.randrange(k)] = cell
        assert _m1_agrees(view, tab).witnesses


@settings(max_examples=150, deadline=None)
@given(view=partial_views())
def test_m1_and_dist_kernels_match_per_instance_loops_on_random_partial_tables(view):
    _kernels_agree(view)


def _hyper_dist_whole(view):
    """Whether hyper-dist's whole-table test passes the view: any other path raises."""
    col = _Quiet(**_UNLIMITED)
    try:
        with unittest.mock.patch.object(axioms, "_cells", _refused):
            _scan_hyper_dist(view, col)
    except AssertionError:
        return False
    assert col.checked == view.k ** 3
    return True


@pytest.mark.parametrize("name", ["K", "Q2", "H2", "H3", "H5", "H7", "X1", "F2", "F3", "F5"])
def test_hyper_dist_whole_table_test_matches_the_reference_on_mutants(name):
    """Every built-in of at most 8 elements that is a hyperfield, and its mutants with
    one sum or product cell replaced: the whole-table test (weak distributivity's
    tensors compared for equality) passes exactly where the per-triple loop finds
    no witness."""
    S = builtin(*_BUILTINS[name])
    assert structure_is(S, "hyperfield")
    verdicts = []
    for n, T in enumerate([S, *_single_entry_mutants(S)]):
        view = _View.of_structure(T)
        ref = _Collector(**_UNLIMITED)
        _ref_scan_hyper_dist(_tuple_view(view), ref)
        verdicts.append(_hyper_dist_whole(view))
        assert verdicts[-1] == (not ref.witnesses), n
    assert verdicts[0] and False in verdicts


def test_weak_dist_skips_both_sides_of_an_escaping_sum():
    """Every triple is counted on both sides, checked or skipped, also where a+b
    escapes the window."""
    k = 3
    els = tuple(range(k))
    sum_tab = [[1 << (a + b) % k for b in els] for a in els]
    sum_tab[1][2] = 1 << k
    prod_tab = [[1 << a * b % k for b in els] for a in els]
    view = _View(els, 0, 1, (0, 2, 1), sum_tab, prod_tab, True)
    for scan, v in ((_scan_weak_dist, view), (_ref_scan_weak_dist, _tuple_view(view))):
        col = _Collector(**_UNLIMITED)
        scan(v, col)
        assert col.checked + col.skipped == 2 * k ** 3
        assert col.skipped >= 2 * k and not col.witnesses


# -- the per-instance scans against the tuple-cell loops they were ported from --------


def _ref_scan_nonempty(view, col, opname):
    tab = view.sum if opname == "sum" else view.prod
    els = view.elements
    for i in range(view.k):
        for j in range(view.k):
            cell = tab[i][j]
            if cell is None:
                col.record("skip", "nonempty", (els[i], els[j]))
            elif cell[0] == 0:
                col.record("fail", f"nonempty-{opname}", (els[i], els[j]))
            else:
                col.record("pass", "nonempty", (els[i], els[j]))
            if col.done:
                return


def _ref_scan_multigroup(view, col, opname, unit_i, use_inversion):
    """M1-M4 over one operation; multimonoid mode drops M1/M2 for a weak unit law."""
    tab = view.sum if opname == "sum" else view.prod
    els = view.elements
    k = view.k
    suffix = "" if opname == "sum" else "-mult"

    # M2 (group mode): a . unit = {a}.  Monoid mode: a in unit . a.
    for i in range(k):
        if use_inversion:
            col.record(_equality(tab[i][unit_i], (1 << i, True)), "M2" + suffix, (els[i],))
        else:
            col.record(_membership(i, tab[unit_i][i]), "unit" + suffix, (els[i],))
        if col.done:
            return

    if use_inversion:
        _ref_m1(view, col, tab, "M1" + suffix)
        if col.done:
            return

    # M4 commutativity
    for i in range(k):
        for j in range(i + 1, k):
            col.record(_equality(tab[i][j], tab[j][i]), "M4" + suffix, (els[i], els[j]))
            if col.done:
                return

    # M3 weak associativity: (a.b).c subset of a.(b.c), unionwise
    _ref_scan_assoc(view, col, tab, "M3" + suffix, _containment)


def _ref_scan_monoid(view, col):
    """Strict commutative monoid laws for the product of a multiring."""
    tab = view.prod
    els = view.elements
    k = view.k
    for i in range(k):
        for j in range(k):
            cell = tab[i][j]
            if cell is None:
                col.record("skip", "prod-single", (els[i], els[j]))
            elif cell[0] & (cell[0] - 1):
                col.record("fail", "prod-single", (els[i], els[j]))
            else:
                col.record("pass", "prod-single", (els[i], els[j]))
            if col.done:
                return
    for i in range(k):
        col.record(_equality(tab[i][view.one_i], (1 << i, True)), "unit-prod", (els[i],))
        if col.done:
            return
    for i in range(k):
        for j in range(i + 1, k):
            col.record(_equality(tab[i][j], tab[j][i]), "comm-prod", (els[i], els[j]))
            if col.done:
                return
    _ref_scan_assoc(view, col, tab, "assoc-prod", _equality)


def _ref_scan_absorb(view, col):
    els = view.elements
    z = view.zero_i
    zero_mask = (1 << z, True)
    for i in range(view.k):
        col.record(_equality(view.prod[i][z], zero_mask), "absorb", (els[i],))
        if col.done:
            return
        col.record(_equality(view.prod[z][i], zero_mask), "absorb", (els[i],))
        if col.done:
            return


def _ref_scan_signs(view, col):
    els = view.elements
    for a in range(view.k):
        na = view.neg[a]
        for b in range(view.k):
            ab = view.prod[a][b]
            neg_ab = None if ab is None else (_neg_mask(view, ab[0]), ab[1])
            col.record(_equality(neg_ab, view.prod[na][b]), "signs", (els[a], els[b]))
            if col.done:
                return
            col.record(_equality(neg_ab, view.prod[a][view.neg[b]]), "signs", (els[a], els[b]))
            if col.done:
                return


def _ref_scan_no_zero_divisors(view, col):
    els = view.elements
    z = view.zero_i
    for a in range(view.k):
        for b in range(view.k):
            if a == z or b == z:
                continue
            cell = view.prod[a][b]
            if cell is None:
                col.record("skip", "no-zero-div", (els[a], els[b]))
            elif cell[0] >> z & 1:
                col.record("fail", "no-zero-div", (els[a], els[b]))
            else:
                col.record("pass" if cell[1] else "skip", "no-zero-div", (els[a], els[b]))
            if col.done:
                return


def _ref_scan_inverses(view, col):
    els = view.elements
    z, one = view.zero_i, view.one_i
    for a in range(view.k):
        if a == z:
            continue
        found = False
        partial = view.partial
        for b in range(view.k):
            cell = view.prod[a][b]
            if cell is None:
                partial = True
            elif cell[0] >> one & 1:
                found = True
                break
            elif not cell[1]:
                partial = True
        if found:
            col.record("pass", "inverses", (els[a],))
        elif partial:
            col.record("skip", "inverses", (els[a],))
        else:
            col.record("fail", "inverses", (els[a],))
        if col.done:
            return


def _ref_is_proto_full(S):
    """Nonempty intersection of ((ab+ac)d) with (a(bd+cd)) for all quadruples."""
    view = _tuple_view(_View.of_structure(S))
    els = S.elements
    k = view.k
    prod = view.prod
    for a in range(k):
        for b in range(k):
            ab = prod[a][b][0]
            for c in range(k):
                ac = prod[a][c][0]
                sum1 = _sum_of_masks(view, ab, ac)[0]
                for d in range(k):
                    left = _union_over(prod, sum1, d, True)[0]
                    sum2 = _sum_of_masks(view, prod[b][d][0], prod[c][d][0])[0]
                    right = _union_over(prod, sum2, a, False)[0]
                    if not left & right:
                        return False, (els[a], els[b], els[c], els[d])
    return True, None


def _ref_scan_action(view, F, col, full):
    """MV0-MV3 for the action of the scalars F on a tabulated vector carrier.

    MV2 and MV3 demand containment of the left side in the right side, or
    equality when full is set; MV0 and MV1 always demand equality.
    """
    els, act, k = view.elements, view.act, view.k
    scal = F.elements
    s = len(scal)
    one, zero = F.index(F.one), F.index(F.zero)
    zero_vec = (1 << view.zero_i, True)
    for v in range(k):
        col.record(_equality(act[one][v], (1 << v, True)), "MV0-one", (els[v],))
        if col.done:
            return
        col.record(_equality(act[zero][v], zero_vec), "MV0-zero", (els[v],))
        if col.done:
            return
    # MV1: (lam mu) v = lam (mu v)
    for lam in range(s):
        for mu in range(s):
            for v in range(k):
                left = _union_over(act, F._prod[lam][mu], v, True)
                right = _union_over(act, act[mu][v][0], lam, False)
                col.record(_equality(left, right), "MV1", (scal[lam], scal[mu], els[v]))
                if col.done:
                    return
    law = _equality if full else _containment
    # MV2: lam (v + w) within lam v + lam w
    for lam in range(s):
        row = act[lam]
        for v in range(k):
            for w in range(k):
                left = _union_over(act, view.sum[v][w][0], lam, False)
                right = _sum_of_masks(view, row[v][0], row[w][0])
                col.record(law(left, right), "MV2", (scal[lam], els[v], els[w]))
                if col.done:
                    return
    # MV3: (lam + mu) v within lam v + mu v
    for lam in range(s):
        for mu in range(s):
            for v in range(k):
                left = _union_over(act, F._sum[lam][mu], v, True)
                right = _sum_of_masks(view, act[lam][v][0], act[mu][v][0])
                col.record(law(left, right), "MV3", (scal[lam], scal[mu], els[v]))
                if col.done:
                    return


def _ref_add_group(view, col):
    _ref_scan_nonempty(view, col, "sum")
    if not col.done:
        _ref_scan_multigroup(view, col, "sum", view.zero_i, True)


def _ref_mult_multimonoid(view, col):
    _ref_scan_nonempty(view, col, "prod")
    if not col.done:
        _ref_scan_multigroup(view, col, "prod", view.one_i, False)


def _ref_scan_nontrivial(view, col):
    col.record("fail" if view.zero_i == view.one_i else "pass", "nontrivial", ())


# Each run of the ladders' laws with the reference that stands for it.
_PER_INSTANCE = {axioms._GROUP: _ref_add_group, axioms._MULTIMONOID: _ref_mult_multimonoid,
                 axioms._MONOID: _ref_scan_monoid, (_scan_absorb,): _ref_scan_absorb,
                 (_scan_signs,): _ref_scan_signs,
                 (_scan_no_zero_divisors,): _ref_scan_no_zero_divisors,
                 (_scan_inverses,): _ref_scan_inverses,
                 (axioms._scan_nontrivial,): _ref_scan_nontrivial}


def _per_instance_agree(view):
    """Nonemptiness, and the other group laws (M2, M1, M4, M3) and multimonoid laws
    (unit-mult, M4-mult, M3-mult) on their own, then the ladders' tuples and the
    ring laws: every run of laws and its tuple-cell loop agree."""
    for laws, op, unit_i, group in ((axioms._GROUP, "sum", view.zero_i, True),
                                    (axioms._MULTIMONOID, "prod", view.one_i, False)):
        _scans_agree(view, laws[:1], _ref_scan_nonempty, op)
        _scans_agree(view, laws[1:], _ref_scan_multigroup, op, unit_i, group)
    for laws, ref_scan in _PER_INSTANCE.items():
        _scans_agree(view, laws, ref_scan)


@pytest.mark.parametrize("name", sorted(_BUILTINS) + ["Z6"])
def test_per_instance_scans_match_tuple_loops_on_builtins(name):
    S = strict_ring(6) if name == "Z6" else builtin(*_BUILTINS[name])
    _per_instance_agree(_View.of_structure(S))
    assert is_proto_full(S) == _ref_is_proto_full(S)


@pytest.mark.parametrize("name", sorted(_BUILTINS) + ["Z6"])
def test_per_instance_scans_match_tuple_loops_on_single_entry_mutants(name):
    S = strict_ring(6) if name == "Z6" else builtin(*_BUILTINS[name])
    for T in _single_entry_mutants(S):
        _per_instance_agree(_View.of_structure(T))


@pytest.mark.parametrize("name", ["K", "Q2", "H2", "H3", "X1", "F2", "F3"])
def test_proto_fullness_matches_tuple_loop_on_mutants(name):
    """Every table entry replaced by every nonempty subset of the carrier."""
    S = builtin(*_BUILTINS[name])
    subsets = [c for r in range(1, len(S.elements) + 1)
               for c in itertools.combinations(S.elements, r)]
    failing = 0
    for op, a, b in itertools.product(("sum", "prod"), S.elements, S.elements):
        for new in subsets:
            T = S.with_entry(op, a, b, new)
            proto = is_proto_full(T)
            assert proto == _ref_is_proto_full(T)
            failing += not proto[0]
    assert failing  # the mutants reach the witness path


@pytest.mark.parametrize("window", [(-5, 5), (-3, 3), (-1, 2)])
def test_per_instance_scans_match_tuple_loops_on_windows(trop, window):
    _per_instance_agree(_View.of_window(trop, *window))


@settings(max_examples=150, deadline=None)
@given(view=partial_views())
def test_per_instance_scans_match_tuple_loops_on_random_partial_tables(view):
    _per_instance_agree(view)


def _action_agrees(view, F):
    for full in (False, True):
        _scans_agree(view, (lambda v, col: _scan_action(v, F, col, full),),
                     lambda v, col: _ref_scan_action(v, F, col, full))


@pytest.mark.parametrize("name", ["H3^3", "K^3", "K^5", "Q2^3", "M2x2(H2)", "quotient|H3"])
def test_action_scan_matches_tuple_loop_on_derived_carriers(carriers, name):
    V = carriers[name]
    _action_agrees(_space_view(V), V.scalars)


@st.composite
def action_views(draw, sizes=st.integers(2, 5)):
    """An exact view of 2-5 vectors (or sizes) under a random action of a small
    built-in's scalars; half the cells are the whole carrier, so instances pass
    and fail."""
    F = builtin(*draw(st.sampled_from([("K",), ("Q2",), ("Fp", 2), ("Fp", 3), ("Hp", 3)])))
    k = draw(sizes)
    whole = (1 << k) - 1
    masks = st.one_of(st.just(whole), st.integers(1, whole))

    def table(rows):
        return [[draw(masks) for _ in range(k)] for _ in range(rows)]

    els = tuple(range(k))
    view = _View(els, 0, None, draw(st.permutations(els)), table(k), None, False,
                 table(len(F.elements)))
    return view, F


@settings(max_examples=150, deadline=None)
@given(drawn=action_views())
def test_action_scan_matches_tuple_loop_on_random_actions(drawn):
    _action_agrees(*drawn)


@settings(max_examples=40, deadline=None)
@given(drawn=action_views(st.sampled_from([3, 5, 9, 17])), data=st.data())
def test_action_scan_matches_tuple_loop_on_one_member_actions(drawn, data):
    """Every action cell one vector, as over a hyperfield: _row_unions reads the unions
    of x + lam.w off the sum table's rows."""
    view, F = drawn
    act = [[1 << x for x in data.draw(st.lists(st.integers(0, view.k - 1), min_size=view.k,
                                                max_size=view.k))] for _ in view.act]
    _action_agrees(_View(view.elements, 0, None, view.neg, view.sum, None, False, act), F)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), k=st.sampled_from([2, 7, 9, 17]), rows=st.integers(1, 20),
       one_member=st.booleans())
def test_row_unions_match_the_ors_of_their_cells(data, k, rows, one_member):
    """_row_unions against its definition, with every cell of one member (read off
    the rows) or with cells of any members (ORs over blocks of rows)."""
    tab = [data.draw(st.lists(st.integers(0, (1 << k) - 1), min_size=k, max_size=k))
           for _ in range(rows)]
    cells = data.draw(st.lists(st.integers(0, k - 1).map((1).__lshift__) if one_member
                               else st.integers(1, (1 << k) - 1), min_size=1, unique=True))
    members = {cell: _members(cell) for cell in cells}
    w = (k + 7) // 8
    want = [[functools.reduce(operator.or_, map(row.__getitem__, mem), 0).to_bytes(w, "big")
             for mem in members.values()] + [b""] for row in tab]
    assert list(axioms._row_unions(tab, members, w)) == want


@settings(max_examples=30, deadline=None)
@given(drawn=action_views(_BYTE_EDGES))
def test_action_scan_matches_tuple_loop_at_byte_boundaries(drawn):
    _action_agrees(*drawn)


# -- whole reports against the per-instance references ------------------------------


_REF_SCANS = {**_PER_INSTANCE, (_scan_weak_dist,): _ref_scan_weak_dist,
              (_scan_hyper_dist,): _ref_scan_hyper_dist}


def _ref_ladder(laws):
    """The references that stand for the laws in order, one for each run of them."""
    refs = []
    while laws:
        run = next(run for run in _REF_SCANS if laws[:len(run)] == run)
        refs.append(_REF_SCANS[run])
        laws = laws[len(run):]
    return refs


def _ref_verify(S, kind, witness_limit=3, stop_on_first=False):
    """verify_axioms with the per-instance references run in the engine's law order."""
    view = _tuple_view(_View.of_structure(S))
    col = _Collector(limit=witness_limit, stop_on_first=stop_on_first)
    for scan in _ref_ladder(axioms._KIND_SCANS[kind]):
        scan(view, col)
        if col.done:
            break
    return axioms._report(S.name, kind, view, col)


_REPORT_SETTINGS = ({"witness_limit": 1}, {"witness_limit": 3}, {"stop_on_first": True})
_TRIPLE_AXIOMS = {"M3": 0, "M3-mult": 0, "assoc-prod": 0, "hyper-dist": 0,
                  "weak-dist-right": 0, "weak-dist": 1}  # the position of a in the witness


def _reports_match_reference(S):
    """Every kind's report under every witness setting is the reference's, and
    structure_is agrees; returns the witnesses of the reports."""
    witnesses = []
    for kind in KINDS:
        for kwargs in _REPORT_SETTINGS:
            rep = verify_axioms(S, kind, **kwargs)
            assert rep == _ref_verify(S, kind, **kwargs), (S.name, kind, kwargs)
            witnesses += rep.witnesses
        assert structure_is(S, kind) == rep.passed
    return witnesses


def _past_first_slab(S, witnesses):
    """Whether some triple witness has a past the first element, so that the
    rows of the slabs before it passed and were counted before it failed."""
    return any(ax in _TRIPLE_AXIOMS and wit[_TRIPLE_AXIOMS[ax]] != S.elements[0]
               for ax, wit in witnesses)


@pytest.mark.parametrize("name", sorted(_BUILTINS) + ["Z6"])
def test_reports_match_reference_on_builtins(name):
    _reports_match_reference(strict_ring(6) if name == "Z6" else builtin(*_BUILTINS[name]))


@pytest.mark.parametrize("name", ["K", "Q2", "H3", "F3", "X1", "Z6"])
def test_reports_match_reference_on_single_entry_mutants(name):
    S = strict_ring(6) if name == "Z6" else builtin(*_BUILTINS[name])
    past = [_past_first_slab(T, _reports_match_reference(T)) for T in _single_entry_mutants(S)]
    assert any(past) or len(S.elements) == 2  # K's triples start at 0 or fail at once


@pytest.mark.parametrize("name", ["H5", "H7"])
def test_reports_match_reference_on_sampled_mutants(name):
    mutants = random.Random(14).sample(list(_single_entry_mutants(builtin(*_BUILTINS[name]))),
                                       8)
    for T in mutants:
        _reports_match_reference(T)


@st.composite
def exact_structures(draw, sizes=st.integers(2, 8)):
    """A structure on 2-8 elements (or sizes), whole tables all: the tables of one
    of _exact_sources with up to two cells replaced by the whole carrier or another
    nonempty mask."""
    k = draw(sizes)
    sum_tab, prod_tab, zero_i, one_i, neg = draw(st.sampled_from(_exact_sources(k)))
    tabs = {"sum": [list(row) for row in sum_tab], "prod": [list(row) for row in prod_tab]}
    whole = (1 << k) - 1
    for _ in range(draw(st.integers(0, 2))):
        op, i, j = draw(st.sampled_from(("sum", "prod"))), draw(st.integers(0, k - 1)), \
            draw(st.integers(0, k - 1))
        tabs[op][i][j] = draw(st.one_of(st.just(whole), st.integers(1, whole)))
    return Structure.from_masks(f"T{k}", tuple(range(k)), zero_i, one_i, neg, tabs["sum"],
                                tabs["prod"])


@settings(max_examples=60, deadline=None)
@given(S=exact_structures())
def test_reports_match_reference_on_random_whole_tables(S):
    _reports_match_reference(S)


@settings(max_examples=10, deadline=None)
@given(S=exact_structures(st.just(8)))
def test_reports_match_reference_on_random_whole_tables_of_eight_elements(S):
    _reports_match_reference(S)


# structure_is stops at its first record_all call, before the failing scan rebuilds a
# cell or evaluates an instance: it must still give the report's verdict.


@settings(max_examples=25, deadline=None)
@given(S=exact_structures(st.sampled_from([9, 11, 16])))
def test_structure_is_matches_the_report_on_random_tables_beyond_whole(S):
    for kind in KINDS:
        assert structure_is(S, kind) == verify_axioms(S, kind).passed, kind


@pytest.mark.parametrize("args", [("Xn", 4), ("Fp", 11)])
def test_structure_is_matches_the_report_on_sampled_mutants_beyond_whole(args):
    """Single-entry mutants of structures of 9 and 11 elements, whose tables go through
    the rotation test and the distributivity slabs rather than whole-table tests."""
    failing = 0
    for T in random.Random(32).sample(list(_single_entry_mutants(builtin(*args))), 10):
        for kind in KINDS:
            passed = verify_axioms(T, kind).passed
            assert structure_is(T, kind) == passed, (kind, T.name)
            failing += not passed
    assert failing


def test_structure_is_stops_before_a_failing_scan_walks_its_rows(monkeypatch):
    """The H5 mutant with 2.2 = {1, 4} fails M3-mult: structure_is reads the verdict
    off the failed whole-table test, with no cell rebuilt or instance evaluated."""
    S = builtin("Hp", 5).with_entry("prod", 2, 2, {1, 4})
    assert verify_axioms(S, "superfield", stop_on_first=True).witnesses[0][0] == "M3-mult"
    monkeypatch.setattr(axioms, "_unions", _refused)
    monkeypatch.setattr(axioms, "_judged", _refused)
    assert not structure_is(S, "superfield")


def test_cold_check_runs_every_scan_on_each_fresh_structure(monkeypatch):
    """structure_is pays the whole check on every fresh structure: nothing is kept
    from one structure's check for the next.  Every law of the ladder runs."""
    calls = collections.Counter()

    def counting(law):
        def run(view, col):
            calls[law] += 1
            law(view, col)
        return run

    laws = axioms._KIND_SCANS["superfield"]
    assert len(set(laws)) == len(laws) == 15
    monkeypatch.setitem(axioms._KIND_SCANS, "superfield", tuple(map(counting, laws)))
    for _ in range(2):
        assert structure_is(builtin("Hp", 5), "superfield")
    assert calls == {law: 2 for law in laws}


# -- every kernel on exact tables with one or two cells replaced -------------------------


@functools.lru_cache(maxsize=None)
def _exact_sources(k):
    """Exact tables of k elements, as (sum, prod, zero_i, one_i, neg): the built-ins
    and strict rings of that size, and the derived carriers with the product of
    the integers mod k."""
    kaleidoscope = [builtin("Xn", k // 2)] if k % 2 and k > 1 else []
    sources = [S for S in (*(builtin(*a) for a in _BUILTINS.values()), *kaleidoscope,
                           strict_ring(k))
               if len(S.elements) == k]
    out = [(S._sum, S._prod, S.index(S.zero), S.index(S.one), S._neg) for S in sources]
    ring = strict_ring(k)
    for V in (fn_space(builtin("K"), 2), fn_space(builtin("K"), 3), fn_space(builtin("K"), 4),
              fn_space(builtin("Hp", 3), 2), fn_space(builtin("Q2"), 2),
              matrix_space(builtin("K"), 2, 2)):
        if len(V.vectors) == k:
            out.append((V.sum, ring._prod, V.zero_i, 1 % k, V.neg))
    return out


@st.composite
def exact_views(draw, sizes=st.integers(2, 5)):
    """An exact view on 2-5 elements (or sizes): a built-in's or a derived carrier's
    tables with one or two cells replaced by the whole carrier or another mask."""
    k = draw(sizes)
    sum_tab, prod_tab, zero_i, one_i, neg = draw(st.sampled_from(_exact_sources(k)))
    tabs = {"sum": [list(row) for row in sum_tab], "prod": [list(row) for row in prod_tab]}
    whole = (1 << k) - 1
    for _ in range(draw(st.integers(1, 2))):
        op, i, j = draw(st.sampled_from(("sum", "prod"))), draw(st.integers(0, k - 1)), \
            draw(st.integers(0, k - 1))
        tabs[op][i][j] = draw(st.one_of(st.just(whole), st.integers(0, whole)))
    return _View(tuple(range(k)), zero_i, one_i, neg, tabs["sum"], tabs["prod"], False)


def _all_kernels_agree(view):
    _all_assoc_agree(view)
    _kernels_agree(view)
    _per_instance_agree(view)


@settings(max_examples=150, deadline=None)
@given(view=exact_views())
def test_kernels_match_per_instance_loops_on_exact_tables(view):
    _all_kernels_agree(view)


@settings(max_examples=12, deadline=None)
@given(view=exact_views(_BYTE_EDGES))
def test_kernels_match_per_instance_loops_on_exact_tables_at_byte_boundaries(view):
    _all_kernels_agree(view)


# -- distributivity slab by slab ---------------------------------------------------------
#
# On an exact table of more than 8 elements weak and exact distributivity test a slab
# of rows (a, b) at a time, count the rows before its first failing row at once and
# hand that row to record_all; the per-triple loops are their reference.


def _slabs_agree(view, rows):
    """Weak and exact distributivity on the exact view, in slabs of rows rows (a, b)
    (None: the bound _LANE_BYTES sets), agree with the per-triple loops under every
    witness setting, and count a passing table without recording an instance."""
    bound = axioms._LANE_BYTES if rows is None else rows * 64 * view.k
    sizes, by_slabs = set(), axioms._by_slabs

    def spied(col, t, miss, row, per=1):
        def sized(lo, hi):
            sizes.add(hi - lo)
            return miss(lo, hi)
        return by_slabs(col, t, miss and sized, row, per)

    with unittest.mock.patch.multiple(axioms, _LANE_BYTES=bound, _by_slabs=spied):
        refs = [_scans_agree(view, (_scan_weak_dist,), _ref_scan_weak_dist),
                _scans_agree(view, (_scan_hyper_dist,), _ref_scan_hyper_dist)]
    assert max(sizes) == (rows or min(axioms._LANE_BYTES // (64 * view.k), view.k))
    return refs


@st.composite
def late_views(draw, sizes=st.integers(9, 24)):
    """An exact view on 9-24 elements (or sizes): the tables of one of _exact_sources
    as they are, or with one cell in the last third of its rows replaced, so that
    the slabs before the first failing row pass."""
    k = draw(sizes)
    sum_tab, prod_tab, zero_i, one_i, neg = draw(st.sampled_from(_exact_sources(k)))
    tabs = {"sum": [list(row) for row in sum_tab], "prod": [list(row) for row in prod_tab]}
    if draw(st.booleans()):
        op, i, j = draw(st.sampled_from(("sum", "prod"))), draw(st.integers(2 * k // 3, k - 1)), \
            draw(st.integers(0, k - 1))
        tabs[op][i][j] = draw(st.integers(0, (1 << k) - 1))
    return _View(tuple(range(k)), zero_i, one_i, neg, tabs["sum"], tabs["prod"], False)


@settings(max_examples=40, deadline=None)
@given(view=st.one_of(exact_views(st.integers(9, 24)), late_views()),
       rows=st.sampled_from([None, 1, 2, 3]))
def test_distributivity_slabs_match_per_triple_loops_on_exact_tables(view, rows):
    _slabs_agree(view, rows)


@pytest.mark.parametrize("rows", [None, 1, 2, 3])
def test_distributivity_slabs_match_per_triple_loops_on_mutants(rows):
    """F11 and F5[X]/(2+X^2) (11 and 25 elements), as they are and with one sum or
    product cell replaced, in slabs of 1, 2 and 3 rows and of the default bound."""
    F5 = builtin("Fp", 5)
    gf25 = quotient_pair(F5, Poly(F5, (2, 0, 1)))[0]
    rng, failing = random.Random(rows), 0
    for S, n in ((builtin("Fp", 11), 6), (gf25, 1)):
        for T in [S, *rng.sample(list(_single_entry_mutants(S)), n)]:
            refs = _slabs_agree(_View.of_structure(T), rows)
            failing += any(ref.witnesses for ref in refs)
    assert failing


def test_hyperfield_check_of_f43_holds_a_slab_at_a_time():
    """The tensors of F43's distributivity laws (43**3 cells of 6 bytes a side) are
    held a slab at a time: the check peaks under 4 MiB, where one slab of all the
    rows takes over 8 MiB."""
    S = builtin("Fp", 43)
    verify_axioms(S, "hyperfield")  # what is made once per process
    tracemalloc.start()
    try:
        rep = verify_axioms(S, "hyperfield")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.passed and rep.checked > 43 ** 3
    assert peak < 4 * 2 ** 20, peak


# -- one per-instance path -----------------------------------------------------------

# (class, function) of the only place that may call a collector's record: the
# per-instance path itself
_RECORD_SITES = {("_Collector", "record_all")}


def _record_calls(tree):
    """(line, class, function) of each call of .record in a module's tree, with its
    innermost class and function."""
    found = []

    def visit(node, cls, fn):
        if isinstance(node, ast.ClassDef):
            cls, fn = node.name, None
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            fn = node.name
        if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "record":
            found.append((node.lineno, cls, fn))
        for child in ast.iter_child_nodes(node):
            visit(child, cls, fn)

    visit(tree, None, None)
    return found


def test_every_scan_records_through_record_all():
    sites = {}
    for path in sorted(Path(axioms.__file__).parent.glob("*.py")):
        for line, cls, fn in _record_calls(ast.parse(path.read_text())):
            sites.setdefault((cls, fn), []).append(f"{path.name}:{line}")
    assert set(sites) == _RECORD_SITES, sites
    # the walk sees a hand-written record loop inside a nested generator
    loop = ("def _scan(view, col):\n"
            "    def rows():\n"
            "        for i in range(view.k):\n"
            "            col.record('pass', 'x', (i,))\n")
    assert _record_calls(ast.parse(loop)) == [(4, None, "rows")]
