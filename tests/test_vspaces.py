import functools
import itertools
import os
import subprocess
import sys
from operator import or_
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from mvla import (BlowupError, ExtensionPair, Matrix, MvlaError, Poly, StructureError, builtin,
                  certify_algebraic_extension, dimension, extension_space, find_basis,
                  fn_space, is_full, is_linearly_closed, is_linearly_independent, is_subspace,
                  linear_combinations, matrix_space, poly_space, quotient_pair,
                  search_budget, solution_subspace, span, verify_multigroup, verify_vspace)
from mvla.axioms import _Collector
from mvla.structures import _setwise, _union
from mvla.vspaces import VectorSpace, _bundles, _dependence, _subspace_witness
from test_boxes import small_structures


# -- test-local decoder: the index-level tables read on vector tokens --------------


class TokenSpace:
    """A space's tables decoded once into frozensets of vector tokens, with the
    object-level accessors the reference oracles below are written in."""

    def __init__(self, V):
        self.name, self.scalars, self.vectors, self.vzero = V.name, V.scalars, V.vectors, V.vzero
        self.index = V.index
        vs, decode = V.vectors, functools.lru_cache(maxsize=None)(V.set_of)
        self._vsum = {(v, w): decode(c) for v, row in zip(vs, V.sum) for w, c in zip(vs, row)}
        self._action = {(lam, v): decode(c) for lam, row in zip(V.scalars.elements, V.act)
                        for v, c in zip(vs, row)}
        self._vneg = dict(zip(vs, map(vs.__getitem__, V.neg)))

    def canon(self, vs):
        return tuple(sorted(set(vs), key=self.index))

    def vsum_set(self, v, w):
        return self._vsum[v, w]

    def vneg(self, v):
        return self._vneg[v]

    def act(self, lam, v):
        return self._action[lam, v]

    def act_scalar_set(self, lams, v):
        return frozenset().union(*(self.act(lam, v) for lam in lams))

    def vsum_fold(self, sets):
        """Left fold of the vector sum over vector sets; the empty fold is {0}."""
        sets = list(sets)
        if not sets:
            return frozenset([self.vzero])
        acc = frozenset(sets[0])
        for part in sets[1:]:
            acc = frozenset().union(*(self.vsum_set(a, b) for a in acc for b in part))
        return acc


@pytest.fixture(scope="module")
def V9(H3):
    return fn_space(H3, 2)


@pytest.fixture(scope="module")
def h3_closure(H3):
    return is_linearly_closed(H3, 2, 3)


def test_fn_space_axioms(V9):
    assert verify_vspace(V9).passed
    assert TokenSpace(V9).act(2, (1, 0)) == {(2, 0)}


def test_fn_space_full_claim_is_refuted(V9, H3):
    # MV3 with equality fails: the shared-scalar set (1+1)v stays diagonal
    # while v + v is the full coordinate box, already at v = (1,1)
    rep = verify_vspace(V9, full=True)
    assert rep.verdict == "fail"
    axiom, wit = rep.witnesses[0]
    assert axiom == "MV3"
    lam, mu, v = wit
    T = TokenSpace(V9)
    left = T.act_scalar_set(H3.sum_set(lam, mu), v)
    right = T.vsum_fold([T.act(lam, v), T.act(mu, v)])
    assert left < right  # the containment direction of MV3 still holds


def test_f1_is_the_base_additively(H3):
    T = TokenSpace(fn_space(H3, 1))
    for a in H3.elements:
        for b in H3.elements:
            assert T.vsum_set((a,), (b,)) == {(s,) for s in H3.sum_set(a, b)}


def test_matrix_space_multigroup(K):
    V = matrix_space(K, 2, 2)
    T = TokenSpace(V)
    rep = verify_multigroup(T.vectors, T.vsum_set, T.vneg, T.vzero, subject=T.name)
    assert rep.passed
    assert verify_vspace(V).passed


def test_poly_space_truncation_named(H3):
    V = poly_space(H3, 2)
    assert "<= 2" in V.name
    assert len(V.vectors) == 27
    assert verify_vspace(V).passed


def test_spaces_reject_nonpositive_shapes(K):
    for build in (lambda: fn_space(K, 0), lambda: matrix_space(K, -1, -1),
                  lambda: matrix_space(K, 0, 2), lambda: matrix_space(K, 2, 0),
                  lambda: poly_space(K, -1)):
        with pytest.raises(StructureError):
            build()
    assert len(poly_space(K, 0).vectors) == 2
    assert len(matrix_space(K, 1, 2).vectors) == 4


def test_extension_space_axioms(H2, H3, h3_quotient):
    ext = extension_space(ExtensionPair.inclusion(H2, H3))
    assert verify_vspace(ext).passed
    Kq, pair, gamma, _, _ = h3_quotient
    V = extension_space(pair)
    assert verify_vspace(V).passed
    # the full claim fails here too, for the same shared-scalar reason
    rep = verify_vspace(V, full=True)
    assert rep.verdict == "fail"
    assert rep.witnesses[0][0] == "MV3"


def _passing_group_checked(k):
    """What the axiom engine counts for a passing multigroup scan of k vectors:
    nonempty and M1 per ordered pair, M2 per vector, M4 per unordered pair and M3
    per triple."""
    return 2 * k * k + k + k * (k - 1) // 2 + k ** 3


# The largest spaces verified in tier-1.  The checked figures of MV0-MV3 were
# taken from the per-triple associativity scan and must not move; the passing
# vector multigroup adds its own count.
@pytest.mark.parametrize("name, n, checked", [("H3", 4, 21303), ("H5", 3, 84625)])
def test_large_fn_spaces_verify(H3, H5, name, n, checked):
    rep = verify_vspace(fn_space({"H3": H3, "H5": H5}[name], n))
    k = len({"H3": H3, "H5": H5}[name].elements) ** n
    assert (rep.verdict, rep.witnesses, rep.checked, rep.skipped) == \
        ("pass", (), checked + _passing_group_checked(k), 0)


def test_mutated_action_fails_mv0(H3, V9):
    action = [list(row) for row in V9.act]
    action[H3.index(H3.one)][V9.index((1, 0))] = V9.mask_of([(1, 0), (2, 0)])
    broken = VectorSpace("broken", H3, V9.vectors, V9.zero_i, V9.neg, V9.sum, action)
    rep = verify_vspace(broken)
    assert rep.verdict == "fail"
    assert any(ax == "MV0-one" for ax, _ in rep.witnesses)
    T = TokenSpace(broken)
    for axiom, inst in rep.witnesses:
        assert _ref_violated(T, axiom, inst), (axiom, inst)
    _agrees_with_reference(broken, full=False)


# -- the constructor's checks of its tables -----------------------------------------


def _broken(V, zero_i=None, neg=None, sum_tab=None, act_tab=None):
    return VectorSpace("broken", V.scalars, V.vectors,
                       V.zero_i if zero_i is None else zero_i,
                       V.neg if neg is None else neg,
                       V.sum if sum_tab is None else sum_tab,
                       V.act if act_tab is None else act_tab)


def _with_cell(tab, i, j, cell):
    tab = [list(row) for row in tab]
    tab[i][j] = cell
    return tab


def test_constructor_rejects_an_empty_cell(V9):
    with pytest.raises(StructureError, match=r"sum\[1\]\[2\] = 0 is not a nonempty mask"):
        _broken(V9, sum_tab=_with_cell(V9.sum, 1, 2, 0))
    with pytest.raises(StructureError, match=r"act\[2\]\[0\] = 0 is not a nonempty mask"):
        _broken(V9, act_tab=_with_cell(V9.act, 2, 0, 0))


def test_constructor_rejects_a_bit_outside_the_carrier(V9):
    with pytest.raises(StructureError,
                       match=r"act\[2\]\[4\] = 513 is not a nonempty mask of the 9 vectors"):
        _broken(V9, act_tab=_with_cell(V9.act, 2, 4, 1 << 9 | 1))
    with pytest.raises(StructureError, match=r"sum\[8\]\[8\] = -1 is not a nonempty mask"):
        _broken(V9, sum_tab=_with_cell(V9.sum, 8, 8, -1))


def test_constructor_rejects_a_negation_out_of_range(V9):
    for bad in (9, -1):
        neg = list(V9.neg)
        neg[5] = bad
        with pytest.raises(StructureError, match=rf"neg\[5\] = {bad} is not a vector index"):
            _broken(V9, neg=neg)
    with pytest.raises(StructureError, match=r"neg has 8 entries, needs 9"):
        _broken(V9, neg=V9.neg[:8])


def test_constructor_rejects_a_zero_out_of_range(V9):
    for bad in (9, -1):
        with pytest.raises(StructureError, match=rf"zero_i = {bad} is not a vector index"):
            _broken(V9, zero_i=bad)


def test_constructor_rejects_a_wrong_table_shape(V9):
    with pytest.raises(StructureError, match=r"sum is not a 9 x 9 table"):
        _broken(V9, sum_tab=V9.sum[:8])
    with pytest.raises(StructureError, match=r"act is not a 3 x 9 table"):
        _broken(V9, act_tab=V9.act + V9.act[:1])
    with pytest.raises(StructureError, match=r"act is not a 3 x 9 table"):
        _broken(V9, act_tab=[V9.act[0], V9.act[1][:8], V9.act[2]])
    with pytest.raises(StructureError, match=r"sum is not a 9 x 9 table"):
        _broken(V9, sum_tab=[row + [1] if i == 3 else row for i, row in enumerate(V9.sum)])


# -- the tables against a token-level definition ---------------------------------------


def _agrees_with_token_tables(V, vsum_of, act_of, neg_of):
    """V's sum, act and neg equal the masks of the token-level vsum_of(v, w),
    act_of(lam, v) and neg_of(v), read on V's numbering of its vectors."""
    pos = {v: i for i, v in enumerate(V.vectors)}

    def mask(vs):
        return sum(1 << pos[v] for v in set(vs))

    vs = V.vectors
    assert V.sum == [[mask(vsum_of(v, w)) for w in vs] for v in vs], V.name
    assert V.act == [[mask(act_of(lam, v)) for v in vs] for lam in V.scalars.elements], V.name
    assert V.neg == tuple(pos[neg_of(v)] for v in vs), V.name


def _componentwise_agrees(V, F, length):
    assert V.vectors == tuple(itertools.product(F.elements, repeat=length))
    assert V.vzero == (F.zero,) * length
    _agrees_with_token_tables(
        V,
        lambda v, w: itertools.product(*map(F.sum_set, v, w)),
        lambda lam, v: itertools.product(*(F.prod_set(lam, a) for a in v)),
        lambda v: tuple(map(F.neg, v)))


_BUILTINS = {"K": ("K",), "Q2": ("Q2",), "H2": ("Hp", 2), "H3": ("Hp", 3),
             "H5": ("Hp", 5), "H7": ("Hp", 7), "X1": ("Xn", 1), "X2": ("Xn", 2),
             "X3": ("Xn", 3), "F2": ("Fp", 2), "F3": ("Fp", 3), "F5": ("Fp", 5)}


@pytest.mark.parametrize("name", sorted(_BUILTINS))
def test_fn_space_tables_match_the_token_definition(name):
    F = builtin(*_BUILTINS[name])
    for n in (1, 2, 3) + ((4,) if name == "H3" else ()):
        _componentwise_agrees(fn_space(F, n), F, n)


def test_matrix_and_poly_space_tables_match_the_token_definition(H2, K):
    _componentwise_agrees(matrix_space(H2, 2, 2), H2, 4)
    _componentwise_agrees(poly_space(K, 3), K, 4)


def test_extension_space_tables_match_the_token_definition(h3_quotient):
    Kq, pair, _, _, _ = h3_quotient
    f = pair.embedding.mapping
    V = extension_space(pair)
    assert (V.vectors, V.vzero) == (Kq.elements, Kq.zero)
    _agrees_with_token_tables(V, Kq.sum_set, lambda lam, v: Kq.prod_set(f[lam], v), Kq.neg)


# -- differential check against the object-level scan the view replaced --------


def _ref_violated(V, axiom, inst, full=False):
    """Single-instance re-evaluation of one vector-space axiom over frozensets;
    V is a TokenSpace."""
    F, op = V.scalars, V.vsum_set

    def union(sets):
        return frozenset().union(*sets)

    law = (lambda x, y: x == y) if full else (lambda x, y: x <= y)
    if axiom == "group-M2":
        (a,) = inst
        return op(a, V.vzero) != {a}
    if axiom == "group-M1":
        a, b, c = inst
        return c in op(a, b) and (a not in op(c, V.vneg(b)) or b not in op(V.vneg(a), c))
    if axiom == "group-M4":
        a, b = inst
        return op(a, b) != op(b, a)
    if axiom == "group-M3":
        a, b, c = inst
        return not (union(op(x, c) for x in op(a, b))
                    <= union(op(a, y) for y in op(b, c)))
    if axiom == "MV0-one":
        return V.act(F.one, inst[0]) != {inst[0]}
    if axiom == "MV0-zero":
        return V.act(F.zero, inst[0]) != {V.vzero}
    if axiom == "MV1":
        lam, mu, v = inst
        return (V.act_scalar_set(F.prod_set(lam, mu), v)
                != union(V.act(lam, w) for w in V.act(mu, v)))
    if axiom == "MV2":
        lam, v, w = inst
        left = union(V.act(lam, u) for u in op(v, w))
        return not law(left, V.vsum_fold([V.act(lam, v), V.act(lam, w)]))
    if axiom == "MV3":
        lam, mu, v = inst
        left = V.act_scalar_set(F.sum_set(lam, mu), v)
        return not law(left, V.vsum_fold([V.act(lam, v), V.act(mu, v)]))
    raise AssertionError(axiom)


def _ref_group_instances(V):
    """Vector multigroup instances in the order of the object-level loops,
    with the c of M1 taken in carrier order rather than frozenset order."""
    vs = V.vectors
    yield from (("group-M2", (a,)) for a in vs)
    for a, b in itertools.product(vs, repeat=2):
        yield from (("group-M1", (a, b, c)) for c in V.canon(V.vsum_set(a, b)))
        yield "group-M4", (a, b)
    yield from (("group-M3", t) for t in itertools.product(vs, repeat=3))


def _ref_action_instances(V):
    vs, F = V.vectors, V.scalars
    for v in vs:
        yield "MV0-one", (v,)
        yield "MV0-zero", (v,)
    yield from (("MV1", t) for t in itertools.product(F.elements, F.elements, vs))
    yield from (("MV2", t) for t in itertools.product(F.elements, vs, vs))
    yield from (("MV3", t) for t in itertools.product(F.elements, F.elements, vs))


def _ref_verify_vspace(V, full=False, limit=3):
    """(verdict, witnesses, checked) as the object-level loops reported them, with
    the engine's count of a passing multigroup scan in checked."""
    def scan(col, instances):
        for axiom, inst in instances:
            if col.done:
                return
            col.record("fail" if _ref_violated(V, axiom, inst, full) else "pass",
                       axiom, inst)

    group = _Collector(limit=limit)
    scan(group, _ref_group_instances(V))
    col = _Collector(limit=limit)
    for ax, wit in group.witnesses:  # the group's witnesses lead
        col.record("fail", ax, wit)
    scan(col, _ref_action_instances(V))
    verdict = "fail" if col.witnesses else "pass"
    return verdict, tuple(col.witnesses), col.checked + _passing_group_checked(len(V.vectors))


def _agrees_with_reference(V, full):
    rep = verify_vspace(V, full=full)
    T = TokenSpace(V)
    verdict, witnesses, checked = _ref_verify_vspace(T, full)
    assert rep.verdict == verdict, (V.name, full)
    group_failed = any(ax.startswith("group-") for ax, _ in witnesses)
    assert group_failed == any(ax.startswith("group-") for ax, _ in rep.witnesses)
    if not group_failed:
        assert (rep.witnesses, rep.checked) == (witnesses, checked), (V.name, full)
    for axiom, inst in rep.witnesses:
        assert _ref_violated(T, axiom, inst, full), (V.name, axiom, inst)


def test_view_scan_matches_object_level_reference(H2, H3, H5, K, Q2, F3, h3_quotient):
    spaces = [fn_space(H3, 2), fn_space(H3, 3), fn_space(K, 5), fn_space(Q2, 3),
              fn_space(builtin("Xn", 1), 3), fn_space(H5, 2), fn_space(F3, 3),
              matrix_space(H2, 2, 2), poly_space(K, 3),
              extension_space(ExtensionPair.inclusion(H2, H3)),
              extension_space(h3_quotient[1])]
    for V in spaces:
        for full in (False, True):
            _agrees_with_reference(V, full)


def test_report_with_a_failing_vector_sum_keeps_group_and_action_witnesses(H3):
    """H3^2 with (0,1) + (1,1) the whole carrier fails M1, M4 and M3 once each
    before the witness limit; MV0-MV3 then run on the same collector.  The reference
    comparison above skips such a report, so its witnesses and counts are pinned."""
    V = fn_space(H3, 2)
    broken = _broken(V, sum_tab=_with_cell(V.sum, 1, 4, (1 << 9) - 1))
    group = (("group-M1", ((0, 1), (1, 1), (0, 0))), ("group-M4", ((0, 1), (1, 1))),
             ("group-M3", ((0, 2), (0, 2), (1, 1))))
    mv2 = ("MV2", (2, (0, 1), (1, 1)))
    pinned = {(False, 1): (group[:1], 104), (False, 3): (group, 392),
              (False, 4): (group + (mv2,), 1211), (False, 6): (group + (mv2,), 1359),
              (True, 1): (group[:1], 104), (True, 3): (group, 392),
              (True, 4): (group + (mv2,), 1211),
              (True, 6): (group + (mv2, ("MV2", (2, (0, 2), (2, 2))),
                                   ("MV3", (1, 1, (1, 1)))), 1319)}
    for (full, limit), (witnesses, checked) in pinned.items():
        rep = verify_vspace(broken, full=full, witness_limit=limit)
        assert (rep.verdict, rep.witnesses, rep.checked, rep.skipped) == \
            ("fail", witnesses, checked, 0), (full, limit)


def test_verify_vspace_refuses_a_witness_limit_below_one(K):
    # at 0 a failure kept as no witness read as a pass
    with pytest.raises(StructureError, match="witness limit"):
        verify_vspace(fn_space(K, 3), full=True, witness_limit=0)


def test_pinned_vspace_reports_count_both_scans():
    # every `vspace` report pinned for the CLI counts the reference MV0-MV3 scan and
    # the passing vector multigroup scan; the report lines are parsed, not copied
    from mvla.cli import load_structure
    build = {"fn": fn_space, "matrix": lambda S, n: matrix_space(S, n, n), "poly": poly_space}
    seen = 0
    for name in ("axiom_verb_reports.txt", "box_verb_reports.txt"):
        text = (Path(__file__).parent / "data" / name).read_text()
        for section in text.split("### mvla ")[1:]:
            argv, report = section.split("\n", 1)
            if not argv.startswith("vspace "):
                continue
            args = argv.split()
            space = args[args.index("--space") + 1] if "--space" in args else "fn"
            V = build[space](load_structure(args[args.index("--structure") + 1]),
                             int(args[args.index("--n") + 1]))
            _, _, checked = _ref_verify_vspace(TokenSpace(V), full="--full" in args)
            assert f"\nchecked={checked}\n" in report, argv
            seen += 1
    assert seen == 4


def test_view_scan_matches_reference_on_mutated_scalars(K, Q2, H3):
    for S in (K, Q2, H3, builtin("Xn", 1)):
        subsets = [c for r in range(1, len(S.elements) + 1)
                   for c in itertools.combinations(S.elements, r)]
        for op, a, b in itertools.product(("sum", "prod"), S.elements, S.elements):
            for new in subsets:
                T = S.with_entry(op, a, b, new)
                for n, full in itertools.product((1, 2), (False, True)):
                    _agrees_with_reference(fn_space(T, n), full)


def test_linear_combinations_base_cases(V9, F3):
    assert linear_combinations(V9, []) == {(0, 0)}
    VF = fn_space(F3, 2)
    line = linear_combinations(VF, [(1, 2)])
    assert line == {(0, 0), (1, 2), (2, 1)}  # the classical span line


def test_linear_combinations_saturate(V9):
    got = linear_combinations(V9, [(1, 0)])
    assert got == {(0, 0), (1, 0), (2, 0)}
    assert linear_combinations(V9, [(1, 1)]) == frozenset(V9.vectors)


def _rescan_meet(V, gens):
    """The meet, as a mask, of every subspace holding the vector indices gens: the
    exhaustive minimality scan, which tests every superset of gens and 0 with the
    subspace predicate (at most 2^(k-1) sets for k vectors)."""
    base = functools.reduce(or_, (1 << g for g in gens), 1 << V.zero_i)
    rest = [1 << i for i in range(len(V.vectors)) if not base >> i & 1]
    meet = (1 << len(V.vectors)) - 1
    for r in range(len(rest) + 1):
        for extra in itertools.combinations(rest, r):
            cand = base | sum(extra)
            if _subspace_witness(V, cand) is None:
                meet &= cand
    return meet


def _check_span(V, A):
    """span(V, A) against the rescan: no subspace holding A misses a member of the
    span, so the span is the meet exactly when its certificate passes; the
    certificate is the subspace predicate's, evaluated once."""
    got, cert = span(V, list(A))
    W, meet = V.mask_of(got), _rescan_meet(V, [V.index(a) for a in A])
    assert W & ~meet == 0, A
    wit = _ref_subspace_witness(TokenSpace(V), got)
    assert cert.witnesses == (() if wit is None else (("subspace", wit),)), A
    assert (W == meet) == cert.passed, A
    assert (cert.kind, cert.checked, cert.notes) == (
        "span-certificate", 1, "minimality by construction")
    return cert


def test_span_equals_intersection_of_subspaces(H3, Q2, F3, K, gf4):
    # the three planes of the benchmark, K^3 and GF(4)|F2, on every set of at most
    # 3 generators
    for V in (*(fn_space(S, 2) for S in (H3, Q2, F3)), fn_space(K, 3),
              extension_space(gf4[1])):
        for r in range(4):
            for A in itertools.combinations(V.vectors, r):
                assert _check_span(V, A).passed, (V, A)


@settings(max_examples=40, deadline=None)
@given(S=small_structures(), data=st.data())
def test_span_equals_the_rescan_meet_on_random_spaces(S, data):
    # at most 9 vectors; with no axiom beyond the units the certificate may fail
    V = fn_space(S, data.draw(st.sampled_from((1, 2, 3) if len(S.elements) == 2 else (1, 2))))
    _check_span(V, data.draw(st.lists(st.sampled_from(V.vectors), max_size=3, unique=True)))


def test_span_monotonicity_and_idempotence(V9):
    # span(span(A)) = span(A); A within B forces span(A) within span(B);
    # and B between A and span(A) collapses the spans
    subsets = [()]
    for r in (1, 2, 3):
        subsets.extend(itertools.combinations(V9.vectors, r))
    spans = {A: linear_combinations(V9, list(A)) for A in subsets}
    for A in subsets:
        SA = spans[A]
        assert linear_combinations(V9, sorted(SA, key=V9.index)) == SA
        for B in subsets:
            if frozenset(A) <= frozenset(B):
                assert SA <= spans[B]
                if frozenset(B) <= SA:
                    assert spans[B] == SA


def test_independence_base_cases(V9):
    assert is_linearly_independent(V9, []) == (True, None)
    dep, wit = is_linearly_independent(V9, [(0, 0)])
    assert not dep and wit
    assert is_linearly_independent(V9, [(1, 0), (0, 1)])[0]
    assert not is_linearly_independent(V9, [(1, 1), (2, 2)])[0]
    with pytest.raises(StructureError):
        is_linearly_independent(V9, [(1, 0), (1, 0)])


def test_quotient_basis_pair_is_independent(h3_quotient):
    Kq, pair, gamma, _, _ = h3_quotient
    V = extension_space(pair)
    one = pair.embedding.mapping[pair.small.one]
    assert is_linearly_independent(V, [one, gamma])[0]


def reference_independence(V, vs, bundle_bound=2):
    """is_linearly_independent as it was: each combination folds its bundles anew;
    V is a TokenSpace."""
    from mvla.structures import msum
    from mvla.vspaces import _bundles
    F = V.scalars
    for combo in itertools.product(_bundles(F, bundle_bound), repeat=len(vs)):
        effective = [msum(F, bundle) for bundle in combo]
        if all(F.zero in c for c in effective):
            continue
        total = V.vsum_fold([V.act_scalar_set(c, v) for c, v in zip(effective, vs)])
        if V.vzero in total:
            return False, tuple(zip(vs, combo))
    return True, None


def test_independence_matches_the_per_combination_fold(H3, Q2, F3, h3_quotient):
    spaces = [fn_space(S, 2) for S in (H3, Q2, F3)] + [extension_space(h3_quotient[1])]
    for V in spaces:
        T = TokenSpace(V)
        vectors = sorted(V.vectors, key=repr)
        for r in (1, 2, 3):
            for vs in itertools.combinations(vectors, r):
                assert is_linearly_independent(V, vs) == reference_independence(T, vs, 2), vs


# -- the walk over distinct effective sets against the product-order scan ---------------


def _product_order_dependence(V, vs):
    """_dependence as it was before the walk over distinct effective sets: every
    choice of one bundle per vector index, in product order, folded anew."""
    F = V.scalars
    bundles = _bundles(F, 2)
    effective = [F.sum_of([1 << F.index(x) for x in bundle]) for bundle in bundles]
    terms = [[_union([row[v] for row in V.act], e) for e in effective] for v in vs]
    zero_bit, zero_vec = 1 << F.zero_i, 1 << V.zero_i
    for combo in itertools.product(range(len(bundles)), repeat=len(vs)):
        if all(effective[i] & zero_bit for i in combo):
            continue  # cannot witness dependence either way
        total = terms[0][combo[0]]
        for row, i in zip(terms[1:], combo[1:]):
            total = _setwise(V.sum, total, row[i])  # not the space's cache
        if total & zero_vec:
            return tuple(bundles[i] for i in combo)
    return None


def _walk_agrees(V, sizes):
    """_dependence equals the product-order scan on every set of nonzero vector
    indices of V of each size."""
    nonzero = [v for v in range(len(V.vectors)) if v != V.zero_i]
    for r in sizes:
        for vs in itertools.combinations(nonzero, r):
            assert _dependence(V, vs) == _product_order_dependence(V, vs), (V.name, vs)


def _gf_pairs(F2, F3):
    """The extension pairs GF(9)|F3 and GF(8)|F2."""
    return [quotient_pair(F, Poly(F, coeffs))[1]
            for F, coeffs in ((F3, (1, 0, 1)), (F2, (1, 1, 0, 1)))]


def test_distinct_effective_sets_at_bound_two():
    # derived from the bundles of each built-in: the walk reads one row entry per
    # distinct effective set, each with the first bundle that has it
    counts = {}
    for name in sorted(_BUILTINS):
        F = builtin(*_BUILTINS[name])
        first = {}
        for bundle in _bundles(F, 2):
            first.setdefault(F.sum_of([1 << F.index(x) for x in bundle]), bundle)
        V = fn_space(F, 1)
        unit = V.index((F.one,))
        assert _dependence(V, [unit]) is None, name
        assert list(V._terms.bundles) == list(first.values()), name
        assert len(V._terms[unit]) == len(first) < len(_bundles(F, 2)), name
        if name.startswith("F"):  # a field: a + b is one element
            assert len(first) == len(F.elements), name
        counts[name] = len(first), len(_bundles(F, 2))
    readme = " ".join((Path(__file__).parents[1] / "README.md").read_text().split())
    (a, x), (b, y), (c, z) = counts["H3"], counts["H5"], counts["H7"]
    assert f"({a} over H3, {b} over H5 and {c} over H7, of {x}, {y} and {z} bundles)" in readme


def test_walk_matches_the_product_order_scan_on_planes(H5, H7):
    _walk_agrees(fn_space(H5, 2), (1, 2, 3))  # 24 + 276 + 2,024 sets
    _walk_agrees(fn_space(H7, 2), (2,))  # 1,128 pairs


def test_walk_matches_the_product_order_scan_on_extensions(F2, F3, h3_quotient):
    for pair in _gf_pairs(F2, F3) + [h3_quotient[1]]:
        _walk_agrees(extension_space(pair), (1, 2, 3, 4))


@settings(max_examples=40, deadline=None)
@given(S=small_structures(), data=st.data())
def test_walk_matches_the_product_order_scan_on_random_spaces(S, data):
    V = fn_space(S, data.draw(st.sampled_from((1, 2))))
    vs = data.draw(st.lists(st.sampled_from(range(len(V.vectors))), min_size=1,
                            max_size=3, unique=True))
    assert _dependence(V, vs) == _product_order_dependence(V, vs)


def test_bases_dimensions_and_degree_witnesses_match_the_product_order_scan(
        monkeypatch, H3, F2, F3, h3_quotient, h3_closure):
    import mvla.extensions as extensions
    import mvla.vspaces as vspaces

    pairs = _gf_pairs(F2, F3) + [h3_quotient[1]]
    closures = {S.name: is_linearly_closed(S, 2, 3) for S in (F2, F3)}
    closures[H3.name] = h3_closure
    spaces = [fn_space(H3, 2), fn_space(F3, 2), fn_space(F2, 3)]

    def answers():
        out = []
        for V in spaces + [extension_space(pair) for pair in pairs]:
            gens = list(reversed(V.vectors))
            out += [find_basis(V, V.vectors), find_basis(V, gens),
                    dimension(V, closures[V.scalars.name])]
        for pair in pairs:
            for bound in (1, 2, 3):
                rep = certify_algebraic_extension(pair, bound)
                out.append((rep.degree_claim_holds, rep.degree_witness))
        return out

    walked = answers()
    monkeypatch.setattr(vspaces, "_dependence", _product_order_dependence)
    monkeypatch.setattr(extensions, "_dependence", _product_order_dependence)
    assert walked == answers()


def test_find_basis_examples(V9):
    assert find_basis(V9, [(1, 0), (0, 1)]) == ((1, 0), (0, 1))
    assert find_basis(V9, [(1, 0), (1, 0), (0, 1)]) == ((1, 0), (0, 1))
    got = find_basis(V9, [(1, 0), (0, 1), (1, 1)])
    assert len(got) == 2
    with pytest.raises(StructureError):
        find_basis(V9, [(1, 0)])  # does not span


def test_no_independent_triples_over_h3_squared(V9):
    for vs in itertools.combinations(V9.vectors, 3):
        assert not is_linearly_independent(V9, vs)[0], vs


def test_dimension_requires_certificate(V9):
    with pytest.raises(StructureError):
        dimension(V9, None)


def test_dimension_refuses_h3_cubed_under_a_bounded_closedness_report(H3, h3_closure):
    # the closedness report passes at max_n=2, max_m=3 only: on H3^3 the greedy basis
    # keeps 2 vectors while the 3 unit vectors pass the independence test
    V = fn_space(H3, 3)
    units = ((0, 0, 1), (0, 1, 0), (1, 0, 0))
    assert h3_closure.passed
    assert len(find_basis(V, V.vectors)) == 2
    assert is_linearly_independent(V, units) == (True, None)
    with pytest.raises(MvlaError) as refused:
        dimension(V, h3_closure)
    assert str(refused.value) == f"independent set {units!r} exceeds the extracted basis size 2"


def test_dimension_rechecks_h5_cubed_under_the_budget(H5):
    # C(125, 3) = 317750 sets of 3 vectors: the re-check scans them all at the default
    # budget and finds the unit vectors independent; below that it names its bound
    V, closure = fn_space(H5, 3), is_linearly_closed(H5, 2, 3)
    units = ((0, 0, 1), (0, 1, 0), (1, 0, 0))
    assert closure.passed and len(find_basis(V, V.vectors)) == 2
    with pytest.raises(MvlaError) as refused:
        dimension(V, closure)
    assert str(refused.value) == f"independent set {units!r} exceeds the extracted basis size 2"
    with search_budget(317749), pytest.raises(BlowupError) as blown:
        dimension(V, closure)
    assert str(blown.value) == "dimension re-check subsets: 317750 exceeds budget 317749"


def test_dimensions(V9, F3, h3_closure, h3_quotient):
    assert dimension(V9, h3_closure) == 2
    closure3 = is_linearly_closed(F3, 2, 3)
    for n in (1, 2):
        assert dimension(fn_space(F3, n), closure3) == n
    Kq, pair, gamma, _, _ = h3_quotient
    V = extension_space(pair)
    assert dimension(V, h3_closure) == 2  # matches deg p with deg p = 2


def test_basis_cardinality_across_generator_orders(V9, h3_quotient, h3_closure):
    gens = [(1, 0), (0, 1), (1, 1)]
    sizes = {len(find_basis(V9, list(p))) for p in itertools.permutations(gens)}
    assert sizes == {2}
    Kq, pair, gamma, _, _ = h3_quotient
    V = extension_space(pair)
    one = pair.embedding.mapping[pair.small.one]
    two = pair.embedding.mapping[2]
    gens_q = [one, gamma, two]
    sizes_q = {len(find_basis(V, list(p))) for p in itertools.permutations(gens_q)}
    assert sizes_q == {2}


def test_independent_sets_never_beat_the_generator_count(V9):
    # with 2 generators spanning the space, independent sets stay at size <= 2
    assert linear_combinations(V9, [(1, 0), (0, 1)]) == frozenset(V9.vectors)
    for size in (3, 4):
        for vs in itertools.combinations(V9.vectors, size):
            indep, _ = is_linearly_independent(V9, vs)
            assert not indep
            if size == 4:
                break  # one 4-set suffices; triples were exhausted above


def test_solution_subspace_trivial_cases(H3):
    ker, cert = solution_subspace(Matrix.identity(H3, 2))
    assert ker == {(0, 0)} and cert.passed
    ker2, cert2 = solution_subspace(Matrix.zero(H3, 1, 2))
    assert len(ker2) == 9 and cert2.passed


def test_solution_subspace_reports_the_closure_gap(H3):
    # the kernel of [[1, 1]] is {0, (1,1), (2,2)} but (1,1)+(2,2) escapes it,
    # so the subspace certificate honestly fails with that witness
    A = Matrix.from_rows(H3, [(1, 1)])
    ker, cert = solution_subspace(A)
    assert ker == {(0, 0), (1, 1), (2, 2)}
    assert cert.verdict == "fail"
    (label, wit), = cert.witnesses
    assert label == "subspace" and wit[0] == "sum"
    _, v, w = wit
    escaped = TokenSpace(fn_space(H3, 2)).vsum_set(v, w) - ker
    assert escaped  # the witness re-checks


def test_solution_subspace_matches_the_value_set_scan(H3, F3, K, Q2, H5):
    """The kernel is every vector with 0 in each value set of Av, as row_value_sets reads it."""
    import random
    from mvla.linsys import homogeneous, row_value_sets
    rng = random.Random(7)
    for F in (H3, F3, K, Q2, H5, builtin("Fp", 5)):
        assert is_full(F)[0]
        for _ in range(6):
            A = Matrix.from_rows(F, [[rng.choice(F.elements) for _ in range(3)]
                                     for _ in range(rng.choice((1, 2)))])
            sysh = homogeneous(A)
            want = {v for v in itertools.product(F.elements, repeat=3)
                    if all(F.zero in s for s in row_value_sets(sysh, Matrix.column(F, v)))}
            assert solution_subspace(A)[0] == want


def test_solution_subspace_requires_full_base(X2):
    with pytest.raises(StructureError):
        solution_subspace(Matrix.from_rows(X2, [(1, 1)]))


def test_strict_field_space_agrees_with_classical(F3):
    import random
    from conftest import nullspace_vector_mod
    rng = random.Random(61)
    VF = fn_space(F3, 2)
    for _ in range(50):
        v = (rng.randrange(3), rng.randrange(3))
        w = (rng.randrange(3), rng.randrange(3))
        got = linear_combinations(VF, [v, w])
        A = [[v[0], w[0]], [v[1], w[1]]]
        # classical span size is 3^rank
        rank = 0
        if any(x for x in v) or any(x for x in w):
            rank = 1
        if nullspace_vector_mod(A, 3) is None:
            rank = 2
        assert len(got) == 3 ** rank
        indep, _ = is_linearly_independent(VF, [v, w]) if v != w else (False, None)
        if v != w:
            assert indep == (rank == 2)


# H3 on string tokens z, p, q, whose hashes move with PYTHONHASHSEED; prints the
# span and solution-subspace certificates and one is_subspace witness
_ZPQ_CERTIFICATES = """
import mvla as m
H3 = m.builtin("Hp", 3)
t = dict(zip(H3.elements, "zpq"))
def table(op):
    return {(t[a], t[b]): {t[c] for c in op(a, b)} for a in H3.elements for b in H3.elements}
S = m.Structure("H3zpq", "zpq", "z", "p", {t[a]: t[H3.neg(a)] for a in H3.elements},
                table(H3.sum_set), table(H3.prod_set))
V = m.fn_space(S, 2)
for gens in ([("p", "p")], [("p", "z"), ("z", "q")]):
    W, cert = m.span(V, gens)
    print(sorted(W), cert)
for rows in ([["p", "p"]], [["p", "q"]], [["z", "z"]]):
    print(m.solution_subspace(m.Matrix.from_rows(S, rows))[1])
print(m.is_subspace(V, {("z", "z"), ("q", "q"), ("p", "p"), ("p", "q")}))
"""


def _certificates_under_seed(seed):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONHASHSEED=str(seed),
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", _ZPQ_CERTIFICATES], env=env,
                          capture_output=True, text=True, check=True)
    return proc.stdout


def test_subspace_witnesses_follow_carrier_order_under_any_hash_seed():
    out = _certificates_under_seed(0)
    assert out == _certificates_under_seed(1)
    assert "witnesses=(('subspace', ('sum', ('p', 'p'), ('p', 'p'))),)" in out
    assert out.endswith("(False, ('sum', ('p', 'p'), ('p', 'p')))\n")


def _ref_subspace_witness(V, W):
    """The subspace predicate's first failure, scanned in carrier order on the
    tokens of a TokenSpace V."""
    members = sorted(W, key=V.index)
    if V.vzero not in W:
        return ("zero",)
    for a, b in itertools.product(members, repeat=2):
        if not V.vsum_set(a, b) <= W:
            return "sum", a, b
    for lam, a in itertools.product(V.scalars.elements, members):
        if not V.act(lam, a) <= W:
            return "scale", lam, a
    return None


def test_subspace_witness_is_the_first_failure_in_carrier_order(H3, Q2, F3):
    for V in (fn_space(S, 2) for S in (H3, Q2, F3)):
        T = TokenSpace(V)
        for r in (1, 2, 3):
            for vs in itertools.combinations(V.vectors, r):
                for W in (frozenset(vs), frozenset(vs) | {V.vzero}):
                    wit = _ref_subspace_witness(T, W)
                    assert is_subspace(V, W) == (wit is None, wit), (V.name, W)
