import itertools

import pytest
from hypothesis import given, settings, strategies as st

from mvla import (INF, Matrix, Poly, Structure, StructureError, WindowRequired, builtin,
                  fn_space, matrix_space, mprod, mprod_sets, msum, msum_sets, poly_space,
                  structure_is)


def test_krasner_table(K):
    assert K.sum_set(1, 1) == {0, 1}
    assert K.sum_set(1, 0) == {1}
    assert K.prod_set(1, 1) == {1}
    assert K.neg(1) == 1


def test_signs_table(Q2):
    assert Q2.sum_set(1, -1) == {-1, 0, 1}
    assert Q2.sum_set(-1, 1) == {-1, 0, 1}
    assert Q2.sum_set(1, 1) == {1}
    assert Q2.prod_set(-1, -1) == {1}
    assert Q2.neg(1) == -1


def test_h2_equals_k_table_for_table(K, H2):
    assert H2.elements == K.elements
    assert (H2.zero, H2.one) == (K.zero, K.one)
    for a in K.elements:
        assert H2.neg(a) == K.neg(a)
        for b in K.elements:
            assert H2.sum_set(a, b) == K.sum_set(a, b)
            assert H2.prod_set(a, b) == K.prod_set(a, b)


def test_x1_equals_q2_up_to_sign_tokens(Q2):
    X1 = builtin("Xn", 1)
    assert set(X1.elements) == set(Q2.elements)
    for a in Q2.elements:
        for b in Q2.elements:
            assert X1.sum_set(a, b) == Q2.sum_set(a, b)
            assert X1.prod_set(a, b) == Q2.prod_set(a, b)


def test_hp_tables(H3):
    assert H3.sum_set(1, 1) == {0, 1, 2}
    assert H3.sum_set(1, 2) == {1, 2}
    assert H3.sum_set(0, 2) == {2}
    assert H3.prod_set(2, 2) == {1}
    assert H3.neg(2) == 2


def test_kaleidoscope_tables(X2):
    assert X2.sum_set(2, -2) == {-2, -1, 0, 1, 2}
    assert X2.sum_set(2, 1) == {2}
    assert X2.sum_set(1, 2) == {2}
    assert X2.prod_set(2, -1) == {-2}
    assert X2.prod_set(0, 2) == {0}


def test_msum_examples(K, Q2):
    assert msum(K, []) == {0}
    assert msum(K, [1, 1]) == {0, 1}
    assert msum(Q2, [1, -1, 1]) == {-1, 0, 1}


def test_mprod_examples(X2, H3):
    assert mprod(X2, []) == {1}
    assert mprod(X2, [2, -1]) == {-2}
    assert mprod(H3, [2, 2]) == {1}


def test_fold_rejects_foreign_elements(K):
    with pytest.raises(StructureError):
        msum(K, [1, 7])
    with pytest.raises(StructureError):
        mprod(K, [3])


def test_builtin_validation():
    with pytest.raises(StructureError):
        builtin("Hp", 4)
    with pytest.raises(StructureError):
        builtin("Fp", 6)
    with pytest.raises(StructureError):
        builtin("Xn", -1)
    with pytest.raises(StructureError):
        builtin("nope")


@pytest.mark.parametrize("name, param, message", [
    ("Xn", "2", "Xn needs an integer parameter, got '2'"),
    ("Hp", "5", "Hp needs a prime parameter, got '5'"),
    ("Fp", 3.0, "Fp needs a prime parameter, got 3.0"),
    ("Xn", True, "Xn needs an integer parameter, got True"),
    ("Hp", None, "Hp needs a prime parameter, got None"),
    ("K", 3, "K takes no parameter, got 3"),
    ("Q2", 2, "Q2 takes no parameter, got 2"),
    ("Trop", 0, "Trop takes no parameter, got 0"),
    ("Xn", 0, "Xn needs n >= 1, got 0"),
    ("Xn", -1, "Xn needs n >= 1, got -1"),
])
def test_builtin_refuses_a_bad_parameter(name, param, message):
    # each is a StructureError naming the parameter; none is a TypeError or a structure
    with pytest.raises(StructureError) as info:
        builtin(name, param)
    assert str(info.value) == message


def test_builtin_takes_an_int_parameter():
    assert builtin("Xn", 1).elements == (-1, 0, 1)
    assert builtin("Hp", 5).name == "H5" and builtin("Fp", 3).name == "F3"
    assert builtin("K", None).name == "K"


def test_strict_ring_is_classical(Z6):
    assert Z6.is_strict
    assert Z6.sum_set(4, 5) == {3}
    assert Z6.prod_set(2, 3) == {0}
    assert Z6.neg(2) == 4


def test_canonical_order_and_masks(H3):
    assert H3.canon([2, 0, 2, 1]) == (0, 1, 2)
    m = H3.mask_of([2, 0])
    assert H3.set_of(m) == {0, 2}
    assert H3.add_masks(m, m) == H3.mask_of(msum_sets(H3, [[2, 0], [2, 0]]))


def test_with_entry_is_a_copy(K, Q2, H3):
    Km = K.with_entry("sum", 1, 1, {1})
    assert Km.sum_set(1, 1) == {1}
    assert K.sum_set(1, 1) == {0, 1}
    assert Km.name == "K*"
    with pytest.raises(StructureError):
        K.with_entry("sum", 1, 1, set())
    for bad in ({2}, {0, 2}):
        with pytest.raises(StructureError):
            K.with_entry("prod", 1, 1, bad)
    with pytest.raises(StructureError):
        K.with_entry("sum", 2, 1, {1})
    # every single-entry mutant equals the structure built from token dicts
    for S in (K, Q2, H3):
        els = S.elements
        tables = {op: {(x, y): getattr(S, f"{op}_set")(x, y) for x in els for y in els}
                  for op in ("sum", "prod")}
        neg = {e: S.neg(e) for e in els}
        subsets = [set(c) for r in range(1, len(els) + 1)
                   for c in itertools.combinations(els, r)]
        for op, (a, b), new in itertools.product(tables, itertools.product(els, repeat=2),
                                                 subsets):
            tabs = {o: dict(t) for o, t in tables.items()}
            tabs[op][(a, b)] = new
            want = Structure("M", els, S.zero, S.one, neg, tabs["sum"], tabs["prod"])
            assert S.with_entry(op, a, b, new, name="M") == want, (S.name, op, a, b, new)


def test_inverses(H3, X2):
    assert H3.inverses(2) == (2,)
    assert H3.inverse(0) is None
    assert X2.inverses(2) == ()  # magnitude-dominant product has no inverse for 2


def test_tropical_rules(trop):
    assert trop.neg(3) == 3
    assert trop.prod_value(2, 3) == 5
    assert trop.prod_value(INF, 3) == INF
    assert trop.sum_contains(2, 5, 2)
    assert not trop.sum_contains(2, 5, 5)
    assert trop.sum_contains(2, 2, 7)
    assert trop.sum_contains(2, 2, INF)
    assert not trop.sum_contains(2, 2, 1)
    assert trop.window_elements(-2, 2) == (-2, -1, 0, 1, 2, INF)
    with pytest.raises(WindowRequired):
        trop.sum_set(1, 1)


@pytest.mark.parametrize("lo,hi", [(1, 5), (-5, -1), (2, 1)])
def test_a_tropical_window_must_hold_the_unit(trop, lo, hi):
    # every window table indexes 0, the multiplicative unit
    with pytest.raises(StructureError, match=rf"window \[{lo}, {hi}\] does not hold the unit 0"):
        trop.window_elements(lo, hi)


@pytest.mark.parametrize("entry", [
    lambda T: fn_space(T, 2),
    lambda T: matrix_space(T, 2, 2),
    lambda T: poly_space(T, 1),
    lambda T: Poly(T, [1, 1]),
    lambda T: Matrix.from_rows(T, [[1, 0], [INF, 2]]),
    lambda T: structure_is(T, "superfield"),
], ids=["fn_space", "matrix_space", "poly_space", "Poly", "Matrix.from_rows", "structure_is"])
def test_finite_entry_points_refuse_the_lazy_structure(trop, entry):
    with pytest.raises(WindowRequired):
        entry(trop)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["K", "Q2", "H3", "X2"]), st.data())
def test_fold_order_independence(name, data):
    # sums and products of element sequences do not depend on the entry order
    S = {"K": builtin("K"), "Q2": builtin("Q2"), "H3": builtin("Hp", 3),
         "X2": builtin("Xn", 2)}[name]
    xs = data.draw(st.lists(st.sampled_from(S.elements), min_size=0, max_size=5))
    perm = data.draw(st.permutations(xs))
    assert msum(S, xs) == msum(S, perm)
    assert mprod(S, xs) == mprod(S, perm)


def test_mprod_sets_fold(K):
    assert mprod_sets(K, []) == {1}
    assert mprod_sets(K, [[0, 1], [1]]) == {0, 1}


def test_all_builtin_result_sets_nonempty():
    specs = [("K", None), ("Q2", None), ("Hp", 3), ("Hp", 5), ("Hp", 7),
             ("Xn", 2), ("Xn", 3), ("Xn", 4), ("Fp", 2), ("Fp", 3), ("Fp", 5)]
    for name, param in specs:
        S = builtin(name, param)
        for a in S.elements:
            for b in S.elements:
                assert S.sum_set(a, b)
                assert S.prod_set(a, b)
