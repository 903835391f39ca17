import pytest
from hypothesis import given, settings

from mvla import (Ideal, StructureError, all_ideals, builtin, characteristic,
                  classify_ideal, is_full, is_ideal, principal_ideal, quotient,
                  verify_axioms)
from mvla.structures import INF, strict_ring
from test_axioms import _BUILTINS, WINDOWS
from test_boxes import small_structures


def test_characteristic_examples(K, Q2, H3, F2, F3, X2, trop):
    assert characteristic(F2) == 2
    assert characteristic(F3) == 3
    assert characteristic(K) == 2
    assert characteristic(H3) == 2
    assert characteristic(Q2) == 0  # iterated sum of ones stays {1}; cycle detected
    assert characteristic(X2) == 0
    assert characteristic(trop, window=(-5, 5)) == 2


@pytest.mark.parametrize("window", WINDOWS)
def test_every_tropical_window_answers_two(trop, window):
    """Why characteristic has no inconclusive answer on a window: every window
    holds the one, the integer 0 (window_elements refuses any other), and 0 + 0
    holds inf, the zero, so the 2-fold sum of ones meets 0 before a mask could
    repeat or a clipped cell could matter."""
    els, zero_i, one_i, _, cell = trop.window_cells(*window)
    assert (els[one_i], els[zero_i]) == (0, INF)
    assert cell("sum", one_i, one_i) >> zero_i & 1
    assert characteristic(trop, window=window) == 2


def _ref_characteristic(S):
    """The n-fold sums of ones as frozensets of elements, until 0 shows or a set repeats."""
    acc, seen, n = frozenset([S.one]), set(), 1
    while S.zero not in acc:
        seen.add(acc)
        acc = frozenset().union(*(S.sum_set(a, S.one) for a in acc))
        n += 1
        if acc in seen:
            return 0
    return n


@pytest.mark.parametrize("name", sorted(_BUILTINS) + ["Z1", "Z6", "Z12"])
def test_characteristic_matches_the_frozenset_loop_on_builtins(name):
    S = builtin(*_BUILTINS[name]) if name in _BUILTINS else strict_ring(int(name[1:]))
    assert characteristic(S) == _ref_characteristic(S)


@settings(max_examples=60, deadline=None)
@given(S=small_structures())
def test_characteristic_matches_the_frozenset_loop_on_random_structures(S):
    assert characteristic(S) == _ref_characteristic(S)


def _ref_window_characteristic(trop, lo, hi):
    """The loop above on a window, from sum_contains: a sum a + 1 that also holds
    hi + 1 is clipped, and a repeat after a clipped sum is inconclusive (None)."""
    els = trop.window_elements(lo, hi)
    acc, exact, seen, n = frozenset([trop.one]), True, set(), 1
    while trop.zero not in acc:
        seen.add(acc)
        exact = exact and not any(trop.sum_contains(a, trop.one, hi + 1) for a in acc)
        acc = frozenset(x for x in els for a in acc if trop.sum_contains(a, trop.one, x))
        n += 1
        if acc in seen:
            return 0 if exact else None
    return n


@pytest.mark.parametrize("window", WINDOWS)
def test_window_characteristic_matches_the_sum_contains_loop(trop, window):
    assert characteristic(trop, window=window) == _ref_window_characteristic(trop, *window)


def test_characteristic_needs_window_for_lazy(trop):
    from mvla import WindowRequired
    with pytest.raises(WindowRequired):
        characteristic(trop)


def test_characteristic_refuses_a_window_without_the_unit(trop):
    with pytest.raises(StructureError, match="does not hold the unit 0"):
        characteristic(trop, window=(1, 5))


def test_principal_ideal_examples(H3, X2):
    assert principal_ideal(H3, {0}).members == {0}
    assert principal_ideal(H3, {1}).members == set(H3.elements)
    assert principal_ideal(X2, {2}).members == set(X2.elements)


def test_principal_ideal_fixed_point_oracle(Z6):
    # closure agrees with the classical ideal 2Z/6Z
    assert principal_ideal(Z6, {2}).members == {0, 2, 4}
    got = principal_ideal(Z6, {3}).members
    assert got == {0, 3}
    assert is_ideal(Z6, got)


def test_classify_zero_ideal_in_superfields(K, H3):
    for S in (K, H3):
        flags = classify_ideal(S, Ideal(S, frozenset({S.zero})))
        assert flags.is_ideal and flags.maximal and flags.prime and flags.strongly_prime


def test_whole_carrier_not_prime(H3):
    flags = classify_ideal(H3, Ideal(H3, frozenset(H3.elements)))
    assert flags.is_ideal
    assert not flags.prime and not flags.strongly_prime and not flags.maximal


def test_classify_z6_matches_classical(Z6):
    two = classify_ideal(Z6, principal_ideal(Z6, {2}))
    three = classify_ideal(Z6, principal_ideal(Z6, {3}))
    for flags in (two, three):
        assert flags.is_ideal and flags.prime and flags.strongly_prime and flags.maximal
    trivial = classify_ideal(Z6, Ideal(Z6, frozenset({0})))
    assert trivial.is_ideal and not trivial.prime  # 2*3 = 0 in Z6
    assert not trivial.maximal


def test_non_ideal_flags(H3):
    flags = classify_ideal(H3, Ideal(H3, frozenset({1})))
    assert not flags.is_ideal
    assert flags.prime is None and flags.maximal is None


def test_superfields_have_only_trivial_ideals(K, Q2, H3):
    # ideal lattice {0, A} characterizes full superfields
    for S in (K, Q2, H3):
        assert sorted(len(i.members) for i in all_ideals(S)) == [1, len(S.elements)]


def test_whole_ideal_iff_contains_one(Z6, X2):
    for S in (Z6, X2):
        for ideal in all_ideals(S):
            assert (S.one in ideal.members) == (ideal.members == set(S.elements))


def test_quotient_trivial_cases(H3):
    one_elt = quotient(H3, Ideal(H3, frozenset(H3.elements)))
    assert len(one_elt.elements) == 1
    copy = quotient(H3, Ideal(H3, frozenset({0})))
    assert copy.elements == H3.elements
    for a in H3.elements:
        for b in H3.elements:
            assert copy.sum_set(a, b) == H3.sum_set(a, b)
            assert copy.prod_set(a, b) == H3.prod_set(a, b)


def test_quotient_z6_by_three_is_z3(Z6, F3):
    Q = quotient(Z6, principal_ideal(Z6, {3}))
    assert Q.elements == (0, 1, 2)
    for a in Q.elements:
        for b in Q.elements:
            assert Q.sum_set(a, b) == F3.sum_set(a, b)
            assert Q.prod_set(a, b) == F3.prod_set(a, b)


def test_quotient_rejects_non_ideal(H3):
    with pytest.raises(StructureError):
        quotient(H3, Ideal(H3, frozenset({1})))


def test_quotients_are_superrings_and_keep_fullness(K, Q2, H3, X2, Z6):
    # every quotient of a finite superring by an ideal is again a superring,
    # and fullness passes down
    for S in (K, Q2, H3, X2, Z6):
        full_before = is_full(S)[0]
        for ideal in all_ideals(S):
            Q = quotient(S, ideal)
            assert verify_axioms(Q, "superring").passed, (S.name, ideal.canon())
            if full_before:
                assert is_full(Q)[0], (S.name, ideal.canon())


def test_strongly_prime_iff_quotient_superdomain(K, Q2, H3, X2, Z6):
    seven = builtin("Fp", 7)
    for S in (K, Q2, H3, X2, Z6, seven):
        assert len(S.elements) <= 7
        for ideal in all_ideals(S):
            flags = classify_ideal(S, ideal)
            if ideal.members == set(S.elements):
                continue  # quotient collapses; the definition needs a proper ideal
            is_superdomain = verify_axioms(quotient(S, ideal), "superdomain").passed
            assert flags.strongly_prime == is_superdomain, (S.name, ideal.canon())


def test_prime_strongly_prime_empirical_relation(K, Q2, H3, X2, Z6):
    # strongly prime always implies prime; the converse is open for general
    # superrings, so the scan only records that no separation shows up here
    separations = []
    for S in (K, Q2, H3, X2, Z6):
        for ideal in all_ideals(S):
            flags = classify_ideal(S, ideal)
            if flags.strongly_prime:
                assert flags.prime
            if flags.prime and not flags.strongly_prime:
                separations.append((S.name, ideal.canon()))
    assert separations == []


def test_maximal_implies_prime_empirically(K, Q2, H3, X2, Z6):
    for S in (K, Q2, H3, X2, Z6):
        for ideal in all_ideals(S):
            flags = classify_ideal(S, ideal)
            if flags.maximal:
                assert flags.prime, (S.name, ideal.canon())
