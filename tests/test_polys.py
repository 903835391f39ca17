import itertools

import pytest
from hypothesis import given, settings, strategies as st

from mvla import (NEG_INF, Poly, PolySet, Structure, StructureError, builtin,
                  divmod_holds, evaluate, is_effective_root, is_irreducible,
                  is_root, padd, padd_sets, pdeg_laws_check, pdivmod, pmul,
                  pmul_fold)
from mvla.polys import (_ideal_members_bounded, all_polys, deg_sum_min_counterexamples,
                        psum_members)
from conftest import poly_divmod_mod, poly_eval_mod


def members(ps):
    return frozenset(ps.members())


def test_canonical_form(K):
    assert Poly(K, (1, 0, 0)).coeffs == (1,)
    assert Poly(K, (0, 0)).is_zero
    assert Poly(K, ()).degree == NEG_INF
    assert Poly(K, (0, 1)).degree == 1
    with pytest.raises(StructureError):
        Poly(K, (7,))


def test_padd_examples(K, Q2):
    f = Poly(K, (1, 1))
    zero = Poly.zero(K)
    assert members(padd(f, zero)) == {f}
    assert padd(Poly.constant(K, 1), Poly.constant(K, 1)) == PolySet(K, [{0, 1}])
    got = members(padd(Poly(Q2, (1, 1)), Poly(Q2, (-1, 1))))
    # constant ranges over 1+(-1); the X coefficient is stuck at 1+1 = {1}
    assert got == {Poly(Q2, (c, 1)) for c in (-1, 0, 1)}


def test_pmul_examples(K, H3):
    f = Poly(K, (1, 1))
    assert members(pmul(f, Poly.one(K))) == {f}
    assert members(pmul(f, f)) == {Poly(K, (1, 0, 1)), Poly(K, (1, 1, 1))}
    assert members(pmul(Poly.zero(H3), f2 := Poly(H3, (1, 2)))) == {Poly.zero(H3)}


def test_naive_quadratic_identity_discrepancy(Q2, H3):
    # the convolution rule puts -(a+b) in the middle coefficient; the naive
    # sign-flipped identity says a-b, which differs once negation is not the identity
    a = b = 1
    conv = pmul(Poly(Q2, (Q2.neg(a), 1)), Poly(Q2, (Q2.neg(b), 1)))
    assert conv.coeff_set(1) == {-1}           # -a - b
    naive_middle = Q2.sum_set(a, Q2.neg(b))  # a - b under the naive reading
    assert naive_middle == {-1, 0, 1}
    assert conv.coeff_set(1) != naive_middle
    # over Hp negation is the identity, so the two readings coincide
    conv3 = pmul(Poly(H3, (H3.neg(1), 1)), Poly(H3, (H3.neg(2), 1)))
    assert conv3.coeff_set(1) == H3.sum_set(1, H3.neg(2))


def test_monomial_identities(K, H3):
    # X^n X^m = {X^(n+m)} and a X^n = {a X^n}
    for S in (K, H3):
        for n in range(3):
            for m in range(3):
                got = members(pmul(Poly.x_power(S, n), Poly.x_power(S, m)))
                assert got == {Poly.x_power(S, n + m)}
        for a in S.elements:
            got = members(pmul(Poly.constant(S, a), Poly.x_power(S, 2)))
            assert got == {Poly.x_power(S, 2, coeff=a)}


def test_shift_identity(H3):
    # alpha X^m equals the shifted coefficient tuple, exactly
    for coeffs in itertools.product(H3.elements, repeat=2):
        alpha = Poly(H3, coeffs)
        got = members(pmul(alpha, Poly.x_power(H3, 2)))
        assert got == {alpha.shift(2)}


def test_monomial_decomposition(H3):
    # alpha = a0 + a1 X + ... + at X^t as a singleton memberwise sum
    for coeffs in itertools.product(H3.elements, repeat=3):
        alpha = Poly(H3, coeffs)
        monos = [frozenset([Poly.x_power(H3, i, coeff=c)])
                 for i, c in enumerate(alpha.coeffs)]
        if not monos:
            continue
        assert psum_members(monos, H3) == {alpha}


def test_bounded_zero_divisor_transfer(H3, Z6):
    # products of nonzero polynomials avoid the zero polynomial over a
    # superdomain base, and pick it up over a base with zero divisors
    zero3 = Poly.zero(H3)
    for f in all_polys(H3, 1, include_zero=False):
        for g in all_polys(H3, 1, include_zero=False):
            assert zero3 not in members(pmul(f, g))
    z6 = Poly.zero(Z6)
    assert z6 in members(pmul(Poly.constant(Z6, 2), Poly.constant(Z6, 3)))


def test_constant_embedding_is_full(H3):
    # sums and products of constants match the base setwise
    for a in H3.elements:
        for b in H3.elements:
            got_sum = members(padd(Poly.constant(H3, a), Poly.constant(H3, b)))
            assert got_sum == {Poly(H3, (c,)) for c in H3.sum_set(a, b)}
            got_prod = members(pmul(Poly.constant(H3, a), Poly.constant(H3, b)))
            assert got_prod == {Poly(H3, (c,)) for c in H3.prod_set(a, b)}


def _factor_identity(S, left_coeffs, f):
    """Setwise: (sum of monomials) * f versus split products, memberwise."""
    whole = Poly(S, left_coeffs)
    lhs = members(pmul(whole, f))
    return whole, lhs


@pytest.mark.parametrize("base", ["H3", "Q2"])
def test_factor_splitting_identities(base):
    # (b + cX) f = b f + cX f and the higher splittings, setwise
    S = builtin("Hp", 3) if base == "H3" else builtin("Q2")
    polys = [f for f in all_polys(S, 2)]
    for f in polys:
        for b in S.elements:
            for c in S.elements:
                whole = Poly(S, (b, c))
                lhs = members(pmul(whole, f))
                rhs = members(padd_sets(pmul(Poly.constant(S, b), f),
                                        pmul(Poly.x_power(S, 1, coeff=c), f)))
                assert lhs == rhs, (f, b, c)


def test_factor_splitting_at_any_cut(H3):
    # (g + d X^r) f = g f + d X^r f whenever r exceeds deg g
    f = Poly(H3, (1, 2))
    for g_coeffs in itertools.product(H3.elements, repeat=2):
        g = Poly(H3, g_coeffs)
        for d in H3.elements:
            r = 2
            whole_coeffs = g.padded(r) + (d,)
            whole = Poly(H3, whole_coeffs)
            lhs = members(pmul(whole, f))
            rhs = members(padd_sets(pmul(g, f),
                                    pmul(Poly.x_power(H3, r, coeff=d), f)))
            assert lhs == rhs


def test_degree_laws(H3, F3, Q2):
    for S in (H3, F3, Q2):
        rep = pdeg_laws_check(S, 2)
        assert rep.passed, rep.witnesses[:2]
    # the tempting lower bound genuinely fails, already over the strict field
    for S in (H3, F3):
        examples = deg_sum_min_counterexamples(S, 2)
        assert examples
        f, g, t = examples[0]
        assert t in padd(f, g).members()
        assert t.degree < min(f.degree, g.degree) and g != f.neg()


def test_degree_law_exclusion_clause(Q2):
    # f = -g is excluded: the sum contains the zero polynomial
    f = Poly.constant(Q2, 1)
    assert Poly.zero(Q2) in padd(f, f.neg()).members()


def test_pdivmod_trivial_pairs(H3):
    f = Poly(H3, (1, 0, 1))
    assert pdivmod(f, Poly.one(H3)) == ((f, Poly.zero(H3)),)
    pairs = pdivmod(f, f, all_pairs=True)
    assert (Poly.one(H3), Poly.zero(H3)) in pairs


def test_pdivmod_membership_and_nonuniqueness(H3):
    f, g = Poly(H3, (1, 0, 1)), Poly(H3, (1, 1))
    pairs = pdivmod(f, g, all_pairs=True)
    assert len(pairs) >= 2  # 1 - 1 is not {0}, so many remainders qualify
    for q, r in pairs:
        assert divmod_holds(f, g, q, r)
        assert r.is_zero or r.degree < g.degree


def test_pdivmod_low_degree_and_zero(H3):
    g = Poly(H3, (1, 1))
    assert pdivmod(Poly.constant(H3, 2), g) == ((Poly.zero(H3), Poly.constant(H3, 2)),)
    assert pdivmod(Poly.zero(H3), g) == ((Poly.zero(H3), Poly.zero(H3)),)
    with pytest.raises(StructureError):
        pdivmod(g, Poly.zero(H3))


def test_pdivmod_requires_superfield(X2):
    with pytest.raises(StructureError):
        pdivmod(Poly(X2, (1, 1)), Poly(X2, (1,)))


def test_pdivmod_matches_classical_over_strict_fields(F3):
    import random
    rng = random.Random(7)
    for _ in range(50):
        f = Poly(F3, [rng.randrange(3) for _ in range(rng.randint(1, 4))])
        g = Poly(F3, [rng.randrange(3) for _ in range(rng.randint(1, 3))])
        if g.is_zero:
            continue
        pairs = pdivmod(f, g, all_pairs=True)
        assert len(pairs) == 1  # strict bases make the division unique
        q, r = pairs[0]
        cq, cr = poly_divmod_mod(f.coeffs, g.coeffs, 3)
        assert q.coeffs == cq and r.coeffs == cr


def test_evaluate_examples(K, H3):
    assert evaluate(Poly.constant(K, 1), 0) == {1}
    assert evaluate(Poly(K, (1, 1, 1)), 1) == {0, 1}  # whole carrier
    for alpha in H3.elements:
        f = Poly(H3, (H3.neg(alpha), 1))
        assert H3.zero in evaluate(f, alpha)


def test_evaluate_matches_classical(F3):
    import random
    rng = random.Random(11)
    for _ in range(50):
        coeffs = [rng.randrange(3) for _ in range(rng.randint(0, 4))]
        f = Poly(F3, coeffs)
        x = rng.randrange(3)
        assert evaluate(f, x) == {poly_eval_mod(f.coeffs, x, 3)}


def test_evaluate_needs_morphic_inclusion(K, Q2, H2, H3):
    f = Poly(K, (1, 1))
    with pytest.raises(StructureError):
        evaluate(f, 1, Q2)  # K into Q2 is not a morphism
    got = evaluate(Poly(H2, (1, 1)), 2, H3)  # H2 into H3 is fine
    assert got == H3.sum_set(1, 2)
    with pytest.raises(StructureError):
        evaluate(f, 9, K)


def test_krasner_is_algebraically_closed_at_desk_scale(K):
    for f in all_polys(K, 3, include_zero=False):
        if f.degree < 1:
            continue
        assert is_root(f, 0) or is_root(f, 1)


def test_effective_roots_reverify(H3):
    f = Poly(H3, (1, 0, 1))
    g = is_effective_root(f, 1)
    assert g is not None
    assert f in pmul(Poly(H3, (H3.neg(1), 1)), g)
    # effective root implies root
    assert is_root(f, 1)


def test_irreducibility_classical(F2):
    verdict = is_irreducible(Poly(F2, (0, 0, 1)))  # X^2 = X * X
    assert not verdict.irreducible
    assert verdict.witness == Poly(F2, (0, 1))
    assert is_irreducible(Poly(F2, (1, 1, 1))).irreducible
    assert not is_irreducible(Poly(F2, (1, 0, 1))).irreducible  # (X+1)^2


def test_irreducibility_preconditions(H3, X2):
    with pytest.raises(StructureError):
        is_irreducible(Poly.constant(H3, 1))
    with pytest.raises(StructureError):
        is_irreducible(Poly(X2, (1, 1)))


def test_pmul_fold_memberwise(H3):
    # iterated products go through members, per the finite product convention
    fs = [Poly(H3, (1, 1)), Poly(H3, (2, 1)), Poly(H3, (1, 1))]
    got = pmul_fold(fs)
    assert got
    assert all(t.degree == 3 for t in got)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(["K", "Q2", "H3"]), st.data())
def test_poly_ops_commute(name, data):
    S = {"K": builtin("K"), "Q2": builtin("Q2"), "H3": builtin("Hp", 3)}[name]
    coeffs = st.lists(st.sampled_from(S.elements), min_size=0, max_size=3)
    f = Poly(S, data.draw(coeffs))
    g = Poly(S, data.draw(coeffs))
    assert padd(f, g) == padd(g, f)
    assert pmul(f, g) == pmul(g, f)


# -- the ideal-slice kernel against the layer loop it replaced ---------------------


def reference_slice(u, deg_cap, h_deg, max_terms=3):
    """The bounded ideal slice by the plain layer loop over Poly boxes.

    L1 = B (every member of h*u, deg h <= h_deg), L(t+1) = L(t) + B memberwise,
    then the union of the layers cut to degree <= deg_cap, as index tuples of
    length deg_cap + 1.  Each distinct box p + q is materialised once.
    """
    S = u.base
    base = {t for h in all_polys(S, h_deg) for t in pmul(h, u).members()}
    tiers, layer = set(base), base
    for _ in range(max_terms - 1):
        boxes = {padd(p, q) for p in layer for q in base}
        layer = {t for box in boxes for t in box.members()}
        tiers |= layer
    return frozenset(tuple(S.index(c) for c in p.padded(deg_cap + 1))
                     for p in tiers if p.is_zero or p.degree <= deg_cap)


DIFF_BASES = {"K": ("K",), "F2": ("Fp", 2), "F3": ("Fp", 3), "H2": ("Hp", 2),
              "H3": ("Hp", 3), "Q2": ("Q2",), "X1": ("Xn", 1)}


@pytest.fixture(scope="module")
def diff_bases():
    return {name: builtin(*spec) for name, spec in DIFF_BASES.items()}


@pytest.fixture(scope="module")
def reference_slices():
    """Reference slices with 3 terms, cut to degree <= cap, keyed (u, cap, h_deg);
    the slice and the verdict checks share them."""
    cache = {}

    def get(u, cap, h_deg):
        key = (u, cap, h_deg)
        if key not in cache:
            cache[key] = reference_slice(*key)
        return cache[key]
    return get


def _nonconstant(S, degree):
    return [u for u in all_polys(S, degree) if not u.is_zero and u.degree >= 1]


# is_irreducible's own bound (deg h = cap = degree), except over Q2 and X1,
# where the reference loop needs about 5 s per base at deg h <= 2
@pytest.mark.parametrize("name,degree,h_deg", [(n, 2, 2) for n in ("K", "F2", "F3", "H2", "H3")]
                         + [("F2", 3, 3), ("Q2", 2, 1), ("X1", 2, 1)])
def test_slice_kernel_matches_layer_loop(diff_bases, reference_slices, name, degree, h_deg):
    S = diff_bases[name]
    for u in _nonconstant(S, degree):
        assert (_ideal_members_bounded(u, degree, h_deg, 3)
                == reference_slices(u, degree, h_deg)), u


@pytest.mark.parametrize("name,degree", [("F2", 2), ("F2", 3), ("F2", 4), ("F3", 2),
                                         ("K", 2), ("H2", 2), ("H3", 2)])
def test_irreducible_matches_layer_loop(diff_bases, reference_slices, name, degree):
    S = diff_bases[name]
    scan = _nonconstant(S, degree)
    for f in scan:
        if f.degree != degree:
            continue
        own = reference_slices(f, degree, degree)
        target = tuple(S.index(c) for c in f.coeffs)
        want = next((u for u in scan if u != f and target in reference_slices(u, degree, degree)
                     and reference_slices(u, degree, degree) != own), None)
        got = is_irreducible(f)
        assert (got.irreducible, got.witness) == (want is None, want), f


@st.composite
def small_structures(draw):
    """2-3 elements with 0 and 1 neutral and every other entry a random
    nonempty subset: commutativity and associativity are not assumed.
    Entries lean to single elements, so that ideal slices grow over several
    rounds of sums instead of filling the carrier at once."""
    els = tuple(range(draw(st.sampled_from((3, 2)))))
    subsets = st.one_of(st.sampled_from(els).map(lambda e: {e}),
                        st.sets(st.sampled_from(els), min_size=1))
    sums, prods = {}, {}
    for a in els:
        for b in els:
            sums[(a, b)] = {b} if a == 0 else {a} if b == 0 else draw(subsets)
            prods[(a, b)] = {b} if a == 1 else {a} if b == 1 else draw(subsets)
    return Structure("R", els, 0, 1, {a: a for a in els}, sums, prods)


# One run with a single term, which shows the h*u boxes (and so their fold
# order) bare, and one of the closure rounds.  Each choice lists first the
# value that exercises the most, since hypothesis favours the first choice.
@pytest.mark.parametrize("terms", [(1,), (3, 4, 2)], ids=["boxes", "closure"])
@settings(max_examples=60, deadline=None)
@given(S=small_structures(), data=st.data())
def test_slice_kernel_on_random_structures(terms, S, data):
    degree = data.draw(st.sampled_from((2, 1, 0)))
    low = [data.draw(st.sampled_from(S.elements)) for _ in range(degree)]
    u = Poly(S, low + [data.draw(st.sampled_from(S.elements[1:]))])
    deg_cap = data.draw(st.sampled_from((2, 3, 1, 0)))
    h_deg = data.draw(st.sampled_from((2, 1, 0)))
    max_terms = data.draw(st.sampled_from(terms))
    assert (_ideal_members_bounded(u, deg_cap, h_deg, max_terms)
            == reference_slice(u, deg_cap, h_deg, max_terms))
