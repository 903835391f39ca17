import itertools

import pytest
from hypothesis import given, settings, strategies as st

from mvla import (NEG_INF, Poly, PolySet, Structure, StructureError, builtin,
                  divmod_holds, evaluate, is_effective_root, is_irreducible,
                  is_root, padd, padd_sets, pdeg_laws_check, pdivmod, pmul,
                  pmul_fold, quotient_pair)
from mvla.matrices import _rank, _vector
from mvla.polys import (_TERMS, _ideal_members_bounded, _irreducible, _maximal, _members_bits,
                        _nonzero, _unit_scalings, all_polys, deg_sum_min_counterexamples)
from mvla.structures import _bits
from conftest import poly_divmod_mod, poly_eval_mod
from test_closedness import single_entry_mutants


def members(ps):
    return frozenset(ps.members())


def test_canonical_form(K):
    assert Poly(K, (1, 0, 0)).coeffs == (1,)
    assert Poly(K, (0, 0)).is_zero
    assert Poly(K, ()).degree == NEG_INF
    assert Poly(K, (0, 1)).degree == 1
    with pytest.raises(StructureError):
        Poly(K, (7,))


def test_coefficients_are_carrier_indices_read_back_as_elements():
    S, T = builtin("Xn", 1), builtin("Xn", 1)  # carrier -1, 0, 1
    f = Poly(S, (-1, 1, 0))
    assert f.indices == (0, 2) and f.coeffs == (-1, 1) and f.coeff(3) == 0
    assert Poly.from_indices(S, (0, 2, 1, 1)) == f  # index 1 is the zero
    g = Poly(T, (-1, 1))
    # equal coefficients over equal but distinct bases: unequal, with one hash
    assert f != g and hash(f) == hash(g)
    with pytest.raises(StructureError):
        Poly(S, (-1, 2))


def test_padd_examples(K, Q2):
    f = Poly(K, (1, 1))
    zero = Poly.zero(K)
    assert members(padd(f, zero)) == {f}
    assert padd(Poly.constant(K, 1), Poly.constant(K, 1)) == PolySet(K, [K.mask_of({0, 1})])
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
        monos = [Poly.x_power(H3, i, coeff=c) for i, c in enumerate(alpha.coeffs)]
        if not monos:
            continue
        acc = {monos[0]}
        for m in monos[1:]:
            acc = {h for f in acc for h in padd(f, m).members()}
        assert acc == {alpha}


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


def test_inclusion_memo_dies_with_its_structures():
    # the morphism check behind evaluate is memoised on the target structure,
    # so it must not keep either structure alive once the caller drops them
    import gc

    def live_structures():
        gc.collect()
        return sum(isinstance(o, Structure) for o in gc.get_objects())

    baseline = live_structures()
    pairs = [(builtin("Hp", 2), builtin("Hp", 3)) for _ in range(5)]
    for H2, H3 in pairs:
        assert evaluate(Poly(H2, (1, 1)), 2, H3) == H3.sum_set(1, 2)
        assert evaluate(Poly(H2, (0, 1)), 1, H3) == {1}  # memo hit
        assert any(key[0] == "morphism" for key in H3._kind_cache
                   if isinstance(key, tuple))
    del pairs, H2, H3
    assert live_structures() == baseline


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


def decoded(bits, k, width):
    """A slice bitset as index tuples: bit d stands for vector number d in product order."""
    return frozenset(_vector(k, width, x) for x in _bits(bits))


def test_bitsets_number_index_tuples_as_vectors_do():
    # one numbering: bit d of a box's bitset is vector number d in product order
    k = 3
    for n in (1, 2, 3):
        for d in range(k ** n):
            assert _rank(k, _vector(k, n, d)) == d
            assert _members_bits([[1 << i for i in _vector(k, n, d)]], k) == 1 << d
    box = [0b011, 0b101]  # {0, 1} x {0, 2}
    assert _members_bits([box], k) == sum(1 << _rank(k, p) for p in [(0, 0), (0, 2), (1, 0),
                                                                      (1, 2)])


def kernel_slice(u, deg_cap, h_deg, max_terms=3):
    return decoded(_ideal_members_bounded(u, deg_cap, h_deg, max_terms), len(u.base), deg_cap + 1)


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
        assert kernel_slice(u, degree, h_deg, 3) == reference_slices(u, degree, h_deg), u


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
    assert (kernel_slice(u, deg_cap, h_deg, max_terms)
            == reference_slice(u, deg_cap, h_deg, max_terms))


# -- the antichain kernel against the semi-naive member kernel it replaced ----------


def semi_naive_slice(u, deg_cap, h_deg, max_terms):
    """The member-level semi-naive kernel that the antichain kernel replaced.

    The same boxes h*u; then every member of them, and each round adds each
    new member (as a box of single bits) to every box.  Returns index tuples
    of length deg_cap + 1.
    """
    S = u.base
    k = len(S)
    z = S._idx[S.zero]
    uc = u.indices
    n = len(uc)
    width = max(h_deg + n, deg_cap + 1)
    prod = S._prod
    zbit = 1 << z
    boxes = {(zbit,) * width}
    for d in range(h_deg + 1):
        pad = (zbit,) * (width - d - n)
        for low in itertools.product(range(k), repeat=d):
            for top in _nonzero(S):
                h = low + (top,)
                box = []
                for j in range(d + n):
                    m = None
                    for i in range(max(0, j - n + 1), min(j, d) + 1):
                        t = prod[h[i]][uc[j - i]]
                        m = t if m is None else S.add_masks(m, t)
                    box.append(m)
                boxes.add(tuple(box) + pad)

    def plus(pair):
        return _bits(S.add_masks(*pair))

    tiers = set()
    for box in boxes:
        tiers.update(itertools.product(*map(_bits, box)))
    frontier = boxes
    for _ in range(max_terms - 2):
        new = set()
        for d in frontier:
            for b in boxes:
                new.update(itertools.product(*map(plus, zip(d, b))))
        delta = new - tiers
        tiers |= delta
        frontier = {tuple(1 << a for a in p) for p in delta}
    cut = deg_cap + 1
    tail = (z,) * (width - cut)
    got = {p[:cut] for p in tiers if p[cut:] == tail}
    if max_terms > 1:
        usable, by_head = {}, {}
        for d in frontier:
            rest = d[cut:]
            if rest not in usable:
                usable[rest] = {b for b in boxes
                                if all(z in s for s in map(plus, zip(rest, b[cut:])))}
            by_head.setdefault(d[:cut], set()).update(usable[rest])
        for head, picks in by_head.items():
            for b in picks:
                got.update(itertools.product(*map(plus, zip(head, b))))
    return frozenset(got)


def semi_naive_verdict(f, slices):
    """(irreducible, witness) of is_irreducible's scan over semi-naive slices."""
    cap = f.degree
    for key in [f] + [u for u in _nonconstant(f.base, cap) if u != f]:
        if key not in slices:
            slices[key] = semi_naive_slice(key, cap, cap, 3)
        if key != f and f.indices in slices[key] and slices[key] != slices[f]:
            return False, key
    return True, None


# every nonconstant u of degree <= 2 at deg h = 2, and F2 at degrees 3 and 4
@pytest.mark.parametrize("name,degree", [(n, 2) for n in DIFF_BASES] + [("F2", 3), ("F2", 4)])
def test_antichain_kernel_matches_semi_naive_kernel(diff_bases, name, degree):
    S = diff_bases[name]
    slices = {}
    for u in _nonconstant(S, degree):
        slices[u] = semi_naive_slice(u, degree, degree, 3)
        assert kernel_slice(u, degree, degree) == slices[u], u
    for f in _nonconstant(S, degree):
        if f.degree == degree:
            got = is_irreducible(f)
            assert (got.irreducible, got.witness) == semi_naive_verdict(f, slices), f


@settings(max_examples=60, deadline=None)
@given(S=small_structures(), data=st.data())
def test_antichain_kernel_on_random_structures(S, data):
    degree = data.draw(st.sampled_from((2, 1, 0)))
    low = [data.draw(st.sampled_from(S.elements)) for _ in range(degree)]
    u = Poly(S, low + [data.draw(st.sampled_from(S.elements[1:]))])
    deg_cap = data.draw(st.sampled_from((2, 3, 1, 0)))
    h_deg = data.draw(st.sampled_from((2, 1, 0)))
    for max_terms in (1, 2, 3, 4):
        assert (kernel_slice(u, deg_cap, h_deg, max_terms)
                == semi_naive_slice(u, deg_cap, h_deg, max_terms)), max_terms


# -- one slice per class of unit multiples ------------------------------------------


def unit_multiples_sharing_slices(S, deg_cap, h_deg, max_terms, scalings):
    """Per map x -> c*x in scalings, whether c*u has the slice of u for every nonzero u
    of degree <= 2."""
    us = all_polys(S, 2, include_zero=False)
    got = {u: _ideal_members_bounded(u, deg_cap, h_deg, max_terms) for u in us}
    return [all(got[Poly.from_indices(S, [cl[i] for i in u.indices])] == got[u] for u in us)
            for cl in scalings]


@settings(max_examples=60, deadline=None)
@given(S=small_structures(), data=st.data())
def test_unit_multiples_share_slices_on_random_structures(S, data):
    if len(S) == 3 and data.draw(st.booleans()):
        # random tables seldom admit a unit besides 1: make 2 one, with 2*2 = 1 and
        # 0*2 = 2*0 = 0, which leaves a*(2*b) = (a*2)*b true whatever 0*0 is
        for a, b, c in ((2, 0, 0), (0, 2, 0), (2, 2, 1)):
            S = S.with_entry("prod", a, b, {c})
        assert [0, 2, 1] in _unit_scalings(S)
    scalings = _unit_scalings(S)
    assert list(range(len(S))) in scalings  # the unit 1
    bounds = [data.draw(st.sampled_from(xs)) for xs in ((2, 3, 1, 0), (2, 1, 0), (3, 4, 2))]
    assert all(unit_multiples_sharing_slices(S, *bounds, scalings))


# H3 and Q2 admit the unit -1.  A product mutant that keeps -1's row and column
# can still break a*(c*b) = (a*c)*b; the check must then drop c, and over Q2 some
# of those mutants do split the slices of u and -u.
@pytest.mark.parametrize("name,dropped,split", [("H3", 18, 0), ("Q2", 18, 5)])
def test_unit_multiples_share_slices_on_product_mutants(diff_bases, name, dropped, split):
    S = diff_bases[name]
    one = S._idx[S.one]
    (cl,) = [cl for cl in _unit_scalings(S) if cl[one] != one]
    c = cl[one]
    seen = []
    for T in single_entry_mutants(S):
        if T._sum != S._sum:
            continue
        if cl in _unit_scalings(T):
            assert all(unit_multiples_sharing_slices(T, 2, 2, 3, [cl])), T._prod
        elif T._prod[c] == S._prod[c] and [r[c] for r in T._prod] == [r[c] for r in S._prod]:
            seen += unit_multiples_sharing_slices(T, 2, 2, 3, [cl])
    assert (len(seen), seen.count(False)) == (dropped, split)


def per_u_verdict(f, slices):
    """(irreducible, witness) of the scan that keyed its slice table by u.indices."""
    S, cap = f.base, f.degree
    bit = _members_bits([[1 << i for i in f.indices]], len(S))

    def through(u):
        if u.indices not in slices:
            slices[u.indices] = _ideal_members_bounded(u, cap, cap, 3)
        return slices[u.indices]
    own = through(f)
    return next(((False, u) for u in _nonconstant(S, cap)
                 if u != f and through(u) & bit and through(u) != own), (True, None))


def _recording_charges(monkeypatch):
    """Every (work, what) that polys charges, as the charges go."""
    import mvla.polys as polys
    charge, charged = polys.charge, []

    def recording(work, what):
        charged.append((work, what))
        return charge(work, what)

    monkeypatch.setattr(polys, "charge", recording)
    return charged


def divisor_candidates(f, witness):
    """The u the field scan tries for f, in order, through its witness: nonconstant, of
    degree at most deg f // 2, and nonzero at or below f's valuation."""
    S = f.base
    val = next(j for j, c in enumerate(f.indices) if c != S.zero_i)
    tried = [u for u in _nonconstant(S, f.degree // 2)
             if any(c != S.zero_i for c in u.indices[:val + 1])]
    return tried[:tried.index(witness) + 1] if witness else tried


@pytest.mark.parametrize("name,param", [("Hp", 5), ("Fp", 5)])
def test_unit_classes_keep_every_verdict(monkeypatch, name, param):
    # one slice table per base and side, as a quotient search shares it
    S = builtin(name, param)
    charged = _recording_charges(monkeypatch)
    classes, per_u = {}, {}
    for f in _nonconstant(S, 2):
        if f.degree == 2:
            charged.clear()
            got = _irreducible(f, classes)
            assert (got.irreducible, got.witness) == per_u_verdict(f, per_u), f
            if name == "Fp":  # each candidate divisor u is tried and charged once, its
                # (deg f + 1 - deg u) * deg u division steps on top of those before it
                steps = itertools.accumulate((3 - u.degree) * u.degree
                                             for u in divisor_candidates(f, got.witness))
                assert charged == [(n, "irreducibility division steps") for n in steps], f
    if name == "Hp":
        # every nonzero c is admitted: 4 multiples in each class of the 120 u
        assert (len(classes), len(per_u)) == (30, 120)
    else:
        # the field scan divides and builds no slice; the reference built 120
        assert (len(classes), len(per_u)) == (0, 120)


def _recording_terms(monkeypatch):
    """The max_terms of every slice the scan builds."""
    import mvla.polys as polys
    kernel, terms = polys._ideal_members_bounded, []

    def recording(u, deg_cap, h_deg, max_terms):
        terms.append(max_terms)
        return kernel(u, deg_cap, h_deg, max_terms)

    monkeypatch.setattr(polys, "_ideal_members_bounded", recording)
    return terms


FIELDS = {"F2": ("Fp", 2), "F3": ("Fp", 3), "F5": ("Fp", 5), "F7": ("Fp", 7),
          "GF(4)": (("Fp", 2), (1, 1, 1)), "GF(9)": (("Fp", 3), (1, 0, 1))}


def least_divisors(S, degree):
    """Each reducible f of the degree over the field S, mapped to its least nonconstant
    divisor of lower degree in all_polys order: every product u*g of nonconstant u, g
    with deg u + deg g = degree is multiplied out once, u in that order, so the first
    product to reach f names its least u.  A polynomial that no product reaches is
    irreducible."""
    us = _nonconstant(S, degree - 1)
    least = {}
    for u in us:
        for g in us:
            if u.degree + g.degree == degree:
                (h,) = pmul(u, g).members()  # one member: a field's cells are singletons
                least.setdefault(h, u)
    return least


@pytest.mark.parametrize("name,degree", [("F2", 2), ("F2", 3), ("F2", 4), ("F2", 5), ("F3", 2),
                                         ("F3", 3), ("F5", 2), ("F7", 2), ("GF(4)", 2),
                                         ("GF(9)", 2)])
def test_field_scan_matches_the_factor_oracle(monkeypatch, name, degree):
    # over a field f lies in u's slice iff u divides f, and u's slice is f's own iff u
    # is an associate of f: the scan divides, builds no slice, and its verdict, witness
    # and note are those of the slice scan.  F2 at degrees 2 and 3 and F3 at degree 2
    # are compared with the per-u scan over slices of _TERMS terms as well
    spec = FIELDS[name]
    if name.startswith("GF"):
        F = builtin(*spec[0])
        S = quotient_pair(F, Poly(F, spec[1]))[0]
    else:
        S = builtin(*spec)
    least = least_divisors(S, degree)
    sliced = (name, degree) in {("F2", 2), ("F2", 3), ("F3", 2)}
    terms = _recording_terms(monkeypatch)
    slices, per_u = {}, {}  # one table, as a search shares it
    for f in _nonconstant(S, degree):
        if f.degree == degree:
            got = _irreducible(f, slices)
            want = least.get(f)
            assert (got.irreducible, got.witness) == (want is None, want), f
            assert got.note == f"bounded: <= {_TERMS} terms, deg h <= {degree}"
            if sliced:
                assert (got.irreducible, got.witness) == per_u_verdict(f, per_u), f
    assert not slices and not terms
    assert bool(per_u) == sliced


@pytest.mark.parametrize("spec", [("K",), ("Hp", 2), ("Hp", 3), ("Hp", 5), ("Q2",), ("Xn", 1)])
def test_multivalued_superfields_build_slices_of_every_term(monkeypatch, spec):
    terms = _recording_terms(monkeypatch)
    _irreducible(Poly(builtin(*spec), (1, 0, 1)), {})
    assert terms and set(terms) == {_TERMS}


# every built-in superfield, F2 also at degree 4
@pytest.mark.parametrize("name,degree", [(name, 2) for name in DIFF_BASES] + [("F2", 4)]
                         + [(name, 2) for name in ("H5", "H7", "F5")])
def test_slice_members_vanish_below_the_valuation(name, degree):
    # the scan's filter: as 0 absorbs and 0 + 0 = {0}, a member of u's slice has no
    # nonzero coefficient below val(u), so no u of valuation above f's holds f
    S = builtin(*{**DIFF_BASES, "H5": ("Hp", 5), "H7": ("Hp", 7), "F5": ("Fp", 5)}[name])
    k, z = len(S), S.zero_i
    for u in _nonconstant(S, degree):
        val = next(j for j, c in enumerate(u.indices) if c != z)
        if val:
            got = _ideal_members_bounded(u, degree, degree, 3)
            members = [_vector(k, degree + 1, b) for b in range(k ** (degree + 1)) if got >> b & 1]
            assert members and all(p[:val] == (z,) * val for p in members), u


# the bases that no other test compares with the unfiltered per-u scan
@pytest.mark.parametrize("name,degree", [("Q2", 2), ("X1", 2), ("K", 3), ("F3", 3)])
def test_valuation_filter_keeps_every_verdict(diff_bases, name, degree):
    S = diff_bases[name]
    classes, per_u = {}, {}  # one table per degree, as the slices are cut at deg f
    for f in _nonconstant(S, degree):
        got = _irreducible(f, classes.setdefault(f.degree, {}))
        want = per_u_verdict(f, per_u.setdefault(f.degree, {}))
        assert (got.irreducible, got.witness) == want, f


@settings(max_examples=80, deadline=None)
@given(st.sampled_from((2, 3, 4, 11)), st.integers(1, 3), st.data())
def test_maximal_keeps_exactly_the_boxes_inside_no_other(k, width, data):
    # boxes as the kernel holds them: one lane of ceil(k/8) bytes per position
    w = (k + 7) // 8
    mask = st.integers(1, (1 << k) - 1)
    boxes = data.draw(st.sets(st.tuples(*[mask] * width), max_size=30))
    inside = {b for b in boxes for a in boxes
              if a != b and all(x & y == x for x, y in zip(b, a))}

    def lanes(box):
        return b"".join(m.to_bytes(w, "big") for m in box)
    assert _maximal({lanes(b) for b in boxes}) == {lanes(b) for b in boxes - inside}


# -- the byte-lane kernel against the tuple closure it replaced ---------------------


def tuple_slice(u, deg_cap, h_deg, max_terms):
    """The slice bitset by the tuple closure that the byte-lane kernel replaced.

    Boxes are tuples of per-position masks padded with {0}.  The boxes h*u are
    folded one h at a time as pmul folds them; each round sums its pairs one
    tuple at a time through S.add_masks and keeps the boxes inside no other.
    """
    S = u.base
    k = len(S)
    zbit = 1 << S._idx[S.zero]
    uc = u.indices
    n = len(uc)
    width = max(h_deg + n, deg_cap + 1)
    prod = S._prod
    add = S.add_masks
    boxes = {(zbit,) * width}
    for g in all_polys(S, h_deg, include_zero=False):
        h = g.indices
        d = g.degree
        box = []
        for j in range(d + n):
            m = None
            for i in range(max(0, j - n + 1), min(j, d) + 1):
                t = prod[h[i]][uc[j - i]]
                m = t if m is None else add(m, t)
            box.append(m)
        boxes.add(tuple(box) + (zbit,) * (width - d - n))

    def maximal(boxes):
        packed = {sum(m << k * j for j, m in enumerate(b)): b for b in boxes}
        kept = []
        for _, same in itertools.groupby(sorted(packed, key=int.bit_count, reverse=True),
                                         int.bit_count):
            kept += [p for p in same if not any(p | q == q for q in kept)]
        return {packed[p] for p in kept}

    boxes = known = maximal(boxes)
    pairs = (itertools.combinations_with_replacement(boxes, 2)
             if S._sum == list(map(list, zip(*S._sum))) else itertools.product(boxes, repeat=2))
    for _ in range(max_terms - 1):
        sums = {tuple(map(add, d, b)) for d, b in pairs}
        grown = maximal(known | sums)
        pairs = itertools.product(grown - known, boxes)
        known = grown
    cut = deg_cap + 1
    return _members_bits({b[:cut] for b in known if all(m & zbit for m in b[cut:])}, k)


@settings(max_examples=80, deadline=None)
@given(S=small_structures(), data=st.data())
def test_lane_kernel_matches_tuple_closure_on_random_structures(S, data):
    if len(S) == 3 and data.draw(st.booleans()):
        # a sum table that is not symmetric, so that every round sums ordered pairs; a
        # single element keeps the slices growing over the rounds
        other = [e for e in S.elements if {e} != S.set_of(S._sum[2][1])]
        S = S.with_entry("sum", 1, 2, {data.draw(st.sampled_from(other))})
        assert S._sum[1][2] != S._sum[2][1]
    degree = data.draw(st.sampled_from((2, 1, 0)))
    low = [data.draw(st.sampled_from(S.elements)) for _ in range(degree)]
    u = Poly(S, low + [data.draw(st.sampled_from(S.elements[1:]))])
    bounds = [data.draw(st.sampled_from(xs)) for xs in ((2, 3, 1, 0), (2, 1, 0), (3, 4, 2, 1))]
    assert _ideal_members_bounded(u, *bounds) == tuple_slice(u, *bounds)


# is_irreducible's bounds (deg h = cap = 2) over H5 and F5; over F11 (k = 11 > 8) each
# lane holds two bytes, at degree 1
@pytest.mark.parametrize("args,degree", [(("Hp", 5), 2), (("Fp", 5), 2), (("Fp", 11), 1)],
                         ids=["H5", "F5", "F11"])
def test_lane_kernel_matches_tuple_closure_on_builtins(args, degree):
    S = builtin(*args)
    for u in _nonconstant(S, degree):
        assert (_ideal_members_bounded(u, degree, degree, 3)
                == tuple_slice(u, degree, degree, 3)), u


def test_h5_quadratic_is_irreducible(monkeypatch, H5):
    # 1+2X^2 over H5: the member kernel needed over a minute for this scan.  It builds
    # one slice per class {c*u : c != 0} of the 96 nonconstant u of degree <= 2 with a
    # nonzero constant term; the other 24 have valuation above f's 0.
    import mvla.polys as polys
    built = []
    kernel = polys._ideal_members_bounded

    def counting(u, *bounds):
        built.append(u)
        return kernel(u, *bounds)

    monkeypatch.setattr(polys, "_ideal_members_bounded", counting)
    got = is_irreducible(Poly(H5, (1, 0, 2)))
    assert (got.irreducible, got.witness) == (True, None)
    assert got.note == "bounded: <= 3 terms, deg h <= 2"
    assert len(built) == 24
