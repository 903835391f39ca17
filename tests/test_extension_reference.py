"""Morphisms, evaluation, extension searches and ideals against token-level references.

The references below are these functions as they were written on element
tokens: morphism checks through the token map and the structure's element
API, evaluation through a token coefficient map, generation degree and
almost-fullness over token coefficients, and the ideal classification and
subset scan over frozensets of members.  The library runs them on carrier
indices and masks; both must give the same reports, values, verdicts,
witnesses and ideals, on the built-ins, on the H3 and GF(9)|F3 quotient
pairs and on random 2-3 element structures.
"""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from mvla import (ExtensionPair, Ideal, MorphismSpec, Poly, Structure, StructureError,
                  all_ideals, all_polys, builtin, certify_algebraic_extension,
                  check_morphism, classify_ideal, eval_closure, evaluate, is_almost_full,
                  is_ideal, is_linearly_independent, minimal_polynomial, principal_ideal,
                  pmul, quotient_pair, strict_ring)
from mvla.axioms import FAIL, PASS, AxiomReport, _Collector
from mvla.extensions import generation_degree
from mvla.ideals import IdealFlags
from mvla.vspaces import extension_space
from test_boxes import small_structures


# -- the token-level reference ------------------------------------------------------


def ref_check_morphism(spec, full=False, witness_limit=3):
    S, T = spec.source, spec.target
    f = spec.mapping
    col = _Collector(limit=witness_limit)

    def instances():
        yield f[S.zero] == T.zero, "m-zero", (S.zero,)
        yield f[S.one] == T.one, "m-one", (S.one,)
        for a in S.elements:
            yield f[S.neg(a)] == T.neg(f[a]), "m-neg", (a,)
        for a in S.elements:
            for b in S.elements:
                img_sum = T.set_of(T.sum_mask(f[a], f[b]))
                for c in S.canon_of(S.sum_mask(a, b)):
                    yield f[c] in img_sum, "m-add", (a, b, c)
                img_prod = T.set_of(T.prod_mask(f[a], f[b]))
                for c in S.canon_of(S.prod_mask(a, b)):
                    yield f[c] in img_prod, "m-mul", (a, b, c)
                if full:
                    fs = frozenset(f[c] for c in S.sum_set(a, b))
                    yield fs == img_sum, "full-add", (a, b)
                    fp = frozenset(f[c] for c in S.prod_set(a, b))
                    yield fp == img_prod, "full-mul", (a, b)

    for ok, axiom, instance in instances():
        col.record("pass" if ok else "fail", axiom, instance)
        if col.done:
            break

    verdict = FAIL if col.witnesses else PASS
    label = "full-morphism" if full else "morphism"
    return AxiomReport(subject=f"{S.name}->{T.name}", kind=label, verdict=verdict,
                       witnesses=tuple(col.witnesses), checked=col.checked)


def ref_coeff_map(f, ambient, via):
    if via is not None:
        if via.source is not f.base or via.target is not ambient:
            raise StructureError("morphism endpoints do not match the evaluation")
        if not ref_check_morphism(via).passed:
            raise StructureError("evaluation map is not a morphism")
        return via.mapping.__getitem__
    if ambient is f.base:
        return lambda a: a
    if not ref_check_morphism(MorphismSpec.inclusion(f.base, ambient)).passed:
        raise StructureError(
            f"inclusion {f.base.name} -> {ambient.name} is not a morphism; "
            "pass an explicit via= map")
    return lambda a: a


def ref_evaluate(f, alpha, ambient=None, via=None):
    ambient = ambient or f.base
    if alpha not in ambient:
        raise StructureError(f"{alpha!r} is not in {ambient.name}")
    h = ref_coeff_map(f, ambient, via)
    if f.is_zero:
        return frozenset([ambient.zero])
    idx = ambient._idx
    x = 1 << idx[alpha]
    terms = [ambient.prod_of([1 << idx[h(a)]] + [x] * i) for i, a in enumerate(f.coeffs)]
    return ambient.set_of(ambient.sum_of(terms))


def ref_eval_closure(gamma, pair, family="all", g=None, bound=None):
    F, K, emb = pair.small, pair.big, pair.embedding
    bound = len(K.elements) if bound is None else bound
    seen = frozenset()
    saturated = False
    for d in range(bound + 1):
        grown = seen
        for h in all_polys(F, d):
            if h.degree != d and not (d == 0 and h.is_zero):
                continue
            if family == "all":
                grown = grown | ref_evaluate(h, gamma, K, via=emb)
            else:
                for f in pmul(h, g).members():
                    grown = grown | ref_evaluate(f, gamma, K, via=emb)
        if d > 0 and grown == seen:
            saturated = True
            break
        seen = grown
    return seen, saturated


def ref_minimal_polynomial(gamma, pair, bound):
    """The witness polynomial only: the certificate around it is a plain record."""
    F, K, emb = pair.small, pair.big, pair.embedding
    for d in range(1, bound + 1):
        for low in itertools.product(F.elements, repeat=d):
            for top in F.elements:
                if top == F.zero:
                    continue
                f = Poly(F, low + (top,))
                if K.zero in ref_evaluate(f, gamma, K, via=emb):
                    return f
    return None


def ref_power_masks(K, gamma, top):
    g = 1 << K.index(gamma)
    powers = [1 << K.index(K.one)]
    for _ in range(top):
        powers.append(K.mul_masks(powers[-1], g))
    return powers


def ref_image_bits(pair):
    K, f = pair.big, pair.embedding.mapping
    return {a: 1 << K.index(f[a]) for a in pair.small.elements}


def ref_generation_degree(pair, gamma, limit=None):
    F, K = pair.small, pair.big
    bit = ref_image_bits(pair)
    limit = len(K.elements) if limit is None else limit
    powers = ref_power_masks(K, gamma, limit)
    for n in range(limit + 1):
        covered = 0
        for coeffs in itertools.product(F.elements, repeat=n + 1):
            covered |= K.sum_of(K.mul_masks(bit[a], powers[i]) for i, a in enumerate(coeffs))
        if covered == (1 << len(K)) - 1:
            return n
    return None


def ref_is_almost_full(pair, gamma, gen_degree=None, witness_limit=3):
    F, K = pair.small, pair.big
    bit = ref_image_bits(pair)
    n = ref_generation_degree(pair, gamma) if gen_degree is None else gen_degree
    if n is None:
        return None, "generation degree not established"
    top = n + 2
    powers = ref_power_masks(K, gamma, top)
    g = 1 << K.index(gamma)

    def weighted(coeffs, exps):
        return K.sum_of(K.mul_masks(bit[x], powers[e]) for x, e in zip(coeffs, exps))

    witnesses = []
    for p, q, r in itertools.combinations(range(n + 2), 3):
        for abc in itertools.product(F.elements, repeat=3):
            if K.mul_masks(weighted(abc, (p, q, r)), g) != weighted(abc, (p + 1, q + 1, r + 1)):
                witnesses.append(abc + (p, q, r))
                if len(witnesses) >= witness_limit:
                    return False, tuple(witnesses)
    if witnesses:
        return False, tuple(witnesses)
    return True, None


def ref_degree_witness(pair, bound):
    """The degree witness of certify_algebraic_extension: the first power chain
    (selections of the multivalued powers, as tokens) of bound + 1 distinct
    members that is independent.  The selections go in carrier order (canon),
    where the token-level code took them in the iteration order of a frozenset."""
    K = pair.big
    V = extension_space(pair)
    for el in K.elements:
        chains = [[K.one, el]]
        for _ in range(bound - 1):
            chains = [ch + [nxt] for ch in chains for nxt in K.canon(K.prod_set(ch[-1], el))]
        for chain in chains:
            if len(set(chain)) == bound + 1 and is_linearly_independent(V, chain)[0]:
                return el, tuple(chain)
    return None


def ref_is_ideal(S, members):
    m = S.mask_of(members)
    if m == 0:
        return False
    full = (1 << len(S.elements)) - 1
    return (S.add_masks(m, m) | m) == m and (S.mul_masks(full, m) | m) == m


def ref_principal_ideal(S, gens):
    mask = S.mask_of(gens) | 1 << S.index(S.zero)
    full = (1 << len(S.elements)) - 1
    while True:
        nxt = mask | S.add_masks(mask, mask) | S.mul_masks(full, mask)
        if nxt == mask:
            return Ideal(S, S.set_of(mask))
        mask = nxt


def ref_classify_ideal(S, ideal):
    members = ideal.members if isinstance(ideal, Ideal) else frozenset(ideal)
    if not ref_is_ideal(S, members):
        return IdealFlags(False, None, None, None)
    imask = S.mask_of(members)
    full = (1 << len(S.elements)) - 1
    one_in = S.one in members

    prime = not one_in
    strongly = not one_in
    if not one_in:
        for a in S.elements:
            for b in S.elements:
                pm = S.prod_mask(a, b)
                inside = a in members or b in members
                if not inside:
                    if pm & ~imask == 0:
                        prime = False
                    if pm & imask:
                        strongly = False
            if not prime and not strongly:
                break

    maximal = imask != full
    if maximal:
        for x in S.elements:
            if x in members:
                continue
            grown = S.mask_of(ref_principal_ideal(S, members | {x}).members)
            if grown != full and grown != imask:
                maximal = False
                break
    return IdealFlags(True, prime, strongly, maximal)


def ref_all_ideals(S):
    out = []
    rest = [e for e in S.elements if e != S.zero]
    for r in range(len(rest) + 1):
        for extra in itertools.combinations(rest, r):
            members = frozenset(extra) | {S.zero}
            if ref_is_ideal(S, members):
                out.append(Ideal(S, members))
    return out


# -- the comparisons ------------------------------------------------------------------


def _z4_with_2_first():
    """Z/4 on the carrier order 0, 2, 1, 3: the first element outside the ideal {0}
    generates the proper ideal {0, 2}."""
    els = (0, 2, 1, 3)
    return Structure("Z4'", els, 0, 1, {a: -a % 4 for a in els},
                     {(a, b): {(a + b) % 4} for a in els for b in els},
                     {(a, b): {a * b % 4} for a in els for b in els})


# every built-in of at most 9 elements, and the rings Z4 (in two carrier orders), Z6,
# Z8 and Z9
SMALL = [builtin("K"), builtin("Q2"), *(builtin("Hp", p) for p in (2, 3, 5, 7)),
         *(builtin("Xn", n) for n in (1, 2, 3, 4)), *(builtin("Fp", p) for p in (2, 3, 5, 7)),
         *map(strict_ring, (4, 6, 8, 9)), _z4_with_2_first()]


def same_outcome(got, want):
    """Both calls return equal values, or both raise StructureError with one message."""
    try:
        a = got()
    except StructureError as exc:
        with pytest.raises(StructureError) as info:
            want()
        assert str(info.value) == str(exc)
        return
    assert a == want()


def check_spec(spec):
    S, T = spec.source, spec.target
    f = dict(zip(S.elements, (spec(a) for a in S.elements)))
    assert spec.mapping == f
    assert spec.is_injective == (len(set(f.values())) == len(f))
    assert MorphismSpec.from_mapping(S, T, f) == spec
    for full in (False, True):
        for limit in (1, 3):
            assert check_morphism(spec, full, limit) == ref_check_morphism(spec, full, limit), \
                (spec, full, limit)


def test_inclusions_between_small_builtins_match_reference():
    checked = passed = 0
    for S, T in itertools.product(SMALL, repeat=2):
        if not set(S.elements) <= set(T.elements):
            continue
        spec = MorphismSpec.inclusion(S, T)
        check_spec(spec)
        checked += 1
        passed += check_morphism(spec).passed
    assert checked > 50 and 0 < passed < checked


@settings(max_examples=80, deadline=None)
@given(S=small_structures(), T=small_structures(), data=st.data())
def test_random_maps_match_reference(S, T, data):
    f = {a: data.draw(st.sampled_from(T.elements)) for a in S.elements}
    spec = MorphismSpec.from_mapping(S, T, f)
    check_spec(spec)
    # evaluation along the map: the same values, or the same refusal
    poly = Poly(S, [data.draw(st.sampled_from(S.elements)) for _ in range(4)])
    alpha = data.draw(st.sampled_from(T.elements))
    same_outcome(lambda: evaluate(poly, alpha, T, via=spec),
                 lambda: ref_evaluate(poly, alpha, T, via=spec))
    same_outcome(lambda: evaluate(poly, alpha, T), lambda: ref_evaluate(poly, alpha, T))


@pytest.fixture(scope="module")
def quotient_pairs(h3_quotient, F3):
    """The H3 and GF(9)|F3 quotient pairs, each with its X-bar."""
    Kq, pair, gamma, _, _ = h3_quotient
    G9, pair9, gamma9 = quotient_pair(F3, Poly(F3, (1, 0, 1)))
    return [(pair, gamma), (pair9, gamma9)]


def test_evaluation_on_quotient_pairs_matches_reference(quotient_pairs, H2, H3):
    for pair, _ in quotient_pairs + [(ExtensionPair.inclusion(H2, H3), 2)]:
        F, K, emb = pair.small, pair.big, pair.embedding
        for f in all_polys(F, 3):
            for alpha in K.elements:
                assert evaluate(f, alpha, K, via=emb) == ref_evaluate(f, alpha, K, via=emb)
                same_outcome(lambda: evaluate(f, alpha, K), lambda: ref_evaluate(f, alpha, K))


def test_closures_and_minimal_polynomials_match_reference(quotient_pairs):
    for pair, gamma in quotient_pairs:
        F, K = pair.small, pair.big
        g = Poly(F, (0, 1))
        for el in K.elements:
            assert eval_closure(el, pair) == ref_eval_closure(el, pair)
            assert eval_closure(el, pair, family="multiples", g=g, bound=2) == \
                ref_eval_closure(el, pair, family="multiples", g=g, bound=2)
            for bound in (1, 2):
                cert = minimal_polynomial(el, pair, bound)
                assert (cert and cert.witness) == ref_minimal_polynomial(el, pair, bound)


def test_degree_witnesses_match_reference(quotient_pairs, F2):
    # each pair has independent chains 1, g past the bound 1; GF(8)|F2 has 1, g, g^2
    # past the bound 2 as well
    _, pair8, _ = quotient_pair(F2, Poly(F2, (1, 1, 0, 1)))
    for pair, degree in [(pair, 2) for pair, _ in quotient_pairs] + [(pair8, 3)]:
        for bound in range(1, degree + 1):
            witness = certify_algebraic_extension(pair, bound).degree_witness
            assert witness == ref_degree_witness(pair, bound)
            assert (witness is None) == (bound == degree)


def test_almost_fullness_matches_reference(quotient_pairs):
    verdicts = set()
    for pair, gamma in quotient_pairs:
        F, K = pair.small, pair.big
        # each element generates K in degree 1 except the constants, which never do:
        # they are compared up to the limit 4, and the constant 1 up to |K|
        for el in K.elements:
            n = generation_degree(pair, el, limit=4)
            assert n == ref_generation_degree(pair, el, limit=4)
            if n is not None:
                got = is_almost_full(pair, el)
                assert got == ref_is_almost_full(pair, el), el
                verdicts.add(got[0])
        one = pair.embedding(F.one)
        got = is_almost_full(pair, one)
        assert got == ref_is_almost_full(pair, one) == (None, "generation degree not established")
        verdicts.add(got[0])
        # a mutant whose gamma.gamma is {1} gives witnesses, up to the limit
        broken = K.with_entry("prod", gamma, gamma, {K.one})
        pair_b = ExtensionPair.of(F, broken, pair.embedding.mapping)
        for limit in (1, 3, 100):
            got = is_almost_full(pair_b, gamma, gen_degree=1, witness_limit=limit)
            assert got == ref_is_almost_full(pair_b, gamma, gen_degree=1, witness_limit=limit)
            assert got[0] is False
    assert verdicts == {True, False, None}


def check_ideals(S):
    ideals = all_ideals(S)
    assert ideals == ref_all_ideals(S)
    every = len(S) <= 7
    subsets = ([frozenset(c) for r in range(len(S) + 1)
                for c in itertools.combinations(S.elements, r)] if every
               else [I.members for I in ideals])
    for members in subsets:
        assert is_ideal(S, members) == ref_is_ideal(S, members)
        assert classify_ideal(S, members) == ref_classify_ideal(S, members), (S, members)
        assert principal_ideal(S, members) == ref_principal_ideal(S, members)
    for ideal in ideals:
        assert classify_ideal(S, ideal) == ref_classify_ideal(S, ideal)


def test_ideals_of_small_builtins_match_reference():
    for S in SMALL:
        check_ideals(S)


@settings(max_examples=80, deadline=None)
@given(S=small_structures())
def test_ideals_of_random_structures_match_reference(S):
    check_ideals(S)
