import itertools
import random
from math import comb

import pytest

from mvla import (CongruenceError, ExtensionPair, Matrix, Poly, ReducibleError, StructureError,
                  builtin, certify_algebraic_extension, classify_extension, eval_closure,
                  is_almost_full, make_quotient_superfield, minimal_polynomial,
                  mprod_sets, msum_sets, quotient_pair, serialize_structure, verify_axioms)
from mvla.extensions import find_irreducible, find_quotient_superfield, generation_degree
from mvla.linsys import homogeneous, row_value_sets
from mvla.polys import all_polys, pmul


def test_classification_ladder(K, Q2, H2, H3):
    assert classify_extension(ExtensionPair.inclusion(K, Q2)) == "proto"
    assert classify_extension(ExtensionPair.inclusion(H2, H3)) == "extension"
    assert classify_extension(ExtensionPair.inclusion(H3, H3)) == "full"
    collapse = ExtensionPair.of(K, K, {0: 0, 1: 0})
    assert classify_extension(collapse) == "not-an-extension"


def test_quotient_pair_is_full_extension(h3_quotient):
    Kq, pair, gamma, p, rejected = h3_quotient
    assert len(Kq.elements) == 9
    assert classify_extension(pair) == "full"
    assert verify_axioms(Kq, "superfield").passed
    assert p.degree == 2
    # the first irreducible quadratic fails representative-coset faithfulness
    # and is recorded, not silently skipped
    assert rejected, "expected at least one rejected irreducible candidate"


def test_rejected_candidate_really_fails(H3, h3_quotient):
    _, _, _, _, rejected = h3_quotient
    with pytest.raises(CongruenceError):
        make_quotient_superfield(H3, rejected[0])


def test_quotient_product_reuses_each_division_box(H3, monkeypatch):
    # one pmul per distinct (f, g), counted in both modules: 45 products of
    # carrier pairs in extensions and the two boxes q*p with q = 1, 2 in polys;
    # without reuse the boxes cost 119 calls in all
    import mvla.extensions as ext
    import mvla.polys as polys
    calls = []

    def counting(f, g):
        calls.append((f.coeffs, g.coeffs))
        return pmul(f, g)

    monkeypatch.setattr(ext, "pmul", counting)
    monkeypatch.setattr(polys, "pmul", counting)
    K = make_quotient_superfield(H3, Poly(H3, (1, 0, 2)))
    assert len(calls) == len(set(calls)) == 47
    assert len(K.elements) == 9


@pytest.mark.parametrize("name,param,degree,slices",
                         [("Hp", 3, 2, 12), ("Fp", 3, 2, 0), ("Fp", 2, 3, 0)])
def test_quotient_search_builds_each_slice_once(monkeypatch, name, param, degree, slices):
    # over H3, one slice per class of unit multiples c*u (u and -u) of the 24
    # nonconstant u of degree <= 2 that a scan reads, shared by every candidate's scan,
    # which is also the scan of the quotient built from it.  Over a field the scans
    # divide and build no slice.  Either way each candidate is scanned once
    import mvla.extensions as ext
    import mvla.polys as polys
    built, scanned = [], []
    kernel, scan = polys._ideal_members_bounded, ext._irreducible

    def counting(u, *bounds):
        built.append(u.indices)
        return kernel(u, *bounds)

    def counting_scans(p, table):
        scanned.append(p.indices)
        return scan(p, table)

    monkeypatch.setattr(polys, "_ideal_members_bounded", counting)
    monkeypatch.setattr(ext, "_irreducible", counting_scans)
    F = builtin(name, param)
    assert find_quotient_superfield(F, degree) is not None
    assert len(built) == len(set(built)) == slices
    assert scanned and len(scanned) == len(set(scanned))
    built.clear()
    assert find_irreducible(F, degree) is not None
    assert len(built) == len(set(built)) <= slices


_SEARCH_BASES = {"K": ("K",), "Q2": ("Q2",), "H2": ("Hp", 2), "H3": ("Hp", 3),
                 "H5": ("Hp", 5), "X1": ("Xn", 1), "F2": ("Fp", 2), "F3": ("Fp", 3),
                 "F5": ("Fp", 5)}


def _reference_search(monkeypatch, F, degree):
    """find_quotient_superfield as quotient_pair per candidate: a reducible p is skipped
    and a p whose quotient fails the superfield axioms is rejected.  The scans share one
    slice table, as the search's do (a verdict does not depend on the table)."""
    import mvla.extensions as ext
    scan, slices = ext._irreducible, {}
    monkeypatch.setattr(ext, "_irreducible", lambda p, _: scan(p, slices))
    rejected = []
    for p in all_polys(F, degree):
        if p.degree != degree:
            continue
        try:
            K, pair, gamma = quotient_pair(F, p)
        except ReducibleError:
            continue
        except CongruenceError:
            rejected.append(p)
            continue
        return K, pair, gamma, p, tuple(rejected)
    return None


def _outcome(found):
    """What a search answers, comparable across searches: the chosen p, the rejected
    candidates, the serialized quotient, the embedding's images and gamma."""
    if found is None:
        return None
    K, pair, gamma, p, rejected = found
    return p, rejected, serialize_structure(K), pair.embedding.images, gamma


@pytest.mark.parametrize("name,degree", [(name, 2) for name in _SEARCH_BASES]
                         + [("F2", 3), ("F3", 3), ("H3", 3)])
def test_quotient_search_matches_quotient_pair_per_candidate(monkeypatch, name, degree):
    F = builtin(*_SEARCH_BASES[name])
    got = _outcome(find_quotient_superfield(F, degree))
    assert got == _outcome(_reference_search(monkeypatch, F, degree))


@pytest.mark.parametrize("name,degree", [("H3", 2), ("Q2", 2), ("K", 3)])
def test_quotient_search_makes_no_axiom_report(monkeypatch, name, degree):
    # the search only asks whether each quotient is a superfield, so a rejected candidate
    # (one over H3 and two over Q2 before the quotient found, every cubic over K) costs no
    # report
    import mvla.axioms as axioms

    def refused(*_args):
        raise AssertionError("the quotient search made an axiom report")

    F = builtin(*_SEARCH_BASES[name])
    want = _outcome(_reference_search(monkeypatch, F, degree))
    monkeypatch.undo()
    monkeypatch.setattr(axioms, "_report", refused)
    assert _outcome(find_quotient_superfield(F, degree)) == want


def test_quotient_requires_irreducible(H3):
    with pytest.raises(StructureError):
        make_quotient_superfield(H3, Poly(H3, (0, 0, 1)))  # X^2 is reducible


def test_degree_one_quotient_is_isomorphic_to_base(H3):
    K1, pair, gamma = quotient_pair(H3, Poly(H3, (1, 1)))
    assert len(K1.elements) == len(H3.elements)
    f = pair.embedding.mapping
    for a in H3.elements:
        for b in H3.elements:
            assert {f[c] for c in H3.sum_set(a, b)} == K1.sum_set(f[a], f[b])
            assert {f[c] for c in H3.prod_set(a, b)} == K1.prod_set(f[a], f[b])


def test_gf4_construction(gf4, F2):
    G4, pair, g = gf4
    assert len(G4.elements) == 4
    assert G4.is_strict
    assert classify_extension(pair) == "full"
    # x^2 = x + 1 in GF(4) with x the class of X
    assert G4.prod_set(g, g) == {(1, 1)}
    assert verify_axioms(G4, "superfield").passed
    cert = minimal_polynomial(g, pair, 2)
    assert cert.witness == Poly(F2, (1, 1, 1))


def test_h_closure_jumps_with_the_ambient(H2, H3, H5):
    got3, sat3 = eval_closure(2, ExtensionPair.inclusion(H2, H3))
    assert got3 == frozenset(H3.elements) and sat3
    got5, sat5 = eval_closure(2, ExtensionPair.inclusion(H2, H5))
    assert got5 == frozenset(H5.elements) and sat5


def test_closure_of_base_element_contains_base_image(h3_quotient):
    Kq, pair, gamma, _, _ = h3_quotient
    f = pair.embedding.mapping
    got, _ = eval_closure(f[1], pair)
    assert frozenset(f.values()) <= got


def test_closure_multiples_family(H2, H3):
    pair = ExtensionPair.inclusion(H2, H3)
    g = Poly(H2, (0, 1))  # multiples of X evaluate inside the closure of 2
    got, _ = eval_closure(2, pair, family="multiples", g=g, bound=3)
    whole, _ = eval_closure(2, pair)
    assert H3.zero in got
    assert got <= whole


def test_minimal_polynomials(h3_quotient):
    Kq, pair, gamma, p, _ = h3_quotient
    f = pair.embedding.mapping
    for a in pair.small.elements:
        cert = minimal_polynomial(f[a], pair, 2)
        assert cert is not None and cert.witness.degree == 1
    cert = minimal_polynomial(gamma, pair, 2)
    assert cert is not None and cert.witness.degree <= 2
    assert Kq.zero in _eval_in_big(cert.witness, gamma, pair)


def _eval_in_big(f, alpha, pair):
    from mvla.polys import evaluate
    return evaluate(f, alpha, pair.big, via=pair.embedding)


def test_generation_degree(h3_quotient, gf4):
    Kq, pair, gamma, _, _ = h3_quotient
    assert generation_degree(pair, gamma) == 1
    G4, pair4, g4 = gf4
    assert generation_degree(pair4, g4) == 1


def test_almost_full_verdicts(h3_quotient, gf4):
    Kq, pair, gamma, _, _ = h3_quotient
    assert is_almost_full(pair, gamma) == (True, None)
    G4, pair4, g4 = gf4
    assert is_almost_full(pair4, g4) == (True, None)  # strict fields trivially


def test_almost_full_mutation_gets_a_witness(h3_quotient):
    Kq, pair, gamma, _, _ = h3_quotient
    broken = Kq.with_entry("prod", gamma, gamma, {Kq.one})
    pair_b = ExtensionPair.of(pair.small, broken, pair.embedding.mapping)
    verdict, wit = is_almost_full(pair_b, gamma, gen_degree=1)
    assert verdict is False and wit


def test_certify_algebraic_extension(h3_quotient, gf4):
    Kq, pair, gamma, _, _ = h3_quotient
    rep = certify_algebraic_extension(pair, 2)
    assert rep.all_algebraic and len(rep.certificates) == 9
    assert rep.degree_claim_holds
    for el, cert in rep.certificates.items():
        assert Kq.zero in _eval_in_big(cert.witness, el, pair)
    G4, pair4, _ = gf4
    rep4 = certify_algebraic_extension(pair4, 2)
    assert rep4.all_algebraic and rep4.degree_claim_holds


def test_trivial_self_extension_certificates(H3):
    pair = ExtensionPair.inclusion(H3, H3)
    rep = certify_algebraic_extension(pair, 1)
    assert rep.all_algebraic
    assert all(c.witness.degree == 1 for c in rep.certificates.values())


def test_factor_splitting_in_quotient(h3_quotient):
    # (b-bar + c-bar lambda) f = b-bar f + c-bar lambda f, setwise, everywhere
    Kq, pair, gamma, _, _ = h3_quotient
    emb = pair.embedding.mapping
    F = pair.small
    for b in F.elements:
        for c in F.elements:
            lead = Kq.prod_set(emb[c], gamma)
            u_set = msum_sets(Kq, [[emb[b]], lead])
            for f in Kq.elements:
                left = frozenset()
                for u in u_set:
                    left |= Kq.prod_set(u, f)
                right = msum_sets(Kq, [Kq.prod_set(emb[b], f),
                                       mprod_sets(Kq, [lead, [f]])])
                assert left == right, (b, c, f)


def test_factor_splitting_beyond_basis_powers_is_open(h3_quotient):
    # with r = 2 = deg p the splitting identity leaves the basis powers and
    # representative arithmetic starts to disagree; the gap is recorded here
    Kq, pair, gamma, _, _ = h3_quotient
    emb = pair.embedding.mapping
    F = pair.small
    lam2 = Kq.prod_set(gamma, gamma)
    violations = 0
    for g in Kq.elements:
        for d in F.elements:
            tail = mprod_sets(Kq, [[emb[d]], lam2])
            u_set = msum_sets(Kq, [[g], tail])
            for f in Kq.elements:
                left = frozenset()
                for u in u_set:
                    left |= Kq.prod_set(u, f)
                right = msum_sets(Kq, [Kq.prod_set(g, f),
                                       mprod_sets(Kq, [tail, [f]])])
                if left != right:
                    violations += 1
    assert violations > 0  # documented deviation, not an invariant


def test_almost_full_newton_binom(h3_quotient):
    # equality at n = 2; at n = 3 only the containment survives on this
    # construction, and the equality gap is pinned down as a witness
    Kq, pair, gamma, _, _ = h3_quotient
    emb = pair.embedding.mapping
    F = pair.small
    gap_seen = False
    for a in F.elements:
        for b in F.elements:
            base = msum_sets(Kq, [[emb[a]], Kq.prod_set(emb[b], gamma)])
            bg = Kq.prod_set(emb[b], gamma)
            for n in (2, 3):
                left = mprod_sets(Kq, [base] * n)
                terms = []
                for j in range(n + 1):
                    term = mprod_sets(Kq, [[emb[a]]] * j + [bg] * (n - j))
                    terms.extend([term] * comb(n, j))
                right = msum_sets(Kq, terms)
                assert left <= right, (a, b, n)
                if n == 2:
                    assert left == right, (a, b)
                elif left != right:
                    gap_seen = True
    assert gap_seen


def test_gamma_expansion_products_stay_in_convolution(h3_quotient):
    # distributed reading of the convolution bound, exhaustive at degree <= 2
    Kq, pair, gamma, _, _ = h3_quotient
    emb = pair.embedding.mapping
    F = pair.small
    powers = [frozenset([Kq.one])]
    for _ in range(4):
        powers.append(mprod_sets(Kq, [powers[-1], [gamma]]))
    for at in itertools.product(F.elements, repeat=3):
        for bt in itertools.product(F.elements, repeat=3):
            A = msum_sets(Kq, [mprod_sets(Kq, [[emb[a]], powers[i]])
                               for i, a in enumerate(at)])
            B = msum_sets(Kq, [mprod_sets(Kq, [[emb[b]], powers[i]])
                               for i, b in enumerate(bt)])
            left = mprod_sets(Kq, [A, B])
            terms = []
            for k in range(5):
                for j in range(max(0, k - 2), min(k, 2) + 1):
                    prod_f = F.prod_set(at[j], bt[k - j])
                    terms.append(msum_sets(
                        Kq, [mprod_sets(Kq, [[emb[c]], powers[k]])
                             for c in prod_f]))
            right = msum_sets(Kq, terms)
            assert left <= right, (at, bt)


def test_split_system_closure_samples(h3_quotient):
    # the built quotient is linearly closed on 2x3 samples; whenever the
    # coordinate-splitting recipe produces a common base solution, that
    # solution embeds and solves the original system
    Kq, pair, gamma, _, _ = h3_quotient
    F = pair.small
    emb = pair.embedding.mapping
    rng = random.Random(51)
    recipe_hits = 0
    for _ in range(20):
        entries = [rng.choice(Kq.elements) for _ in range(6)]
        A = Matrix(Kq, 2, 3, entries)
        hs = homogeneous(A)
        direct = None
        for combo in itertools.product(Kq.elements, repeat=3):
            if all(e == Kq.zero for e in combo):
                continue
            d = Matrix.column(Kq, combo)
            if all(Kq.zero in v for v in row_value_sets(hs, d)):
                direct = combo
                break
        assert direct is not None  # the quotient stays linearly closed here

        splits = [Matrix(F, 2, 3, [entries[i * 3 + j][k] for i in range(2)
                                   for j in range(3)]) for k in range(2)]
        common = None
        for combo in itertools.product(F.elements, repeat=3):
            if all(e == F.zero for e in combo):
                continue
            dd = Matrix.column(F, combo)
            if all(all(F.zero in v for v in row_value_sets(homogeneous(M), dd))
                   for M in splits):
                common = combo
                break
        if common is not None:
            d = Matrix.column(Kq, [emb[c] for c in common])
            assert all(Kq.zero in v for v in row_value_sets(hs, d))
            recipe_hits += 1
    assert recipe_hits > 0  # the splitting recipe applies to part of the space
