"""Superfield extensions and the quotient construction F[X]/<p>.

Quotient elements are coefficient vectors of length deg p (canonical coset
representatives), numbered in itertools.product order.  The sum, negation and
zero are the componentwise tables of F^(deg p).  Each product cell divides the
convolution box by p position by position: for each quotient q the admissible
remainders form a box, and the cell is the union of those boxes, so no
multivalue is silently dropped and no member is expanded.  Constructed
quotients are only released after passing the full superfield axiom scan.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .axioms import MorphismSpec, check_morphism, structure_is, verify_axioms
from .errors import CongruenceError, ReducibleError, StructureError, charge
from .matrices import _rank
from .polys import (Poly, PolySet, _coeff_map, _divisions, _irreducible, _members_bits,
                    _nonzero, _values, all_polys, pmul)
from .structures import Structure, _bits
from .vspaces import _componentwise_tables, _dependence, extension_space


@dataclass(frozen=True)
class ExtensionPair:
    small: Structure
    big: Structure
    embedding: MorphismSpec

    @classmethod
    def inclusion(cls, small, big):
        return cls(small, big, MorphismSpec.inclusion(small, big))

    @classmethod
    def of(cls, small, big, mapping):
        return cls(small, big, MorphismSpec.from_mapping(small, big, mapping))


def classify_extension(pair):
    """Strongest applicable label: full > extension > proto > not-an-extension."""
    emb = pair.embedding
    if not emb.is_injective:
        return "not-an-extension"
    if check_morphism(emb, full=True, witness_limit=1).passed:
        return "full"
    if check_morphism(emb, witness_limit=1).passed:
        return "extension"
    return "proto"


# -- the quotient superfield -----------------------------------------------------


def _remainder_mask(Z, p, boxes):
    """The remainders of the members of box Z modulo p, the union of the boxes R of
    _divisions, as a mask over the quotient's carrier (see _members_bits)."""
    return _members_bits([R for _, R in _divisions(Z, p, boxes) if R is not None], len(p.base))


def make_quotient_superfield(F, p):
    """The quotient of the polynomial superring by an irreducible p.

    The carrier is every coefficient vector of length deg p; the sum is
    componentwise, the product reduces each convolution box against all
    admissible remainders.  The superfield axioms are re-checked before the
    structure is returned; failure raises a CongruenceError carrying the
    witness (the faithfulness of representative arithmetic to coset
    arithmetic is exactly what that check probes).
    """
    return quotient_pair(F, p)[0]


def quotient_pair(F, p):
    """(quotient, extension pair, generator): the constant embedding and X-bar."""
    verdict = _irreducible(p, {})
    if not verdict:
        raise ReducibleError(f"{p!r} is reducible (witness {verdict.witness!r})",
                             witnesses=(("divisor", verdict.witness),))
    K = _quotient_tables(F, p)
    report = verify_axioms(K, "superfield")
    if not report.passed:
        raise CongruenceError(f"quotient by {p!r} fails the superfield axioms",
                              witnesses=report.witnesses)
    return (K, *_embedding(F, K, p))


def _embedding(F, K, p):
    """The extension pair of the constant embedding F -> K = F[X]/<p>, and X-bar."""
    images = tuple(_rank(len(F), (a,) + (F.zero_i,) * (p.degree - 1)) for a in range(len(F)))
    x = _remainder_mask(PolySet.singleton(Poly.x_power(F, 1)), p, {})
    return ExtensionPair(F, K, MorphismSpec(F, K, images)), K.elements[_bits(x)[0]]


def _quotient_tables(F, p):
    """The quotient's carrier and tables, neither scanned for irreducibility nor verified."""
    m = p.degree
    sum_tab, _, neg, zero_i = _componentwise_tables(F, m)
    boxes = {}
    polys = [Poly.from_indices(F, ix) for ix in itertools.product(range(len(F)), repeat=m)]
    prod_tab = []
    for i, fx in enumerate(polys):
        # the product is symmetric: the cells left of the diagonal are copies
        prod_tab.append([row[i] for row in prod_tab] +
                        [_remainder_mask(pmul(fx, fy), p, boxes) for fy in polys[i:]])

    one_i = _rank(len(F), (F.one_i,) + (F.zero_i,) * (m - 1))
    name = f"{F.name}({','.join(str(c) for c in p.coeffs)})"
    return Structure.from_masks(name, itertools.product(F.elements, repeat=m), zero_i, one_i,
                                neg, sum_tab, prod_tab)


def find_irreducible(F, degree):
    """First irreducible polynomial of the given degree, in canonical order."""
    slices = {}
    for f in all_polys(F, degree):
        if f.degree == degree and _irreducible(f, slices):
            return f
    return None


def find_quotient_superfield(F, degree):
    """First irreducible p of the given degree whose quotient is a superfield.

    Representative arithmetic is not guaranteed to match coset arithmetic for
    every irreducible p (the construction may acquire zero divisors); this
    scan keeps going until the quotient passes and reports the rejected
    candidates alongside the construction.  It asks only whether each quotient
    is a superfield (structure_is, stopped at its first failing test), so no
    axiom report is made for a rejected candidate; quotient_pair raises one.
    All its irreducibility scans share one slice table (over a field they divide
    and build no slice).

    Returns (quotient, pair, gamma, p, rejected) or None.
    """
    rejected = []
    slices = {}
    for p in all_polys(F, degree):
        if p.degree != degree or not _irreducible(p, slices):
            continue
        K = _quotient_tables(F, p)
        if structure_is(K, "superfield"):
            return (K, *_embedding(F, K, p), p, tuple(rejected))
        rejected.append(p)
    return None


# -- evaluation closures ------------------------------------------------------------


def eval_closure(gamma, pair, family="all", g=None, bound=None):
    """Union of evaluations at gamma over a polynomial family, to saturation.

    family "all" runs over every polynomial of F; "multiples" over members of
    h*g.  Degrees grow until the union stops growing or the bound (default
    |K|) is hit; the result reports whether it saturated.
    """
    F, K = pair.small, pair.big
    if gamma not in K:
        raise StructureError(f"{gamma!r} is not in {K.name}")
    if family not in ("all", "multiples"):
        raise StructureError(f"unknown family {family!r}")
    if family == "multiples" and g is None:
        raise StructureError("family 'multiples' needs g")
    bound = len(K.elements) if bound is None else bound
    x, h = K._idx[gamma], _coeff_map(F, K, pair.embedding)

    seen = 0
    saturated = False
    for d in range(bound + 1):
        grown = seen
        for f in all_polys(F, d):
            if f.degree != d and not (d == 0 and f.is_zero):
                continue
            for member in (f,) if family == "all" else pmul(f, g).members():
                grown |= _values(member, x, K, h)
        if d > 0 and grown == seen:
            saturated = True
            break
        seen = grown
    return K.set_of(seen), saturated


@dataclass(frozen=True)
class AlgebraicityCertificate:
    element: object
    witness: Poly


def minimal_polynomial(gamma, pair, bound):
    """Least-degree, then lexicographically least f over F with a root at gamma."""
    F, K = pair.small, pair.big
    if gamma not in K:
        raise StructureError(f"{gamma!r} is not in {K.name}")
    x, h = K._idx[gamma], _coeff_map(F, K, pair.embedding)
    for d in range(1, bound + 1):
        for low in itertools.product(range(len(F)), repeat=d):
            for top in _nonzero(F):
                f = Poly.from_indices(F, low + (top,))
                if _values(f, x, K, h) >> K.zero_i & 1:
                    return AlgebraicityCertificate(gamma, f)
    return None


# -- almost-fullness ----------------------------------------------------------------


def _power_masks(K, x, top):
    """gamma^0 .. gamma^top as masks of K (iterated set products), gamma of index x."""
    powers = [1 << K.one_i]
    for _ in range(top):
        powers.append(K.mul_masks(powers[-1], 1 << x))
    return powers


def generation_degree(pair, gamma, limit=None):
    """Least n with K covered by sums a_0 + a_1 g + ... + a_n g^n, else None.

    Each n is charged its q^(n+1) coefficient tuples (q = |F|), summed over the
    n scanned so far, before it is scanned.
    """
    K = pair.big
    bits = [1 << i for i in pair.embedding.images]
    limit = len(K.elements) if limit is None else limit
    powers = _power_masks(K, K.index(gamma), limit)
    work = 0
    for n in range(limit + 1):
        work += len(bits) ** (n + 1)
        charge(work, "generation degree coefficient tuples")
        covered = 0
        for coeffs in itertools.product(bits, repeat=n + 1):
            covered |= K.sum_of(map(K.mul_masks, coeffs, powers))
        if covered == (1 << len(K)) - 1:
            return n
    return None


def is_almost_full(pair, gamma, gen_degree=None, witness_limit=3):
    """Check (a g^p + b g^q + c g^r) g = a g^(p+1) + b g^(q+1) + c g^(r+1).

    Exhausts all a, b, c in F and distinct powers p, q, r up to n+1 where n
    is the generation degree.  Returns (verdict, witness); verdict is None
    (inconclusive) when the generation assumption cannot be established.  The
    C(n+2, 3) q^3 instances (q = |F|) are charged before the scan.
    """
    F, K = pair.small, pair.big
    bits = [1 << i for i in pair.embedding.images]
    n = generation_degree(pair, gamma) if gen_degree is None else gen_degree
    if n is None:
        return None, "generation degree not established"
    x = K.index(gamma)
    charge(math.comb(n + 2, 3) * len(F) ** 3, "almost-fullness instances")
    powers = _power_masks(K, x, n + 2)  # identities mention exponents up to n+2

    def weighted(coeffs, exps):
        return K.sum_of(K.mul_masks(bits[c], powers[e]) for c, e in zip(coeffs, exps))

    witnesses = []
    for p, q, r in itertools.combinations(range(n + 2), 3):
        for abc in itertools.product(range(len(F)), repeat=3):
            if K.mul_masks(weighted(abc, (p, q, r)), 1 << x) != \
                    weighted(abc, (p + 1, q + 1, r + 1)):
                witnesses.append(tuple(map(F.elements.__getitem__, abc)) + (p, q, r))
                if len(witnesses) >= witness_limit:
                    return False, tuple(witnesses)
    return (False, tuple(witnesses)) if witnesses else (True, None)


# -- algebraic extension certification ------------------------------------------------


@dataclass(frozen=True)
class ExtensionReport:
    pair_label: str
    certificates: dict
    missing: tuple
    degree_claim_bound: int
    degree_claim_holds: bool
    degree_witness: object = None

    @property
    def all_algebraic(self):
        return not self.missing


def _power_chains(K, x, length):
    """All selections (1, gamma, p2, ..., p_length) with p_{k+1} in p_k * gamma, as
    index lists, gamma of index x."""
    chains = [[K.one_i, x]]
    for _ in range(length - 1):
        chains = [ch + [nxt] for ch in chains for nxt in _bits(K._prod[ch[-1]][x])]
    return chains


def certify_algebraic_extension(pair, bound):
    """Per-element algebraicity certificates plus the degree bound check.

    Every element of the big structure gets a minimal-polynomial search up to
    the bound; the degree claim is checked through vector-space independence
    of power chains {1, lambda, ..., lambda^bound} (selections of the
    multivalued powers), which must never be independent past the bound.
    """
    K = pair.big
    found = {el: minimal_polynomial(el, pair, bound) for el in K.elements}
    V = extension_space(pair)
    # chains with collisions cannot witness an oversized independent set
    degree_witness = next(((el, tuple(map(K.elements.__getitem__, chain)))
                           for x, el in enumerate(K.elements)
                           for chain in _power_chains(K, x, bound)
                           if len(set(chain)) == bound + 1 and _dependence(V, chain) is None),
                          None)
    return ExtensionReport(pair_label=f"{pair.big.name}|{pair.small.name}",
                           certificates={el: c for el, c in found.items() if c is not None},
                           missing=tuple(el for el, c in found.items() if c is None),
                           degree_claim_bound=bound,
                           degree_claim_holds=degree_witness is None,
                           degree_witness=degree_witness)
