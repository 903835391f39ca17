"""Polynomials with set-valued arithmetic over a structure.

A polynomial is a finite coefficient sequence in canonical form (no trailing
zeros); the zero polynomial is the empty sequence and its degree is the
distinguished marker NEG_INF.  Sums and products of single polynomials have
coefficientwise independent choices, so they are stored as coefficient boxes
(one set per position) and materialized on demand.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

from .axioms import structure_is
from .errors import BlowupError, MvlaError, StructureError
from .structures import mprod_sets, msum_sets

NEG_INF = float("-inf")

DEFAULT_SET_CAP = 10 ** 6


class Poly:
    """A polynomial over a finite structure, in canonical form."""

    __slots__ = ("base", "coeffs")

    def __init__(self, base, coeffs):
        coeffs = list(coeffs)
        while coeffs and coeffs[-1] == base.zero:
            coeffs.pop()
        for c in coeffs:
            if c not in base:
                raise StructureError(f"coefficient {c!r} not in {base.name}")
        self.base = base
        self.coeffs = tuple(coeffs)

    @classmethod
    def zero(cls, base):
        return cls(base, ())

    @classmethod
    def one(cls, base):
        return cls(base, (base.one,))

    @classmethod
    def constant(cls, base, a):
        return cls(base, (a,))

    @classmethod
    def x_power(cls, base, n, coeff=None):
        c = base.one if coeff is None else coeff
        return cls(base, (base.zero,) * n + (c,))

    @property
    def degree(self):
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    @property
    def is_zero(self):
        return not self.coeffs

    def coeff(self, i):
        return self.coeffs[i] if i < len(self.coeffs) else self.base.zero

    def padded(self, length):
        return self.coeffs + (self.base.zero,) * (length - len(self.coeffs))

    def shift(self, m):
        """X^m times this polynomial (exact, by the monomial shift identity)."""
        if self.is_zero:
            return self
        return Poly(self.base, (self.base.zero,) * m + self.coeffs)

    def neg(self):
        return Poly(self.base, tuple(self.base.neg(c) for c in self.coeffs))

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self.base is other.base and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((id(self.base), self.coeffs))

    def __repr__(self):
        if self.is_zero:
            return "Poly<0>"
        return "Poly<" + ",".join(str(c) for c in self.coeffs) + ">"

    def sort_key(self):
        idx = self.base.index
        return (len(self.coeffs), tuple(idx(c) for c in self.coeffs))


class PolySet:
    """A coefficient box: per-position nonempty sets, trailing {0} stripped."""

    __slots__ = ("base", "coeff_sets")

    def __init__(self, base, coeff_sets):
        sets = [frozenset(s) for s in coeff_sets]
        zero = frozenset([base.zero])
        while sets and sets[-1] == zero:
            sets.pop()
        for s in sets:
            if not s:
                raise StructureError("empty coefficient set")
        self.base = base
        self.coeff_sets = tuple(sets)

    @classmethod
    def singleton(cls, f):
        return cls(f.base, [frozenset([c]) for c in f.coeffs])

    @property
    def size_bound(self):
        n = 1
        for s in self.coeff_sets:
            n *= len(s)
        return n

    def coeff_set(self, i):
        if i < len(self.coeff_sets):
            return self.coeff_sets[i]
        return frozenset([self.base.zero])

    def members(self, cap=DEFAULT_SET_CAP):
        if self.size_bound > cap:
            raise BlowupError(f"poly box of {self.size_bound} members exceeds cap {cap}")
        axes = [self.base.canon(s) for s in self.coeff_sets]
        return tuple(Poly(self.base, combo) for combo in itertools.product(*axes))

    def __contains__(self, f):
        if not isinstance(f, Poly) or f.base is not self.base:
            return False
        if len(f.coeffs) > len(self.coeff_sets):
            return False
        return all(f.coeff(i) in self.coeff_set(i) for i in range(len(self.coeff_sets)))

    def __eq__(self, other):
        if not isinstance(other, PolySet):
            return NotImplemented
        return self.base is other.base and self.coeff_sets == other.coeff_sets

    def __hash__(self):
        return hash((id(self.base), self.coeff_sets))

    def __repr__(self):
        parts = ["{" + ",".join(str(c) for c in self.base.canon(s)) + "}"
                 for s in self.coeff_sets]
        return "PolySet<" + ";".join(parts) + ">"


def _same_base(f, g):
    if f.base is not g.base:
        raise StructureError("polynomials live over different structures")


def padd(f, g):
    """Coefficientwise set-valued sum of two polynomials."""
    _same_base(f, g)
    S = f.base
    n = max(len(f.coeffs), len(g.coeffs))
    return PolySet(S, [S.sum_set(f.coeff(i), g.coeff(i)) for i in range(n)])


def pmul(f, g):
    """Convolution product of two polynomials; each coefficient is independent."""
    _same_base(f, g)
    S = f.base
    if f.is_zero or g.is_zero:
        return PolySet.singleton(Poly.zero(S))
    n = len(f.coeffs) + len(g.coeffs) - 1
    sets = []
    for k in range(n):
        terms = [S.prod_mask(f.coeff(i), g.coeff(k - i))
                 for i in range(max(0, k - len(g.coeffs) + 1),
                                min(k, len(f.coeffs) - 1) + 1)]
        sets.append(msum_sets(S, terms))
    return PolySet(S, sets)


def padd_sets(ps1, ps2):
    """Box sum of two coefficient boxes (coefficientwise unions of sums)."""
    if ps1.base is not ps2.base:
        raise StructureError("polynomial boxes over different structures")
    S = ps1.base
    n = max(len(ps1.coeff_sets), len(ps2.coeff_sets))
    out = []
    for i in range(n):
        m = S.add_masks(S.mask_of(ps1.coeff_set(i)), S.mask_of(ps2.coeff_set(i)))
        out.append(S.set_of(m))
    return PolySet(S, out)


def pmul_fold(polys, cap=DEFAULT_SET_CAP):
    """Memberwise fold of the product over a sequence of polynomials.

    Iterated products follow the finite-product convention, so the fold goes
    through concrete members rather than boxes.  Returns a frozenset of Poly.
    """
    polys = list(polys)
    if not polys:
        raise StructureError("empty product fold has no base")
    acc = {polys[0]}
    for g in polys[1:]:
        nxt = set()
        for f in acc:
            nxt.update(pmul(f, g).members(cap))
            if len(nxt) > cap:
                raise BlowupError("product fold exceeded cap")
        acc = nxt
    return frozenset(acc)


def psum_members(sets_of_polys, base, cap=DEFAULT_SET_CAP):
    """Memberwise fold of the sum over sets of polynomials."""
    acc = {Poly.zero(base)}
    started = False
    for part in sets_of_polys:
        part = list(part)
        if not started:
            acc, started = set(part), True
            continue
        nxt = set()
        for f in acc:
            for g in part:
                nxt.update(padd(f, g).members(cap))
                if len(nxt) > cap:
                    raise BlowupError("sum fold exceeded cap")
        acc = nxt
    return frozenset(acc)


def all_polys(S, max_degree, include_zero=True):
    """Every canonical polynomial of degree <= max_degree, in canonical order."""
    out = [Poly.zero(S)] if include_zero else []
    for d in range(max_degree + 1):
        lead = [e for e in S.elements if e != S.zero]
        for low in itertools.product(S.elements, repeat=d):
            for top in lead:
                out.append(Poly(S, low + (top,)))
    return out


# -- degree laws -------------------------------------------------------------


def pdeg_laws_check(S, bound, witness_limit=6):
    """Exhaustive degree laws for sums and products of polynomials of degree <= bound.

    Labels: deg-sum-max (members of f+g never exceed the larger degree, for
    f != -g), deg-sum-exact (unequal degrees force every member to have the
    larger degree, by the unit law on the stray top coefficient), deg-prod
    (exact additivity over superdomains) and deg-factorization (products of p
    linear factors have degree p).  A lower degree bound for sums of
    equal-degree polynomials does NOT hold in general, not even classically;
    see deg_sum_min_counterexamples.
    """
    from .axioms import AxiomReport, FAIL, PASS

    polys = all_polys(S, bound, include_zero=False)
    superdomain = structure_is(S, "superdomain")
    witnesses = []
    checked = 0
    per_label = max(1, witness_limit // 3)

    def note(label, ok, instance):
        nonlocal checked
        checked += 1
        if not ok and sum(1 for ax, _ in witnesses if ax == label) < per_label:
            witnesses.append((label, instance))

    for f in polys:
        for g in polys:
            if g == f.neg():
                continue  # excluded case: the sum may contain the zero polynomial
            hi = max(f.degree, g.degree)
            members = padd(f, g).members()
            note("deg-sum-max", all(t.degree <= hi for t in members), (f.coeffs, g.coeffs))
            if f.degree != g.degree:
                note("deg-sum-exact", all(t.degree == hi for t in members),
                     (f.coeffs, g.coeffs))

    if superdomain:
        for f in polys:
            for g in polys:
                want = f.degree + g.degree
                ok = all(t.degree == want for t in pmul(f, g).members())
                note("deg-prod", ok, (f.coeffs, g.coeffs))
        # partial factorization: members of (X-a_1)...(X-a_p) all have degree p
        for p in range(1, bound + 1):
            for roots in itertools.product(S.elements, repeat=p):
                factors = [Poly(S, (S.neg(a), S.one)) for a in roots]
                note("deg-factorization",
                     all(t.degree == p for t in pmul_fold(factors)), roots)

    verdict = FAIL if witnesses else PASS
    return AxiomReport(subject=S.name, kind=f"degree-laws(deg<={bound})",
                       verdict=verdict, witnesses=tuple(witnesses), checked=checked)


def deg_sum_min_counterexamples(S, bound, limit=5):
    """Witnesses against the lower degree bound for sums of equal-degree polys.

    Over any base where top coefficients can cancel (already over the strict
    field F3: X plus 1+2X is the constant 1) a member of f+g can drop below
    min(deg f, deg g) although f != -g.  Kept as a documented discrepancy
    probe rather than a law.
    """
    out = []
    polys = all_polys(S, bound, include_zero=False)
    for f in polys:
        for g in polys:
            if g == f.neg() or f.degree != g.degree:
                continue
            lo = min(f.degree, g.degree)
            for t in padd(f, g).members():
                if t.degree < lo:
                    out.append((f, g, t))
                    break
            if len(out) >= limit:
                return out
    return out


# -- Euclidean division -----------------------------------------------------------


def pdivmod(f, g, all_pairs=False, cap=DEFAULT_SET_CAP):
    """Pairs (q, r) with f in q*g + r and deg r < deg g (or r = 0).

    The base must be a superfield.  With all_pairs=False the first pair in
    canonical search order is returned (quotient coefficients iterate in
    carrier order, leading coefficient outermost); with all_pairs=True every
    pair within the degree bound deg q = deg f - deg g is enumerated.
    """
    _same_base(f, g)
    S = f.base
    if g.is_zero:
        raise StructureError("division by the zero polynomial")
    if not structure_is(S, "superfield"):
        raise StructureError(f"{S.name} is not a superfield")

    if f.is_zero or f.degree < g.degree:
        return ((Poly.zero(S), f),)

    dq = f.degree - g.degree
    dr = g.degree  # r has positions 0..deg g - 1
    lead = [e for e in S.elements if e != S.zero]
    found = []
    count = 0
    for top in lead:
        for high_to_low in itertools.product(S.elements, repeat=dq):
            q = Poly(S, tuple(reversed(high_to_low)) + (top,))
            box = pmul(q, g)
            for rc in itertools.product(S.elements, repeat=dr):
                count += 1
                if count > cap:
                    raise BlowupError("division search exceeded cap")
                ok = True
                n = max(len(box.coeff_sets), len(f.coeffs), dr)
                for i in range(n):
                    target = f.coeff(i)
                    r_i = rc[i] if i < dr else S.zero
                    cell = S.add_masks(S.mask_of(box.coeff_set(i)), 1 << S.index(r_i))
                    if not cell >> S.index(target) & 1:
                        ok = False
                        break
                if ok:
                    pair = (q, Poly(S, rc))
                    if not all_pairs:
                        return (pair,)
                    found.append(pair)
    if not found:
        raise MvlaError(f"division of {f!r} by {g!r} found no (q, r) in bound; "
                        "the base structure violates the division guarantee")
    return tuple(found)


def divmod_holds(f, g, q, r):
    """Re-verify one division pair by direct membership."""
    box = pmul(q, g)
    S = f.base
    n = max(len(box.coeff_sets), len(f.coeffs), len(r.coeffs))
    for i in range(n):
        m = S.add_masks(S.mask_of(box.coeff_set(i)), 1 << S.index(r.coeff(i)))
        if not m >> S.index(f.coeff(i)) & 1:
            return False
    return True


# -- evaluation and roots -----------------------------------------------------------


@lru_cache(maxsize=256)
def _morphism_ok(spec):
    from .axioms import check_morphism
    return check_morphism(spec).passed


def _coeff_map(f, ambient, via):
    from .axioms import MorphismSpec
    if via is not None:
        if via.source is not f.base or via.target is not ambient:
            raise StructureError("morphism endpoints do not match the evaluation")
        if not _morphism_ok(via):
            raise StructureError("evaluation map is not a morphism")
        return via.mapping.__getitem__
    if ambient is f.base:
        return lambda a: a
    spec = MorphismSpec.inclusion(f.base, ambient)
    if not _morphism_ok(spec):
        raise StructureError(
            f"inclusion {f.base.name} -> {ambient.name} is not a morphism; "
            "pass an explicit via= map")
    return lambda a: a


def evaluate(f, alpha, ambient=None, via=None):
    """All values of f at alpha inside the ambient structure."""
    ambient = ambient or f.base
    if alpha not in ambient:
        raise StructureError(f"{alpha!r} is not in {ambient.name}")
    h = _coeff_map(f, ambient, via)
    if f.is_zero:
        return frozenset([ambient.zero])
    terms = []
    for i, a in enumerate(f.coeffs):
        terms.append(mprod_sets(ambient, [[h(a)]] + [[alpha]] * i))
    return msum_sets(ambient, terms)


def is_root(f, alpha, ambient=None, via=None):
    ambient = ambient or f.base
    return ambient.zero in evaluate(f, alpha, ambient, via)


def is_effective_root(f, alpha, bound=None):
    """A witness g with f in (X - alpha) * g, or None.

    The search runs over g of degree exactly deg f - 1 (bound overrides),
    in canonical coefficient order.
    """
    S = f.base
    if f.is_zero or f.degree < 1:
        return None
    dg = (f.degree - 1) if bound is None else bound
    xma = Poly(S, (S.neg(alpha), S.one))
    for g in all_polys(S, dg):
        if g.is_zero or g.degree != dg:
            continue
        if f in pmul(xma, g):
            return g
    return None


# -- irreducibility ------------------------------------------------------------------


def _bits(mask, k):
    return tuple(i for i in range(k) if mask >> i & 1)


class _MaskSums(dict):
    """(x, y) -> carrier indices in the mask sum x + y, filled on first use."""

    __slots__ = ("base",)

    def __init__(self, base):
        super().__init__()
        self.base = base

    def __missing__(self, key):
        got = self[key] = _bits(self.base.add_masks(*key), len(self.base))
        return got


def _ideal_members_bounded(u, deg_cap, h_deg, max_terms):
    """Bounded slice of the ideal generated by a nonzero u in the polynomial superring.

    Members of h1*u + ... + ht*u with t <= max_terms and deg hi <= h_deg,
    restricted afterwards to degree <= deg_cap.  The bound makes the decision
    procedure incomplete in principle; callers report it with their verdicts.

    The kernel works on element indices.  A polynomial is a tuple of carrier
    indices of one fixed length, padded with the index of zero, so equal
    polynomials are equal tuples; the padding is exact because 0 + 0 = {0}.
    A box is a tuple of per-position masks.  The slice is returned as index
    tuples of length deg_cap + 1.
    """
    S = u.base
    k = len(S)
    z = S.index(S.zero)
    uc = [S.index(c) for c in u.coeffs]
    n = len(uc)
    width = max(h_deg + n, deg_cap + 1)

    # the boxes h*u, each position folded exactly as pmul folds it
    prod = S._prod
    zbit = 1 << z
    boxes = {(zbit,) * width}  # h = 0
    nonzero = [i for i in range(k) if i != z]
    for d in range(h_deg + 1):
        pad = (zbit,) * (width - d - n)
        for low in itertools.product(range(k), repeat=d):
            for top in nonzero:
                h = low + (top,)
                box = []
                for j in range(d + n):
                    m = None
                    for i in range(max(0, j - n + 1), min(j, d) + 1):
                        t = prod[h[i]][uc[j - i]]
                        m = t if m is None else S.add_masks(m, t)
                    box.append(m)
                boxes.add(tuple(box) + pad)

    # Semi-naive closure over B, the union of the boxes: the layers obey
    # L(t+1) = L(t) + B, so T(t+1) = T(t) | (delta(t) + B) with delta(1) = B.
    # A box plus a box is the box of the per-position mask sums, so the first
    # round adds the boxes pairwise and later rounds add each new member as a
    # box of single bits.
    plus = _MaskSums(S)
    tiers = set()
    for box in boxes:
        tiers.update(itertools.product(*(_bits(m, k) for m in box)))
    frontier = boxes
    for _ in range(max_terms - 2):
        new = set()
        for d in frontier:
            for b in boxes:
                new.update(itertools.product(*map(plus.__getitem__, zip(d, b))))
        delta = new - tiers
        tiers |= delta
        frontier = {tuple(1 << a for a in p) for p in delta}

    cut = deg_cap + 1
    tail = (z,) * (width - cut)
    got = {p[:cut] for p in tiers if p[cut:] == tail}
    if max_terms > 1:
        # Last round: a member of d + b survives the cut only when every tail
        # sum d[j] + b[j] (j >= cut) can give 0, and is then cut to its head.
        # So each head box meets each usable box once.
        usable, by_head = {}, {}
        for d in frontier:
            rest = d[cut:]
            if rest not in usable:
                usable[rest] = {b for b in boxes
                                if all(z in s for s in map(plus.__getitem__, zip(rest, b[cut:])))}
            by_head.setdefault(d[:cut], set()).update(usable[rest])
        for head, picks in by_head.items():
            for b in picks:
                got.update(itertools.product(*map(plus.__getitem__, zip(head, b))))
    return frozenset(got)


class IrreducibilityVerdict:
    """Outcome of the bounded irreducibility scan."""

    __slots__ = ("irreducible", "witness", "note")

    def __init__(self, irreducible, witness, note):
        self.irreducible = irreducible
        self.witness = witness
        self.note = note

    def __bool__(self):
        return self.irreducible

    def __repr__(self):
        tag = "irreducible" if self.irreducible else f"reducible by {self.witness!r}"
        return f"IrreducibilityVerdict({tag}; {self.note})"


def is_irreducible(f, max_terms=3):
    """Bounded divisor scan for irreducibility over a finite superfield.

    Nonconstant divisors u are tested: whenever f lies in the (bounded) ideal
    of u, the ideals of f and u must agree on every polynomial of degree
    <= deg f.  Constants are units in a superfield and generate everything,
    so they are excluded from the scan.
    """
    S = f.base
    if not structure_is(S, "superfield"):
        raise StructureError(f"{S.name} is not a superfield")
    if f.is_zero or f.degree < 1:
        raise StructureError("irreducibility needs deg f >= 1")
    cap = f.degree
    note = f"bounded: <= {max_terms} terms, deg h <= {cap}"
    target = tuple(S.index(c) for c in f.coeffs)
    own = _ideal_members_bounded(f, cap, cap, max_terms)
    for u in all_polys(S, f.degree):
        if u.is_zero or u.degree < 1 or u == f:
            continue
        through_u = _ideal_members_bounded(u, cap, cap, max_terms)
        if target in through_u and through_u != own:
            return IrreducibilityVerdict(False, u, note)
    return IrreducibilityVerdict(True, None, note)
