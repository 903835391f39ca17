"""Polynomials with set-valued arithmetic over a structure.

A polynomial is a finite coefficient sequence in canonical form (no trailing
zeros), stored as carrier indices; the zero polynomial is the empty sequence
and its degree is the distinguished marker NEG_INF.  Sums and products of
single polynomials have coefficientwise independent choices, so they are
stored as coefficient boxes (one mask per position) and materialized on demand.
"""

from __future__ import annotations

import itertools

from .axioms import MorphismSpec, check_morphism, structure_is
from .errors import MvlaError, StructureError, charge
from .structures import Box, _bits

NEG_INF = float("-inf")

# The irreducibility scan's ideal slices hold sums of at most this many
# multiples of u; the bound is part of every verdict's note.
_TERMS = 3

# The closure sums about this many pairs of boxes (at least one box against all) in
# one lane sum, which bounds its memory.
_BATCH = 1 << 12


def _stripped(indices, zero):
    """An index list without its trailing zero indices, as a tuple."""
    while indices and indices[-1] == zero:
        indices.pop()
    return tuple(indices)


class Poly:
    """A polynomial over a finite structure, in canonical form.

    The coefficients are stored low to high as carrier indices, without
    trailing zeros; `coeffs` reads them back as elements.
    """

    __slots__ = ("base", "indices")

    def __init__(self, base, coeffs):
        coeffs = tuple(coeffs)
        for c in coeffs:
            if c not in base:
                raise StructureError(f"coefficient {c!r} not in {base.name}")
        idx = base._idx
        self.base = base
        self.indices = _stripped([idx[c] for c in coeffs], idx[base.zero])

    @classmethod
    def from_indices(cls, base, indices):
        """The polynomial whose coefficients have the given carrier indices."""
        f = cls.__new__(cls)
        f.base = base
        f.indices = _stripped(list(indices), base.zero_i)
        return f

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
    def coeffs(self):
        return tuple(map(self.base.elements.__getitem__, self.indices))

    @property
    def degree(self):
        return len(self.indices) - 1 if self.indices else NEG_INF

    @property
    def is_zero(self):
        return not self.indices

    def coeff(self, i):
        return self.base.elements[self.indices[i]] if i < len(self.indices) else self.base.zero

    def padded(self, length):
        return self.coeffs + (self.base.zero,) * (length - len(self.indices))

    def shift(self, m):
        """X^m times this polynomial (exact, by the monomial shift identity)."""
        if self.is_zero:
            return self
        return Poly.from_indices(self.base, (self.base.zero_i,) * m + self.indices)

    def neg(self):
        return Poly.from_indices(self.base, map(self.base._neg.__getitem__, self.indices))

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self.base is other.base and self.indices == other.indices

    def __hash__(self):
        return hash(self.indices)

    def __repr__(self):
        if self.is_zero:
            return "Poly<0>"
        return "Poly<" + ",".join(str(c) for c in self.coeffs) + ">"


class PolySet(Box):
    """A coefficient box: one mask per position, trailing {0} positions stripped."""

    __slots__ = ()
    kind = "poly"

    def __init__(self, base, masks):
        masks = list(masks)
        zero = 1 << base.zero_i
        while masks and masks[-1] == zero:
            masks.pop()
        super().__init__(base, masks)

    @classmethod
    def singleton(cls, f):
        return cls(f.base, [1 << i for i in f.indices])

    def coeff_set(self, i):
        S = self.base
        return S.set_of(self.masks[i]) if i < len(self.masks) else frozenset([S.zero])

    def members(self):
        return tuple(Poly.from_indices(self.base, combo) for combo in self.choices())

    def __contains__(self, f):
        if not isinstance(f, Poly) or f.base is not self.base:
            return False
        pad = (self.base.zero_i,) * (len(self.masks) - len(f.indices))
        return super().__contains__(f.indices + pad)

    def __repr__(self):
        return "PolySet<" + ";".join(self._cells()) + ">"


def _same_base(f, g):
    if f.base is not g.base:
        raise StructureError("polynomials live over different structures")


def padd(f, g):
    """Coefficientwise set-valued sum of two polynomials."""
    _same_base(f, g)
    return PolySet.singleton(f).add(PolySet.singleton(g))


def pmul(f, g):
    """Convolution product of two polynomials; each coefficient is independent."""
    _same_base(f, g)
    S = f.base
    rows = [S._prod[i] for i in f.indices]
    cols = g.indices
    n = len(rows) + len(cols) - 1 if rows and cols else 0
    return PolySet(S, [S.sum_of(rows[i][cols[k - i]]
                                for i in range(max(0, k - len(cols) + 1),
                                               min(k, len(rows) - 1) + 1))
                       for k in range(n)])


def padd_sets(ps1, ps2):
    """Box sum of two coefficient boxes (coefficientwise unions of sums)."""
    return ps1.add(ps2)


def pmul_fold(polys):
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
            nxt.update(pmul(f, g).members())
            charge(len(nxt), "product fold members")
        acc = nxt
    return frozenset(acc)


def all_polys(S, max_degree, include_zero=True):
    """Every canonical polynomial of degree <= max_degree, in canonical order."""
    out = [Poly.zero(S)] if include_zero else []
    lead = _nonzero(S)
    for d in range(max_degree + 1):
        for low in itertools.product(range(len(S)), repeat=d):
            for top in lead:
                out.append(Poly.from_indices(S, low + (top,)))
    return out


def _nonzero(S):
    """The indices of the nonzero elements, in carrier order."""
    return [i for i in range(len(S)) if i != S.zero_i]


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


def pdivmod(f, g, all_pairs=False):
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
    pairs = ((q, Poly.from_indices(S, r)) for q, R in _divisions(PolySet.singleton(f), g, {})
             if R is not None for r in itertools.product(*map(_bits, R)))
    found = tuple(pairs if all_pairs else itertools.islice(pairs, 1))
    if not found:
        raise MvlaError(f"division of {f!r} by {g!r} found no (q, r) in bound; "
                        "the base structure violates the division guarantee")
    return found


def divmod_holds(f, g, q, r):
    """Re-verify one division pair by direct membership."""
    return f in pmul(q, g).add(PolySet.singleton(r))


def _divisions(Z, g, boxes):
    """The divisions of the members of box Z by g, decided position by position.

    Yields (q, R): R is the box of the remainders r (deg g masks, low to high)
    with some member of Z in q*g + r, or None when no r admits one.  The
    members of one degree d form a box, and so does q*g + r, so membership
    holds per position.  The members of degree below deg g come first, as
    their own remainders with q = 0; then, for each degree d >= deg g held by
    a member, every q of degree d - deg g in pdivmod's order (leading
    coefficient outermost, the others from the highest down).  Each q is
    charged k^deg g division steps before it is decided.  boxes maps q's
    indices to q and its box q*g padded to d + 1 positions, shared by the
    calls of one g.
    """
    S = g.base
    k = len(S)
    m = g.degree
    zbit = 1 << S.zero_i
    add = S.add_masks
    bits = [1 << r for r in range(k)]
    masks = Z.masks
    if all(t & zbit for t in masks[m:]):
        yield Poly.zero(S), masks[:m] + (zbit,) * (m - len(masks))
    steps, step = 0, k ** m
    for d in range(m, len(masks)):
        top = masks[d] & ~zbit
        if not top or not all(t & zbit for t in masks[d + 1:]):
            continue
        zd = masks[:d] + (top,)  # the members of degree d
        for lead in _nonzero(S):
            for high_to_low in itertools.product(range(k), repeat=d - m):
                steps += step
                charge(steps, "division search steps")
                key = high_to_low[::-1] + (lead,)
                if key not in boxes:
                    q = Poly.from_indices(S, key)
                    qg = pmul(q, g).masks  # deg q + deg g = d: at most d + 1 positions
                    boxes[key] = q, qg + (zbit,) * (d + 1 - len(qg))
                q, qg = boxes[key]
                if all(a & t for a, t in zip(qg[m:], zd[m:])):
                    R = tuple(sum(b for b in bits if add(a, b) & t) for a, t in zip(qg, zd[:m]))
                    yield q, R if all(R) else None
                else:
                    yield q, None


# -- evaluation and roots -----------------------------------------------------------


def _morphism_ok(spec):
    """check_morphism(spec, witness_limit=1).passed, memoised on the target, so it dies
    with it."""
    cache = spec.target._kind_cache
    key = ("morphism", spec)
    if key not in cache:
        cache[key] = check_morphism(spec, witness_limit=1).passed
    return cache[key]


def _coeff_map(base, ambient, via):
    """The ambient index of each index of base: via's images, or an inclusion's."""
    if via is not None:
        if via.source is not base or via.target is not ambient:
            raise StructureError("morphism endpoints do not match the evaluation")
        if not _morphism_ok(via):
            raise StructureError("evaluation map is not a morphism")
        return via.images
    if ambient is base:
        return range(len(base))
    spec = MorphismSpec.inclusion(base, ambient)
    if not _morphism_ok(spec):
        raise StructureError(
            f"inclusion {base.name} -> {ambient.name} is not a morphism; "
            "pass an explicit via= map")
    return spec.images


def _values(f, x, ambient, h):
    """The mask of all values of f at ambient index x, each coefficient c mapped to h[c]."""
    terms = [ambient.prod_of([1 << h[c]] + [1 << x] * i) for i, c in enumerate(f.indices)]
    return ambient.sum_of(terms)


def evaluate(f, alpha, ambient=None, via=None):
    """All values of f at alpha inside the ambient structure."""
    ambient = ambient or f.base
    if alpha not in ambient:
        raise StructureError(f"{alpha!r} is not in {ambient.name}")
    h = _coeff_map(f.base, ambient, via)
    return ambient.set_of(_values(f, ambient._idx[alpha], ambient, h))


def is_root(f, alpha, ambient=None, via=None):
    ambient = ambient or f.base
    return ambient.zero in evaluate(f, alpha, ambient, via)


def is_effective_root(f, alpha, bound=None):
    """A witness g with f in (X - alpha) * g, or None.

    The search runs over g of degree exactly deg f - 1 (bound overrides),
    in canonical coefficient order, and charges each candidate g.
    """
    S = f.base
    dg = (f.degree - 1) if bound is None else bound
    if f.is_zero or f.degree < 1 or dg < 0:
        return None
    xma = Poly(S, (S.neg(alpha), S.one))
    cands = itertools.product(itertools.product(range(len(S)), repeat=dg), _nonzero(S))
    for n, (low, top) in enumerate(cands, 1):
        charge(n, "effective root candidates")
        g = Poly.from_indices(S, low + (top,))
        if f in pmul(xma, g):
            return g
    return None


# -- irreducibility ------------------------------------------------------------------


def _maximal(boxes):
    """The boxes of a set inside no other box of it.  A box is a bytes string of lanes,
    so int.from_bytes packs it, and p lies inside q iff p | q == q.  So p lies inside a
    kept box iff some p | q is a kept box (p | q = q' puts p inside q').  Boxes of one
    total size never lie strictly inside one another, so a set of them is its own answer.
    Otherwise each box meets only the strictly larger kept boxes."""
    packed = {int.from_bytes(b, "big"): b for b in boxes}
    if len(set(map(int.bit_count, packed))) <= 1:
        return boxes
    kept = set()
    for _, same in itertools.groupby(sorted(packed, key=int.bit_count, reverse=True),
                                     int.bit_count):
        kept.update([p for p in same if kept.isdisjoint(map(p.__or__, kept))])
    return {packed[p] for p in kept}


def _members_bits(boxes, k):
    """The members of a set of boxes as one bitset: index tuple p is bit
    matrices._rank(k, p), its number in product order."""
    got = 0
    for masks in boxes:
        bits = 1
        step = 1
        for m in reversed(masks):
            bits = sum(bits << i * step for i in _bits(m))
            step *= k
        got |= bits
    return got


def _lanewise(A, B, table, ones, full):
    """The setwise op of table on every lane at once: lane p of the result is the union
    of table[i][j] over the bits i of lane p of A and j of lane p of B, as _setwise gives
    it.  A and B are ints of equal lanes; ones holds bit 0 of each lane and full fills
    one lane, so a lane indicator times full covers its lane, and times a mask of the
    table puts the mask in it (a mask fits its lane, so nothing carries)."""
    bs = [(B >> j) & ones for j in range(len(table))]
    out = 0
    for i, row in enumerate(table):
        a = (A >> i) & ones
        if a:
            v = 0
            for b, t in zip(bs, row):
                if b:
                    v |= b * t
            out |= a * full & v
    return out


def _ideal_members_bounded(u, deg_cap, h_deg, max_terms):
    """Bounded slice of the ideal generated by a nonzero u in the polynomial superring.

    Members of h1*u + ... + ht*u with t <= max_terms and deg hi <= h_deg,
    restricted afterwards to degree <= deg_cap.  The bound makes the decision
    procedure incomplete in principle; callers report it with their verdicts.

    The kernel works on boxes of one width, per-position masks padded with {0}
    (exact, as 0 + 0 = {0}).  A box is a bytes string with one lane of
    ceil(k/8) bytes per position, big-endian, so a joined batch of boxes is one
    int and a setwise sum of two batches is a few big-int operations
    (_lanewise), for every carrier size.  Each round keeps only the boxes
    inside no other (an antichain); members are never expanded.  The slice is
    returned as a bitset over the index tuples of length deg_cap + 1 (see
    _members_bits).
    """
    S = u.base
    k = len(S)
    w = (k + 7) // 8  # bytes per lane
    full = (1 << 8 * w) - 1
    zlane = (1 << S.zero_i).to_bytes(w, "big")
    uc = u.indices
    n = len(uc)
    width = max(h_deg + n, deg_cap + 1)
    stride = width * w  # bytes per box

    def ones(lanes):
        return int.from_bytes((1).to_bytes(w, "big") * lanes, "big")

    def split(joined):
        return {joined[p:p + stride] for p in range(0, len(joined), stride)}

    # The boxes h*u of every h at once, one lane per h: first h = 0, then the h of each
    # degree d in turn, h_0 fastest and the nonzero top slowest.  The lanes of degree
    # >= i are then the low ones, and on them the term (i, c), prod[h_i][c], repeats
    # with period k^(i+1).  Each position folds its terms exactly as pmul folds them,
    # each on the lanes whose h has it; the lanes of an h with none hold {0}.
    prod, lead = S._prod, _nonzero(S)
    count = k ** (h_deg + 1)
    one = ones(count)
    low = [(1 << 8 * w * (count - k ** i)) - 1 for i in range(h_deg + 1)]  # degree >= i
    zeros = int.from_bytes(zlane * count, "big")

    def term(i, c):
        runs = [prod[a][c].to_bytes(w, "big") * k ** i for a in range(k)]
        return int.from_bytes(b"".join(runs[a] for a in lead)
                              + b"".join(runs) * (k ** (h_deg - i) - 1), "big")

    joined = bytearray(zlane * width * count)
    for j in range(h_deg + n):
        first = max(0, j - n + 1)
        m = None
        for i in range(first, min(j, h_deg) + 1):
            t = term(i, uc[j - i])
            m = t if m is None else m & ~low[i] | _lanewise(m & low[i], t, S._sum, one, full)
        m = (m | zeros & ~low[first]).to_bytes(count * w, "big")
        for b in range(w):  # position j of every box
            joined[j * w + b::stride] = m[b::w]
    boxes = split(bytes(joined))

    # Semi-naive closure over antichains: L(t+1) = L(t) + B, and a box plus a
    # box is the box of the per-position mask sums.  These are monotone, so a
    # box inside another adds nothing; only a round's new maximal boxes meet B.
    # A row r meets the boxes of B from its start on: the pairs are product(new, B),
    # except that under a symmetric sum table the first round, B + B, sums each
    # unordered pair once.  A batch of rows is one lane sum: each row repeated
    # against the joined boxes it meets.
    boxes = known = _maximal(boxes)
    order = list(boxes)
    every, nb = b"".join(order), len(order)
    symmetric = S._sum == list(map(list, zip(*S._sum)))
    rows = [(r, i if symmetric else 0) for i, r in enumerate(order)]
    size = max(1, _BATCH // nb)  # rows per batch
    for _ in range(max_terms - 1):
        sums = set()
        for at in range(0, len(rows), size):
            batch = rows[at:at + size]
            left = b"".join(r * (nb - start) for r, start in batch)
            right = b"".join(every[start * stride:] for _, start in batch)
            got = _lanewise(int.from_bytes(left, "big"), int.from_bytes(right, "big"),
                            S._sum, ones(len(left) // w), full)
            sums |= split(got.to_bytes(len(left), "big"))
        grown = _maximal(known | sums)
        rows = [(r, 0) for r in grown - known]
        known = grown

    # the cut keeps the heads of the boxes whose tails can be all zero
    cut = deg_cap + 1
    cut_bytes = cut * w
    tail = int.from_bytes(zlane * (width - cut), "big")
    heads = {b[:cut_bytes] for b in known if int.from_bytes(b[cut_bytes:], "big") & tail == tail}
    return _members_bits([[int.from_bytes(h[p:p + w], "big") for p in range(0, cut_bytes, w)]
                          for h in heads], k)


def _unit_scalings(S):
    """The maps x -> c*x (index lists) of the units c whose multiples c*u have the slices
    of u: x -> c*x and x -> x*c permute the singletons and fix 0, and a*(c*b) = (a*c)*b.
    Then box(h*(c*u)) = box((h*c)*u) at every position, and h -> h*c permutes the
    polynomials of each degree, so the two box sets are equal."""
    prod, z = S._prod, S.zero_i
    singles = [1 << i for i in range(len(S))]
    out = []
    for c, left in enumerate(prod):
        right = [row[c] for row in prod]
        cl, cr = [m.bit_length() - 1 for m in left], [m.bit_length() - 1 for m in right]
        if (sorted(left) == sorted(right) == singles and cl[z] == cr[z] == z
                and all([row[j] for j in cl] == prod[cr[a]] for a, row in enumerate(prod))):
            out.append(cl)
    return out


def _slice(slices, u, cap, scalings):
    """The slice of u at degree cap, built once per slice table and class of unit
    multiples: the key is the least of u and its multiples c*u by scalings.  The table's
    search is charged with the k^(cap+1) polynomials of each slice it builds."""
    key = min([u.indices] + [tuple(map(m.__getitem__, u.indices)) for m in scalings])
    if key not in slices:
        charge((len(slices) + 1) * len(u.base) ** (cap + 1), "ideal slice polynomials")
        slices[key] = _ideal_members_bounded(u, cap, cap, _TERMS)
    return slices[key]


def _field_divisor(f, low):
    """The first u in all_polys(S, deg f - 1) order that divides f over a field S (every
    sum and product cell a singleton), or None: classical long division on the index
    tables, which leaves a zero remainder exactly when f = g*u.  The zero polynomial,
    the constants and every u that starts with low (0 up to f's valuation) are skipped,
    and each u tried is charged its (deg f + 1 - deg u) * deg u division steps, summed
    over the u tried so far, before it is divided.  The order is by degree, and a divisor
    u of degree above deg f / 2 has a cofactor g = f / u of degree below it, which comes
    first; so the scan stops after degree deg f // 2."""
    S = f.base
    k, z = len(S), S.zero_i
    mul = [[m.bit_length() - 1 for m in row] for row in S._prod]
    sub = [[row[S._neg[b]].bit_length() - 1 for b in range(k)] for row in S._sum]  # a - b
    inv = {a: row.index(S.one_i) for a, row in enumerate(mul) if a != z}
    lead = _nonzero(S)
    fi = f.indices
    steps = 0
    for e in range(1, f.degree // 2 + 1):
        rest = [z] * e
        for ulow in itertools.product(range(k), repeat=e):
            if ulow[:len(low)] == low:
                continue
            for top in lead:
                steps += (len(fi) - e) * e
                charge(steps, "irreducibility division steps")
                t, r = inv[top], list(fi)
                for i in range(len(fi) - 1 - e, -1, -1):  # the quotient's terms, top first
                    row = mul[mul[r[i + e]][t]]
                    for j, c in enumerate(ulow):
                        r[i + j] = sub[r[i + j]][row[c]]
                if r[:e] == rest:
                    return Poly.from_indices(S, ulow + (top,))
    return None


class IrreducibilityVerdict:
    """Outcome of the irreducibility scan."""

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


def is_irreducible(f):
    """Divisor scan for irreducibility over a finite superfield.

    Nonconstant divisors u are tested: whenever f lies in the (bounded) ideal
    of u, the ideals of f and u must agree on every polynomial of degree
    <= deg f.  Constants are units in a superfield and generate everything,
    so they are excluded from the scan.  So is every u of valuation (index of
    the lowest nonzero coefficient) above f's: as 0 absorbs (x*0 = {0}) and
    0 + 0 = {0}, each member of u's ideal is 0 below u's valuation, so it
    cannot hold f.  f's own slice is built when a u first holds f.

    Over a field (every sum and product cell a singleton) the verdict is decided
    exactly, by trial division: the slice of u is {g*u : deg g <= deg f - deg u}
    with 0, so f lies in it exactly when u divides f, and it equals f's own slice
    exactly when u is an associate c*f, of degree deg f.  So the witness is the
    first u of degree below deg f in canonical order that divides f, and f is
    irreducible when there is none; no slice is built.  The note still names the
    slice bounds, which over a field decide nothing.
    """
    return _irreducible(f, {})


def _irreducible(f, slices):
    """is_irreducible over a table of slices at deg f (see _slice) shared by a search.

    Over a field (a superfield whose sum and product cells are singletons, as the weak
    laws hold with equality on them) it is the trial division of _field_divisor, which
    reads no slice table."""
    S = f.base
    if not structure_is(S, "superfield"):
        raise StructureError(f"{S.name} is not a superfield")
    if f.is_zero or f.degree < 1:
        raise StructureError("irreducibility needs deg f >= 1")
    cap = f.degree
    note = f"bounded: <= {_TERMS} terms, deg h <= {cap}"
    # a u that is 0 up to f's valuation has a slice without f (see is_irreducible)
    low = (S.zero_i,) * (next(j for j, c in enumerate(f.indices) if c != S.zero_i) + 1)
    if S.is_strict:
        u = _field_divisor(f, low)
        return IrreducibilityVerdict(u is None, u, note)
    bit = _members_bits([[1 << i for i in f.indices]], len(S))
    scalings = _unit_scalings(S)
    own = None
    for u in all_polys(S, cap):
        if u.is_zero or u.degree < 1 or u == f or u.indices[:len(low)] == low:
            continue
        through_u = _slice(slices, u, cap, scalings)
        if through_u & bit:
            own = own or _slice(slices, f, cap, scalings)
            if through_u != own:
                return IrreducibilityVerdict(False, u, note)
    return IrreducibilityVerdict(True, None, note)
