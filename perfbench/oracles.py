"""Answer oracles for the benchmark.

Nothing here imports mvla.  The built-in structures are restated from their
definitions as plain element-level tables, and every check is computed with
plain sets and modular integer arithmetic, so an oracle never shares the code
path of the query it checks.
"""

from __future__ import annotations

import functools
import itertools


class Tab:
    """A finite structure as element-level tables: sums and products are frozensets."""

    def __init__(self, name, elements, zero, one, neg, add, mul):
        self.name = name
        self.elements = tuple(elements)
        self.zero = zero
        self.one = one
        self.neg = neg
        self.add = add
        self.mul = mul

    @classmethod
    def of(cls, name, elements, zero, one, neg_fn, add_fn, mul_fn):
        els = tuple(elements)
        return cls(name, els, zero, one, {a: neg_fn(a) for a in els},
                   {(a, b): frozenset(add_fn(a, b)) for a in els for b in els},
                   {(a, b): frozenset(mul_fn(a, b)) for a in els for b in els})

    @classmethod
    def of_structure(cls, S):
        """Read the tables of a structure under test; used only where the
        structure itself is the query's input, never to check how it was built."""
        els = S.elements
        return cls(S.name, els, S.zero, S.one, {a: S.neg(a) for a in els},
                   {(a, b): frozenset(S.sum_set(a, b)) for a in els for b in els},
                   {(a, b): frozenset(S.prod_set(a, b)) for a in els for b in els})


# -- the built-ins, from their definitions -----------------------------------------


def krasner():
    return Tab.of("K", (0, 1), 0, 1, lambda a: a,
                  lambda a, b: {0, 1} if a == b == 1 else {a | b},
                  lambda a, b: {a * b})


def signs():
    def add(a, b):
        if a == 0 or b == 0:
            return {a + b}
        return {a} if a == b else {-1, 0, 1}
    return Tab.of("Q2", (-1, 0, 1), 0, 1, lambda a: -a, add, lambda a, b: {a * b})


def hp(p):
    def add(a, b):
        if a == 0 or b == 0:
            return {a + b}
        return set(range(p)) if a == b else {a, b}
    return Tab.of(f"H{p}", range(p), 0, 1, lambda a: a, add,
                  lambda a, b: {a * b % p})


def kaleidoscope(n):
    def add(a, b):
        if a == -b:
            return set(range(-abs(a), abs(a) + 1))
        return {a if abs(a) > abs(b) else b}

    def mul(a, b):
        if a == 0 or b == 0:
            return {0}
        return {(1 if (a > 0) == (b > 0) else -1) * max(abs(a), abs(b))}
    return Tab.of(f"X{n}", range(-n, n + 1), 0, 1, lambda a: -a, add, mul)


def fp(p):
    return Tab.of(f"F{p}", range(p), 0, 1, lambda a: -a % p,
                  lambda a, b: {(a + b) % p}, lambda a, b: {a * b % p})


@functools.cache
def table(name, param=None):
    return {"K": krasner, "Q2": signs}[name]() if param is None else \
        {"Hp": hp, "Xn": kaleidoscope, "Fp": fp}[name](param)


# -- set arithmetic ---------------------------------------------------------------------


def sadd(T, A, B):
    return frozenset(x for a in A for b in B for x in T.add[a, b])


def smul(T, A, B):
    return frozenset(x for a in A for b in B for x in T.mul[a, b])


def fold_add(T, sets):
    sets = list(sets)
    if not sets:
        return frozenset([T.zero])
    acc = frozenset(sets[0])
    for s in sets[1:]:
        acc = sadd(T, acc, s)
    return acc


def fold_mul(T, sets):
    acc = frozenset([T.one])
    for s in sets:
        acc = smul(T, acc, s)
    return acc


def table_mismatch(S, T):
    """First (op, a, b) where structure S disagrees with tables T, or None."""
    if tuple(S.elements) != T.elements or S.zero != T.zero or S.one != T.one:
        return ("carrier",)
    for a in T.elements:
        if S.neg(a) != T.neg[a]:
            return ("neg", a)
        for b in T.elements:
            if frozenset(S.sum_set(a, b)) != T.add[a, b]:
                return ("sum", a, b)
            if frozenset(S.prod_set(a, b)) != T.mul[a, b]:
                return ("prod", a, b)
    return None


# -- classical polynomials mod p ----------------------------------------------------------


def _trim(f, zero=0):
    """Canonical coefficients: trailing zeros dropped."""
    f = list(f)
    while f and f[-1] == zero:
        f.pop()
    return tuple(f)


def pmod_mul(f, g, p):
    if not f or not g:
        return ()
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] = (out[i + j] + a * b) % p
    return _trim(out)


def pmod_rem(f, g, p):
    r = list(_trim(f))
    g = _trim(g)
    inv = pow(g[-1], -1, p)
    while len(r) >= len(g):
        c = r[-1] * inv % p
        shift = len(r) - len(g)
        for i, b in enumerate(g):
            r[shift + i] = (r[shift + i] - c * b) % p
        r = list(_trim(r))
    return tuple(r)


def trial_irreducible(f, p):
    """Classical irreducibility over F_p by trial division by monic divisors."""
    f = _trim(f)
    d = len(f) - 1
    for k in range(1, d // 2 + 1):
        for low in itertools.product(range(p), repeat=k):
            if not pmod_rem(f, low + (1,), p):
                return False
    return True


def canonical_polys(elements, zero, degree):
    """Exact-degree coefficient tuples in the documented canonical order:
    lower coefficients in carrier order, the leading coefficient innermost."""
    lead = [e for e in elements if e != zero]
    return [low + (top,) for low in itertools.product(elements, repeat=degree)
            for top in lead]


def first_irreducible(p, degree):
    return next(f for f in canonical_polys(range(p), 0, degree)
                if trial_irreducible(f, p))


def gf(p, modulus):
    """GF(p^m) on coefficient vectors of length m, reduced modulo the given polynomial."""
    m = len(modulus) - 1
    els = tuple(itertools.product(range(p), repeat=m))

    def pad(f):
        return tuple(f) + (0,) * (m - len(f))

    return Tab.of(f"GF{p}^{m}", els, (0,) * m, (1,) + (0,) * (m - 1),
                  lambda a: tuple(-x % p for x in a),
                  lambda a, b: {tuple((x + y) % p for x, y in zip(a, b))},
                  lambda a, b: {pad(pmod_rem(pmod_mul(_trim(a), _trim(b), p),
                                             modulus, p))})


def divmod_pairs(T, f, g):
    """Every (q, r) with f in q*g + r, deg q = deg f - deg g and deg r < deg g,
    as canonical coefficient tuples; the short form for deg f < deg g."""
    f, g = _trim(f, T.zero), _trim(g, T.zero)
    if not f or len(f) < len(g):
        return {((), f)}
    dq, dr = len(f) - len(g), len(g) - 1
    out = set()
    for q in canonical_polys(T.elements, T.zero, dq):
        conv = [fold_add(T, [T.mul[q[i], g[k - i]] for i in range(len(q))
                             if 0 <= k - i < len(g)]) for k in range(len(q) + len(g) - 1)]
        for r in itertools.product(T.elements, repeat=dr):
            n = max(len(conv), len(f), dr)
            if all(_at(T, f, i) in sadd(T, conv[i] if i < len(conv) else {T.zero},
                                       {r[i] if i < dr else T.zero}) for i in range(n)):
                out.add((q, _trim(r, T.zero)))
    return out


def _at(T, f, i):
    return f[i] if i < len(f) else T.zero


def eval_poly(T, f, x):
    """All values of f at x: sum over i of f_i * x^i, folded left to right."""
    if not f:
        return frozenset([T.zero])
    return fold_add(T, [fold_mul(T, [{c}] + [{x}] * i) for i, c in enumerate(f)])


# -- matrices and systems --------------------------------------------------------------


def row_values(T, A, d):
    """Value set of each row of A*d; A is a tuple of rows."""
    return [fold_add(T, [T.mul[a, x] for a, x in zip(row, d)]) for row in A]


def weak_strength(T, A, B, d):
    """'solution', 'weak' or None for the candidate d of Ax within B."""
    vals = row_values(T, A, d)
    if not all(v & b for v, b in zip(vals, B)):
        return None
    return "solution" if all(v <= b for v, b in zip(vals, B)) else "weak"


def weak_exists(T, A, B):
    return any(weak_strength(T, A, B, d) is not None
               for d in itertools.product(T.elements, repeat=len(A[0])))


def kernel_ok(T, A, d):
    return any(x != T.zero for x in d) and all(T.zero in v for v in row_values(T, A, d))


def kernel_exists(T, A):
    return any(kernel_ok(T, A, d) for d in itertools.product(T.elements, repeat=len(A[0])))


def det_set(T, A):
    n = len(A)
    terms = []
    for perm in itertools.permutations(range(n)):
        term = fold_mul(T, [{A[j][perm[j]]} for j in range(n)])
        odd = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n)) & 1
        terms.append(frozenset(T.neg[x] for x in term) if odd else term)
    return fold_add(T, terms)


def _has_identity(T, A, B):
    n = len(A)
    return all((T.one if i == j else T.zero) in
               fold_add(T, [T.mul[A[i][k], B[k][j]] for k in range(n)])
               for i in range(n) for j in range(n))


def inverse_ok(T, A, B):
    return _has_identity(T, A, B) and _has_identity(T, B, A)


def inverse_exists(T, A):
    n = len(A)
    for combo in itertools.product(T.elements, repeat=n * n):
        B = tuple(combo[i * n:(i + 1) * n] for i in range(n))
        if inverse_ok(T, A, B):
            return True
    return False


# -- coordinate vector spaces F^N --------------------------------------------------------


def vbox(parts):
    return frozenset(itertools.product(*parts))


def vsum(T, v, w):
    return vbox([T.add[a, b] for a, b in zip(v, w)])


def vact(T, lam, v):
    return vbox([T.mul[lam, a] for a in v])


def vsum_sets(T, A, B):
    return frozenset(x for a in A for b in B for x in vsum(T, a, b))


def vact_sets(T, lams, V):
    return frozenset(x for lam in lams for v in V for x in vact(T, lam, v))


def vspace_instance_fails(T, axiom, inst, full):
    """Re-evaluate one reported axiom instance of F^N from the scalar tables."""
    z = (T.zero,) * (len(inst[-1]) if axiom.startswith("MV") else len(inst[0]))
    if axiom == "group-M2":
        (a,) = inst
        return vsum(T, a, z) != {a}
    if axiom == "group-M1":
        a, b, c = inst
        nb, na = tuple(T.neg[x] for x in b), tuple(T.neg[x] for x in a)
        return a not in vsum(T, c, nb) or b not in vsum(T, na, c)
    if axiom == "group-M4":
        a, b = inst
        return vsum(T, a, b) != vsum(T, b, a)
    if axiom == "group-M3":
        a, b, c = inst
        return not vsum_sets(T, vsum(T, a, b), {c}) <= vsum_sets(T, {a}, vsum(T, b, c))
    if axiom == "MV0-one":
        (v,) = inst
        return vact(T, T.one, v) != {v}
    if axiom == "MV0-zero":
        (v,) = inst
        return vact(T, T.zero, v) != {z}
    if axiom == "MV1":
        lam, mu, v = inst
        return vact_sets(T, T.mul[lam, mu], {v}) != vact_sets(T, {lam}, vact(T, mu, v))
    if axiom == "MV2":
        lam, v, w = inst
        left = vact_sets(T, {lam}, vsum(T, v, w))
        right = vsum_sets(T, vact(T, lam, v), vact(T, lam, w))
        return left != right if full else not left <= right
    if axiom == "MV3":
        lam, mu, v = inst
        left = vact_sets(T, T.add[lam, mu], {v})
        right = vsum_sets(T, vact(T, lam, v), vact(T, mu, v))
        return left != right if full else not left <= right
    raise ValueError(f"unknown axiom {axiom!r}")


@functools.cache
def vspace_passes(T, N, full):
    """Verdict of MV0-MV3 plus the vector multigroup for F^N, F with singleton
    products.  Sums and actions of F^N are boxes, so every axiom splits into
    the same axiom on F, except the full MV3, whose left side shares one scalar
    across coordinates and is checked on the vectors themselves."""
    els = T.elements
    scalar_ok = all(
        T.add[a, T.zero] == {a}
        and T.add[a, b] == T.add[b, a]
        and all(a in T.add[c, T.neg[b]] and b in T.add[T.neg[a], c] for c in T.add[a, b])
        for a in els for b in els)
    scalar_ok = scalar_ok and all(
        sadd(T, T.add[a, b], {c}) <= sadd(T, {a}, T.add[b, c])
        for a in els for b in els for c in els)
    scalar_ok = scalar_ok and all(T.mul[T.one, a] == {a} and T.mul[T.zero, a] == {T.zero}
                                  for a in els)
    for lam in els:
        for mu in els:
            for a in els:
                if smul(T, T.mul[lam, mu], {a}) != smul(T, {lam}, T.mul[mu, a]):
                    return False
                left2 = smul(T, {lam}, T.add[mu, a])
                right2 = sadd(T, T.mul[lam, mu], T.mul[lam, a])
                if not (left2 == right2 if full else left2 <= right2):
                    return False
                left3 = smul(T, T.add[lam, mu], {a})
                right3 = sadd(T, T.mul[lam, a], T.mul[mu, a])
                if not left3 <= right3:
                    return False
    if not scalar_ok:
        return False
    if full:
        for lam in els:
            for mu in els:
                for v in itertools.product(els, repeat=N):
                    if vsum_sets(T, vact(T, lam, v), vact(T, mu, v)) != \
                            vact_sets(T, T.add[lam, mu], {v}):
                        return False
    return True


def closure(T, N, gens):
    """Least set of vectors holding 0 and gens, closed under sums and the action."""
    cur = {(T.zero,) * N} | set(gens)
    while True:
        grown = set(cur)
        for v in cur:
            for lam in T.elements:
                grown |= vact(T, lam, v)
            for w in cur:
                grown |= vsum(T, v, w)
        if grown == cur:
            return frozenset(cur)
        cur = grown


def bundle_dependence(T, vs, bound=2):
    """A bundle choice showing dependence of vs in F^N, or None.

    Each vector gets a scalar multiset of size 1..bound; its effective
    coefficients are the multiset's sum.  Dependence needs some effective set
    without 0 and scalars from the effective sets whose weighted sum holds the
    zero vector."""
    N = len(vs[0])
    bundles = [c for r in range(1, bound + 1)
               for c in itertools.combinations_with_replacement(T.elements, r)]
    zero = (T.zero,) * N
    for combo in itertools.product(bundles, repeat=len(vs)):
        eff = [fold_add(T, [{x} for x in b]) for b in combo]
        if all(T.zero in c for c in eff):
            continue
        for lams in itertools.product(*eff):
            total = frozenset([zero])
            started = False
            for lam, v in zip(lams, vs):
                term = vact(T, lam, v)
                total = term if not started else vsum_sets(T, total, term)
                started = True
            if zero in total:
                return combo
    return None


# -- ideals -------------------------------------------------------------------------------


def characteristic(T):
    acc, seen, n = frozenset([T.one]), set(), 1
    while acc not in seen:
        if T.zero in acc:
            return n
        seen.add(acc)
        acc = sadd(T, acc, {T.one})
        n += 1
    return 0


def _is_ideal(T, I):
    return T.zero in I and sadd(T, I, I) <= I and smul(T, T.elements, I) <= I


def ideals(T):
    rest = [e for e in T.elements if e != T.zero]
    out = []
    for r in range(len(rest) + 1):
        for extra in itertools.combinations(rest, r):
            I = frozenset(extra) | {T.zero}
            if _is_ideal(T, I):
                out.append(I)
    return out


def ideal_flags(T, I, all_ideals):
    """(prime, strongly prime, maximal) from the definitions."""
    outside = [a for a in T.elements if a not in I]
    proper = T.one not in I
    prime = proper and all(not T.mul[a, b] <= I for a in outside for b in outside)
    strongly = proper and all(not T.mul[a, b] & I for a in outside for b in outside)
    full = frozenset(T.elements)
    maximal = I != full and not any(I < J < full for J in all_ideals)
    return prime, strongly, maximal


def plane_dimension(T, N=2):
    """Size of the largest independent set of F^N (dependence is inherited by
    supersets, so the sizes are scanned upwards until none is independent)."""
    vectors = list(itertools.product(T.elements, repeat=N))
    d = 0
    while any(bundle_dependence(T, vs) is None
              for vs in itertools.combinations(vectors, d + 1)):
        d += 1
    return d


# -- extensions and files ----------------------------------------------------------------


def full_embedding(TF, TK, f):
    """Injective map F -> K preserving 0, 1, negation, and sums and products setwise."""
    els = TF.elements
    return (len({f[a] for a in els}) == len(els) and f[TF.zero] == TK.zero
            and f[TF.one] == TK.one and all(f[TF.neg[a]] == TK.neg[f[a]] for a in els)
            and all(frozenset(f[c] for c in TF.add[a, b]) == TK.add[f[a], f[b]]
                    and frozenset(f[c] for c in TF.mul[a, b]) == TK.mul[f[a], f[b]]
                    for a in els for b in els))


def element_token(e):
    """An element as the structure file format writes it: tuples comma-joined."""
    return ",".join(map(str, e)) if isinstance(e, tuple) else str(e)


def parse_tables(text):
    """The sum and prod lines of a structure file, as {(op, a, b): tokens}."""
    out = {}
    for line in text.splitlines():
        toks = line.split("#", 1)[0].split()
        if toks and toks[0] in ("sum", "prod") and toks[3:4] == ["->"]:
            out[toks[0], toks[1], toks[2]] = frozenset(toks[4:])
    return out
