"""Mask boxes against a frozenset reference.

The reference below is the box arithmetic written out over frozensets: one
set per position, folds that union the element-level results pair by pair,
and members in carrier order.  Every box operation of polys and matrices, the
division check and the division kernel behind pdivmod and the quotient's
product cells are compared with it on the built-ins and on random 2-3 element
structures.  So are the tables of the quotient superfield and the quotients by
ideals, against constructions from token dicts.
"""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from mvla import (CongruenceError, ElementaryOp, Matrix, MatrixSet, Poly, PolySet, Structure,
                  StructureError, all_ideals, all_polys, builtin, det, divmod_holds, elementary,
                  madd, make_quotient_superfield, mmul, mneg, mscale, msum_sets, padd,
                  padd_sets, pdivmod, pmul, quotient, serialize_structure, strict_ring,
                  structure_is)
from mvla.extensions import _quotient_tables, _remainder_mask


# -- the frozenset reference --------------------------------------------------------


def ref_fold(op, unit, sets):
    acc = None
    for part in sets:
        acc = frozenset(part) if acc is None else \
            frozenset(z for x in acc for y in part for z in op(x, y))
    return frozenset([unit]) if acc is None else acc


def ref_strip(S, sets):
    sets = list(sets)
    while sets and sets[-1] == {S.zero}:
        sets.pop()
    return tuple(sets)


def ref_padd_sets(S, left, right):
    n = max(len(left), len(right))
    pad = [frozenset([S.zero])] * n
    left, right = list(left) + pad[len(left):], list(right) + pad[len(right):]
    return ref_strip(S, [ref_fold(S.sum_set, S.zero, [a, b]) for a, b in zip(left, right)])


def ref_pmul(f, g):
    S = f.base
    if f.is_zero or g.is_zero:
        return ()
    n = len(f.coeffs) + len(g.coeffs) - 1
    return ref_strip(S, [
        ref_fold(S.sum_set, S.zero,
                 [S.prod_set(f.coeff(i), g.coeff(k - i))
                  for i in range(max(0, k - len(g.coeffs) + 1), min(k, len(f.coeffs) - 1) + 1)])
        for k in range(n)])


def ref_in_box_plus(S, box, f, r):
    n = max(len(box), len(f.coeffs), len(r))
    box = list(box) + [frozenset([S.zero])] * (n - len(box))
    r = list(r) + [S.zero] * (n - len(r))
    return all(f.coeff(i) in ref_fold(S.sum_set, S.zero, [box[i], [r[i]]]) for i in range(n))


def ref_pdivmod(f, g):
    S = f.base
    if f.is_zero or f.degree < g.degree:
        return ((Poly.zero(S), f),)
    found = []
    for top in [e for e in S.elements if e != S.zero]:
        for high_to_low in itertools.product(S.elements, repeat=f.degree - g.degree):
            q = Poly(S, tuple(reversed(high_to_low)) + (top,))
            box = ref_pmul(q, g)
            found.extend((q, Poly(S, rc)) for rc in itertools.product(S.elements, repeat=g.degree)
                         if ref_in_box_plus(S, box, f, rc))
    return tuple(found)


def ref_reduce(z, p):
    S = p.base
    m = p.degree
    if z.degree < m:
        return {z.padded(m)}
    out = set()
    for q in all_polys(S, z.degree - m):
        if q.degree == z.degree - m:
            box = ref_pmul(q, p)
            out.update(rc for rc in itertools.product(S.elements, repeat=m)
                       if ref_in_box_plus(S, box, z, rc))
    return out


def reduce_box(Z, p):
    """The remainder tuples of the members of box Z modulo p, by the kernel."""
    return decode_remainders(p, _remainder_mask(Z, p, {}))


def decode_remainders(p, mask):
    """The remainder tuples in a mask of _remainder_mask: bit n stands for the n-th
    tuple of itertools.product(elements, repeat=deg p)."""
    tuples = list(itertools.product(p.base.elements, repeat=p.degree))
    assert mask >> len(tuples) == 0, "a bit past the last remainder"
    return {r for n, r in enumerate(tuples) if mask >> n & 1}


def ref_ideal_quotient(S, members):
    """The quotient by an ideal on frozensets of tokens: classes of equal cosets
    x + I, each named by its least member, and every pair of members checked."""
    coset, classes = {}, {}
    for e in S.elements:
        coset[e] = key = ref_fold(S.sum_set, S.zero, [[e], members])
        classes.setdefault(key, []).append(e)
    rep = {key: min(cls, key=S.index) for key, cls in classes.items()}
    cls_of = {e: rep[coset[e]] for e in S.elements}
    reps = tuple(sorted(rep.values(), key=S.index))

    def induced(op_set, label):
        table = {}
        for ra in reps:
            for rb in reps:
                expected = None
                for a in classes[coset[ra]]:
                    for b in classes[coset[rb]]:
                        got = frozenset(cls_of[z] for z in op_set(a, b))
                        if expected is None:
                            expected = got
                        elif got != expected:
                            raise CongruenceError(
                                f"{label} not well defined on classes of {ra!r}, {rb!r}",
                                witnesses=[(label, ra, rb, a, b, tuple(sorted(map(str, got))),
                                            tuple(sorted(map(str, expected))))])
                table[(ra, rb)] = expected
        return table

    sum_table = induced(S.sum_set, "sum")
    prod_table = induced(S.prod_set, "prod")
    neg_table = {}
    for r in reps:
        images = {cls_of[S.neg(a)] for a in classes[coset[r]]}
        if len(images) != 1:
            raise CongruenceError(f"negation not well defined on class of {r!r}",
                                  witnesses=[("neg", r, tuple(sorted(map(str, images))))])
        neg_table[r] = images.pop()
    return Structure(f"{S.name}/I", reps, cls_of[S.zero], cls_of[S.one],
                     neg_table, sum_table, prod_table)


def ref_mmul(S, A, B):
    """A and B as (rows, cols, sets)."""
    (ra, ca, a), (_, cb, b) = A, B
    return (ra, cb, tuple(
        ref_fold(S.sum_set, S.zero,
                 [ref_fold(S.prod_set, S.one, [a[i * ca + k], b[k * cb + j]]) for k in range(ca)])
        for i in range(ra) for j in range(cb)))


def ref_elementary(S, op, A):
    rows, cols, sets = A
    sets = list(sets)
    row_i = slice(op.i * cols, (op.i + 1) * cols)
    if op.kind == "swap":
        row_j = slice(op.j * cols, (op.j + 1) * cols)
        sets[row_i], sets[row_j] = sets[row_j], sets[row_i]
    elif op.kind == "scale":
        sets[row_i] = [ref_fold(S.prod_set, S.one, [[op.lam], s]) for s in sets[row_i]]
    else:
        sets[row_i] = [ref_fold(S.sum_set, S.zero, [s, t])
                       for s, t in zip(sets[row_i], sets[op.j * cols:(op.j + 1) * cols])]
    return rows, cols, tuple(sets)


def ref_members(S, sets):
    return list(itertools.product(*(S.canon(s) for s in sets)))


def ref_det(S, A):
    n, _, sets = A
    out = frozenset()
    for entries in ref_members(S, sets):
        terms = []
        for perm in itertools.permutations(range(n)):
            term = ref_fold(S.prod_set, S.one, [[entries[j * n + perm[j]]] for j in range(n)])
            odd = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n)) & 1
            terms.append(frozenset(map(S.neg, term)) if odd else term)
        out |= ref_fold(S.sum_set, S.zero, terms)
    return out


def poly_sets(box):
    return tuple(box.base.set_of(m) for m in box.masks)


def matrix_sets(box):
    return box.rows, box.cols, tuple(box.base.set_of(m) for m in box.masks)


def point(M):
    return M.rows, M.cols, tuple(frozenset([e]) for e in M.entries)


# -- the comparisons, shared by the built-ins and the random structures -----------------


def check_polys(f, g):
    S = f.base
    pf, pg = (tuple(frozenset([c]) for c in h.coeffs) for h in (f, g))
    added, product = padd(f, g), pmul(f, g)
    assert poly_sets(added) == ref_padd_sets(S, pf, pg), (f, g)
    assert poly_sets(product) == ref_pmul(f, g), (f, g)
    assert poly_sets(padd_sets(added, product)) == \
        ref_padd_sets(S, ref_padd_sets(S, pf, pg), ref_pmul(f, g)), (f, g)
    assert [t.coeffs for t in product.members()] == \
        [Poly(S, c).coeffs for c in ref_members(S, ref_pmul(f, g))]


def check_matrices(S, A, B, lam):
    """A, B: matrices of one shape; the box A + B feeds every other operation."""
    box = madd(A, B)
    ref = (A.rows, A.cols, tuple(ref_fold(S.sum_set, S.zero, [s, t])
                                 for s, t in zip(point(A)[2], point(B)[2])))
    assert matrix_sets(box) == ref
    assert [M.entries for M in box.members()] == ref_members(S, ref[2])
    assert matrix_sets(mneg(box)) == \
        (A.rows, A.cols, tuple(frozenset(map(S.neg, s)) for s in ref[2]))
    assert matrix_sets(mscale(lam, box)) == \
        (A.rows, A.cols, tuple(ref_fold(S.prod_set, S.one, [[lam], s]) for s in ref[2]))
    Bt = Matrix(S, A.cols, A.rows, B.entries)  # the same entries, transposed shape
    assert matrix_sets(mmul(box, Bt)) == ref_mmul(S, ref, point(Bt))
    assert matrix_sets(mmul(Bt, box)) == ref_mmul(S, point(Bt), ref)
    ops = [ElementaryOp.swap(0, A.rows - 1), ElementaryOp.add(0, A.rows - 1),
           ElementaryOp.add(A.rows - 1, 0)]
    if lam != S.zero:
        ops.append(ElementaryOp.scale(A.rows - 1, lam))
    for op in ops:
        assert matrix_sets(elementary(op, box)) == ref_elementary(S, op, ref), op
    if A.rows == A.cols:
        assert det(A) == ref_det(S, point(A))
    if A.rows == A.cols == 2:
        assert det(box) == ref_det(S, ref)


def check_ideal_quotients(S):
    """quotient against the token reference on every ideal of S: the same file
    text, or the same CongruenceError message and witnesses.  Returns the
    number of ideals whose classes are not a congruence."""
    def outcome(build, members):
        try:
            return serialize_structure(build(S, members))
        except CongruenceError as exc:
            return str(exc), exc.witnesses

    failures = 0
    for ideal in all_ideals(S):
        want = outcome(ref_ideal_quotient, ideal.members)
        assert outcome(quotient, ideal.members) == want, (S.name, ideal.canon())
        failures += isinstance(want, tuple)
    return failures


def check_division(f, g, q, r):
    S = f.base
    box = ref_pmul(q, g)
    assert divmod_holds(f, g, q, r) == ref_in_box_plus(S, box, f, r.coeffs)


# -- built-ins --------------------------------------------------------------------------


BUILTINS = {"K": ("K",), "Q2": ("Q2",), "H2": ("Hp", 2), "H3": ("Hp", 3),
            "F3": ("Fp", 3), "X1": ("Xn", 1), "X2": ("Xn", 2)}


@pytest.fixture(scope="module", params=sorted(BUILTINS))
def base(request):
    return builtin(*BUILTINS[request.param])


def test_poly_boxes_match_reference(base):
    polys = all_polys(base, 2 if len(base) <= 3 else 1)
    for f in polys:
        for g in polys:
            check_polys(f, g)


def test_matrix_boxes_match_reference(base):
    rng = random.Random(41)
    for shape in ((2, 2), (2, 3), (1, 3), (3, 3)):
        for _ in range(15 if shape != (3, 3) else 3):
            A, B = (Matrix(base, *shape, rng.choices(base.elements, k=shape[0] * shape[1]))
                    for _ in range(2))
            check_matrices(base, A, B, rng.choice(base.elements))


@pytest.mark.parametrize("name", ["K", "Q2", "H2", "H3", "F3"])
def test_division_matches_reference(name):
    base = builtin(*BUILTINS[name])
    assert structure_is(base, "superfield")
    top = 3 if len(base) <= 2 else 2
    for f in all_polys(base, top):
        for g in all_polys(base, 2):
            if g.is_zero or g.degree < 1:
                continue
            want = ref_pdivmod(f, g)
            assert pdivmod(f, g, all_pairs=True) == want, (f, g)
            for q, r in want[:2]:
                check_division(f, g, q, r)


def test_reduce_poly_matches_reference(base):
    polys = all_polys(base, 2 if len(base) <= 3 else 1)
    for p in polys:
        if p.is_zero or p.degree < 1:
            continue
        for z in polys:
            assert reduce_box(PolySet.singleton(z), p) == ref_reduce(z, p), (z, p)


@pytest.mark.parametrize("name,param,coeffs,verified", [
    ("Fp", 2, (1, 1, 1), True), ("Fp", 2, (1, 1, 0, 1), True), ("Fp", 3, (1, 0, 1), True),
    ("Hp", 3, (1, 0, 2), True), ("Hp", 3, (1, 0, 1), False)])
def test_quotient_tables_match_reference(name, param, coeffs, verified):
    # H3 1+X^2 fails the superfield axioms: its tables are built unverified
    F = builtin(name, param)
    p = Poly(F, coeffs)
    K = (make_quotient_superfield if verified else _quotient_tables)(F, p)
    m = p.degree
    vectors = tuple(itertools.product(F.elements, repeat=m))
    assert K.elements == vectors
    assert (K.zero, K.one) == ((F.zero,) * m, (F.one,) + (F.zero,) * (m - 1))
    for x in vectors:
        assert K.neg(x) == tuple(map(F.neg, x))
        for y in vectors:
            assert K.sum_set(x, y) == set(itertools.product(
                *(msum_sets(F, [[a], [b]]) for a, b in zip(x, y)))), (x, y)
            members = pmul(Poly(F, x), Poly(F, y)).members()
            assert K.prod_set(x, y) == set().union(*(ref_reduce(z, p) for z in members)), (x, y)


IDEAL_BASES = [*BUILTINS.values(), ("Hp", 5), ("Fp", 2), ("Fp", 5)]


def test_ideal_quotients_match_reference():
    # no ideal of these bases fails to give a congruence
    bases = [builtin(*b) for b in IDEAL_BASES] + [strict_ring(6)]
    assert sum(check_ideal_quotients(S) for S in bases) == 0


# -- random structures ------------------------------------------------------------------


@st.composite
def small_structures(draw):
    """2-3 elements with 0 and 1 neutral, every other entry a random nonempty
    subset and a random negation fixing 0: no axiom beyond the units is assumed."""
    els = tuple(range(draw(st.sampled_from((3, 2)))))
    subsets = st.one_of(st.sampled_from(els).map(lambda e: {e}),
                        st.sets(st.sampled_from(els), min_size=1))
    sums, prods = {}, {}
    for a in els:
        for b in els:
            sums[(a, b)] = {b} if a == 0 else {a} if b == 0 else draw(subsets)
            prods[(a, b)] = {b} if a == 1 else {a} if b == 1 else draw(subsets)
    neg = {0: 0, **{a: draw(st.sampled_from(els)) for a in els[1:]}}
    return Structure("R", els, 0, 1, neg, sums, prods)


def _poly(data, S, max_degree):
    coeffs = [data.draw(st.sampled_from(S.elements)) for _ in range(max_degree + 1)]
    return Poly(S, coeffs)


@settings(max_examples=60, deadline=None)
@given(S=small_structures(), data=st.data())
def test_boxes_on_random_structures(S, data):
    f, g = _poly(data, S, 2), _poly(data, S, 2)
    check_polys(f, g)

    rows, cols = data.draw(st.sampled_from(((2, 2), (2, 3), (3, 3))))
    A, B = (Matrix(S, rows, cols, [data.draw(st.sampled_from(S.elements))
                                   for _ in range(rows * cols)]) for _ in range(2))
    check_matrices(S, A, B, data.draw(st.sampled_from(S.elements)))

    p = Poly(S, [data.draw(st.sampled_from(S.elements)) for _ in range(2)] + [1])
    z = _poly(data, S, 3)
    assert reduce_box(PolySet.singleton(z), p) == ref_reduce(z, p)
    assert reduce_box(pmul(f, g), p) == set().union(*(ref_reduce(y, p)
                                                       for y in pmul(f, g).members()))
    q, r = _poly(data, S, 1), _poly(data, S, 1)
    check_division(z, p, q, r)


@settings(max_examples=60, deadline=None)
@given(S=small_structures())
def test_ideal_quotients_on_random_structures(S):
    check_ideal_quotients(S)


def test_box_positions_must_be_nonempty_subsets(K):
    for bad in (0, 0b100):
        with pytest.raises(StructureError):
            PolySet(K, [bad])
        with pytest.raises(StructureError):
            MatrixSet(K, 1, 1, [bad])
    with pytest.raises(StructureError):
        MatrixSet(K, 1, 2, [0b1])
