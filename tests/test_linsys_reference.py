"""The index-level solver against a token-level reference, and a count of token helpers.

The reference below is the solver written on element tokens: the scaling
rewrite, back substitution, the weak solver and the constructive kernels,
with every set handled through mask_of/set_of/canon_of and every product,
negation and inverse asked of the structure element by element.  The library
runs the same algorithms on carrier indices and masks; both must give the
same scaled systems, candidates and outcomes, in the same order.  Where the
library reads a search off per-row value masks (the kernel scan, the solve
fallback, the inverse), the reference still tests every candidate in turn, and
the masks themselves are checked against the recursion that the byte-lane fold
of _value_masks replaced (_recursive_value_masks).
"""

import functools
import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from mvla import (BlowupError, LinearSystem, Matrix, Poly, Structure, builtin, det,
                  find_inverse, find_nontrivial_kernel, is_inverse_pair, is_linearly_closed,
                  iter_scaled_systems, quotient_pair, search_budget, solve_weak, structure_is)
from mvla.linsys import (TypeIError, classify_candidate, constructive_kernel,
                         iter_back_substitution)
from mvla.matrices import _index_product, _value_masks
from test_closedness import single_entry_mutants


# -- the token-level reference ------------------------------------------------------


def ref_upper_triangular(S, rows):
    return all(rows[i][j] == S.zero for i in range(len(rows)) for j in range(min(i, len(rows[0]))))


def ref_values(S, rows, d):
    """The rowwise value sets of A*d, folded element by element."""
    out = []
    for row in rows:
        acc = None
        for a, x in zip(row, d):
            t = S.prod_set(a, x)
            acc = t if acc is None else \
                frozenset(z for u in acc for v in t for z in S.sum_set(u, v))
        out.append(acc)
    return out


def ref_classify(S, rows, B, d):
    vals = ref_values(S, rows, d)
    if not all(v & b for v, b in zip(vals, B)):
        return None
    return "solution" if all(v <= b for v, b in zip(vals, B)) else "weak"


def ref_scale_system(S, rows, B, branch_cap=4096):
    """Scaled systems as (entries, B) pairs, in order, lazily.

    Every branch is walked depth first, one column per level, and equal states
    are never merged: each leaf path is counted, BlowupError comes once more
    than branch_cap of them are walked, and a system already yielded is dropped.
    """
    m, n = len(rows), len(rows[0])
    if ref_upper_triangular(S, rows):
        yield tuple(itertools.chain(*rows)), tuple(B)
        return
    seen, leaves = set(), 0

    def clear(rws, bb, r, c, k):
        """Branch rows k, k + 1, ... below the pivot row r in column c."""
        if k == m:
            yield tuple(map(tuple, rws)), tuple(bb), r + 1
            return
        if rws[k][c] == S.zero:
            yield from clear(rws, bb, r, c, k + 1)
            return
        mu_mask = 1 << S.index(S.neg(rws[k][c]))
        choices = []
        for j in range(n):
            if j == c:
                choices.append((S.zero,))
                continue
            scaled = S.mul_masks(mu_mask, 1 << S.index(rws[r][j]))
            summed = S.add_masks(1 << S.index(rws[k][j]), scaled)
            choices.append(S.canon_of(summed))
        new_bk = S.set_of(S.add_masks(S.mask_of(bb[k]), S.mul_masks(mu_mask, S.mask_of(bb[r]))))
        for sel in itertools.product(*choices):
            rws2 = [list(row) for row in rws]
            rws2[k] = list(sel)
            bb2 = list(bb)
            bb2[k] = new_bk
            yield from clear(rws2, bb2, r, c, k + 1)

    def walk(rows, B, r, c):
        nonlocal leaves
        if c == n:
            leaves += 1
            if leaves > branch_cap:
                raise BlowupError("scaling branch cap exceeded")
            key = (rows, tuple(S.canon(s) for s in B))
            if ref_upper_triangular(S, rows) and key not in seen:
                seen.add(key)
                yield tuple(itertools.chain(*rows)), B
            return
        pivot_row = next((k for k in range(r, m) if rows[k][c] != S.zero), None) \
            if r < m else None
        if pivot_row is None:
            yield from walk(rows, B, r, c + 1)
            return
        rows = list(map(list, rows))
        B = list(B)
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        B[r], B[pivot_row] = B[pivot_row], B[r]
        lam_mask = 1 << S.index(S.inverse(rows[r][c]))
        pivot_choices = []
        for j in range(n):
            choice = S.canon_of(S.mul_masks(lam_mask, 1 << S.index(rows[r][j])))
            pivot_choices.append((S.one,) if j == c else choice)
        B[r] = S.set_of(S.mul_masks(lam_mask, S.mask_of(B[r])))
        for pivot_sel in itertools.product(*pivot_choices):
            rows[r] = list(pivot_sel)
            for state in clear(rows, B, r, c, r + 1):
                yield from walk(*state, c + 1)

    yield from walk(tuple(map(tuple, rows)), tuple(B), 0, 0)


def ref_back_substitution(S, rows, B, node_cap=10 ** 5):
    """Candidate vectors of a scaled system, as entry tuples in order."""
    n = len(rows[0])
    pivots = [next((j for j, e in enumerate(row) if e != S.zero), None) for row in rows]
    for i, p in enumerate(pivots):
        if p is None and S.zero not in B[i]:
            raise TypeIError(f"row {i} reads 0 within a set missing 0")
    live = [i for i, p in enumerate(pivots) if p is not None]
    nodes = 0

    def value_set(i, assigned):
        p = pivots[i]
        inv_bit = 1 << S.index(S.inverse(rows[i][p]))
        terms = [S.mul_masks(inv_bit, S.mask_of(B[i]))]
        for j in range(p + 1, n):
            a = rows[i][j]
            if a == S.zero:
                continue
            t = S.prod_of((inv_bit, 1 << S.index(a), 1 << S.index(assigned[j])))
            terms.append(S.neg_mask(t))
        return S.canon_of(S.sum_of(terms))

    def rec(idx, assigned):
        nonlocal nodes
        if idx < 0:
            d = tuple(assigned[j] for j in range(n))
            if ref_classify(S, rows, B, d) is not None:
                yield d
            return
        i = live[idx]
        for x in value_set(i, assigned):
            nodes += 1
            if nodes > node_cap:
                raise BlowupError("back substitution exceeded its node cap")
            assigned[pivots[i]] = x
            yield from rec(idx - 1, assigned)
        assigned[pivots[i]] = S.zero

    yield from rec(len(live) - 1, {j: S.zero for j in range(n)})


def ref_solve_weak(S, rows, B, budget=10 ** 7):
    """(status, vector entries, strength, note), as SolveOutcome reports them under
    search_budget(budget): the branch cap, the node cap and the scan cap are its."""
    n = len(rows[0])
    try:
        for entries, sB in ref_scale_system(S, rows, B, min(budget, 4096)):
            srows = [entries[i * n:(i + 1) * n] for i in range(len(rows))]
            try:
                for d in ref_back_substitution(S, srows, sB, min(budget, 10 ** 5)):
                    strength = ref_classify(S, rows, B, d)
                    if strength is not None:
                        return "solved", d, strength, ""
            except (TypeIError, BlowupError):
                continue
    except BlowupError:
        pass  # more branches than the cap: the scan below decides
    if len(S) ** n > budget:
        return "inconclusive", None, None, f"scan of {len(S) ** n} vectors exceeds cap"
    for d in itertools.product(S.elements, repeat=n):
        strength = ref_classify(S, rows, B, d)
        if strength is not None:
            return "solved", d, strength, "exhaustive fallback"
    return "no-solution", None, None, "exhausted all candidate vectors"


def _single(S, x):
    (v,) = x
    return v


def _row_sum_mask(S, coeffs, d):
    return S.sum_of(S.prod_mask(a, x) for a, x in zip(coeffs, d))


def _case1(S, row, m):
    for j, a in enumerate(row):
        if a == S.zero:
            return [S.one if i == j else S.zero for i in range(m)]
    inv = S.inverse(row[0])
    x1 = S.neg(_single(S, S.prod_set(inv, row[1])))
    return [x1, S.one] + [S.zero] * (m - 2)


def _case1_masks(S, masks):
    m = len(masks)
    zero = 1 << S.index(S.zero)
    for j, cs in enumerate(masks):
        if cs & zero:
            return [S.one if i == j else S.zero for i in range(m)]
    s2, s3 = (S.canon_of(cs)[0] for cs in masks[:2])
    d2 = S.neg(_single(S, S.prod_set(S.inverse(s2), s3)))
    return [d2, S.one] + [S.zero] * (m - 2)


def _normalize_row(S, row):
    inv = S.inverse(row[0])
    return [_single(S, S.prod_set(inv, a)) for a in row]


def _case2(S, rows, m):
    a, b = rows
    for j in range(m):
        if a[j] == S.zero and b[j] == S.zero:
            return [S.one if i == j else S.zero for i in range(m)]
    zero_pos = next(((r, j) for r, row in enumerate(rows) for j in range(m)
                     if row[j] == S.zero), None)
    if zero_pos is not None:
        r, p = zero_pos
        zero_row, other = rows[r], rows[1 - r]
        rest_cols = [j for j in range(m) if j != p]
        sub = _case1(S, [zero_row[j] for j in rest_cols], m - 1)
        d = [S.zero] * m
        for j, v in zip(rest_cols, sub):
            d[j] = v
        pick = S.canon_of(_row_sum_mask(S, [other[j] for j in rest_cols], sub))[0]
        d[p] = S.neg(_single(S, S.prod_set(S.inverse(other[p]), pick)))
        return d
    lam = next((l for l in S.elements if l != S.zero and
                all(_single(S, S.prod_set(l, a[j])) == b[j] for j in range(m))), None)
    if lam is not None:
        return _case1(S, a, m)
    an = _normalize_row(S, a)
    bn = _normalize_row(S, b)
    tail = _case1_masks(S, [S.sum_mask(bn[j], S.neg(an[j])) for j in range(1, m)])
    meet = _row_sum_mask(S, an[1:], tail) & _row_sum_mask(S, bn[1:], tail)
    if not meet:
        return None
    return [S.neg(S.canon_of(meet)[0])] + tail


def _case3(S, rows, m):
    for j in range(m):
        if all(row[j] == S.zero for row in rows):
            return [S.one if i == j else S.zero for i in range(m)]
    front = next((j for j in range(m) if all(row[j] != S.zero for row in rows)), None)
    if front is None or m < 4:
        return None
    cols = [front] + [j for j in range(m) if j != front][:3]
    sub = [[row[j] for j in cols] for row in rows]
    a, b, c = (_normalize_row(S, row) for row in sub)
    D = [S.sum_mask(b[j], S.neg(a[j])) for j in range(1, 4)]
    E = [S.sum_mask(c[j], S.neg(a[j])) for j in range(1, 4)]
    zero = 1 << S.index(S.zero)
    if any(s & zero for s in D + E):
        return None
    add, mul = S.add_masks, S.mul_masks
    G = [add(mul(D[0], E[j]), S.neg_mask(mul(E[0], D[j]))) for j in (1, 2)]
    d3, d4 = _case1_masks(S, G)
    b3, b4 = 1 << S.index(d3), 1 << S.index(d4)
    meet = (add(mul(D[0], mul(E[1], b3)), mul(D[0], mul(E[2], b4)))
            & add(mul(E[0], mul(D[1], b3)), mul(E[0], mul(D[2], b4))))
    if not meet:
        return None
    neg_z = S.index(S.neg(S.canon_of(meet)[0]))
    sum_d = add(mul(D[1], b3), mul(D[2], b4))
    cand = [x for x in S.canon_of(S.neg_mask(sum_d))
            if mul(E[0], 1 << S.index(x)) >> neg_z & 1]
    if not cand:
        return None
    d2 = cand[0]
    meet2 = _row_sum_mask(S, a[1:], [d2, d3, d4]) & _row_sum_mask(S, b[1:], [d2, d3, d4])
    if not meet2:
        return None
    w = S.canon_of(meet2)[0]
    d = [S.zero] * m
    for pos, val in zip(cols, [S.neg(w), d2, d3, d4]):
        d[pos] = val
    return d


def ref_kernel_ok(S, rows, d):
    return any(e != S.zero for e in d) and \
        all(S.zero in v for v in ref_values(S, rows, d))


def ref_constructive_kernel(S, rows):
    """The constructive kernel vector as entries, or None."""
    if not structure_is(S, "multifield"):
        return None
    case = {1: _case1, 2: _case2, 3: _case3}.get(len(rows))
    if case is None:
        return None
    d = case(S, rows if len(rows) > 1 else rows[0], len(rows[0]))
    return tuple(d) if d is not None and ref_kernel_ok(S, rows, d) else None


def ref_find_kernel(S, rows, budget=10 ** 7):
    """(status, vector entries, note), as find_nontrivial_kernel reports them under
    search_budget(budget)."""
    got = ref_constructive_kernel(S, rows)
    if got is not None:
        return "solved", got, "constructive"
    if len(S) ** len(rows[0]) > budget:
        return "inconclusive", None, f"kernel scan of {len(S) ** len(rows[0])} exceeds cap"
    for d in itertools.product(S.elements, repeat=len(rows[0])):
        if ref_kernel_ok(S, rows, d):
            return "solved", d, "exhaustive"
    return "no-solution", None, ""


def ref_has_identity(S, X, Y):
    """delta_ij in (XY)_ij for every i and j."""
    n = len(X)
    return all((S.one if i == j else S.zero) in ref_values(S, [X[i]], [y[j] for y in Y])[0]
               for i in range(n) for j in range(n))


def ref_find_inverse(S, rows):
    """The first B of a full scan in canonical order with I in AB and in BA, or None."""
    n = len(rows)
    for entries in itertools.product(S.elements, repeat=n * n):
        B = [entries[i * n:(i + 1) * n] for i in range(n)]
        if ref_has_identity(S, rows, B) and ref_has_identity(S, B, rows):
            return tuple(B)
    return None


# -- comparisons ---------------------------------------------------------------------


def _drain(gen):
    """The items of a generator and the name of the exception that ended it, if any."""
    out = []
    try:
        for item in gen:
            out.append(item)
    except (TypeIError, BlowupError) as exc:
        return out, type(exc).__name__
    return out, None


def check_system(S, rows, B, budget=10 ** 7):
    """The library against the reference under search_budget(budget): the scaled systems
    in order and how the walk stopped, the candidates of each and how back substitution
    stopped, and the outcome.  Returns the stops seen: ("scale", the walk's), ("backsub",
    each back substitution's) and ("outcome", the status).  Past the branch cap the
    candidates are compared only under a budget below the default, which few scaled
    systems come before."""
    sys_ = LinearSystem.of(Matrix.from_rows(S, rows), B)
    n = len(rows[0])
    with search_budget(budget):
        got, stop = _drain(iter_scaled_systems(sys_))
        want = _drain(ref_scale_system(S, rows, B, min(budget, 4096)))
        assert ([(s.A.entries, s.B) for s in got], stop) == want, (rows, B)
        stops = {("scale", stop)}
        for scaled, (entries, sB) in zip(got, want[0]) if stop is None or budget < 10 ** 7 else ():
            srows = [entries[i * n:(i + 1) * n] for i in range(len(rows))]
            cands, cut = _drain(iter_back_substitution(scaled))
            assert ([d.entries for d in cands], cut) == \
                _drain(ref_back_substitution(S, srows, sB, min(budget, 10 ** 5))), \
                (rows, B, entries, sB)
            stops.add(("backsub", cut))
        out = solve_weak(sys_)
    v = out.verdict
    assert (out.status, v and v.vector.entries, v and v.strength, out.note) == \
        ref_solve_weak(S, rows, B, budget), (rows, B)
    return stops | {("outcome", out.status)}


def check_kernel(S, rows, budget=10 ** 7):
    """Both kernel routes, on a matrix with more columns than rows, under
    search_budget(budget)."""
    A = Matrix.from_rows(S, rows)
    with search_budget(budget):
        got = constructive_kernel(A)
        out = find_nontrivial_kernel(A)
    assert (got and got.entries) == ref_constructive_kernel(S, rows), rows
    assert (out.status, out.verdict and out.verdict.vector.entries, out.note) == \
        ref_find_kernel(S, rows, budget), rows


BASES = {"K": ("K",), "Q2": ("Q2",), "H2": ("Hp", 2), "H3": ("Hp", 3), "F3": ("Fp", 3),
         "H5": ("Hp", 5)}
SHAPES = ((1, 1), (1, 2), (2, 2), (2, 3), (3, 2), (3, 3))
KERNEL_SHAPES = ((1, 2), (1, 3), (2, 3), (2, 4), (3, 4), (3, 5))


@pytest.fixture(scope="module")
def bases():
    return {name: builtin(*args) for name, args in BASES.items()}


@pytest.mark.parametrize("name", sorted(BASES))
def test_solver_matches_token_reference_on_builtins(bases, name):
    S = bases[name]
    rng = random.Random(f"solve:{name}")
    for rows, cols in SHAPES:
        for _ in range(25):
            A = [[rng.choice(S.elements) for _ in range(cols)] for _ in range(rows)]
            B = [frozenset(rng.sample(S.elements, rng.randint(1, 2))) for _ in range(rows)]
            check_system(S, A, B)


@pytest.mark.parametrize("name", sorted(BASES))
def test_kernels_match_token_reference_on_builtins(bases, name):
    S = bases[name]
    rng = random.Random(f"kernel:{name}")
    for rows, cols in KERNEL_SHAPES:
        for _ in range(25):
            check_kernel(S, [[rng.choice(S.elements) for _ in range(cols)] for _ in range(rows)])


def test_small_bases_match_on_every_2x2_system(bases):
    for name in ("K", "H2"):
        S = bases[name]
        subsets = [frozenset(c) for r in (1, 2) for c in itertools.combinations(S.elements, r)]
        for entries in itertools.product(S.elements, repeat=4):
            for B in itertools.product(subsets, repeat=2):
                check_system(S, [entries[:2], entries[2:]], list(B))


@pytest.mark.parametrize("cap", [4, 16, 64, None])
def test_scaling_matches_token_reference_at_small_branch_caps(bases, cap):
    """A state reached twice is walked once, but the cap still counts every branch:
    the systems iter_scaled_systems yields before it stops, and how it stops, are
    the reference's, which merges nothing.  On a blow-up that prefix is what
    solve_weak reads before it falls back; a second walk gives all of them again, or
    the same BlowupError.  A search limit below 4096 is the cap (None: the default)."""
    blowups = 0
    for name in sorted(BASES):
        S = bases[name]
        rng = random.Random(f"scale:{name}:{cap}")
        for rows, cols in SHAPES + ((3, 4), (4, 4)):
            for _ in range(25):
                A = [[rng.choice(S.elements) for _ in range(cols)] for _ in range(rows)]
                B = [frozenset(rng.sample(S.elements, rng.randint(1, len(S))))
                     for _ in range(rows)]
                sys_ = LinearSystem.of(Matrix.from_rows(S, A), B)
                with search_budget(cap or 10 ** 7):
                    got, stop = _drain(iter_scaled_systems(sys_))
                    if stop:
                        blowups += 1
                        with pytest.raises(BlowupError):
                            tuple(iter_scaled_systems(sys_))
                    else:
                        assert tuple(iter_scaled_systems(sys_)) == tuple(got)
                want = _drain(ref_scale_system(S, A, B, branch_cap=cap or 4096))
                assert ([(s.A.entries, s.B) for s in got], stop) == want, (A, B)
    assert blowups


def check_inverse(S, rows):
    """find_inverse against the full scan: the same first inverse, or None."""
    A = Matrix.from_rows(S, rows)
    got = find_inverse(A)
    assert got is None or is_inverse_pair(A, got), rows
    assert (got and tuple(got.row(i) for i in range(got.rows))) == ref_find_inverse(S, rows), rows


SMALL_SUPERFIELDS = (("K",), ("Q2",), ("Hp", 2), ("Hp", 3), ("Xn", 1), ("Fp", 2), ("Fp", 3))


@pytest.mark.parametrize("args", SMALL_SUPERFIELDS)
def test_inverse_matches_the_full_scan_on_every_2x2(args):
    S = builtin(*args)
    for entries in itertools.product(S.elements, repeat=4):
        check_inverse(S, [entries[:2], entries[2:]])


@pytest.mark.parametrize("args", [("Hp", 3), ("Q2",), ("Fp", 3)])
def test_inverse_matches_the_full_scan_on_dense_3x3(args):
    S = builtin(*args)
    rng = random.Random(f"inverse:{S.name}")
    nonzero = [e for e in S.elements if e != S.zero]
    for _ in range(4):
        check_inverse(S, [[rng.choice(nonzero) for _ in range(3)] for _ in range(3)])
    for zero_at in (None, None, 0, 2):  # upper triangular, with or without a zero on the diagonal
        rows = [[S.zero if j < i else rng.choice(nonzero if j == i else S.elements)
                 for j in range(3)] for i in range(3)]
        if zero_at is not None:
            rows[zero_at][zero_at] = S.zero
        check_inverse(S, rows)


def _recursive_value_masks(S, tab, coeffs, target, memos):
    """The oracle for _value_masks, one target at a time: the left fold recursion that
    the byte-lane fold replaced.  memos[target] maps (partial sum, coefficients left) to
    the mask over the entries left; calls with the same tab may share memos."""
    k, add, memo = len(S), S.add_masks, memos.setdefault(target, {})

    def rest(v, cs):
        got = memo.get((v, cs))
        if got is None:
            sums = tab[cs[0]] if v is None else [add(v, t) for t in tab[cs[0]]]
            if len(cs) == 1:
                got = sum(1 << x for x, u in enumerate(sums) if u & target)
            else:
                width = k ** (len(cs) - 1)
                got = sum(rest(u, cs[1:]) << x * width for x, u in enumerate(sums))
            memo[v, cs] = got
        return got

    return rest(None, tuple(coeffs))


def check_value_masks(T, m):
    """_value_masks against the recursion and _index_product on every row and vector of
    length m, for a row of A against a vector (tab = _prod) and a vector against a
    column of A (tab transposed), with one memo per tab shared by every row."""
    k = len(T)
    by_col = [list(col) for col in zip(*T._prod)]
    vectors = [Matrix.from_indices(T, m, 1, d) for d in itertools.product(range(k), repeat=m)]
    targets = [1 << e for e in range(k)] + [(1 << k) - 2]
    memos = {"left": {}, "right": {}, "left oracle": {}, "right oracle": {}}
    for c in itertools.product(range(k), repeat=m):
        left = _value_masks(T, T._prod, c, targets, memos["left"])
        right = _value_masks(T, by_col, c, targets, memos["right"])
        assert (left, right) == tuple([_recursive_value_masks(T, tab, c, t, memos[side])
                                       for t in targets]
                                      for tab, side in ((T._prod, "left oracle"),
                                                        (by_col, "right oracle"))), c
        row, col = Matrix.from_indices(T, 1, m, c), Matrix.from_indices(T, m, 1, c)
        for d, vec in enumerate(vectors):
            (dc,) = _index_product(row, vec)
            (cd,) = _index_product(Matrix.from_indices(T, 1, m, vec.indices), col)
            for target, lm, rm in zip(targets, left, right):
                assert (lm >> d & 1, rm >> d & 1) == \
                    (bool(dc & target), bool(cd & target)), (T._sum, T._prod, c, d, target)


@pytest.mark.parametrize("args", SMALL_SUPERFIELDS + (("Fp", 5),))
def test_value_masks_match_index_products_on_builtins(args):
    S = builtin(*args)
    for m in (1, 2, 3):
        check_value_masks(S, m)


def test_value_masks_match_index_products_on_table_mutants():
    # a slip in the fold order (a right fold, or a start at {0} + t_0) shows on
    # tables where the sum is not associative or 0 is not neutral
    mutants = list(single_entry_mutants(builtin("K")))
    mutants += random.Random(17).sample(list(single_entry_mutants(builtin("Q2"))), 24)
    for T in mutants:
        check_value_masks(T, 3)


def check_against_recursion(S, tab, calls):
    """_value_masks on (coeffs, targets) calls, in the order given and with one memo,
    against the recursion.  After each call of length m > 1 the memo keeps the lanes of
    its proper prefixes, of lengths 1 to m - 1, and no others."""
    memo, oracle = {}, {}
    for coeffs, targets in calls:
        assert _value_masks(S, tab, coeffs, targets, memo) == \
            [_recursive_value_masks(S, tab, coeffs, t, oracle) for t in targets], (coeffs, targets)
        if len(coeffs) > 1:
            assert [prefix for prefix, _ in memo["chain"]] == \
                [coeffs[:j] for j in range(1, len(coeffs))]


@pytest.mark.parametrize("args", [("Fp", 11), ("Xn", 4)])
def test_value_masks_match_the_recursion_on_carriers_of_more_than_8(args):
    # 11 and 9 elements: each partial sum spans two byte planes
    S = builtin(*args)
    k = len(S)
    assert k > 8
    rng = random.Random(f"planes:{S.name}")
    targets = [1 << e for e in range(k)] + [(1 << k) - 2, 0b1100000001] + \
        [rng.randrange(1, 1 << k) for _ in range(4)]
    by_col = [list(col) for col in zip(*S._prod)]
    for tab in (S._prod, by_col, S._sum):
        check_against_recursion(S, tab, [(c, targets)
                                         for c in itertools.product(range(k), repeat=2)])


def test_one_memo_serves_every_target_and_length_in_any_order(H5):
    # lengths 1 to 3 and single- and multi-bit targets, interleaved: a lane kept for
    # one call's prefix must serve every later call that shares it
    rng = random.Random(5)
    calls = [(tuple(rng.randrange(5) for _ in range(rng.randint(1, 3))),
              rng.sample(range(1, 32), rng.randint(1, 3))) for _ in range(300)]
    check_against_recursion(H5, H5._prod, calls)
    check_against_recursion(H5, H5._prod, sorted(calls, key=lambda call: -len(call[0])))


@st.composite
def drawn_tables(draw):
    """A carrier of 2-10 elements with a drawn sum table (no axiom assumed, not even
    that 0 is neutral) and a drawn term table, nonempty cells throughout."""
    k = draw(st.integers(2, 10))
    cells = st.integers(1, (1 << k) - 1)
    sums = [[draw(cells) for _ in range(k)] for _ in range(k)]
    S = Structure.from_masks("T", range(k), 0, 1, range(k), sums, [[1] * k] * k)
    return S, [[draw(cells) for _ in range(k)] for _ in range(k)]


@settings(max_examples=60, deadline=None)
@given(case=drawn_tables(), data=st.data())
def test_value_masks_match_the_recursion_on_drawn_tables(case, data):
    S, tab = case
    k = len(S)
    lengths = st.integers(1, 3 if k <= 6 else 2)
    calls = data.draw(st.lists(st.tuples(
        lengths.flatmap(lambda m: st.tuples(*[st.integers(0, k - 1)] * m)),
        st.lists(st.integers(1, (1 << k) - 1), min_size=1, max_size=3)), min_size=1, max_size=12))
    check_against_recursion(S, tab, calls)


@st.composite
def systems(draw):
    S = builtin(*BASES[draw(st.sampled_from(sorted(BASES)))])
    rows, cols = draw(st.sampled_from(SHAPES + ((3, 4),)))
    A = [[draw(st.sampled_from(S.elements)) for _ in range(cols)] for _ in range(rows)]
    B = [frozenset(draw(st.sets(st.sampled_from(S.elements), min_size=1, max_size=len(S))))
         for _ in range(rows)]
    return S, A, B


@settings(max_examples=150, deadline=None)
@given(case=systems())
def test_solver_and_kernels_match_on_drawn_systems(case):
    S, A, B = case
    check_system(S, A, B)
    if len(A[0]) > len(A):
        check_kernel(S, A)


# The superfields among the quotients of Q2, H3 and X1 by a quadratic: 9 elements each,
# whose products have up to 3 (Q2, X1) or 6 (H3) members, so that the scaled walk and
# back substitution branch on products as well as on sums.
MULTI = ((("Q2",), (-1, 0, -1)), (("Q2",), (1, 0, 1)), (("Hp", 3), (1, 0, 2)),
         (("Hp", 3), (2, 0, 1)), (("Xn", 1), (-1, 0, -1)), (("Xn", 1), (1, 0, 1)))
SMALL_BUDGETS = (4, 16, 64)


@functools.cache
def multi_superfields():
    return tuple(quotient_pair(builtin(*args), Poly(builtin(*args), coeffs))[0]
                 for args, coeffs in MULTI)


def _multi_system(S, rows, cols, pick, sample):
    """A over S and right sides of 1 to 3 elements, from pick(seq) and sample(seq, k)."""
    A = [[pick(S.elements) for _ in range(cols)] for _ in range(rows)]
    return A, [frozenset(sample(S.elements, 1 + pick(range(3)))) for _ in range(rows)]


def test_multi_superfields_have_products_of_several_members():
    for S in multi_superfields():
        assert structure_is(S, "superfield") and not structure_is(S, "multifield")
        assert max(cell.bit_count() for row in S._prod for cell in row) > 1


def test_solver_matches_token_reference_on_multivalued_products_at_small_budgets():
    """Every stop of the route agrees with the reference, and each comes up: the branch
    cap, the node cap, TypeIError skips, and the scan cap of the fallback."""
    stops = set()
    for budget in SMALL_BUDGETS:
        for S in multi_superfields():
            rng = random.Random(f"multi:{S.name}:{budget}")
            for rows, cols in SHAPES + ((3, 4),):
                for _ in range(3):
                    A, B = _multi_system(S, rows, cols, rng.choice, rng.sample)
                    stops |= check_system(S, A, B, budget)
                    if cols > rows:
                        check_kernel(S, A, budget)
    assert {("scale", "BlowupError"), ("backsub", "BlowupError"), ("backsub", "TypeIError"),
            ("outcome", "inconclusive"), ("outcome", "solved"),
            ("outcome", "no-solution")} <= stops


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_solver_and_kernels_match_on_drawn_multivalued_superfields(data):
    S = data.draw(st.sampled_from(multi_superfields()))
    rows, cols = data.draw(st.sampled_from(SHAPES + ((3, 4),)))
    A, B = _multi_system(S, rows, cols, lambda seq: data.draw(st.sampled_from(seq)),
                         lambda seq, k: data.draw(st.lists(st.sampled_from(seq), min_size=k,
                                                           max_size=k, unique=True)))
    budget = data.draw(st.sampled_from(SMALL_BUDGETS))
    check_system(S, A, B, budget)
    if cols > rows:
        check_kernel(S, A, budget)


# -- token helpers stay off the hot paths ------------------------------------------------

TOKEN_HELPERS = ("index", "mask_of", "set_of", "canon", "canon_of", "inverse", "inverses",
                 "neg", "neg_set", "sum_set", "prod_set", "sum_mask", "prod_mask")


@pytest.fixture
def token_calls(monkeypatch):
    """Counts of calls to each token helper of Structure while the fixture is live."""
    calls = dict.fromkeys(TOKEN_HELPERS, 0)

    def counting(name, method):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return method(*args, **kwargs)
        return wrapper

    for name in TOKEN_HELPERS:
        monkeypatch.setattr(Structure, name, counting(name, getattr(Structure, name)))
    return calls


def test_hot_paths_make_no_token_conversions(bases, token_calls):
    H3, H5, Q2 = bases["H3"], bases["H5"], bases["Q2"]
    rng = random.Random(11)
    systems, matrices = [], []
    for S in (H3, H5, Q2):
        for rows, cols in ((2, 2), (2, 3), (3, 3)):
            for _ in range(10):
                A = Matrix.from_rows(S, [[rng.choice(S.elements) for _ in range(cols)]
                                         for _ in range(rows)])
                systems.append(LinearSystem.of(
                    A, [rng.sample(S.elements, rng.randint(1, 2)) for _ in range(rows)]))
        for rows, cols in ((1, 3), (2, 3), (3, 4), (3, 5)):
            for _ in range(10):
                matrices.append(Matrix.from_rows(S, [[rng.choice(S.elements) for _ in range(cols)]
                                                     for _ in range(rows)]))
        for kind in ("superfield", "multifield"):
            structure_is(S, kind)
    squares = [Matrix.from_rows(H3, [[rng.choice(H3.elements) for _ in range(3)]
                                     for _ in range(3)]) for _ in range(10)]
    for k in token_calls:
        token_calls[k] = 0

    outcomes = [solve_weak(s) for s in systems]
    for s in systems:
        try:
            branches = tuple(iter_scaled_systems(s))
        except BlowupError:
            continue
        for scaled in branches:
            _drain(iter_back_substitution(scaled))
    kernels = [find_nontrivial_kernel(A) for A in matrices]
    assert is_linearly_closed(H3, 1, 3).passed
    assert {k: v for k, v in token_calls.items() if v} == {}
    # every route ran: scaled and exhaustive solutions, proofs of none, both kernel routes
    assert {o.note for o in outcomes} == {"", "exhaustive fallback",
                                          "exhausted all candidate vectors"}
    assert {o.note for o in kernels} == {"constructive", "exhaustive"}

    for A in squares:
        det(A)
    assert {k: v for k, v in token_calls.items() if v} == {"set_of": len(squares)}


def _made(S, name):
    """Whether the slot name of S is set, read through the slot itself: an attribute read
    would make a setwise memo (Structure.__getattr__)."""
    try:
        getattr(Structure, name).__get__(S)
    except AttributeError:
        return False
    return True


def test_solve_route_reads_the_tables_without_setwise_memos():
    """On a fresh structure whose kinds are cached, the solver, the kernels and the
    classification read the structure's tables: no _Setwise memo is made."""
    rng, notes = random.Random(35), set()
    for S in [builtin(*args) for args in (("Hp", 3), ("Hp", 5), ("Hp", 7), ("Q2",), ("Fp", 5))
              for _ in range(20)] + [quotient_pair(builtin("Hp", 3), Poly(builtin("Hp", 3),
                                                                          (1, 0, 2)))[0]]:
        for kind in ("superfield", "multifield"):
            structure_is(S, kind)
        assert not _made(S, "_add_cache") and not _made(S, "_mul_cache")
        for rows, cols in ((2, 2), (2, 3), (3, 3), (3, 4)):
            A = Matrix.from_indices(S, rows, cols, [rng.randrange(len(S))
                                                    for _ in range(rows * cols)])
            sys_ = LinearSystem(A, tuple(rng.choice([rng.randrange(1, 1 << len(S)),
                                                     1 << rng.randrange(len(S))])
                                         for _ in range(rows)))
            outcomes = [solve_weak(sys_)]
            if cols > rows:
                outcomes.append(find_nontrivial_kernel(A))
            classify_candidate(sys_, Matrix.from_indices(S, cols, 1, [S.one_i] * cols))
            notes |= {o.note for o in outcomes}
        assert not _made(S, "_add_cache") and not _made(S, "_mul_cache"), S.name
    # every route ran: scaled and exhaustive solutions, proofs of none, both kernel routes
    assert {"", "exhaustive fallback", "exhausted all candidate vectors", "constructive",
            "exhaustive"} <= notes
    S = builtin("Hp", 3)
    S.add_masks(1, 2)  # the check sees a memo once one is made
    assert _made(S, "_add_cache") and not _made(S, "_mul_cache")
