"""Linear systems Ax within B over superfields.

A solution is a vector d with Ad contained rowwise in B; a weak solution only needs a
rowwise nonempty intersection.  Scaling transports solutions forward (original to
scaled) but the converse is unknown, so every candidate found on a scaled system is
re-verified against the original system before being reported.  Systems and vectors
are worked on as carrier indices and masks.  The solve route and the constructive
kernels read the structure's tables row by row (_setwise, _union), keeping nothing past
one call; the _Setwise memos of add_masks and mul_masks serve the repeated-mask
arithmetic of boxes, polynomials and spaces.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

from .axioms import structure_is, AxiomReport, FAIL, PASS
from .errors import BlowupError, MvlaError, StructureError, _limit
from .matrices import Matrix, _dot, _index_product, _value_masks, _vector, elementary
from .structures import _bits, _setwise, _union

# The scaled route stops once the branches walked so far, or the nodes, pass the search
# limit or these; solve_weak then falls back to its exhaustive scan.
_SCALE_BRANCHES = 4096
_BACKSUB_NODES = 10 ** 5

SOLVED = "solved"
NO_SOLUTION = "no-solution"
INCONCLUSIVE = "inconclusive"


class TypeIError(MvlaError):
    """A scaled system contains an all-zero row whose right side misses 0."""


@dataclass(frozen=True)
class LinearSystem:
    A: Matrix
    masks: tuple  # the right-hand side: one nonempty carrier mask per row

    @classmethod
    def of(cls, A, B):
        """The system Ax within B, for right-hand side sets B of elements."""
        S, B = A.base, [frozenset(s) for s in B]
        if len(B) != A.rows:
            raise StructureError("right-hand side length does not match the rows")
        for s in B:
            if not s:
                raise StructureError("empty right-hand side set")
            for e in s:
                if e not in S:
                    raise StructureError(f"right-hand side element {e!r} not in {S.name}")
        return cls(A, tuple(map(S.mask_of, B)))

    @property
    def base(self):
        return self.A.base

    @property
    def B(self):
        """The right-hand side, one frozenset of elements per row."""
        return tuple(map(self.base.set_of, self.masks))


@dataclass(frozen=True)
class SolutionVerdict:
    vector: Matrix
    strength: str  # "solution" | "weak"


@dataclass(frozen=True)
class SolveOutcome:
    status: str  # solved | no-solution | inconclusive
    verdict: SolutionVerdict = None
    note: str = ""


def _row_masks(sys, d):
    """The rowwise value masks of A*d, one at a time."""
    if d.cols != 1 or d.rows != sys.A.cols or d.base is not sys.base:
        raise StructureError("candidate vector shape or base mismatch")
    return _index_product(sys.A, d)


def row_value_sets(sys, d):
    """The rowwise value sets of A*d."""
    return tuple(map(sys.base.set_of, _row_masks(sys, d)))


def is_solution(sys, d):
    return all(not v & ~b for v, b in zip(_row_masks(sys, d), sys.masks))


def is_weak_solution(sys, d):
    return all(v & b for v, b in zip(_row_masks(sys, d), sys.masks))


def classify_candidate(sys, d):
    """SolutionVerdict for d, or None (at the first row) when not even a weak solution."""
    strength = "solution"
    for v, b in zip(_row_masks(sys, d), sys.masks):
        if not v & b:
            return None
        if v & ~b:
            strength = "weak"
    return SolutionVerdict(d, strength)


# -- elementary operations on systems ----------------------------------------------


def apply_elementary(sys, op):
    """All systems reachable by one elementary operation.

    The operation acts on A (branching entrywise where sums are involved) and
    correspondingly on B: permutation and scaling act directly, row addition
    replaces B_i by the set sum B_i + B_j.
    """
    S = sys.base
    box = elementary(op, sys.A)
    B = list(sys.masks)
    if op.kind == "swap":
        B[op.i], B[op.j] = B[op.j], B[op.i]
    elif op.kind == "scale":
        B[op.i] = S.mul_masks(1 << S.index(op.lam), B[op.i])
    else:
        B[op.i] = S.add_masks(B[op.i], B[op.j])
    B = tuple(B)
    return tuple(LinearSystem(M, B) for M in box.members())


# -- scaling (Gaussian rewriting) ----------------------------------------------------


def iter_scaled_systems(sys):
    """Rewrite into upper-triangular (scaled) systems by elementary operations.

    Pivots are normalized with the least inverse in carrier order and rows
    below are cleared through add-with-scaled-row steps; eliminated entries
    are pinned to 0 (a member of their choice set) while the remaining
    entries branch.  Branches are walked depth first, one column per level,
    in product order, and a state already walked at its column is skipped, so
    each scaled system is yielded once, where first reached.  The cap counts
    the branches (leaf paths) walked so far, a skipped state with all of its
    own: past the search limit or 4096 of them, BlowupError.
    """
    S = sys.base
    if not structure_is(S, "superfield"):
        raise StructureError(f"{S.name} is not a superfield")
    if sys.A.is_upper_triangular:
        yield sys
        return

    m, n, zero, one = sys.A.rows, sys.A.cols, S.zero_i, S.one_i
    prod, sums, neg, least = S._prod, S._sum, S._neg, {}  # least: each pivot's least inverse
    branch_cap = min(_limit.get(), _SCALE_BRANCHES)
    paths, walked = 0, [{} for _ in range(n)]  # walked[c]: state -> the state's leaf paths

    def steps(a, B, r, c):
        """The states after column c in product order: the entries a, row-major, B masks and
        r the next pivot row, which branch selections can shift by zeroing out entries."""
        for p in range(r, m):
            if a[p * n + c] != zero:
                break
        else:
            yield a, B, r
            return
        rows, B = [a[i:i + n] for i in range(r * n, m * n, n)], list(B)
        rows[0], rows[p - r], B[r], B[p] = rows[p - r], rows[0], B[p], B[r]
        x, head = rows[0][c], a[:r * n]
        inv = prod[least[x] if x in least else least.setdefault(x, S.inverse_indices(x)[0])]
        B[r] = _union(inv, B[r])
        mus = [None if row[c] == zero else prod[neg[row[c]]] for row in rows[1:]]  # -a_kc
        B = (*B[:r + 1], *(b if mu is None else _setwise(sums, b, _union(mu, B[r]))
                           for b, mu in zip(B[r + 1:], mus)))
        for pivot in itertools.product(*[(one,) if j == c else _bits(inv[y])
                                         for j, y in enumerate(rows[0])]):
            # one product over the entries of the rows below, in the order of a product
            # over the rows, so that no row's choices are held before the first is walked
            below = [(y,) if mu is None else (zero,) if j == c else _bits(_union(sums[y], mu[z]))
                     for row, mu in zip(rows[1:], mus) for j, (y, z) in enumerate(zip(row, pivot))]
            for tail in itertools.product(*below):
                yield head + pivot + tail, B, r + 1

    def walk(a, B, r, c):
        """Yield the scaled systems below a state, each once; return its leaf paths.  In a
        superfield each leaf is upper triangular and r counts its nonzero rows.  A state with
        zero rows from r on is a leaf (every later column passes it on), in the last memo."""
        nonlocal paths
        total = 0
        for state in steps(a, B, r, c):
            leaf = c + 1 == n or (rest := state[0][state[2] * n:]).count(zero) == len(rest)
            got = (seen := walked[n - 1 if leaf else c]).get(state)
            if got is None and not leaf:
                got = seen[state] = yield from walk(*state, c + 1)
            else:  # a leaf, or a state that an earlier branch reached: count its paths
                paths += got or 1
                if paths > branch_cap:
                    raise BlowupError(f"scaling exceeded {branch_cap} branches")
                if got is None:
                    got = seen[state] = 1
                    yield LinearSystem(Matrix.from_indices(S, m, n, state[0]), state[1])
            total += got
        return total

    yield from walk(sys.A.indices, sys.masks, 0, 0)


# -- back substitution ----------------------------------------------------------------


def iter_back_substitution(sys):
    """Depth-first candidates for a scaled system, verified on that system.

    Rows of zeros with 0 not in their right side make the system impossible
    (type I) and raise TypeIError.  Columns without a pivot are free variables
    and default to 0.  Candidates come out in canonical choice order.  More
    nodes than the search limit (read when iteration starts) or 10**5 raise
    BlowupError.
    """
    if not sys.A.is_upper_triangular:
        raise StructureError("back substitution needs a scaled system")
    S, n, a = sys.base, sys.A.cols, sys.A.indices
    zero, lines = S.zero_i, [a[i:i + n] for i in range(0, len(a), n)]
    # the leading-entry column per row; None for a row of zeros
    pivots = [next((j for j, x in enumerate(line) if x != zero), None) for line in lines]
    for i, p in enumerate(pivots):
        if p is None and not sys.masks[i] >> zero & 1:
            raise TypeIError(f"row {i} reads 0 within a set missing 0")
    rows = [i for i, p in enumerate(pivots) if p is not None]
    nodes, node_cap = 0, min(_limit.get(), _BACKSUB_NODES)
    prod, sums, negs, scaled = S._prod, S._sum, [1 << v for v in S._neg], {}

    def value_set(i):
        """lam.B_i - sum of (lam.a_ij).d_j past the pivot, lam its least inverse (read once)."""
        if i not in scaled:
            inverses = S.inverse_indices(lines[i][pivots[i]])
            if not inverses:
                raise StructureError(f"pivot {S.elements[lines[i][pivots[i]]]!r} has no inverse")
            inv = prod[inverses[0]]
            scaled[i] = _union(inv, sys.masks[i]), [(j, inv[x]) for j, x in enumerate(lines[i])
                                                    if j > pivots[i] and x != zero]
        out, cells = scaled[i]
        for j, t in cells:
            out = _setwise(sums, out, _union(negs, _setwise(prod, t, 1 << assigned[j])))
        return _bits(out)

    def rec(idx):
        nonlocal nodes
        if idx < 0:  # a weak solution of every row (is_weak_solution), row by row
            if all(_dot(S, line, assigned) & b for line, b in zip(lines, sys.masks)):
                yield Matrix.from_indices(S, n, 1, assigned)
            return
        i = rows[idx]
        for x in value_set(i):
            nodes += 1
            if nodes > node_cap:
                raise BlowupError(f"back substitution exceeded {node_cap} nodes")
            assigned[pivots[i]] = x
            yield from rec(idx - 1)
        assigned[pivots[i]] = zero

    assigned = [zero] * n  # free variables default to 0
    yield from rec(len(rows) - 1)


# -- the solver -----------------------------------------------------------------------


def solve_weak(sys):
    """Find a weak solution: scale, back-substitute, re-verify on the original.

    Scaled systems are read one at a time, as iter_scaled_systems walks them,
    and their candidates are only trusted after re-checking against the
    original system.  When they yield nothing, or the scaler passes its cap,
    the first weak solution in product order (_first_weak) is classified, or
    none exists; inconclusive when the k^n vectors would pass the search limit.
    """
    try:
        for scaled in iter_scaled_systems(sys):
            try:
                for d in iter_back_substitution(scaled):
                    verdict = classify_candidate(sys, d)
                    if verdict is not None:
                        return SolveOutcome(SOLVED, verdict)
            except (TypeIError, BlowupError):
                continue
    except BlowupError:
        pass  # the scaler passed its cap: the scan below decides

    total = len(sys.base) ** sys.A.cols
    if total > _limit.get():
        return SolveOutcome(INCONCLUSIVE, note=f"scan of {total} vectors exceeds cap")
    d = _first_weak(sys)
    if d is not None:
        return SolveOutcome(SOLVED, classify_candidate(sys, d), note="exhaustive fallback")
    return SolveOutcome(NO_SOLUTION, note="exhausted all candidate vectors")


def _weak_mask(sys):
    """The weak solutions as a mask over the vectors in product order: the AND over
    rows i of the vectors d with r_i.d meeting B_i, each row one _value_masks fold.
    Once the AND reads 0 no later row is folded."""
    S, n, a, memo = sys.base, sys.A.cols, sys.A.indices, {}
    weak = -1  # every vector; a matrix has at least one row
    for i, b in zip(range(0, len(a), n), sys.masks):
        weak &= _value_masks(S, S._prod, a[i:i + n], (b,), memo)[0]
        if not weak:
            break
    return weak


def _first_weak(sys, skip=0):
    """The first weak solution in product order outside the vector mask skip, or None."""
    S, n = sys.base, sys.A.cols
    weak = _weak_mask(sys) & ~skip
    return Matrix.from_indices(S, n, 1, _vector(len(S), n, (weak & -weak).bit_length() - 1)) \
        if weak else None


# -- homogeneous kernels ---------------------------------------------------------------


def homogeneous(A):
    """The system Ax = 0, read as B = ({0}, ..., {0}) with weak semantics."""
    return LinearSystem(A, (1 << A.base.zero_i,) * A.rows)


# The constructive kernels work on carrier indices over a multifield, where
# every product is a single element and every nonzero element has an inverse
# (the least one comes first in inverse_indices).


def _single(mask):
    """The index of the unique member of a singleton mask."""
    (v,) = _bits(mask)
    return v


def _unit(S, j, m):
    """The vector of length m with 1 at position j and 0 elsewhere."""
    return [S.one_i if i == j else S.zero_i for i in range(m)]


def _case1(S, masks):
    """One-row method over set-valued coefficients: d with 0 in sum coeff_j d_j.

    A coefficient set holding 0 gives a unit vector; otherwise, with the least
    members a1, a2 of the first two sets, x1 = -a1^(-1)a2 and x2 = 1.
    """
    m, zero = len(masks), S.zero_i
    for j, cs in enumerate(masks):
        if cs >> zero & 1:
            return _unit(S, j, m)
    s2, s3 = (_bits(cs)[0] for cs in masks[:2])
    d2 = S._neg[_single(S._prod[S.inverse_indices(s2)[0]][s3])]
    return [d2, S.one_i] + [zero] * (m - 2)


def _normalize_row(S, row):
    inv = S._prod[S.inverse_indices(row[0])[0]]
    return [_single(inv[a]) for a in row]


def _case2(S, rows, m):
    (a, b), zero, prod, neg = rows, S.zero_i, S._prod, S._neg
    for j in range(m):
        if a[j] == zero and b[j] == zero:
            return _unit(S, j, m)
    zero_pos = next(((r, j) for r, row in enumerate(rows) for j in range(m)
                     if row[j] == zero), None)
    if zero_pos is not None:
        r, p = zero_pos
        zero_row, other = rows[r], rows[1 - r]
        rest_cols = [j for j in range(m) if j != p]
        sub = _case1(S, [1 << zero_row[j] for j in rest_cols])  # d off column p
        pick = _bits(_dot(S, [other[j] for j in rest_cols], sub))[0]
        return sub[:p] + [neg[_single(prod[S.inverse_indices(other[p])[0]][pick])]] + sub[p:]

    lam = next((l for l in range(len(S)) if l != zero and
                all(_single(prod[l][a[j]]) == b[j] for j in range(m))), None)
    if lam is not None:
        return _case1(S, [1 << x for x in a])

    an = _normalize_row(S, a)
    bn = _normalize_row(S, b)
    tail = _case1(S, [S._sum[bn[j]][neg[an[j]]] for j in range(1, m)])
    meet = _dot(S, an[1:], tail) & _dot(S, bn[1:], tail)
    if not meet:
        return None
    return [neg[_bits(meet)[0]]] + tail


def _case3(S, rows, m):
    zero, sums, neg, negs = S.zero_i, S._sum, S._neg, [1 << v for v in S._neg]
    for j in range(m):
        if all(row[j] == zero for row in rows):
            return _unit(S, j, m)
    # move a column with all rows nonzero to the front, keep only 4 columns
    front = next((j for j in range(m) if all(row[j] != zero for row in rows)), None)
    if front is None or m < 4:
        return None
    cols = [front] + [j for j in range(m) if j != front][:3]
    sub = [[row[j] for j in cols] for row in rows]
    a, b, c = (_normalize_row(S, row) for row in sub)

    D = [sums[b[j]][neg[a[j]]] for j in range(1, 4)]  # rows b - a, positions 2..4
    E = [sums[c[j]][neg[a[j]]] for j in range(1, 4)]
    if any(s >> zero & 1 for s in D + E):
        return None  # pairwise independence assumption failed; use the fallback

    add, mul = functools.partial(_setwise, sums), functools.partial(_setwise, S._prod)
    # columns 3 and 4 of the reduced system
    G = [add(mul(D[0], E[j]), _union(negs, mul(E[0], D[j]))) for j in (1, 2)]
    d3, d4 = _case1(S, G)
    b3, b4 = 1 << d3, 1 << d4

    meet = (add(mul(D[0], mul(E[1], b3)), mul(D[0], mul(E[2], b4)))
            & add(mul(E[0], mul(D[1], b3)), mul(E[0], mul(D[2], b4))))
    if not meet:
        return None
    neg_z = neg[_bits(meet)[0]]

    sum_d = add(mul(D[1], b3), mul(D[2], b4))
    d2 = next((x for x in _bits(_union(negs, sum_d)) if mul(E[0], 1 << x) >> neg_z & 1), None)
    if d2 is None:
        return None

    meet2 = _dot(S, a[1:], [d2, d3, d4]) & _dot(S, b[1:], [d2, d3, d4])
    if not meet2:
        return None
    d = dict(zip(cols, [neg[_bits(meet2)[0]], d2, d3, d4]))
    return [d.get(j, zero) for j in range(m)]


def constructive_kernel(A):
    """The row-count-specific kernel constructions; None when preconditions fail.

    Requires the hyperfield toolkit (single-valued products with inverses);
    the result is verified here, and find_nontrivial_kernel falls back.
    """
    S, n, m = A.base, A.rows, A.cols
    if m <= n or not structure_is(S, "multifield"):
        return None
    rows = [A.indices[i * m:(i + 1) * m] for i in range(n)]
    if n == 1:
        d = _case1(S, [1 << x for x in rows[0]])
    elif n == 2:
        d = _case2(S, rows, m)
    elif n == 3:
        d = _case3(S, rows, m)
    else:
        return None
    if d is None or all(x == S.zero_i for x in d):
        return None
    vec = Matrix.from_indices(S, m, 1, d)
    return vec if is_weak_solution(homogeneous(A), vec) else None


def find_nontrivial_kernel(A):
    """A nonzero d with 0 in every row of Ad, for systems with cols > rows.

    The constructive route covers up to three rows over hyperfields; its
    output is always re-verified.  Otherwise _first_weak decides: the first
    nonzero d in product order, or none.  The outcome is inconclusive when the
    k^cols vectors would pass the search limit.
    """
    if A.cols <= A.rows:
        raise StructureError("kernel construction expects more columns than rows")
    got = constructive_kernel(A)
    if got is not None:
        return SolveOutcome(SOLVED, SolutionVerdict(got, "weak"), note="constructive")
    k, n, zero = len(A.base), A.cols, A.base.zero_i
    if k ** n > _limit.get():
        return SolveOutcome(INCONCLUSIVE, note=f"kernel scan of {k ** n} exceeds cap")
    d = _first_weak(homogeneous(A), 1 << sum(zero * k ** e for e in range(n)))
    if d is not None:
        return SolveOutcome(SOLVED, SolutionVerdict(d, "weak"), note="exhaustive")
    return SolveOutcome(NO_SOLUTION)


def _zero_sets(F):
    """Z at m = 1, 2, ...: bit d of Z[r] is set iff d != 0 and 0 in r.d (product order)."""
    k, memo = len(F), {}  # one memo for all rows: in product order each extends its prefix's lanes
    zvec = zero = F.zero_i
    for m in itertools.count(1):
        yield [_value_masks(F, F._prod, row, (1 << zero,), memo)[0] & ~(1 << zvec)
               for row in itertools.product(range(k), repeat=m)]
        zvec = zvec * k + zero


def is_linearly_closed(F, max_n, max_m, require_superfield=True):
    """Certify nontrivial weak solutions of Ax = 0 for every A with n < m.

    Covers every matrix of the shapes n <= max_n, n < m <= max_m, in order, and
    reports the first counterexample; `checked` counts the matrices covered up to it.
    A has a nontrivial weak kernel iff the AND of Z (_zero_sets, by _value_masks) over
    its rows is nonzero.  Two exact reductions keep the first counterexample.  Row
    sets: a weak solution meets each row on its own, so only sorted, distinct rows are
    scanned (a repeated row gives a smaller shape, scanned earlier).  Prefix: if
    a.0 = {0} and s + 0 = {s} in F's tables, then r.(d, 0) = r.d, so a zero-padded
    kernel of the first n + 1 columns is one of A: n x (n + 1) covers every n x m.
    The limit is charged with the k^(2m) table cells (the fold's lanes of one row's
    proper prefixes fit in them) and the row sets scanned, before either is built;
    `notes` counts the row sets decided.  require_superfield=False admits mutants.
    """
    if max_n < 1:
        raise StructureError("need max_n >= 1")
    if max_m <= max_n:
        raise StructureError("need max_m > max_n")
    if require_superfield and not structure_is(F, "superfield"):
        raise StructureError(f"{F.name} is not a superfield")
    k, zero = len(F), F.zero_i
    prefix = all(F._sum[s][zero] == 1 << s and F._prod[s][zero] == 1 << zero for s in range(k))
    kind = f"linearly-closed(n<={max_n},m<={max_m})"
    tables, zeros = _zero_sets(F), []  # zeros[m - 1]: Z at length m
    checked = scanned = spent = 0
    budget = _limit.get()
    for n in range(1, max_n + 1):
        for m in range(n + 1, max_m + 1):
            if prefix and m > n + 1:
                checked += k ** (n * m)
                continue
            spent += math.comb(k ** m, n) + (0 if m <= len(zeros) else k ** (2 * m))
            if spent > budget:
                raise BlowupError(f"closedness work {spent} at {n}x{m} exceeds budget {budget}")
            while len(zeros) < m:
                zeros.append(next(tables))
            first = next((i for i, zs in enumerate(itertools.combinations(zeros[m - 1], n))
                          if not functools.reduce(int.__and__, zs)), None)
            if first is None:
                scanned, checked = scanned + math.comb(k ** m, n), checked + k ** (n * m)
                continue
            rows = next(itertools.islice(itertools.combinations(range(k ** m), n), first, None))
            rank = functools.reduce(lambda acc, r: acc * k ** m + r, rows, 0)
            A = Matrix.from_indices(F, n, m, _vector(k, n * m, rank))
            return AxiomReport(F.name, kind, FAIL, ((f"{n}x{m}", A.entries),),
                               checked + rank + 1, notes=f"scanned={scanned + first + 1}")
    return AxiomReport(F.name, kind, PASS, checked=checked, notes=f"scanned={scanned}")
