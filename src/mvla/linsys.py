"""Linear systems Ax within B over superfields.

A solution is a vector d with Ad contained rowwise in B; a weak solution only needs a
rowwise nonempty intersection.  Scaling transports solutions forward; the converse is
unknown, so each candidate of a scaled system is re-verified on the original system.
Systems and vectors are carrier indices and masks, and the route reads the tables row
by row (_setwise, _union), keeping nothing past one call.  Scaled systems are in echelon
form (_echelon_pivots), and back substitution refuses any other input.  Solves and the
kernels of wide matrices walk one route (_route), a kernel with one free variable set to
1 at a time; small k^n kernels are scanned at once.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

from .axioms import structure_is, AxiomReport, FAIL, PASS
from .errors import BlowupError, MvlaError, StructureError, _limit
from .matrices import Matrix, _dot, _rank, _value_masks, _vector, elementary
from .structures import _bits, _setwise, _union

# The scaled route (_route) ends once its branches, and skips a back substitution once its
# nodes, pass the search limit or these; solves and kernels then fall back to their scans.
# Kernels of up to _SCALE_BRANCHES vectors skip the route and are scanned at once.
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
    """The rowwise value masks of A*d, one at a time: each row of A folded against d (_dot)."""
    S, n, a = sys.base, sys.A.cols, sys.A.indices
    if d.cols != 1 or d.rows != n or d.base is not S:
        raise StructureError("candidate vector shape or base mismatch")
    return (_dot(S, a[i:i + n], d.indices) for i in range(0, len(a), n))


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


def _echelon_pivots(A):
    """The first nonzero column of each row of A (None for a row of zeros) when A is in
    echelon form, its pivot columns strictly increasing and its rows of zeros last; else
    None, found at the first row out of order."""
    zero, n, a = A.base.zero_i, A.cols, A.indices
    pivots, last = [], -1  # last: the pivot above, None below a row of zeros
    for i in range(0, len(a), n):
        p = next((j - i for j in range(i, i + n) if a[j] != zero), None)
        if p is not None and (last is None or p <= last):
            return None
        pivots.append(last := p)
    return pivots


def iter_scaled_systems(sys):
    """Rewrite into scaled systems, in echelon form, by elementary operations.

    Pivots are normalized with the least inverse in carrier order and rows
    below are cleared through add-with-scaled-row steps; eliminated entries
    are pinned to 0 (a member of their choice set) while the remaining
    entries branch.  Branches are walked depth first, one column per level,
    in product order, and a state already walked at its column is skipped, so
    each scaled system is yielded once, where first reached.  The cap counts
    the branches (leaf paths) walked so far, a skipped state with all of its
    own: past the search limit or 4096 of them, BlowupError.  A system already in
    echelon form is yielded as it is.
    """
    S = sys.base
    if not structure_is(S, "superfield"):
        raise StructureError(f"{S.name} is not a superfield")
    if _echelon_pivots(sys.A) is not None:
        yield sys
        return

    m, n, zero, one = sys.A.rows, sys.A.cols, S.zero_i, S.one_i
    prod, sums, neg, least = S._prod, S._sum, S._neg, {}  # least: each pivot's least inverse
    branch_cap = min(_limit.get(), _SCALE_BRANCHES)
    paths, walked = 0, [{} for _ in range(n)]  # walked[c]: state -> the state's leaf paths

    def steps(a, B, r, c):
        """The states after column c in product order: the entries a, row-major, B masks and
        r the next pivot row, which branch selections can shift by zeroing out entries.  Rows
        from r on are 0 left of c and stay so unread (x.0 = {0} and 0 + 0 = {0})."""
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
        for pivot in itertools.product(*[(zero,) if j < c else (one,) if j == c else
                                         _bits(inv[y]) for j, y in enumerate(rows[0])]):
            # one product over the entries of the rows below, in the order of a product
            # over the rows, so that no row's choices are held before the first is walked
            below = [(y,) if mu is None else (zero,) if j <= c else _bits(_union(sums[y], mu[z]))
                     for row, mu in zip(rows[1:], mus) for j, (y, z) in enumerate(zip(row, pivot))]
            for tail in itertools.product(*below):
                yield head + pivot + tail, B, r + 1

    # The walk: a stack of [the steps of a state at column c (its depth less one), that
    # state, its leaf paths so far].  In a superfield each leaf is in echelon form and r
    # counts its nonzero rows; a state with zero rows from r on is a leaf (every later
    # column passes it on), in the last memo.
    stack = [[steps(sys.A.indices, sys.masks, 0, 0), None, 0]]
    while stack:
        c, frame = len(stack) - 1, stack[-1]
        if (state := next(frame[0], None)) is None:  # all below frame[1] walked: memoize
            stack.pop()
            if stack:
                walked[c - 1][frame[1]] = frame[2]
                stack[-1][2] += frame[2]
            continue
        leaf = c + 1 == n or (rest := state[0][state[2] * n:]).count(zero) == len(rest)
        got = (seen := walked[n - 1 if leaf else c]).get(state)
        if got is None and not leaf:
            stack.append([steps(*state, c + 1), state, 0])
            continue
        paths += got or 1  # a leaf, or a state that an earlier branch reached: its paths
        if paths > branch_cap:
            raise BlowupError(f"scaling exceeded {branch_cap} branches")
        if got is None:
            got = seen[state] = 1
            yield LinearSystem(Matrix.from_indices(S, m, n, state[0]), state[1])
        frame[2] += got


# -- back substitution ----------------------------------------------------------------


def iter_back_substitution(sys, free=None):
    """Depth-first candidates for a scaled system, verified on that system.

    The system must be in echelon form (_echelon_pivots), else StructureError.  Rows
    of zeros with 0 not in their right side make the system impossible (type I) and
    raise TypeIError.  Columns without a pivot are free variables: the column free
    (one of them, or None) is 1 and the others are 0.  Candidates come out in
    canonical choice order.  More nodes than the search limit (read when iteration
    starts) or 10**5 raise BlowupError.
    """
    S, n, a, masks = sys.base, sys.A.cols, sys.A.indices, sys.masks
    zero, lines = S.zero_i, [a[i:i + n] for i in range(0, len(a), n)]
    if (pivots := _echelon_pivots(sys.A)) is None:
        raise StructureError("back substitution needs a system in echelon form")
    for i, p in enumerate(pivots):
        if p is None and not masks[i] >> zero & 1:
            raise TypeIError(f"row {i} reads 0 within a set missing 0")
    rows = [i for i, p in enumerate(pivots) if p is not None]
    nodes, node_cap = 0, min(_limit.get(), _BACKSUB_NODES)
    k, prod, sums, negs = len(S), S._prod, S._sum, [1 << v for v in S._neg]
    least, scaled = {}, {}  # least: each pivot value's inverse_indices

    def value_set(i):
        """lam.B_i - sum of (lam.a_ij).d_j past the pivot, lam its least inverse: lam.B_i and
        the cells lam.a_ij of a row, each pivot value's inverse and each term read once."""
        if i not in scaled:
            x = lines[i][pivots[i]]
            if not (inverses := least.get(x) or least.setdefault(x, S.inverse_indices(x))):
                raise StructureError(f"pivot {S.elements[x]!r} has no inverse")
            inv = prod[inverses[0]]
            scaled[i] = _union(inv, masks[i]), [(j, inv[y], [None] * k) for j, y in
                                                enumerate(lines[i]) if j > pivots[i] and y != zero]
        out, cells = scaled[i]
        for j, t, terms in cells:
            term = terms[assigned[j]]
            if term is None:
                term = terms[assigned[j]] = _union(negs, _setwise(prod, t, 1 << assigned[j]))
            out = _setwise(sums, out, term)
        return _bits(out)

    # depth first from the last live row up: choices[t] holds the values left for the
    # pivot variable of row rows[-1 - t]; with every one assigned, test the leaf
    assigned, choices = [S.one_i if j == free else zero for j in range(n)], []
    while True:
        if len(choices) < len(rows):
            choices.append(iter(value_set(rows[-1 - len(choices)])))
        elif all(_dot(S, line, assigned) & b for line, b in zip(lines, masks)):
            yield Matrix.from_indices(S, n, 1, assigned)  # a weak solution of every row
        while choices and (x := next(choices[-1], None)) is None:
            assigned[pivots[rows[-len(choices)]]] = zero
            choices.pop()
        if not choices:
            return
        nodes += 1
        if nodes > node_cap:
            raise BlowupError(f"back substitution exceeded {node_cap} nodes")
        assigned[pivots[rows[-len(choices)]]] = x


# -- the solver -----------------------------------------------------------------------


def _route(sys, kernel=False):
    """The verdicts of the scaled route's candidates that verify on sys, in route order.

    Each scaled system of iter_scaled_systems is back-substituted with its free
    variables 0, or for a kernel, with each free column in turn 1 and the others 0
    (a scaled system with more columns than rows has one, and it makes every candidate
    nonzero).  Candidates are only trusted after classify_candidate re-checks them on
    sys.  Past the branch cap the route ends; a type I system or the node cap skips to
    the next system or free column.  The module-level names are called, so that
    wrappers of them see the route.
    """
    try:
        for scaled in iter_scaled_systems(sys):
            pivots = _echelon_pivots(scaled.A) if kernel else None
            for free in [j for j in range(sys.A.cols) if j not in pivots] if kernel else [None]:
                try:
                    for d in iter_back_substitution(scaled, free):
                        if (verdict := classify_candidate(sys, d)) is not None:
                            yield verdict
                except (TypeIError, BlowupError):
                    continue
    except BlowupError:
        return


def solve_weak(sys):
    """Find a weak solution: the first verdict of the scaled route (_route), re-verified
    on the original system.

    When the route yields nothing, or the scaler passes its cap, the first weak
    solution in product order (_first_weak) is classified, or none exists;
    inconclusive when the k^n vectors would pass the search limit.
    """
    if (verdict := next(_route(sys), None)) is not None:
        return SolveOutcome(SOLVED, verdict)

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


def find_nontrivial_kernel(A):
    """A nonzero d with 0 in every row of Ad, for systems with cols > rows.

    Up to 4096 (_SCALE_BRANCHES) vectors k^n, _first_weak scans them at once: the
    first nonzero d in product order, or none (no-solution).  Both are proofs.  Past
    that, over a superfield, the first vector of the scaled route of Ax = 0 in kernel
    mode (_route), re-verified on that system, is a verified construction (note
    "constructive").  On a miss, or over any other structure, the scan decides; the
    outcome is inconclusive when the k^n vectors would pass the search limit.  Route
    and scan cost the same at about 2,000 to 6,500 vectors, and below that the scan
    also skips the route's superfield check.
    """
    if A.cols <= A.rows:
        raise StructureError("kernel construction expects more columns than rows")
    k, n, zero, sys = len(A.base), A.cols, A.base.zero_i, homogeneous(A)
    if k ** n > _SCALE_BRANCHES and structure_is(A.base, "superfield") \
            and (verdict := next(_route(sys, kernel=True), None)) is not None:
        return SolveOutcome(SOLVED, SolutionVerdict(verdict.vector, "weak"), note="constructive")
    if k ** n > _limit.get():
        return SolveOutcome(INCONCLUSIVE, note=f"kernel scan of {k ** n} exceeds cap")
    d = _first_weak(sys, 1 << sum(zero * k ** e for e in range(n)))
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


def is_linearly_closed(F, max_n, max_m):
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
    `notes` counts the row sets decided.
    """
    if not structure_is(F, "superfield"):
        raise StructureError(f"{F.name} is not a superfield")
    return _closedness(F, max_n, max_m)


def _closedness(F, max_n, max_m):
    """is_linearly_closed on any tables: the tests certify mutants with it."""
    if max_n < 1:
        raise StructureError("need max_n >= 1")
    if max_m <= max_n:
        raise StructureError("need max_m > max_n")
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
            rank = _rank(k ** m, rows)
            A = Matrix.from_indices(F, n, m, _vector(k, n * m, rank))
            return AxiomReport(F.name, kind, FAIL, ((f"{n}x{m}", A.entries),),
                               checked + rank + 1, notes=f"scanned={scanned + first + 1}")
    return AxiomReport(F.name, kind, PASS, checked=checked, notes=f"scanned={scanned}")
