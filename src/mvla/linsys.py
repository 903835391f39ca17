"""Linear systems Ax within B over superfields.

A solution is a vector d with Ad contained rowwise in B; a weak solution only
needs a rowwise nonempty intersection.  Scaling transports solutions forward
(original to scaled) but the converse is unknown, so every candidate found on
a scaled system is re-verified against the original system before being
reported.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .axioms import structure_is, AxiomReport, FAIL, PASS
from .errors import BlowupError, MvlaError, StructureError
from .matrices import Matrix, mmul

DEFAULT_BRANCH_CAP = 4096
DEFAULT_NODE_CAP = 10 ** 5
DEFAULT_SCAN_CAP = 10 ** 6

SOLVED = "solved"
NO_SOLUTION = "no-solution"
INCONCLUSIVE = "inconclusive"


class TypeIError(MvlaError):
    """A scaled system contains an all-zero row whose right side misses 0."""


@dataclass(frozen=True)
class LinearSystem:
    A: Matrix
    B: tuple  # one nonempty subset of the carrier per row

    def __post_init__(self):
        S = self.A.base
        if len(self.B) != self.A.rows:
            raise StructureError("right-hand side length does not match the rows")
        for s in self.B:
            if not s:
                raise StructureError("empty right-hand side set")
            for e in s:
                if e not in S:
                    raise StructureError(f"right-hand side element {e!r} not in {S.name}")

    @classmethod
    def of(cls, A, B):
        return cls(A, tuple(frozenset(s) for s in B))

    @property
    def base(self):
        return self.A.base

    def key(self):
        S = self.base
        return (self.A.entries, tuple(S.canon(s) for s in self.B))


@dataclass(frozen=True)
class SolutionVerdict:
    vector: Matrix
    strength: str  # "solution" | "weak"


@dataclass(frozen=True)
class SolveOutcome:
    status: str  # solved | no-solution | inconclusive
    verdict: SolutionVerdict = None
    note: str = ""


def _check_vector(sys, d):
    if d.cols != 1 or d.rows != sys.A.cols or d.base is not sys.base:
        raise StructureError("candidate vector shape or base mismatch")


def _row_masks(sys, d):
    """The rowwise value masks of A*d, beside the masks of the right-hand side."""
    _check_vector(sys, d)
    S = sys.base
    return mmul(sys.A, d).masks, [S.mask_of(b) for b in sys.B]


def row_value_sets(sys, d):
    """The rowwise value sets of A*d."""
    _check_vector(sys, d)
    return tuple(map(sys.base.set_of, mmul(sys.A, d).masks))


def is_solution(sys, d):
    vals, bs = _row_masks(sys, d)
    return all(not v & ~b for v, b in zip(vals, bs))


def is_weak_solution(sys, d):
    vals, bs = _row_masks(sys, d)
    return all(v & b for v, b in zip(vals, bs))


def classify_candidate(sys, d):
    """SolutionVerdict for d, or None when it is not even a weak solution."""
    vals, bs = _row_masks(sys, d)
    if not all(v & b for v, b in zip(vals, bs)):
        return None
    strength = "solution" if all(not v & ~b for v, b in zip(vals, bs)) else "weak"
    return SolutionVerdict(d, strength)


# -- elementary operations on systems ----------------------------------------------


def apply_elementary(sys, op, member_cap=DEFAULT_BRANCH_CAP):
    """All systems reachable by one elementary operation.

    The operation acts on A (branching entrywise where sums are involved) and
    correspondingly on B: permutation and scaling act directly, row addition
    replaces B_i by the set sum B_i + B_j.
    """
    from .matrices import elementary as apply_to_matrix

    S = sys.base
    box = apply_to_matrix(op, sys.A)
    B = list(sys.B)
    if op.kind == "swap":
        B[op.i], B[op.j] = B[op.j], B[op.i]
    elif op.kind == "scale":
        lam_mask = 1 << S.index(op.lam)
        B[op.i] = S.set_of(S.mul_masks(lam_mask, S.mask_of(B[op.i])))
    else:
        B[op.i] = S.set_of(S.add_masks(S.mask_of(B[op.i]), S.mask_of(B[op.j])))
    B = tuple(B)
    return tuple(LinearSystem(M, B) for M in box.members(member_cap))


# -- scaling (Gaussian rewriting) ----------------------------------------------------


def scale_system(sys, branch_cap=DEFAULT_BRANCH_CAP):
    """Rewrite into upper-triangular (scaled) systems by elementary operations.

    Pivots are normalized with the least inverse in carrier order and rows
    below are cleared through add-with-scaled-row steps; eliminated entries
    are pinned to 0 (a member of their choice set) while the remaining
    entries branch.  Exceeding the branch cap raises BlowupError.
    """
    S = sys.base
    if not structure_is(S, "superfield"):
        raise StructureError(f"{S.name} is not a superfield")
    if sys.A.is_upper_triangular:
        return (sys,)

    m, n = sys.A.rows, sys.A.cols
    # each state carries its own next pivot row, since branch selections can
    # zero out entries and shift the pivot structure between branches
    states = [(tuple(map(tuple, (sys.A.row(i) for i in range(m)))),
               tuple(sys.B), 0)]
    for c in range(n):
        new_states = []
        for rows, B, r in states:
            pivot_row = next((k for k in range(r, m) if rows[k][c] != S.zero), None) \
                if r < m else None
            if pivot_row is None:
                new_states.append((rows, B, r))
                continue
            rows = list(rows)
            B = list(B)
            rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
            B[r], B[pivot_row] = B[pivot_row], B[r]

            lam = S.inverse(rows[r][c])
            if lam is None:
                raise StructureError(f"{rows[r][c]!r} has no inverse in {S.name}")
            lam_mask = 1 << S.index(lam)
            pivot_choices = []
            for j in range(n):
                choice = S.canon_of(S.mul_masks(lam_mask, 1 << S.index(rows[r][j])))
                pivot_choices.append((S.one,) if j == c else choice)
            Br = S.set_of(S.mul_masks(lam_mask, S.mask_of(B[r])))

            for pivot_sel in itertools.product(*pivot_choices):
                sub_rows = [list(map(list, rows))]
                sub_B = [list(B)]
                sub_rows[0][r] = list(pivot_sel)
                sub_B[0][r] = Br
                frontier = list(zip(sub_rows, sub_B))
                for k in range(r + 1, m):
                    if rows[k][c] == S.zero:
                        continue
                    mu = S.neg(rows[k][c])
                    mu_mask = 1 << S.index(mu)
                    next_frontier = []
                    for rws, bb in frontier:
                        choices = []
                        for j in range(n):
                            if j == c:
                                choices.append((S.zero,))
                                continue
                            scaled = S.mul_masks(mu_mask, 1 << S.index(rws[r][j]))
                            summed = S.add_masks(1 << S.index(rws[k][j]), scaled)
                            choices.append(S.canon_of(summed))
                        new_bk = S.set_of(S.add_masks(
                            S.mask_of(bb[k]),
                            S.mul_masks(mu_mask, S.mask_of(bb[r]))))
                        for sel in itertools.product(*choices):
                            rws2 = [list(row) for row in rws]
                            rws2[k] = list(sel)
                            bb2 = list(bb)
                            bb2[k] = new_bk
                            next_frontier.append((rws2, bb2))
                            if len(next_frontier) + len(new_states) > branch_cap:
                                raise BlowupError("scaling branch cap exceeded")
                    frontier = next_frontier
                for rws, bb in frontier:
                    new_states.append((tuple(map(tuple, rws)), tuple(bb), r + 1))
                    if len(new_states) > branch_cap:
                        raise BlowupError("scaling branch cap exceeded")
        states = new_states

    out, seen = [], set()
    for rows, B, _ in states:
        M = Matrix.from_rows(S, rows)
        cand = LinearSystem(M, B)
        if M.is_upper_triangular and cand.key() not in seen:
            seen.add(cand.key())
            out.append(cand)
    return tuple(out)


# -- back substitution ----------------------------------------------------------------


def _pivot_columns(A):
    """Leading-entry column per row, checking the scaled shape."""
    S = A.base
    pivots = []
    for i in range(A.rows):
        row = A.row(i)
        lead = next((j for j, e in enumerate(row) if e != S.zero), None)
        pivots.append(lead)
    return pivots


def iter_back_substitution(sys, node_cap=DEFAULT_NODE_CAP):
    """Depth-first candidates for a scaled system, verified on that system.

    Rows of zeros with 0 not in their right side make the system impossible
    (type I) and raise TypeIError.  Columns without a pivot are free variables
    and default to 0.  Candidates come out in canonical choice order.
    """
    S = sys.base
    A = sys.A
    if not A.is_upper_triangular:
        raise StructureError("back substitution needs a scaled system")
    pivots = _pivot_columns(A)
    for i, p in enumerate(pivots):
        if p is None and S.zero not in sys.B[i]:
            raise TypeIError(f"row {i} reads 0 within a set missing 0")
    rows = [i for i, p in enumerate(pivots) if p is not None]
    n = A.cols
    nodes = 0

    def value_set(i, assigned):
        p = pivots[i]
        inv = S.inverse(A.entry(i, p))
        if inv is None:
            raise StructureError(f"pivot {A.entry(i, p)!r} has no inverse")
        inv_bit = 1 << S.index(inv)
        terms = [S.mul_masks(inv_bit, S.mask_of(sys.B[i]))]
        for j in range(p + 1, n):
            a = A.entry(i, j)
            if a == S.zero:
                continue
            t = S.prod_of((inv_bit, 1 << S.index(a), 1 << S.index(assigned[j])))
            terms.append(S.neg_mask(t))
        return S.canon_of(S.sum_of(terms))

    def rec(idx, assigned):
        nonlocal nodes
        if idx < 0:
            d = Matrix.column(S, [assigned[j] for j in range(n)])
            if is_weak_solution(sys, d):
                yield d
            return
        i = rows[idx]
        for x in value_set(i, assigned):
            nodes += 1
            if nodes > node_cap:
                raise BlowupError("back substitution exceeded its node cap")
            assigned[pivots[i]] = x
            yield from rec(idx - 1, assigned)
        assigned[pivots[i]] = S.zero

    assigned = {j: S.zero for j in range(n)}  # free variables default to 0
    yield from rec(len(rows) - 1, assigned)


def back_substitute(sys, node_cap=DEFAULT_NODE_CAP):
    """First weak solution of a scaled system in canonical order, or None."""
    for d in iter_back_substitution(sys, node_cap):
        return classify_candidate(sys, d)
    return None


# -- the solver -----------------------------------------------------------------------


def solve_weak(sys, branch_cap=DEFAULT_BRANCH_CAP, node_cap=DEFAULT_NODE_CAP,
               scan_cap=DEFAULT_SCAN_CAP):
    """Find a weak solution: scale, back-substitute, re-verify on the original.

    Candidates produced on scaled systems are only trusted after re-checking
    against the original system.  When the pipeline yields nothing, a bounded
    exhaustive scan decides between no-solution and inconclusive.
    """
    S = sys.base
    try:
        branches = scale_system(sys, branch_cap)
    except BlowupError:
        branches = ()
    for scaled in branches:
        try:
            for d in iter_back_substitution(scaled, node_cap):
                verdict = classify_candidate(sys, d)
                if verdict is not None:
                    return SolveOutcome(SOLVED, verdict)
        except (TypeIError, BlowupError):
            continue

    n = sys.A.cols
    total = len(S.elements) ** n
    if total > scan_cap:
        return SolveOutcome(INCONCLUSIVE, note=f"scan of {total} vectors exceeds cap")
    for combo in itertools.product(S.elements, repeat=n):
        d = Matrix.column(S, combo)
        verdict = classify_candidate(sys, d)
        if verdict is not None:
            return SolveOutcome(SOLVED, verdict, note="exhaustive fallback")
    return SolveOutcome(NO_SOLUTION, note="exhausted all candidate vectors")


# -- homogeneous kernels ---------------------------------------------------------------


def homogeneous(A):
    """The system Ax = 0, read as B = ({0}, ..., {0}) with weak semantics."""
    S = A.base
    return LinearSystem(A, tuple(frozenset([S.zero]) for _ in range(A.rows)))


def _kernel_ok(A, d):
    S = A.base
    if all(e == S.zero for e in d.entries):
        return False
    return is_weak_solution(homogeneous(A), d)


def _exhaustive_kernel(A, scan_cap):
    S = A.base
    total = len(S.elements) ** A.cols
    if total > scan_cap:
        return SolveOutcome(INCONCLUSIVE, note=f"kernel scan of {total} exceeds cap")
    for combo in itertools.product(S.elements, repeat=A.cols):
        if all(e == S.zero for e in combo):
            continue
        d = Matrix.column(S, combo)
        if _kernel_ok(A, d):
            return SolveOutcome(SOLVED, SolutionVerdict(d, "weak"), note="exhaustive")
    return SolveOutcome(NO_SOLUTION)


def _single(S, x):
    """The unique member of a singleton product set."""
    (v,) = x
    return v


def _row_sum_mask(S, coeffs, d):
    return S.sum_of(S.prod_mask(a, x) for a, x in zip(coeffs, d))


def _case1(S, row, m):
    """One-row method: a zero coefficient, else x1 = -a1^(-1)a2, x2 = 1."""
    for j, a in enumerate(row):
        if a == S.zero:
            return [S.one if i == j else S.zero for i in range(m)]
    inv = S.inverse(row[0])
    x1 = S.neg(_single(S, S.prod_set(inv, row[1])))
    return [x1, S.one] + [S.zero] * (m - 2)


def _case1_masks(S, masks):
    """Case I method over set-valued coefficients: d with 0 in sum coeff_j d_j."""
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
    # move a column with all rows nonzero to the front, keep only 4 columns
    front = next((j for j in range(m) if all(row[j] != S.zero for row in rows)), None)
    if front is None or m < 4:
        return None
    cols = [front] + [j for j in range(m) if j != front][:3]
    sub = [[row[j] for j in cols] for row in rows]
    a, b, c = (_normalize_row(S, row) for row in sub)

    D = [S.sum_mask(b[j], S.neg(a[j])) for j in range(1, 4)]  # rows b - a, positions 2..4
    E = [S.sum_mask(c[j], S.neg(a[j])) for j in range(1, 4)]
    zero = 1 << S.index(S.zero)
    if any(s & zero for s in D + E):
        return None  # pairwise independence assumption failed; use the fallback

    add, mul = S.add_masks, S.mul_masks
    # columns 3 and 4 of the reduced system
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


def constructive_kernel(A):
    """The row-count-specific kernel constructions; None when preconditions fail.

    Requires the hyperfield toolkit (single-valued products with inverses);
    callers verify the result and fall back to exhaustive search.
    """
    S = A.base
    if not structure_is(S, "multifield"):
        return None
    n, m = A.rows, A.cols
    rows = [list(A.row(i)) for i in range(n)]
    if n == 1:
        d = _case1(S, rows[0], m)
    elif n == 2:
        d = _case2(S, rows, m)
    elif n == 3:
        d = _case3(S, rows, m)
    else:
        return None
    if d is None:
        return None
    vec = Matrix.column(S, d)
    return vec if _kernel_ok(A, vec) else None


def find_nontrivial_kernel(A, scan_cap=DEFAULT_SCAN_CAP):
    """A nonzero d with 0 in every row of Ad, for systems with cols > rows.

    The constructive route covers up to three rows over hyperfields; its
    output is always re-verified, and the exhaustive scan is both the
    fallback and the completeness backstop.
    """
    if A.cols <= A.rows:
        raise StructureError("kernel construction expects more columns than rows")
    got = constructive_kernel(A)
    if got is not None:
        return SolveOutcome(SOLVED, SolutionVerdict(got, "weak"), note="constructive")
    return _exhaustive_kernel(A, scan_cap)


def is_linearly_closed(F, max_n, max_m, budget=10 ** 7, require_superfield=True):
    """Certify nontrivial weak solutions of Ax = 0 for every A with n < m.

    Scans all shapes n <= max_n, n < m <= max_m and every coefficient matrix;
    reports the lexicographically first counterexample.  require_superfield
    can be dropped for mutation experiments on tables that are no longer
    superfields.
    """
    if max_m <= max_n:
        raise StructureError("need max_m > max_n")
    if require_superfield and not structure_is(F, "superfield"):
        raise StructureError(f"{F.name} is not a superfield")
    checked = 0
    for n in range(1, max_n + 1):
        for m in range(n + 1, max_m + 1):
            total = len(F.elements) ** (n * m)
            if total > budget:
                raise BlowupError(f"{total} matrices at shape {n}x{m} exceed budget")
            for combo in itertools.product(F.elements, repeat=n * m):
                A = Matrix(F, n, m, combo)
                out = find_nontrivial_kernel(A)
                checked += 1
                if out.status != SOLVED:
                    return AxiomReport(
                        subject=F.name, kind=f"linearly-closed(n<={max_n},m<={max_m})",
                        verdict=FAIL, witnesses=((f"{n}x{m}", combo),), checked=checked)
    return AxiomReport(subject=F.name, kind=f"linearly-closed(n<={max_n},m<={max_m})",
                       verdict=PASS, checked=checked)
