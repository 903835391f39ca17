"""Multivalued vector spaces over superfields.

Vectors form an abelian multigroup and scalars act through nonempty sets.
All spaces here are finite and tabulated as masks over vector indices, so
axioms, spans and independence are checked exhaustively.  Independence,
bases and dimension test bundles of at most 2 scalar summands per generator;
that fixed bundle bound is part of what their verdicts mean.
"""

from __future__ import annotations

import functools
import itertools
import math
from operator import or_

from .axioms import (AxiomReport, FAIL, PASS, _GROUP, _Collector, _View, _report,
                     _scan_action, _scan_kind, is_full)
from .errors import MvlaError, StructureError, charge
from .structures import _Setwise, _bits, _check_tables, _union

# Policy bounds, not budgets: they define a verdict or choose a check.
_BUNDLE_BOUND = 2  # scalar summands per generator in independence tests
_DIMENSION_RECHECK = 200000  # dimension re-checks up to this many subsets


class VectorSpace:
    """A finite vector space over the scalars, as the axiom engine's int-cell tables.

    Vector v is vectors[v]; sum[v][w] and act[lam][v] (lam a scalar index) are
    the masks of v + w and lam.v, neg[v] is the index of -v, zero_i that of 0.
    """

    __slots__ = ("name", "scalars", "vectors", "vzero", "zero_i", "neg", "sum", "act",
                 "_idx", "_plus", "_terms")

    def __init__(self, name, scalars, vectors, zero_i, neg, sum_tab, act_tab):
        vectors = tuple(vectors)
        k = len(vectors)
        _check_tables("a vector", k, (("zero_i", zero_i),), neg,
                      (("sum", sum_tab, k), ("act", act_tab, len(scalars.elements))))
        self.name = name
        self.scalars = scalars
        self.vectors = vectors
        self.vzero = vectors[zero_i]
        self.zero_i = zero_i
        self.neg = tuple(neg)
        self.sum = sum_tab
        self.act = act_tab
        self._idx = {v: i for i, v in enumerate(vectors)}
        self._plus, self._terms = _Setwise(sum_tab), None

    def index(self, v):
        try:
            return self._idx[v]
        except KeyError:
            raise StructureError(f"{v!r} is not a vector of {self.name}") from None

    def mask_of(self, vs):
        return functools.reduce(or_, (1 << self.index(v) for v in vs), 0)

    def set_of(self, mask):
        return frozenset(map(self.vectors.__getitem__, _bits(mask)))

    def __repr__(self):
        return f"VectorSpace({self.name!r}, {len(self.vectors)} vectors over {self.scalars.name})"


def _componentwise_tables(F, length):
    """(sum, act, neg, zero_i) of F^length on element tuples, numbered in
    itertools.product order.

    The tables grow one coordinate at a time, the new one leading: with size
    vectors so far, (a,) + v has index a * size + v.  So a cell is an F cell
    with the inner cell in the block of size bits of each member x, which is
    the inner cell times the spread of the F cell (bit x * size per member x).
    The build is charged with the cells of both tables.
    """
    q = len(F.elements)
    charge(q ** (2 * length) + q ** (length + 1), "vector table cells")
    sum_tab, act_tab, neg, zero_i, size = [[1]], [[1]] * q, [0], 0, 1
    for _ in range(length):
        sums, prods = ([[sum(1 << x * size for x in _bits(m)) for m in row] for row in tab]
                       for tab in (F._sum, F._prod))
        spread = {}  # equal (spread, inner cell) pairs give one int
        sum_tab = [[spread.setdefault((s, cell), s * cell) for s in sums[a] for cell in row]
                   for a in range(q) for row in sum_tab]
        act_tab = [[spread.setdefault((p, cell), p * cell) for p in prods[lam]
                    for cell in act_tab[lam]] for lam in range(q)]
        neg = [F._neg[a] * size + n for a in range(q) for n in neg]
        zero_i += F.zero_i * size
        size *= q
    return sum_tab, act_tab, neg, zero_i


def _componentwise_space(F, length, name):
    """F^length on element tuples, the vectors in itertools.product order."""
    sum_tab, act_tab, neg, zero_i = _componentwise_tables(F, length)
    return VectorSpace(name, F, itertools.product(F.elements, repeat=length), zero_i, neg,
                       sum_tab, act_tab)


def fn_space(F, n):
    """F^n with componentwise sum and scalar action."""
    if n < 1:
        raise StructureError("dimension must be positive")
    return _componentwise_space(F, n, f"{F.name}^{n}")


def matrix_space(F, rows, cols):
    """M_{rows x cols}(F) as a vector space on row-major entry tuples."""
    if rows < 1 or cols < 1:
        raise StructureError("matrix shape must be positive")
    return _componentwise_space(F, rows * cols, f"M{rows}x{cols}({F.name})")


def poly_space(F, max_degree):
    """Polynomials of degree <= max_degree, as fixed-length coefficient tuples.

    The truncation is recorded in the name; the untruncated polynomial space
    is infinite and out of reach of exhaustive checks.
    """
    if max_degree < 0:
        raise StructureError("maximal degree must be nonnegative")
    return _componentwise_space(F, max_degree + 1, f"{F.name}[X]<= {max_degree}")


def extension_space(pair):
    """The big structure of an extension pair as a vector space over the small one."""
    F, K = pair.small, pair.big
    act = [K._prod[i] for i in pair.embedding.images]
    return VectorSpace(f"{K.name}|{F.name}", F, K.elements, K.zero_i, K._neg,
                       K._sum, act)


# -- axioms -----------------------------------------------------------------------


def verify_vspace(V, full=False, witness_limit=3):
    """Exhaustive MV0-MV3 plus the vector multigroup; full demands equalities.

    The scans read the space's own tables.  The group laws run first, and their
    witnesses are renamed "group-..."; then MV0-MV3 run on the same collector until
    the witness limit is reached; checked counts the instances of both.
    """
    col = _Collector(limit=witness_limit)
    view = _View(V.vectors, V.zero_i, None, V.neg, V.sum, None, False, V.act)
    _scan_kind(view, _GROUP, col)
    col.witnesses = [("group-" + ax, wit) for ax, wit in col.witnesses]
    if not col.done:
        _scan_action(view, V.scalars, col, full)
    return _report(V.name, "vector-space-full" if full else "vector-space", view, col)


# -- spans ------------------------------------------------------------------------


def _closure(V, gens):
    """The mask of the saturation of the vector indices gens: with T the OR of
    every lam.g, each round adds the sums of a member and a member of T."""
    T = functools.reduce(or_, (row[g] for row in V.act for g in gens), 0)
    cur, grown = 0, 1 << V.zero_i
    while grown != cur:
        cur, grown = grown, grown | V._plus[grown, T]
    return cur


def linear_combinations(V, gens):
    """Saturation of all bundle-weighted sums over subsets of gens.

    Iterating single weighted terms to a fixed point covers every nested
    bundle (reusing a generator concatenates bundles), so no bundle bound
    applies.
    """
    return V.set_of(_closure(V, [V.index(g) for g in gens]))


def _subspace_witness(V, W):
    """The first failure of the subspace predicate on the mask W, in carrier
    order, as tokens; None when W is a subspace."""
    if not W >> V.zero_i & 1:
        return ("zero",)
    members = _bits(W)
    for a in members:
        row = V.sum[a]
        for b in members:
            if row[b] & ~W:
                return "sum", V.vectors[a], V.vectors[b]
    for lam, row in zip(V.scalars.elements, V.act):
        for a in members:
            if row[a] & ~W:
                return "scale", lam, V.vectors[a]
    return None


def is_subspace(V, W):
    """The subspace predicate with a witness: 0 in W, sums and actions stay in W."""
    wit = _subspace_witness(V, V.mask_of(W))
    return wit is None, wit


def span(V, gens):
    """The generated subspace with its certificate.

    The span is the least subspace holding gens, and _closure builds exactly
    that set: it starts from 0 and T, the union of every lam.g, then adds the
    sums of members with members of T until nothing changes.  Any subspace that
    holds gens also holds 0, every lam.g and every sum of its members, so by
    induction it holds each round's result: minimality holds by construction.
    The certificate evaluates the subspace predicate once, on the result, and
    carries its witness on failure.
    """
    W = _closure(V, _bits(V.mask_of(gens)))
    wit = _subspace_witness(V, W)
    report = AxiomReport(subject=V.name, kind="span-certificate",
                         verdict=PASS if wit is None else FAIL,
                         witnesses=() if wit is None else (("subspace", wit),),
                         checked=1, notes="minimality by construction")
    return V.set_of(W), report


# -- independence, bases, dimension ------------------------------------------------


def _bundles(F, bound):
    """Scalar multisets of size 1..bound, in canonical order."""
    return [b for r in range(1, bound + 1)
            for b in itertools.combinations_with_replacement(F.elements, r)]


class _Terms(dict):
    """Per vector index v, the row of masks e.v over the distinct effective sets e
    of the bundles (sets, in order of their first bundles, bundles), built on first
    read; misses says which sets miss 0.  A space keeps one as V._terms."""

    def __init__(self, V):  # empty, as dict.__new__ made it
        F, first = V.scalars, {}
        for bundle in _bundles(F, _BUNDLE_BOUND):
            first.setdefault(F.sum_of([1 << F.index(x) for x in bundle]), bundle)
        self.act, self.sets, self.bundles = V.act, list(first), list(first.values())
        self.misses = [not e >> F.zero_i & 1 for e in first]

    def __missing__(self, v):
        row = self[v] = [_union([r[v] for r in self.act], e) for e in self.sets]
        return row


def _dependence(V, vs):
    """The first choice, in product order, of one bundle per vector index in vs
    whose weighted sum holds 0 while some effective coefficient set misses 0;
    None when there is none.

    Both tests read only the effective sets, so a passing choice still passes with
    each bundle swapped for the first bundle of its set, which is no later in
    product order: the first passing choice uses first bundles only.  So the walk
    runs depth first over the distinct sets in order of their first bundles, and
    charges each tuple of sets it visits, prefixes included.
    """
    terms = V._terms = _Terms(V) if V._terms is None else V._terms
    rows, misses, plus, zero_vec = [terms[v] for v in vs], terms.misses, V._plus, 1 << V.zero_i
    # per open depth: its sets left, prefix sum, a chosen set misses 0, the set chosen above
    walk, work = [(enumerate(row), None, False, None) for row in rows[:1]], 0
    while walk:
        sets, prefix, missed, _ = walk[-1]
        for i, term in sets:
            work += 1
            charge(work, "independence bundle tuples")
            total, flag = term if prefix is None else plus[prefix, term], missed or misses[i]
            if len(walk) < len(rows):
                walk.append((enumerate(rows[len(walk)]), total, flag, i))
                break
            if flag and total & zero_vec:
                return tuple(terms.bundles[j] for *_, j in walk[1:]) + (terms.bundles[i],)
        else:
            walk.pop()
    return None


def is_linearly_independent(V, vs):
    """Bundle-bounded independence: (verdict, witness bundle or None).

    Each generator carries a bundle of scalars whose multivalued sum is its
    effective coefficient set; the weighted sum applies the effective set to
    the generator and folds with the vector sum.  Dependence needs a bundle
    whose weighted sum reaches 0 while some effective coefficient set misses
    0.  The verdict is honest only up to the bundle bound 2.  The witness is the
    first such bundle in product order, so it holds only the first bundle of each
    effective set (see _dependence).
    """
    vs = list(vs)
    if len(set(vs)) != len(vs):
        raise StructureError("independence needs distinct vectors")
    combo = _dependence(V, [V.index(v) for v in vs])
    return (True, None) if combo is None else (False, tuple(zip(vs, combo)))


def find_basis(V, gens):
    """Greedy basis extraction: while the set is dependent, drop the earliest
    generator lying in the span of the others."""
    gens = list(dict.fromkeys(map(V.index, gens)))
    if _closure(V, gens) != (1 << len(V.vectors)) - 1:
        raise StructureError("generators do not span the space")
    while _dependence(V, gens) is not None:
        for i, g in enumerate(gens):
            others = gens[:i] + gens[i + 1:]
            if _closure(V, others) >> g & 1:
                gens = others
                break
        else:
            raise MvlaError("dependent generators with no member inside the "
                            "span of the others")
    return tuple(map(V.vectors.__getitem__, gens))


def dimension(V, closure_report):
    """Basis size, guarded by a linear-closedness certificate for the scalars.

    Refuses to answer without a passing closure report, since basis-size
    uniqueness is only known for linearly closed scalars.  That report is itself
    bounded by its max_n/max_m, so it does not make the bundle-bounded basis
    size unique: on H3^3, with H3 passing at 2 and 3, the basis kept has 2
    vectors while the 3 unit vectors pass the independence test.  So it
    re-checks that no independent set exceeds the basis size, when there are at
    most 200000 sets of that size, and refuses with the first one it finds.
    """
    if not isinstance(closure_report, AxiomReport) or \
            not closure_report.kind.startswith("linearly-closed") or \
            not closure_report.passed or closure_report.subject != V.scalars.name:
        raise StructureError(
            "dimension needs a passing linearly-closed report for the scalar "
            "structure; run linsys.is_linearly_closed first")
    dim = len(find_basis(V, V.vectors))
    size = dim + 1
    if math.comb(len(V.vectors), size) <= _DIMENSION_RECHECK:
        for vs in itertools.combinations(range(len(V.vectors)), size):
            if _dependence(V, vs) is None:
                vs = tuple(map(V.vectors.__getitem__, vs))
                raise MvlaError(
                    f"independent set {vs!r} exceeds the extracted basis size {dim}")
    return dim


def solution_subspace(A):
    """Kernel vectors of a homogeneous system over a full base, with certificate.

    Reads every v with 0 in each row of Av off the solver's weak-solution mask
    and then evaluates the subspace predicate inside the ambient column space.
    The predicate's verdict is reported as computed; it is not forced.  Building
    the column space is charged against the search limit.
    """
    from .linsys import _weak_mask, homogeneous

    F = A.base
    full, wit = is_full(F)
    if not full:
        raise StructureError(f"{F.name} is not full (witness {wit!r})")
    V = fn_space(F, A.cols)
    kernel = _weak_mask(homogeneous(A))  # both number the vectors in product order
    wit = _subspace_witness(V, kernel)
    report = AxiomReport(subject=f"Sol[{A!r}]", kind="subspace-certificate",
                         verdict=PASS if wit is None else FAIL,
                         witnesses=() if wit is None else (("subspace", wit),),
                         checked=kernel.bit_count())
    return V.set_of(kernel), report
