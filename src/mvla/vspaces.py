"""Multivalued vector spaces over superfields.

Vectors form an abelian multigroup and scalars act through nonempty sets.
All spaces here are finite and fully tabulated, so axioms, spans and
independence can be checked exhaustively.  Independence verdicts depend on a
bundle bound (the maximal number of scalar summands tested per generator) and
are reported together with that bound.
"""

from __future__ import annotations

import itertools
import math

from .axioms import (AxiomReport, FAIL, PASS, _Collector, _View, _add_group,
                     _report, _scan_action, is_full)
from .errors import MvlaError, StructureError
from .structures import Box, _box_elements, box_sums

DEFAULT_BUNDLE_BOUND = 2


class VectorSpace:
    """A finite vector space: tabulated vector sum, negation and scalar action."""

    __slots__ = ("name", "scalars", "vectors", "vzero", "_idx", "_vsum", "_vneg",
                 "_action")

    def __init__(self, name, scalars, vectors, vzero, vsum, vneg, action):
        self.name = name
        self.scalars = scalars
        self.vectors = tuple(vectors)
        self.vzero = vzero
        self._idx = {v: i for i, v in enumerate(self.vectors)}
        self._vsum = vsum
        self._vneg = vneg
        self._action = action
        for key, res in action.items():
            if not res:
                raise StructureError(f"empty action result at {key!r}")
        for key, res in vsum.items():
            if not res:
                raise StructureError(f"empty vector sum at {key!r}")

    def index(self, v):
        try:
            return self._idx[v]
        except KeyError:
            raise StructureError(f"{v!r} is not a vector of {self.name}") from None

    def canon(self, vs):
        return tuple(sorted(set(vs), key=self.index))

    def vsum_set(self, v, w):
        return self._vsum[(v, w)]

    def vneg(self, v):
        return self._vneg[v]

    def act(self, lam, v):
        return self._action[(lam, v)]

    def act_scalar_set(self, lams, v):
        out = frozenset()
        for lam in lams:
            out |= self.act(lam, v)
        return out

    def vsum_fold(self, sets):
        """Left fold of the vector sum over vector sets; empty fold is {0}."""
        sets = list(sets)
        if not sets:
            return frozenset([self.vzero])
        acc = frozenset(sets[0])
        for part in sets[1:]:
            nxt = frozenset()
            for a in acc:
                for b in part:
                    nxt |= self._vsum[(a, b)]
            acc = nxt
        return acc

    def __repr__(self):
        return f"VectorSpace({self.name!r}, {len(self.vectors)} vectors over {self.scalars.name})"


def _componentwise_space(F, length, name):
    vectors = list(itertools.product(F.elements, repeat=length))
    vsum = box_sums(F, vectors)
    vneg = {v: tuple(F.neg(a) for a in v) for v in vectors}
    idx = F._idx
    boxes = {v: Box(F, [1 << idx[a] for a in v]) for v in vectors}
    action = {(lam, v): _box_elements(boxes[v].scale(lam))
              for lam in F.elements for v in vectors}
    return VectorSpace(name, F, vectors, (F.zero,) * length, vsum, vneg, action)


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
    F, K, emb = pair.small, pair.big, pair.embedding
    f = emb.mapping
    vectors = list(K.elements)
    vsum = {(v, w): K.sum_set(v, w) for v in vectors for w in vectors}
    vneg = {v: K.neg(v) for v in vectors}
    action = {(lam, v): K.prod_set(f[lam], v) for lam in F.elements for v in vectors}
    return VectorSpace(f"{K.name}|{F.name}", F, vectors, K.zero, vsum, vneg, action)


# -- axioms -----------------------------------------------------------------------


def verify_vspace(V, full=False, witness_limit=3):
    """Exhaustive MV0-MV3 plus the vector multigroup; full demands equalities.

    The space is tabulated once into an index-level view.  The multigroup
    scan's witnesses come first, prefixed "group-", then MV0-MV3 run on the
    same view until the witness limit is reached.
    """
    F = V.scalars
    view = _View.of_carrier(V.vectors, V.vsum_set, V.vneg, V.vzero, F, V.act)
    group = _Collector(limit=witness_limit)
    _add_group(view, group)
    col = _Collector(limit=witness_limit)
    for ax, wit in group.witnesses:
        col.record("fail", "group-" + ax, wit)
    if not col.done:
        _scan_action(view, F, col, full)
    kind = "vector-space-full" if full else "vector-space"
    return _report(V.name, kind, view, col)


# -- spans ------------------------------------------------------------------------


def linear_combinations(V, gens):
    """Saturation of all bundle-weighted sums over subsets of gens.

    Iterating single weighted terms to a fixed point covers every nested
    bundle (reusing a generator concatenates bundles), so no bundle bound
    applies.
    """
    F = V.scalars
    gens = list(gens)
    terms = []
    for v in gens:
        for lam in F.elements:
            terms.append(V.act(lam, v))
    current = frozenset([V.vzero])
    while True:
        grown = current
        for t in terms:
            for w in current:
                for x in t:
                    grown = grown | V.vsum_set(w, x)
        if grown == current:
            return current
        current = grown


def is_subspace(V, W):
    """The subspace predicate with a witness: 0 in W, sums and actions stay in W."""
    W = frozenset(W)
    if V.vzero not in W:
        return False, ("zero",)
    for a in W:
        for b in W:
            if not V.vsum_set(a, b) <= W:
                return False, ("sum", a, b)
    for lam in V.scalars.elements:
        for a in W:
            if not V.act(lam, a) <= W:
                return False, ("scale", lam, a)
    return True, None


def span(V, gens, minimality_cap=14):
    """The generated subspace with its certificate.

    Besides the subspace predicate, minimality is re-verified exhaustively
    (every subspace containing gens contains the span) when the ambient space
    is small enough to scan all subsets.
    """
    W = linear_combinations(V, gens)
    ok, wit = is_subspace(V, W)
    witnesses = [] if ok else [("subspace", wit)]
    checked = 1
    note = ""
    if len(V.vectors) <= minimality_cap:
        gens = frozenset(gens)
        rest = [v for v in V.vectors if v != V.vzero]
        for r in range(len(rest) + 1):
            for extra in itertools.combinations(rest, r):
                cand = frozenset(extra) | {V.vzero}
                if not gens <= cand:
                    continue
                sub, _ = is_subspace(V, cand)
                checked += 1
                if sub and not W <= cand:
                    witnesses.append(("minimality", tuple(sorted(map(str, cand)))))
                    break
            if any(ax == "minimality" for ax, _ in witnesses):
                break
        note = "minimality scanned exhaustively"
    else:
        note = "minimality by construction (space too large to scan)"
    report = AxiomReport(subject=V.name, kind="span-certificate",
                         verdict=FAIL if witnesses else PASS,
                         witnesses=tuple(witnesses), checked=checked, notes=note)
    return W, report


# -- independence, bases, dimension ------------------------------------------------


def _bundles(F, bound):
    """Scalar multisets of size 1..bound, in canonical order."""
    out = []
    for r in range(1, bound + 1):
        out.extend(itertools.combinations_with_replacement(F.elements, r))
    return out


def is_linearly_independent(V, vs, bundle_bound=DEFAULT_BUNDLE_BOUND):
    """Bundle-bounded independence: (verdict, witness bundle or None).

    Each generator carries a bundle of scalars whose multivalued sum is its
    effective coefficient set; the weighted sum applies the effective set to
    the generator and folds with the vector sum.  Dependence needs a bundle
    whose weighted sum reaches 0 while some effective coefficient set misses
    0.  The verdict is honest only up to the bundle bound.
    """
    vs = list(vs)
    if len(set(vs)) != len(vs):
        raise StructureError("independence needs distinct vectors")
    if not vs:
        return True, None
    F = V.scalars
    bundles = _bundles(F, bundle_bound)
    effective = [F.sum_of([1 << F.index(x) for x in bundle]) for bundle in bundles]
    coefficients = list(map(F.canon_of, effective))
    terms = [[V.act_scalar_set(c, v) for c in coefficients] for v in vs]  # [j][i]: bundle i, vs[j]
    zero_bit = 1 << F.index(F.zero)
    for combo in itertools.product(range(len(bundles)), repeat=len(vs)):
        if all(effective[i] & zero_bit for i in combo):
            continue  # cannot witness dependence either way
        total = V.vsum_fold([row[i] for row, i in zip(terms, combo)])
        if V.vzero in total:
            return False, tuple(zip(vs, (bundles[i] for i in combo)))
    return True, None


def find_basis(V, gens, bundle_bound=DEFAULT_BUNDLE_BOUND):
    """Greedy basis extraction: while the set is dependent, drop the earliest
    generator lying in the span of the others."""
    seen = set()
    gens = [g for g in gens if not (g in seen or seen.add(g))]
    if linear_combinations(V, gens) != frozenset(V.vectors):
        raise StructureError("generators do not span the space")
    while True:
        indep, _ = is_linearly_independent(V, gens, bundle_bound)
        if indep:
            return tuple(gens)
        for i, g in enumerate(gens):
            others = gens[:i] + gens[i + 1:]
            if g in linear_combinations(V, others):
                gens = others
                break
        else:
            raise MvlaError("dependent generators with no member inside the "
                            "span of the others")


def dimension(V, closure_report, bundle_bound=DEFAULT_BUNDLE_BOUND,
              scan_cap=200000):
    """Basis size, guarded by a linear-closedness certificate for the scalars.

    Refuses to answer without a passing closure report, since basis-size
    uniqueness is only known for linearly closed scalars.  Additionally
    re-checks that no independent set exceeds the basis size.
    """
    if not isinstance(closure_report, AxiomReport) or \
            not closure_report.kind.startswith("linearly-closed") or \
            not closure_report.passed or closure_report.subject != V.scalars.name:
        raise StructureError(
            "dimension needs a passing linearly-closed report for the scalar "
            "structure; run linsys.is_linearly_closed first")
    basis = find_basis(V, list(V.vectors), bundle_bound)
    dim = len(basis)
    size = dim + 1
    if math.comb(len(V.vectors), size) <= scan_cap:
        for vs in itertools.combinations(V.vectors, size):
            indep, _ = is_linearly_independent(V, vs, bundle_bound)
            if indep:
                raise MvlaError(
                    f"independent set {vs!r} exceeds the extracted basis size {dim}")
    return dim


def solution_subspace(A, scan_cap=10 ** 6):
    """Kernel vectors of a homogeneous system over a full base, with certificate.

    Enumerates every v with 0 in each row of Av and then evaluates the
    subspace predicate inside the ambient column space.  The predicate's
    verdict is reported as computed; it is not forced.
    """
    from .linsys import _row_masks, homogeneous
    from .matrices import Matrix

    F = A.base
    full, wit = is_full(F)
    if not full:
        raise StructureError(f"{F.name} is not full (witness {wit!r})")
    total = len(F.elements) ** A.cols
    if total > scan_cap:
        raise MvlaError(f"kernel enumeration of {total} vectors exceeds cap")
    sysh = homogeneous(A)
    zero_bit = 1 << F.index(F.zero)
    kernel = []
    for combo in itertools.product(F.elements, repeat=A.cols):
        if all(m & zero_bit for m in _row_masks(sysh, Matrix.column(F, combo))):
            kernel.append(combo)
    V = fn_space(F, A.cols)
    ok, wit = is_subspace(V, kernel)
    report = AxiomReport(subject=f"Sol[{A!r}]", kind="subspace-certificate",
                         verdict=PASS if ok else FAIL,
                         witnesses=() if ok else (("subspace", wit),),
                         checked=len(kernel))
    return frozenset(kernel), report
