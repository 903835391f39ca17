"""Exhaustive axiom verification for set-valued structures.

All checks quantify over the whole (finite) carrier and report the first
witnesses in canonical carrier order, so repeated runs produce identical
reports.  Lazy structures are checked on an explicit window: instances whose
evaluation would leave the window are skipped and counted, and a clean run is
reported as "pass-on-window", never as a global pass.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from operator import and_, invert, itemgetter, or_

from .errors import StructureError, WindowRequired
from .structures import Structure, TropicalStructure, _Setwise, _bits

PASS = "pass"
FAIL = "fail"
PASS_ON_WINDOW = "pass-on-window"
INCONCLUSIVE = "inconclusive"

KINDS = (
    "multigroup", "multimonoid", "multiring", "hyperring", "multifield",
    "superring", "superdomain", "quasi-superfield", "superfield", "hyperfield",
)


@dataclass(frozen=True)
class AxiomReport:
    subject: str
    kind: str
    verdict: str
    witnesses: tuple = ()
    checked: int = 0
    skipped: int = 0
    notes: str = ""

    @property
    def passed(self):
        return self.verdict in (PASS, PASS_ON_WINDOW)

    def summary(self):
        head = f"{self.subject} as {self.kind}: {self.verdict}"
        if self.witnesses:
            ax, wit = self.witnesses[0]
            head += f" (first witness {ax} at {wit})"
        if self.skipped:
            head += f" [{self.skipped} window-skipped]"
        return head


class _Collector:
    """Accumulates instance verdicts and early-exits once enough witnesses exist."""

    def __init__(self, limit=3, stop_on_first=False):
        self.limit = limit
        self.stop = stop_on_first
        self.witnesses = []
        self.checked = 0
        self.skipped = 0
        self.done = False

    def record(self, verdict, axiom, instance):
        if verdict == "pass":
            self.checked += 1
        elif verdict == "skip":
            self.skipped += 1
        else:
            self.checked += 1
            if len(self.witnesses) < self.limit:
                self.witnesses.append((axiom, instance))
            if self.stop or len(self.witnesses) >= self.limit:
                self.done = True


class _View:
    """Index-level tables consumed by the axiom loops.

    A cell is one int: the carrier mask of its members, plus the inexact bit
    inex = 1 << k when the true result may hold more than the window shows; a
    result that escapes the window is inex alone.  So a union of cells is a
    plain OR, and it is exact when every cell is.  Finite structures and
    derived carriers are always total and exact.  A vector space's view also
    holds act[lam][v], the action of scalar index lam on vector index v.
    """

    __slots__ = ("elements", "k", "inex", "zero_i", "one_i", "neg", "sum", "prod", "act",
                 "partial")

    def __init__(self, elements, zero_i, one_i, neg, sum_tab, prod_tab, partial,
                 act_tab=None):
        self.elements = elements
        self.k = len(elements)
        self.inex = 1 << self.k
        self.zero_i = zero_i
        self.one_i = one_i
        self.neg = neg
        self.sum = sum_tab
        self.prod = prod_tab
        self.act = act_tab
        self.partial = partial

    @classmethod
    def of_structure(cls, S):
        """The structure's own mask tables, as they are: no scan writes to a table."""
        return cls(S.elements, S.index(S.zero), S.index(S.one), S._neg,
                   S._sum, S._prod, False)

    @classmethod
    def of_window(cls, trop, lo, hi):
        els, sum_entry, prod_entry, neg, zero, one = trop.window_tables(lo, hi)
        idx = {e: i for i, e in enumerate(els)}
        inex = 1 << len(els)

        def cell(result):
            if result is None:
                return inex
            res, exact = result
            return functools.reduce(or_, (1 << idx[x] for x in res), 0 if exact else inex)

        def tab(entry):
            return [[cell(entry(a, b)) for b in els] for a in els]

        neg_idx = tuple(idx[neg(e)] for e in els)
        return cls(els, idx[zero], idx[one], neg_idx, tab(sum_entry), tab(prod_entry), True)

    @classmethod
    def of_carrier(cls, elements, sum_fn, neg_fn, unit):
        """Tabulate a finite derived carrier (vectors, matrices, extension elements).

        sum_fn(a, b) returns an iterable of carrier members; any result outside
        the carrier raises StructureError here, before a scan starts.
        """
        elements = tuple(elements)
        idx = {e: i for i, e in enumerate(elements)}

        def index(x, key):
            if x not in idx:
                raise StructureError(f"operation escapes the carrier at {key!r}: {x!r}")
            return idx[x]

        sum_tab = [[functools.reduce(or_, (1 << index(x, (a, b)) for x in sum_fn(a, b)), 0)
                    for b in elements] for a in elements]
        neg = tuple(index(neg_fn(a), (a,)) for a in elements)
        return cls(elements, index(unit, ()), None, neg, sum_tab, None, False)


def _union(cells, mask, start=0):
    """start ORed with cells[i] over the members i of mask."""
    while mask:
        low = mask & -mask
        mask ^= low
        start |= cells[low.bit_length() - 1]
    return start


def _containment(L, R, inex):
    """L within R, for two cells: a missing member fails only against an exact R,
    and a pass needs an exact L."""
    if L & ~R & ~inex:
        return "skip" if R & inex else "fail"
    return "skip" if L & inex else "pass"


def _equality(L, R, inex):
    a = _containment(L, R, inex)
    b = _containment(R, L, inex)
    if "fail" in (a, b):
        return "fail"
    if "skip" in (a, b):
        return "skip"
    return "pass"


def _membership(bit, R, inex):
    if R >> bit & 1:
        return "pass"
    return "skip" if R & inex else "fail"


def _row_passes(exact, left, right, law):
    """Every instance law(left[c], right[c]) of a row of cells passes, given
    whether every left cell is exact."""
    if not exact:
        return False
    if law is _equality:
        return left == right
    return not any(map(and_, left, map(invert, right)))


def _record_row(col, law, left, right, inex, axiom, instances):
    """Record a row instance by instance; True once the collector is done."""
    for l, r, instance in zip(left, right, instances):
        col.record(law(l, r, inex), axiom, instance)
        if col.done:
            return True
    return False


# -- packed rows: a whole row of cells in one int ---------------------------------
#
# A row of cells packs into one int at w = ceil((k + 1) / 8) bytes a cell, the
# first cell in the highest bytes, so every cell keeps its inexact bit.  An OR of
# packed rows is the packed row of the cellwise ORs, so a row of k instances
# passes or fails with one int test.

# Rows of a table packed together in _row_unions: more rows take fewer ORs, fewer
# hold less at once (a block's unions are a block of bytes per distinct cell).
_BLOCK = 8


def _pack(cells, w):
    raw = bytes(cells) if w == 1 else b"".join([c.to_bytes(w, "big") for c in cells])
    return int.from_bytes(raw, "big")


def _unpack(packed, n, w):
    raw = packed.to_bytes(n * w, "big")
    return [int.from_bytes(raw[o:o + w], "big") for o in range(0, n * w, w)]


def _or(packed, indices, start=0):
    return functools.reduce(or_, map(packed.__getitem__, indices), start)


def _passes(L, R, equal, inex_all):
    """Every instance of a packed row passes: L is exact, and within R (or equal
    to R when equal is set)."""
    return not L & inex_all and (L == R if equal else (L | R) == R)


def _cells(tab, inex):
    """The distinct cells of tab in first-seen order, as {cell: (its members, its
    inexact bit)}, and the position of each."""
    members = dict.fromkeys(itertools.chain.from_iterable(tab))
    for cell in members:
        members[cell] = _bits(cell & ~inex), cell & inex
    return members, {cell: n for n, cell in enumerate(members)}


def _getters(ids, tab):
    """Per row of tab, an itemgetter of its cells' unions from a list of _row_unions
    (the cells positioned as in ids), and of the list's closing b"", so that it
    always returns a tuple."""
    return [itemgetter(*map(ids.__getitem__, row), -1) for row in tab]


def _gather(get, unions):
    """The packed row of the unions that get (from _getters) picks."""
    return int.from_bytes(b"".join(get(unions)), "big")


def _row_unions(tab, members, w, inex):
    """For each row a of tab in turn, the list over the cells of members (from
    _cells) of the OR of tab[a][y] over the members y of the cell, with the cell's
    inexact bit, as w bytes; then b"".

    The table's columns are packed over a block of rows, so one OR per member
    serves the whole block; only one block's unions are held at a time.
    """
    for lo in range(0, len(tab), _BLOCK):
        block = tab[lo:lo + _BLOCK]
        n = len(block)
        cols = [_pack(c, w) for c in zip(*block)]
        inex_n = _pack([inex] * n, w)
        unions = [_or(cols, mem, inex_n if x else 0).to_bytes(n * w, "big")
                  for mem, x in members.values()]
        unions.append(b"")
        for o in range(0, n * w, w):
            yield [raw[o:o + w] for raw in unions]


def _scan_assoc(view, col, tab, axiom, law):
    """law((a.b).c, a.(b.c)), unionwise, for every triple, one packed row (a, b) at a time.

    The left row over c is the OR of the packed table rows x over x in a.b.  The
    right row gathers, over the cells b.c, the unions of a.y over y in the cell,
    which _row_unions builds for all distinct cells and one row a at a time.  A
    row whose k instances all pass is counted at once; any other row is unpacked
    and recorded instance by instance, so witnesses, counts and the early exit
    are those of a per-triple scan.
    """
    els, k, inex = view.elements, view.k, view.inex
    w = (k + 8) // 8
    inex_all = _pack([inex] * k, w)
    packed = [_pack(row, w) for row in tab]
    members, ids = _cells(tab, inex)
    getters = _getters(ids, tab)
    equal = law is _equality
    # _or, _gather and _passes are inlined here: every structure_is runs this loop
    reduce, from_bytes, join = functools.reduce, int.from_bytes, b"".join
    for i, right in enumerate(_row_unions(tab, members, w, inex)):
        for j, ab in enumerate(tab[i]):
            mem, x = members[ab]
            L = reduce(or_, map(packed.__getitem__, mem), inex_all if x else 0)
            R = from_bytes(join(getters[j](right)), "big")
            if not L & inex_all and (L == R if equal else (L | R) == R):
                col.checked += k
            elif _record_row(col, law, _unpack(L, k, w), _unpack(R, k, w), inex, axiom,
                             ((els[i], els[j], c) for c in els)):
                return


# -- individual axiom scans -------------------------------------------------


def _scan_nonempty(view, col, opname):
    tab = view.sum if opname == "sum" else view.prod
    els, inex = view.elements, view.inex
    for i in range(view.k):
        for j in range(view.k):
            cell = tab[i][j]
            if cell == inex:
                col.record("skip", "nonempty", (els[i], els[j]))
            elif cell == 0:
                col.record("fail", f"nonempty-{opname}", (els[i], els[j]))
            else:
                col.record("pass", "nonempty", (els[i], els[j]))
            if col.done:
                return


def _scan_multigroup(view, col, opname, unit_i, use_inversion):
    """M1-M4 over one operation; multimonoid mode drops M1/M2 for a weak unit law."""
    tab = view.sum if opname == "sum" else view.prod
    els, k, inex = view.elements, view.k, view.inex
    suffix = "" if opname == "sum" else "-mult"

    # M2 (group mode): a . unit = {a}.  Monoid mode: a in unit . a.
    for i in range(k):
        if use_inversion:
            col.record(_equality(tab[i][unit_i], 1 << i, inex), "M2" + suffix, (els[i],))
        else:
            col.record(_membership(i, tab[unit_i][i], inex), "unit" + suffix, (els[i],))
        if col.done:
            return

    if use_inversion:
        _scan_m1(view, col, tab, "M1" + suffix)
        if col.done:
            return

    # M4 commutativity
    for i in range(k):
        for j in range(i + 1, k):
            col.record(_equality(tab[i][j], tab[j][i], inex), "M4" + suffix,
                       (els[i], els[j]))
            if col.done:
                return

    # M3 weak associativity: (a.b).c subset of a.(b.c), unionwise
    _scan_assoc(view, col, tab, "M3" + suffix, _containment)


def _holders(cells, k):
    """T[a]: the mask of the positions c whose cell holds a."""
    T, carrier = [0] * k, (1 << k) - 1
    for c, cell in enumerate(cells):
        m, bit = cell & carrier, 1 << c
        while m:
            low = m & -m
            m ^= low
            T[low.bit_length() - 1] |= bit
    return T


def _scan_m1(view, col, tab, axiom):
    """M1, reversibility: for every c in a.b, a in c.(-b) and b in (-a).c.

    Each half is tested for a whole pair at once.  For each b, R[a], the mask
    of the c with a in c.(-b), comes from the column -b alone; the pairs (a, b)
    whose cell is exact and lies within R[a] are marked.  Then for each a,
    L[b], the mask of the c with b in (-a).c, comes from the row -a alone, and
    a marked pair whose cell lies within L[b] passes whole and is counted at
    once.  Any other pair goes through the per-c loop, so witnesses, counts
    and the early exit are those of a per-member scan.  A member of an inexact
    cell counts as a member.  No k x k table and no member list is built.
    """
    els, k, neg, inex = view.elements, view.k, view.neg, view.inex
    marked = [0] * k  # bit b of marked[a]: every c in a.b has a in c.(-b)
    for j in range(k):
        R = _holders([row[neg[j]] for row in tab], k)
        for i, row in enumerate(tab):
            if not row[j] & ~R[i]:
                marked[i] |= 1 << j
    for i in range(k):
        L = _holders(tab[neg[i]], k)
        row, marks = tab[i], marked[i]
        for j in range(k):
            if marks >> j & 1 and not row[j] & ~L[j]:
                col.checked += 1
                continue
            cell = row[j]
            if cell == inex:
                col.record("skip", axiom, (els[i], els[j]))
                continue
            verdict, bad_c = "pass", None
            for c in _bits(cell & ~inex):
                v1 = _membership(i, tab[c][neg[j]], inex)
                v2 = _membership(j, tab[neg[i]][c], inex)
                if "fail" in (v1, v2):
                    verdict, bad_c = "fail", els[c]
                    break
                if "skip" in (v1, v2):
                    verdict = "skip"
            instance = (els[i], els[j]) if bad_c is None else (els[i], els[j], bad_c)
            col.record(verdict, axiom, instance)
            if col.done:
                return


def _scan_monoid(view, col):
    """Strict commutative monoid laws for the product of a multiring."""
    tab = view.prod
    els, k, inex = view.elements, view.k, view.inex
    for i in range(k):
        for j in range(k):
            cell = tab[i][j]
            if cell == inex:
                col.record("skip", "prod-single", (els[i], els[j]))
            elif cell & (cell - 1) & ~inex:  # two members or more
                col.record("fail", "prod-single", (els[i], els[j]))
            else:
                col.record("pass", "prod-single", (els[i], els[j]))
            if col.done:
                return
    for i in range(k):
        col.record(_equality(tab[i][view.one_i], 1 << i, inex), "unit-prod", (els[i],))
        if col.done:
            return
    for i in range(k):
        for j in range(i + 1, k):
            col.record(_equality(tab[i][j], tab[j][i], inex), "comm-prod", (els[i], els[j]))
            if col.done:
                return
    _scan_assoc(view, col, tab, "assoc-prod", _equality)


def _scan_absorb(view, col):
    els, z, inex = view.elements, view.zero_i, view.inex
    for i in range(view.k):
        col.record(_equality(view.prod[i][z], 1 << z, inex), "absorb", (els[i],))
        if col.done:
            return
        col.record(_equality(view.prod[z][i], 1 << z, inex), "absorb", (els[i],))
        if col.done:
            return


def _dist_tables(view):
    """The tables of the distributivity scans: (prod_cols, times, plus).

    prod_cols are the product's columns, times[s] = (c.s over c, s.c over c)
    for each distinct sum cell s, and plus the setwise sums of cells.  c.s is
    the OR of the product columns, s.c the OR of the product rows, over the
    members of s, with the inexact bit of s carried along.
    """
    k, inex, prods = view.k, view.inex, view.prod
    prod_cols = [list(c) for c in zip(*prods)]
    times = {}
    for s in set(itertools.chain.from_iterable(view.sum)):
        left = right = [s & inex] * k
        for x in _bits(s & ~inex):
            left = list(map(or_, left, prod_cols[x]))
            right = list(map(or_, right, prods[x]))
        times[s] = left, right
    return prod_cols, times, _Setwise(view.sum)


def _scan_weak_dist(view, col):
    """c(a+b) within ca+cb and (a+b)c within ac+bc, unionwise, one row (a, b) at a time.

    The left rows over c come from times[a+b], the right ones from the setwise
    sums of the product's columns a, b and of its rows a, b.  A row whose 2k
    instances all pass is counted at once; any other row is recorded instance
    by instance, c(a+b) before (a+b)c for each c.  A sum a+b that escapes the
    window leaves both sides unknown: 2k skips.
    """
    els, k, inex, prods = view.elements, view.k, view.inex, view.prod
    prod_cols, times, plus = _dist_tables(view)
    for a in range(k):
        for b in range(k):
            left, left2 = times[view.sum[a][b]]
            right = list(map(plus.__getitem__, zip(prod_cols[a], prod_cols[b])))
            right2 = list(map(plus.__getitem__, zip(prods[a], prods[b])))
            if (_row_passes(max(left) < inex, left, right, _containment)
                    and _row_passes(max(left2) < inex, left2, right2, _containment)):
                col.checked += 2 * k
                continue
            for c in range(k):
                col.record(_containment(left[c], right[c], inex),
                           "weak-dist", (els[c], els[a], els[b]))
                if col.done:
                    return
                col.record(_containment(left2[c], right2[c], inex),
                           "weak-dist-right", (els[a], els[b], els[c]))
                if col.done:
                    return


def _scan_hyper_dist(view, col):
    """Exact distributivity a(b+c) = ab+ac, one row (a, b) at a time.

    The left cell is times[b+c] at a, the right one the setwise sum of ab and
    ac; a row whose k instances all pass is counted at once, any other row is
    recorded instance by instance.
    """
    els, k, inex = view.elements, view.k, view.inex
    _, times, plus = _dist_tables(view)
    for a in range(k):
        row = view.prod[a]
        for b in range(k):
            left = [times[s][0][a] for s in view.sum[b]]
            ab = row[b]
            right = [plus[ab, x] for x in row]
            if _row_passes(max(left) < inex, left, right, _equality):
                col.checked += k
            elif _record_row(col, _equality, left, right, inex, "hyper-dist",
                             ((els[a], els[b], c) for c in els)):
                return


def _scan_signs(view, col):
    els, neg, inex = view.elements, view.neg, view.inex
    neg_bits = [1 << n for n in neg]
    for a in range(view.k):
        for b in range(view.k):
            ab = view.prod[a][b]
            neg_ab = _union(neg_bits, ab & ~inex, ab & inex)
            col.record(_equality(neg_ab, view.prod[neg[a]][b], inex), "signs",
                       (els[a], els[b]))
            if col.done:
                return
            col.record(_equality(neg_ab, view.prod[a][neg[b]], inex), "signs",
                       (els[a], els[b]))
            if col.done:
                return


def _scan_nontrivial(view, col):
    verdict = "fail" if view.zero_i == view.one_i else "pass"
    col.record(verdict, "nontrivial", ())


def _scan_no_zero_divisors(view, col):
    els, z, inex = view.elements, view.zero_i, view.inex
    for a in range(view.k):
        for b in range(view.k):
            if a == z or b == z:
                continue
            cell = view.prod[a][b]
            verdict = "fail" if cell >> z & 1 else "skip" if cell & inex else "pass"
            col.record(verdict, "no-zero-div", (els[a], els[b]))
            if col.done:
                return


def _scan_inverses(view, col):
    """Every nonzero a has some b with 1 in a.b; a miss is only a skip on a window
    (a view with an inexact or escaped cell is always partial)."""
    els, z, one = view.elements, view.zero_i, view.one_i
    for a in range(view.k):
        if a == z:
            continue
        if any(cell >> one & 1 for cell in view.prod[a]):
            col.record("pass", "inverses", (els[a],))
        elif view.partial:
            col.record("skip", "inverses", (els[a],))
        else:
            col.record("fail", "inverses", (els[a],))
        if col.done:
            return


def _add_group(view, col):
    _scan_nonempty(view, col, "sum")
    if not col.done:
        _scan_multigroup(view, col, "sum", view.zero_i, True)


def _mult_multimonoid(view, col):
    _scan_nonempty(view, col, "prod")
    if not col.done:
        _scan_multigroup(view, col, "prod", view.one_i, False)


_KIND_SCANS = {
    "multigroup": (_add_group,),
    "multimonoid": (_mult_multimonoid,),
    "multiring": (_add_group, _scan_monoid, _scan_absorb, _scan_weak_dist),
    "hyperring": (_add_group, _scan_monoid, _scan_absorb, _scan_weak_dist,
                  _scan_hyper_dist),
    "multifield": (_add_group, _scan_monoid, _scan_absorb, _scan_weak_dist,
                   _scan_nontrivial, _scan_inverses),
    "hyperfield": (_add_group, _scan_monoid, _scan_absorb, _scan_weak_dist,
                   _scan_hyper_dist, _scan_nontrivial, _scan_inverses),
    "superring": (_add_group, _mult_multimonoid, _scan_absorb, _scan_weak_dist,
                  _scan_signs),
    "superdomain": (_add_group, _mult_multimonoid, _scan_absorb, _scan_weak_dist,
                    _scan_signs, _scan_nontrivial, _scan_no_zero_divisors),
    "quasi-superfield": (_add_group, _mult_multimonoid, _scan_absorb, _scan_weak_dist,
                         _scan_signs, _scan_nontrivial, _scan_inverses),
    "superfield": (_add_group, _mult_multimonoid, _scan_absorb, _scan_weak_dist,
                   _scan_signs, _scan_nontrivial, _scan_no_zero_divisors,
                   _scan_inverses),
}


def verify_axioms(S, kind, window=None, witness_limit=3, stop_on_first=False):
    """Exhaustively check the axioms of the given kind over S.

    Lazy structures require window=(lo, hi); the verdict is then at best
    "pass-on-window" and skipped instance counts are reported.
    """
    if kind not in _KIND_SCANS:
        raise StructureError(f"unknown structure kind {kind!r}")
    if isinstance(S, TropicalStructure):
        if window is None:
            raise WindowRequired("axiom check on a lazy structure needs window=(lo, hi)")
        view = _View.of_window(S, *window)
    elif isinstance(S, Structure):
        view = _View.of_structure(S)
    else:
        raise StructureError(f"cannot verify {S!r}")

    col = _Collector(limit=witness_limit, stop_on_first=stop_on_first)
    for scan in _KIND_SCANS[kind]:
        scan(view, col)
        if col.done:
            break
    return _report(S.name, kind, view, col)


def _report(subject, kind, view, col):
    if col.witnesses:
        verdict = FAIL
    elif view.partial:
        verdict = PASS_ON_WINDOW
    else:
        verdict = PASS
    return AxiomReport(subject=subject, kind=kind, verdict=verdict,
                       witnesses=tuple(col.witnesses),
                       checked=col.checked, skipped=col.skipped)


def structure_is(S, kind):
    """Cached boolean form of verify_axioms for finite structures."""
    cache = S._kind_cache
    if kind not in cache:
        cache[kind] = verify_axioms(S, kind, stop_on_first=True).passed
    return cache[kind]


# -- fullness ------------------------------------------------------------------


def is_full(S):
    """Setwise distributivity c(a+b) = ca+cb everywhere; witness triple on failure."""
    if not isinstance(S, Structure):
        raise StructureError("fullness needs a finite structure")
    col = _Collector(limit=1)
    _scan_hyper_dist(_View.of_structure(S), col)
    return (False, col.witnesses[0][1]) if col.witnesses else (True, None)


def is_proto_full(S):
    """Nonempty intersection of ((ab+ac)d) with (a(bd+cd)) for all quadruples."""
    if not isinstance(S, Structure):
        raise StructureError("proto-fullness needs a finite structure")
    els, prod, plus = S.elements, S._prod, S.add_masks
    prod_cols = list(zip(*prod))
    k = len(els)
    for a in range(k):
        for b in range(k):
            ab = prod[a][b]
            for c in range(k):
                sum1 = plus(ab, prod[a][c])
                for d in range(k):
                    left = _union(prod_cols[d], sum1)
                    right = _union(prod[a], plus(prod[b][d], prod[c][d]))
                    if not left & right:
                        return False, (els[a], els[b], els[c], els[d])
    return True, None


# -- morphisms ----------------------------------------------------------------


@dataclass(frozen=True)
class MorphismSpec:
    """A candidate map between finite structures; nothing is assumed beyond totality."""

    source: Structure
    target: Structure
    pairs: tuple  # ((a, f(a)), ...) in source carrier order

    @classmethod
    def from_mapping(cls, source, target, mapping):
        pairs = []
        for a in source.elements:
            if a not in mapping:
                raise StructureError(f"morphism map undefined at {a!r}")
            fa = mapping[a]
            if fa not in target:
                raise StructureError(f"morphism image {fa!r} not in {target.name}")
            pairs.append((a, fa))
        return cls(source, target, tuple(pairs))

    @classmethod
    def inclusion(cls, source, target):
        return cls.from_mapping(source, target, {a: a for a in source.elements})

    def __call__(self, a):
        return dict(self.pairs)[a]

    @property
    def mapping(self):
        return dict(self.pairs)

    @property
    def is_injective(self):
        images = [fa for _, fa in self.pairs]
        return len(set(images)) == len(images)


def check_morphism(spec, full=False, witness_limit=3):
    """Check the morphism conditions; with full=True also setwise image equalities."""
    S, T = spec.source, spec.target
    f = spec.mapping
    col = _Collector(limit=witness_limit)

    def instances():
        """(holds, axiom, instance) in check order, lazily, so a stop stops the work."""
        yield f[S.zero] == T.zero, "m-zero", (S.zero,)
        yield f[S.one] == T.one, "m-one", (S.one,)
        for a in S.elements:
            yield f[S.neg(a)] == T.neg(f[a]), "m-neg", (a,)
        for a in S.elements:
            for b in S.elements:
                img_sum = T.set_of(T.sum_mask(f[a], f[b]))
                for c in S.canon_of(S.sum_mask(a, b)):
                    yield f[c] in img_sum, "m-add", (a, b, c)
                img_prod = T.set_of(T.prod_mask(f[a], f[b]))
                for c in S.canon_of(S.prod_mask(a, b)):
                    yield f[c] in img_prod, "m-mul", (a, b, c)
                if full:
                    fs = frozenset(f[c] for c in S.sum_set(a, b))
                    yield fs == img_sum, "full-add", (a, b)
                    fp = frozenset(f[c] for c in S.prod_set(a, b))
                    yield fp == img_prod, "full-mul", (a, b)

    for ok, axiom, instance in instances():
        col.record("pass" if ok else "fail", axiom, instance)
        if col.done:
            break

    verdict = FAIL if col.witnesses else PASS
    label = "full-morphism" if full else "morphism"
    return AxiomReport(subject=f"{S.name}->{T.name}", kind=label, verdict=verdict,
                       witnesses=tuple(col.witnesses), checked=col.checked)


# -- derived carriers: vector, matrix and extension multigroups ------------------


def verify_multigroup(elements, sum_fn, neg_fn, unit, subject="multigroup",
                      witness_limit=3):
    """Nonemptiness and M1-M4 for a set-valued operation on a finite carrier.

    sum_fn(a, b) must return an iterable of carrier members.  The carrier is
    tabulated into an index-level view and scanned by the same multigroup
    scan as a finite structure, so witnesses come in carrier order.
    """
    view = _View.of_carrier(elements, sum_fn, neg_fn, unit)
    col = _Collector(limit=witness_limit)
    _add_group(view, col)
    return _report(subject, "multigroup", view, col)


def _scan_action(view, F, col, full):
    """MV0-MV3 for the action of the scalars F on a tabulated vector carrier.

    MV2 and MV3 demand containment of the left side in the right side, or
    equality when full is set; MV0 and MV1 always demand equality.  MV1 and MV3
    test one packed row (lam, mu) over v, MV2 one row (lam, v) over w, as
    _scan_assoc does.  The unions of lam.y over the members y of a cell come from
    _row_unions on the action table, over the distinct action cells for MV1 and
    the distinct sum cells for MV2, one lam at a time.  The right side of MV2,
    lam.v + lam.w over w, is the OR over x in lam.v of packed rows that gather
    the unions of x + y over y in lam.w; they are built for one lam at a time.
    """
    els, act, k, inex = view.elements, view.act, view.k, view.inex
    scal = F.elements
    s = len(scal)
    one, zero = F.index(F.one), F.index(F.zero)
    zero_vec = 1 << view.zero_i
    for v in range(k):
        col.record(_equality(act[one][v], 1 << v, inex), "MV0-one", (els[v],))
        if col.done:
            return
        col.record(_equality(act[zero][v], zero_vec, inex), "MV0-zero", (els[v],))
        if col.done:
            return
    width = (k + 8) // 8
    inex_all = _pack([inex] * k, width)

    def done(L, R, law, axiom, instances):
        """Count a passing packed row, or record it instance by instance; True once
        the collector is done."""
        if _passes(L, R, law is _equality, inex_all):
            col.checked += k
            return False
        return _record_row(col, law, _unpack(L, k, width), _unpack(R, k, width), inex,
                           axiom, instances)

    acts = [_pack(row, width) for row in act]
    act_cells, act_ids = _cells(act, inex)
    act_getters = _getters(act_ids, act)
    # MV1: (lam mu) v = lam (mu v)
    for lam, unions in enumerate(_row_unions(act, act_cells, width, inex)):
        for mu in range(s):
            R = _gather(act_getters[mu], unions)
            if done(_or(acts, _bits(F._prod[lam][mu])), R, _equality, "MV1",
                    ((scal[lam], scal[mu], v) for v in els)):
                return
    law = _equality if full else _containment
    # MV2: lam (v + w) within lam v + lam w
    sum_cells, sum_ids = _cells(view.sum, inex)
    sum_getters = _getters(sum_ids, view.sum)
    for lam, unions in enumerate(_row_unions(act, sum_cells, width, inex)):
        sums = [_gather(act_getters[lam], u)
                for u in _row_unions(view.sum, act_cells, width, inex)]
        for v in range(k):
            R = _or(sums, act_cells[act[lam][v]][0])
            if done(_gather(sum_getters[v], unions), R, law, "MV2",
                    ((scal[lam], els[v], w) for w in els)):
                return
    # MV3: (lam + mu) v within lam v + mu v
    plus = _Setwise(view.sum)
    for lam in range(s):
        for mu in range(s):
            R = _pack(map(plus.__getitem__, zip(act[lam], act[mu])), width)
            if done(_or(acts, _bits(F._sum[lam][mu])), R, law, "MV3",
                    ((scal[lam], scal[mu], v) for v in els)):
                return


# -- single-instance witness re-evaluation ----------------------------------------


def recheck_witness(S, axiom, witness):
    """Re-evaluate one reported axiom violation from the element-level tables.

    Returns True when the violation is confirmed.  Uses frozenset arithmetic
    rather than the mask scanner, so a confirmed witness has been seen to fail
    by two differently shaped evaluations.
    """
    from .structures import msum_sets

    def union_over(op, xs, c, left=True):
        """The union of op(x, c), or of op(c, x) when not left, over x in xs."""
        return frozenset().union(*(op(x, c) if left else op(c, x) for x in xs))

    if axiom in ("M1", "M1-mult"):
        op = S.sum_set if axiom == "M1" else S.prod_set
        a, b = witness[0], witness[1]
        for c in op(a, b):
            if a not in op(c, S.neg(b)) or b not in op(S.neg(a), c):
                return True
        return False
    if axiom == "M2":
        (a,) = witness
        return S.sum_set(a, S.zero) != frozenset([a])
    if axiom in ("M4", "M4-mult", "comm-prod"):
        op = S.sum_set if axiom == "M4" else S.prod_set
        a, b = witness
        return op(a, b) != op(b, a)
    if axiom in ("M3", "M3-mult"):
        op = S.sum_set if axiom == "M3" else S.prod_set
        a, b, c = witness
        left = union_over(op, op(a, b), c)
        return not left <= union_over(op, op(b, c), a, left=False)
    if axiom == "unit-mult":
        (a,) = witness
        return a not in S.prod_set(S.one, a)
    if axiom == "prod-single":
        a, b = witness
        return len(S.prod_set(a, b)) != 1
    if axiom == "unit-prod":
        (a,) = witness
        return S.prod_set(a, S.one) != frozenset([a])
    if axiom == "assoc-prod":
        a, b, c = witness
        left = union_over(S.prod_set, S.prod_set(a, b), c)
        return left != union_over(S.prod_set, S.prod_set(b, c), a, left=False)
    if axiom == "absorb":
        (a,) = witness
        zero = frozenset([S.zero])
        return S.prod_set(a, S.zero) != zero or S.prod_set(S.zero, a) != zero
    if axiom in ("weak-dist", "weak-dist-right"):
        if axiom == "weak-dist":
            c, a, b = witness
        else:
            a, b, c = witness
        left = union_over(S.prod_set, S.sum_set(a, b), c, left=(axiom == "weak-dist-right"))
        if axiom == "weak-dist":
            right = msum_sets(S, [S.prod_set(c, a), S.prod_set(c, b)])
        else:
            right = msum_sets(S, [S.prod_set(a, c), S.prod_set(b, c)])
        return not left <= right
    if axiom == "hyper-dist":
        a, b, c = witness
        left = union_over(S.prod_set, S.sum_set(b, c), a, left=False)
        right = msum_sets(S, [S.prod_set(a, b), S.prod_set(a, c)])
        return left != right
    if axiom == "signs":
        a, b = witness
        nab = S.neg_set(S.prod_set(a, b))
        return nab != S.prod_set(S.neg(a), b) or nab != S.prod_set(a, S.neg(b))
    if axiom == "nontrivial":
        return S.zero == S.one
    if axiom == "no-zero-div":
        a, b = witness
        return S.zero in S.prod_set(a, b) and a != S.zero and b != S.zero
    if axiom == "inverses":
        (a,) = witness
        return all(S.one not in S.prod_set(a, b) for b in S.elements)
    if axiom.startswith("nonempty"):
        return False  # construction already guarantees nonemptiness
    raise StructureError(f"cannot recheck axiom {axiom!r}")
