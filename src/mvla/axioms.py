"""Exhaustive axiom verification for set-valued structures.

All checks quantify over the whole (finite) carrier and report the first
witnesses in canonical carrier order, so repeated runs produce identical
reports.  Lazy structures are checked on an explicit window: instances whose
evaluation would leave the window are skipped and counted, and a clean run is
reported as "pass-on-window", never as a global pass.

Each kind is one flat ladder of laws (_KIND_SCANS), run in order until the
collector is done.  A law is a (view, col) function that reads the view's
_Table of each table it tests: it counts its instances when a test of them all
passes, and otherwise hands a generator of them, their cells rebuilt, to the one
per-instance path, _Collector.record_all.  The tests take exact tables only: a
whole table (exact, k <= 8) at once, associativity on a larger commutative table
by rotation on lanes of up to 64 cell bits held as array items, distributivity a
slab of rows (a, b) at a time; verify_axioms and structure_is run the same laws.
A window's tables always go through the per-instance path.
"""

from __future__ import annotations

import functools
import itertools
import sys
from array import array
from dataclasses import dataclass
from itertools import compress, repeat
from operator import and_, eq, itemgetter, mul, or_

from .errors import StructureError, WindowRequired, charge
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
        if limit < 1:  # a failure kept as no witness would read as a pass
            raise StructureError(f"witness limit must be at least 1, not {limit!r}")
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

    def record_all(self, instances):
        """The engine's one per-instance path: record each (verdict, axiom, instance)
        of instances in turn until the collector is done; returns done."""
        for verdict, axiom, instance in instances:
            self.record(verdict, axiom, instance)
            if self.done:
                break
        return self.done


class _Verdict(_Collector):
    """structure_is' collector, done at the first record_all call without reading it:
    on exact tables a law hands over instances only once a test of them (all, or a slab)
    failed.  Associativity has no such test on a non-commutative table, but every
    ladder tests a table's commutativity first, so it meets one only in a report."""

    def record_all(self, instances):
        self.done = True
        return True


class _View:
    """Index-level tables consumed by the axiom loops.

    A cell is one int: the carrier mask of its members, plus the inexact bit
    inex = 1 << k when the true result may hold more than the window shows; a
    result that escapes the window is inex alone.  So a union of cells is a
    plain OR, and it is exact when every cell is.  Finite structures and
    derived carriers are always total and exact.  A vector space's view also
    holds act[lam][v], the action of scalar index lam on vector index v.  The
    laws read each table through tables["sum"], tables["prod"] or tables["act"],
    its _Table, made once when the view is built.
    """

    __slots__ = ("elements", "k", "inex", "zero_i", "one_i", "neg", "sum", "prod", "act",
                 "partial", "tables")

    def __init__(self, elements, zero_i, one_i, neg, sum_tab, prod_tab, partial,
                 act_tab=None):
        self.elements, self.k, self.inex = elements, len(elements), 1 << len(elements)
        self.zero_i, self.one_i, self.neg = zero_i, one_i, neg
        self.sum, self.prod, self.act, self.partial = sum_tab, prod_tab, act_tab, partial
        self.tables = {op: _Table(tab, self.k) for op, tab in
                       (("sum", sum_tab), ("prod", prod_tab), ("act", act_tab)) if tab is not None}

    @classmethod
    def of_structure(cls, S):
        """The structure's own mask tables, as they are: no scan writes to a table."""
        return cls(S.elements, S.zero_i, S.one_i, S._neg,
                   S._sum, S._prod, False)

    @classmethod
    def of_window(cls, trop, lo, hi):
        els, zero_i, one_i, neg, cell = trop.window_cells(lo, hi)

        def tab(op):
            return [[cell(op, i, j) for j in range(len(els))] for i in range(len(els))]

        return cls(els, zero_i, one_i, neg, tab("sum"), tab("prod"), True)

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
    both = _containment(L, R, inex), _containment(R, L, inex)
    return "fail" if "fail" in both else "skip" if "skip" in both else "pass"


def _membership(bit, R, inex):
    if R >> bit & 1:
        return "pass"
    return "skip" if R & inex else "fail"


def _unions(lines, masks, inex):
    """For each line and mask, the union of the line's cells over the members of the
    mask, inexact when the mask is."""
    return (_union(line, m & ~inex, m & inex) for line, m in zip(lines, masks))


def _judged(law, inex, sides):
    """The instances of a law, for record_all: law(left, right), with the axiom and
    instance, for each (left, right, axiom, instance) of sides.  The laws over
    triples pass cells that _unions rebuilt."""
    for left, right, axiom, instance in sides:
        yield law(left, right, inex), axiom, instance


# -- packed rows and tensors: many exact cells in one int ----------------------------
#
# A row of exact cells packs into one int at w = ceil(k / 8) bytes a cell, the first
# cell in the highest bytes.  An OR of packed rows is the packed row of the cellwise
# ORs.  A tensor is the k**3 cells (a, b, c) of a law over triples, its rows (a, b)
# packed the same way, a major: all its instances pass or fail with one int test.
#
# A side of a law puts in each row (a, b) of a tensor the OR of a line x (a table's
# row or column) over the members x of the cell a.b (_spread).  Associativity on a
# commutative table compares a side with its rotation over (b, c, a); weak and exact
# distributivity compare their two tensors a slab of rows (a, b) at a time (_by_slabs).

# Rows of a table packed together in _row_unions: more rows take fewer ORs, fewer
# hold less at once (a block's unions are a block of bytes per distinct cell).
_BLOCK = 8

# _LOG2[m]: i for the one-member mask m = 1 << i (i < 8), 255 for any other byte.
_LOG2 = bytes(m.bit_length() - 1 if m & (m - 1) == 0 < m else 255 for m in range(256))

# M1 transposes the blocks of bits of its lines of cells at most this many bits
# (8 kB) at a time, and at least one line at a time.
_M1_BITS = 1 << 16

# The rotation test of associativity holds each cell's bits 64 to a lane, as array
# items of u = 1, 2, 4 or 8 bytes (_lanes): a lane's lines take k * u bytes per
# distinct cell.  Of its rotation it holds at most this many bytes on each side at
# a time (items of the first lane's size), and at least one b at a time.
_LANE_BYTES = 1 << 16
_ITEM_CODES = {array(code).itemsize: code for code in "BHILQ"}  # B, H, I, Q: 1, 2, 4, 8


def _lanes(k):
    """The array typecode of each lane of the rotation test for cells of k bits: 64
    bits of each cell, the lowest first, in the smallest item that holds them."""
    return [_ITEM_CODES[1 << ((min(64, k - shift) + 7) // 8 - 1).bit_length()]
            for shift in range(0, k, 64)]


def _flat(tab):
    """The cells of a table, row by row."""
    return list(itertools.chain.from_iterable(tab))


def _pack(cells, w):
    """One int of the cells, w bytes each (each below 1 << 8w), the first highest."""
    raw = bytes(cells) if w == 1 else b"".join(map(int.to_bytes, cells, repeat(w),
                                                   repeat("big")))
    return int.from_bytes(raw, "big")


def _or(packed, indices):
    return functools.reduce(or_, map(packed.__getitem__, indices), 0)


def _spread(t, lines, packed):
    """The tensor, as bytes, whose row (a, b) is the OR of lines[x] (k bytes, packed[x]
    as an int) over the members x of the cell a.b of the whole table t."""
    if 255 in t.members:  # a cell of two members or none
        return functools.reduce(or_, map(mul, t.in_rows, packed)).to_bytes(t.k ** 3, "big")
    return b"".join(map(lines.__getitem__, t.members))


def _lines(t, packed):
    """The OR of packed[x] over the members x of each distinct cell of t, as bytes."""
    return [_or(packed, mem).to_bytes(t.k * t.w, "big") for mem in t.distinct[0].values()]


def _by_slabs(col, t, miss, row, per=1):
    """The rows n = a * k + b of a law over triples on t until the collector is done: a
    whole table at once, else a slab of at most one row a and _LANE_BYTES // 64 cells.
    miss(lo, hi) sets a bit in each failing cell of the rows lo to hi packed (all fail
    when miss is None): rows before the first failing row n count per * k instances
    each, row(n), a generator of them, goes to record_all; the next slab follows it."""
    k, miss = t.k, miss or (lambda lo, hi: 1 << 8 * t.k * t.w * (hi - lo) - 1)
    lo, step = 0, k * k if t.whole else max(1, min(k, _LANE_BYTES // (64 * k)))
    while lo < k * k:
        hi = min(lo + step, k * k)
        n = hi - 1 - (bits.bit_length() - 1) // (8 * k * t.w) if (bits := miss(lo, hi)) else hi
        col.checked += per * k * (n - lo)
        if n < hi and col.record_all(row(n)):
            return
        lo = n + (n < hi)


@functools.cache
def _strided(k):
    """An itemgetter of the slices [a::k], a < k, and [0:0] (a tuple at k = 1)."""
    return itemgetter(*(slice(a, None, k) for a in range(k)), slice(0, 0))


def _passes(L, R, equal):
    """Every instance of a packed row or tensor passes: L within R (or equal to R when
    equal is set)."""
    return L == R if equal else (L | R) == R


class _Table:
    """A k x k table of a view (or its s x k action): whether every cell is exact,
    its packed width w = ceil(k / 8), and derived forms that its scans share.  A
    whole table (exact, k <= 8) makes at once the bytes forms that every
    whole-table test reads: its cells, transposed, whether it is symmetric, and its
    rows as bytes and packed ints (its columns too, on a symmetric table).  Any
    other form (_FORMS) is made when a scan first asks for it."""

    def __init__(self, rows, k):
        self.rows, self.k, self.w = rows, k, (k + 7) // 8
        self.exact = max(map(max, rows)) >> k == 0
        self.whole = self.exact and k <= 8
        if self.whole:
            self.row_bytes = list(map(bytes, rows))
            self.cells = cells = b"".join(self.row_bytes)
            self.transposed = b"".join(_strided(k)(cells))
            self.symmetric = cells == self.transposed
            self.packed_rows = list(map(int.from_bytes, self.row_bytes, repeat("big")))
            if self.symmetric:
                self.col_bytes, self.packed_cols = self.row_bytes, self.packed_rows

    def __getattr__(self, name):  # only a form not yet made reaches here
        if name not in _FORMS:
            raise AttributeError(name)
        value = self.__dict__[name] = _FORMS[name](self)
        return value


def _in_rows(t):
    """For each x, the tensor with 1 at the end of each row (a, b) whose cell holds x."""
    k = t.k
    ends = bytearray(k ** 3)  # each cell at the end of a row of k bytes
    ends[k - 1::k] = t.cells
    held, ones = int.from_bytes(ends, "big"), int.from_bytes(b"\1".rjust(k, b"\0") * k * k, "big")
    return [held >> x & ones for x in range(k)]


_FORMS = {
    "flat": lambda t: _flat(t.rows),  # the cells row by row
    "cols": lambda t: list(zip(*t.rows)),
    "symmetric": lambda t: t.exact and all(map(eq, map(tuple, t.rows), zip(*t.rows))),
    "in_rows": _in_rows,
    "members": lambda t: t.cells.translate(_LOG2),  # 255 for two members or none
    "col_bytes": lambda t: [t.transposed[i:i + t.k] for i in range(0, t.k ** 2, t.k)],
    "packed_rows": lambda t: [_pack(row, t.w) for row in t.rows],  # of an exact table
    "packed_cols": lambda t: [_pack(col, t.w) for col in t.cols],
    "distinct": lambda t: _cells(t.rows),
    "ids": lambda t: list(map(t.distinct[1].__getitem__, t.flat)),  # each cell's distinct id
    # per row, an itemgetter of its cells' unions (of _row_unions) and a tuple's closing b""
    "getters": lambda t: [itemgetter(*map(t.distinct[1].__getitem__, row), -1) for row in t.rows],
}


def _cells(tab):
    """The distinct cells of an exact tab in first-seen order, as {cell: its members},
    and the position of each."""
    members = dict.fromkeys(itertools.chain.from_iterable(tab))
    for cell in members:
        members[cell] = _bits(cell)
    return members, {cell: n for n, cell in enumerate(members)}


def _gather(get, unions):
    """The packed row of the unions that get (of a _Table's getters) picks."""
    return int.from_bytes(b"".join(get(unions)), "big")


def _row_unions(tab, members, w):
    """For each row a of tab in turn, the list over the cells of members (from
    _cells) of the OR of tab[a][y] over the members y of the cell, as w bytes;
    then b"".

    Where every cell has one member y, its union is the cell tab[a][y] itself
    (as in _spread).  Otherwise the table's columns are packed over a block of
    rows, so one OR per member serves the whole block; only one block's unions
    are held at a time.
    """
    only = [mem[0] for mem in members.values() if len(mem) == 1]
    if len(only) == len(members):
        for row in tab:
            yield [*map(int.to_bytes, map(row.__getitem__, only), repeat(w), repeat("big")), b""]
        return
    for lo in range(0, len(tab), _BLOCK):
        block = tab[lo:lo + _BLOCK]
        n, cols = len(block), [_pack(c, w) for c in zip(*block)]
        unions = [*(_or(cols, mem).to_bytes(n * w, "big") for mem in members.values()), b""]
        for o in range(0, n * w, w):
            yield [raw[o:o + w] for raw in unions]


def _assoc_passes(t):
    """(a.b).c equals a.(b.c) for every triple, on a whole commutative table: there
    a.(b.c) over (b, c, a) is (a.b).c, so both laws ask that the tensor L of k**3
    cells equal its rotation (as in _assoc_lanes_pass)."""
    L = _spread(t, t.row_bytes, t.packed_rows)
    return b"".join(_strided(t.k)(L)) == L


def _assoc_lanes_pass(t):
    """(a.b).c equals a.(b.c) for every triple, on an exact commutative table.

    There a.(b.c) = (b.c).a, so the right side R(a, b, c) is L(b, c, a), where
    L(a, b, c) = (a.b).c.  If L is within R at every triple, the 3-cycle
    L(a, b, c) <= L(b, c, a) <= L(c, a, b) <= L(a, b, c) makes every instance an
    equality, so both laws hold everywhere exactly when L equals its rotation.

    L's row over c is built once per distinct cell a.b, one lane of the cells at
    a time: up to 64 bits of each cell in one array item of 1, 2, 4 or 8 bytes
    (_lanes), so one lane up to k = 64 and ceil(k / 64) beyond.  A lane's lines
    (k items per distinct cell) go once the next lane's are made: freed before,
    they leave the chunks' temporaries to grow and trim the heap at every chunk
    (1.7x the time on H3^5).  The lane is compared a chunk of b values at a
    time: of the rows L(b, c, .) gathered in order (b, c), every k-th item from
    a is R(a, b, c) in order (b, c), and must equal the rows L(a, b, .) gathered
    in order (a, b).
    """
    tab, k, ids = t.rows, t.k, t.ids
    codes, order = _lanes(k), sys.byteorder
    step = max(1, _LANE_BYTES // (k * k * array(codes[0]).itemsize))
    # per chunk, the cell ids of the rows L(a, b, .) (the chunk's columns, which
    # are its rows transposed) and of the rows L(b, c, .)
    chunks = [(_flat(zip(*(ids[r * k:r * k + k] for r in range(lo, min(lo + step, k))))),
               ids[lo * k:(lo + step) * k]) for lo in range(0, k, step)]
    n = len(codes)  # raws: each row's cells as n items of 8 bytes (little-endian: lowest first)
    raws = [array("Q", b"".join(map(int.to_bytes, row, repeat(8 * n), repeat(order))))
            for row in tab]
    reduce, join, rotate = functools.reduce, b"".join, _strided(k)  # _or is inlined
    for lane, code in enumerate(codes):
        at, size = lane if order == "little" else n - 1 - lane, array(code).itemsize
        row = [int.from_bytes(array(code, raw[at::n]), order) for raw in raws].__getitem__
        lines = [reduce(or_, map(row, mem), 0).to_bytes(k * size, order)
                 for mem in t.distinct[0].values()]
        get = lines.__getitem__
        for left, right in chunks:
            if join(rotate(array(code, join(map(get, right))))) != join(map(get, left)):
                return False
    return True


def _scan_assoc(view, col, op, axiom, law):
    """law((a.b).c, a.(b.c)), unionwise, for every triple of the table op.

    A commutative exact table is tested at once by rotation, whole (_assoc_passes) or
    on lanes (_assoc_lanes_pass).  Any other table, and one that fails that test, goes
    to the per-instance path as one generator of the rows (a, b) in turn, so
    witnesses, counts and the early exit are those of a per-triple scan.
    """
    t, k, els, inex, tab = view.tables[op], view.k, view.elements, view.inex, getattr(view, op)
    if t.symmetric and (_assoc_passes(t) if t.whole else _assoc_lanes_pass(t)):
        col.checked += k ** 3
        return

    def row(n):
        i, j = divmod(n, k)
        yield from _judged(law, inex, zip(
            _unions(t.cols, repeat(tab[i][j]), inex), _unions(repeat(tab[i]), tab[j], inex),
            repeat(axiom), [(els[i], els[j], c) for c in els]))

    col.record_all(itertools.chain.from_iterable(map(row, range(k * k))))


# -- the laws -------------------------------------------------------------------
#
# Each law tests all its instances at once on an exact table (distributivity a slab
# at a time) and counts them when they all pass.  A window's table, and a table or a
# slab's first row that fails, goes to record_all as a generator of its instances, in
# per-instance order.  A law of either operation takes op, "sum" or "prod".


@functools.cache
def _units(k):
    """[{0}, {1}, ..., {k - 1}] as masks (one list for each k, which no caller changes)."""
    return list(map((1).__lshift__, range(k)))


def _scan_nonempty(view, col, op):
    t, k = view.tables[op], view.k
    if min(t.cells) if t.whole else t.exact and min(map(min, t.rows)):
        col.checked += k * k
        return
    els, inex = view.elements, view.inex
    col.record_all(("skip" if cell == inex else "pass" if cell else "fail",
                    "nonempty" if cell else f"nonempty-{op}", (els[i], els[j]))
                   for i, row in enumerate(t.rows) for j, cell in enumerate(row))


def _scan_unit(view, col, op, axiom):
    """a.u = {a} for each a in turn, u the operation's unit: M2 (u = 0) on the sum,
    unit-prod (u = 1) on the product."""
    tab, k = view.tables[op].rows, view.k
    unit_i = view.zero_i if op == "sum" else view.one_i
    if list(map(itemgetter(unit_i), tab)) == _units(k):
        col.checked += k
        return
    els, inex = view.elements, view.inex
    col.record_all((_equality(tab[i][unit_i], 1 << i, inex), axiom, (els[i],)) for i in range(k))


def _scan_unit_mult(view, col):
    """The multimonoid's weak unit law: a in 1.a for each a in turn."""
    k, ones, units = view.k, view.prod[view.one_i], _units(view.k)
    if list(map(and_, ones, units)) == units:
        col.checked += k
        return
    col.record_all(_judged(_membership, view.inex,
                           zip(range(k), ones, repeat("unit-mult"), zip(view.elements))))


def _scan_comm(view, col, op, axiom):
    """a.b = b.a for each a < b in turn: M4, M4-mult or comm-prod."""
    t, k = view.tables[op], view.k
    if t.symmetric:
        col.checked += k * (k - 1) // 2
        return
    els, inex, tab = view.elements, view.inex, t.rows
    col.record_all((_equality(tab[i][j], tab[j][i], inex), axiom, (els[i], els[j]))
                   for i in range(k) for j in range(i + 1, k))


@functools.cache
def _transpose_steps(size, n):
    """The steps that transpose every block of size x size bits of an int of n
    blocks (bit c of row r of a block at r * size + c, the first block lowest):
    for j = size / 2, ..., 1, the j x j corners of each 2j x 2j square swap
    places, as (the shift between them, the mask of the bits (r, c) with bit j
    clear in r and set in c).  Made once for each size and n."""
    width, steps, j = size // 8, [], size // 2
    while j:
        cols = ((1 << j) - 1 << j) * ((1 << size) - 1) // ((1 << 2 * j) - 1)
        square = cols.to_bytes(width, "little") * j + bytes(width * j)
        steps.append((j * (size - 1), int.from_bytes(square * (size // (2 * j) * n), "little")))
        j >>= 1
    return steps


def _m1_passes(t, neg):
    """Every instance of M1 passes, for an exact table.

    Each row and each column of cells is a block of size x size bits, a cell a
    row of it.  Transposed, the row -a gives for each b the c with b in (-a).c,
    and the column -b gives for each a the c with a in c.(-b): the cells of row
    a and of column b must lie within them.  On a commutative table the rows'
    half implies the columns' (c in a.b = b.a puts b in c.(-a) = (-a).c), so
    only the rows are tested.  The lines go _M1_BITS bits of blocks at a time.
    """
    k = t.k
    n = k if t.symmetric else 2 * k
    size = max(8, 1 << (k - 1).bit_length())
    width, pad = size // 8, bytes(size // 8 * (size - k))
    bound = list(neg) + [k + x for x in neg]  # line i lies within transposed line bound[i]

    def packed(i):
        """Row i, or column i - k, as the rows of a block."""
        cells = t.rows[i] if i < k else map(itemgetter(i - k), t.rows)
        return b"".join(map(int.to_bytes, cells, repeat(width), repeat("little")))

    step = max(1, _M1_BITS // size ** 2)
    steps = _transpose_steps(size, min(step, n))
    for lo in range(0, n, step):
        ids = range(lo, min(lo + step, n))
        bounds = list(map(bound.__getitem__, ids))
        # the lines of the chunk and their bounds, each packed once
        lines = t.row_bytes + t.col_bytes if t.whole else {i: packed(i) for i in {*ids, *bounds}}
        held = int.from_bytes(pad.join(map(lines.__getitem__, bounds)) + pad, "little")
        for shift, mask in steps:
            swap = (held ^ held >> shift) & mask
            held ^= swap ^ swap << shift
        if int.from_bytes(pad.join(map(lines.__getitem__, ids)) + pad, "little") & ~held:
            return False
    return True


def _scan_m1(view, col):
    """M1, reversibility of the sum: for every c in a+b, a in c+(-b) and b in (-a)+c.

    An exact table is tested at once (_m1_passes).  A window's table, or one that
    fails that test, goes through the per-instance path one cell (a, b) at a time,
    so witnesses, counts and the early exit are those of a per-member scan.  A
    member of an inexact cell counts as a member.
    """
    t = view.tables["sum"]
    if t.exact and _m1_passes(t, view.neg):
        col.checked += view.k ** 2
    else:
        col.record_all(_m1_instances(view))


def _m1_instances(view):
    """The instances of M1, one cell (a, b) at a time, with the first c that fails."""
    els, neg, inex, tab, axiom = view.elements, view.neg, view.inex, view.sum, "M1"
    for i, row in enumerate(tab):
        for j, cell in enumerate(row):
            if cell == inex:
                yield "skip", axiom, (els[i], els[j])
                continue
            verdict, instance = "pass", (els[i], els[j])
            for c in _bits(cell & ~inex):
                v1 = _membership(i, tab[c][neg[j]], inex)
                v2 = _membership(j, tab[neg[i]][c], inex)
                if "fail" in (v1, v2):
                    verdict, instance = "fail", (els[i], els[j], els[c])
                    break
                if "skip" in (v1, v2):
                    verdict = "skip"
            yield verdict, axiom, instance


def _scan_single(view, col):
    """A multiring's product is single-valued: every cell has one member."""
    t, k = view.tables["prod"], view.k
    if t.exact and max(map(int.bit_count, t.cells if t.whole else t.flat)) <= 1:
        col.checked += k * k
        return
    els, inex = view.elements, view.inex
    col.record_all(  # a cell of two members or more fails
        ("skip" if cell == inex else "fail" if cell & (cell - 1) & ~inex else "pass",
         "prod-single", (els[i], els[j]))
        for i, row in enumerate(t.rows) for j, cell in enumerate(row))


def _scan_absorb(view, col):
    k, z, prod = view.k, view.zero_i, view.prod
    zeros = [1 << z] * k
    if list(prod[z]) == zeros and list(map(itemgetter(z), prod)) == zeros:
        col.checked += 2 * k
        return
    els, inex = view.elements, view.inex
    col.record_all((_equality(cell, 1 << z, inex), "absorb", (els[i],))
                   for i in range(k) for cell in (prod[i][z], prod[z][i]))


def _line_sums(s, p, by_cols):
    """The setwise sums of lines a and b of the product p over (a, b, c), for its
    columns (ca+cb) or its rows (ac+bc) as lines; s is the sum table.

    On whole tables where every cell of the product has one member, the sum of
    {x} and {y} is the sum table's cell x.y: the indices x * k + y of all the
    sums are one int, and its bytes, translated by the sum table's cells, are
    the sums.  Otherwise the setwise sums are seeded with those of two
    singletons, the sum table's own cells.
    """
    k = s.k
    if s.whole and p.whole:
        members = p.transposed.translate(_LOG2) if by_cols else p.members
        if 255 not in members:
            firsts = b"".join([members[i:i + k] * k for i in range(0, k * k, k)])
            at = int.from_bytes(firsts, "big") * k + int.from_bytes(members * k, "big")
            return at.to_bytes(k ** 3, "big").translate(s.cells.ljust(256, b"\0"))
    plus, lines = _Setwise(s.rows), p.cols if by_cols else p.rows
    plus.update(zip(itertools.product(_units(k), repeat=2), s.flat))
    return list(map(plus.__getitem__, zip(_flat(map(mul, lines, repeat(k))),
                                          _flat(lines) * k)))


def _scan_weak_dist(view, col):
    """c(a+b) within ca+cb and (a+b)c within ac+bc, unionwise.

    The right sides are the setwise sums of the product's columns a, b and of its
    rows a, b; the left sides put its packed column and row x in each row (a, b)
    whose sum holds x.  Every row of a window, and a slab's first failing row
    (_by_slabs), goes through the per-instance path, c(a+b) before (a+b)c for each c.
    """
    els, k, inex, prods = view.elements, view.k, view.inex, view.prod
    s, p = view.tables["sum"], view.tables["prod"]
    right = _line_sums(s, p, True)  # ca+cb, and ac+bc: the same on a commutative product
    right2 = right if p.symmetric else _line_sums(s, p, False)
    if (s.whole and p.whole  # all at once, in the whole tables' byte forms
            and _passes(_pack(_spread(s, p.col_bytes, p.packed_cols), 1), _pack(right, 1), False)
            and (right2 is right or _passes(_pack(_spread(s, p.row_bytes, p.packed_rows), 1),
                                            _pack(right2, 1), False))):
        col.checked += 2 * k ** 3
        return
    tests = [(_lines(s, p.packed_cols), right)] if s.exact and p.exact else []
    if tests and right2 is not right:
        tests.append((_lines(s, p.packed_rows), right2))

    def miss(lo, hi):  # the bits of a left side outside its right side
        return functools.reduce(or_, (
            int.from_bytes(b"".join(map(lines.__getitem__, s.ids[lo:hi])), "big")
            & ~_pack(R[lo * k:hi * k], p.w) for lines, R in tests))

    def row(n):
        a, b = divmod(n, k)
        ab, R, R2 = s.flat[n], right[n * k:(n + 1) * k], right2[n * k:(n + 1) * k]
        sides = zip(_unions(prods, repeat(ab), inex), R, repeat("weak-dist"),
                    [(c, els[a], els[b]) for c in els])
        sides2 = zip(_unions(p.cols, repeat(ab), inex), R2, repeat("weak-dist-right"),
                     [(els[a], els[b], c) for c in els])
        yield from _judged(_containment, inex, itertools.chain.from_iterable(zip(sides, sides2)))

    _by_slabs(col, s, miss if tests else None, row, 2)


def _scan_hyper_dist(view, col):
    """Exact distributivity a(b+c) = ab+ac.

    Both sides are weak distributivity's: c(a+b) and ca+cb over (a, b, c) are
    a(b+c) and ab+ac over (b, c, a), so a whole table passes exactly when those
    tensors are equal.  Otherwise a(b+c) is the cell a of the line c(a+b) over c of
    each b+c (_lines).  Every row of a window, and a slab's first failing row
    (_by_slabs), goes through the per-instance path.
    """
    els, k, inex, prods = view.elements, view.k, view.inex, view.prod
    s, p = view.tables["sum"], view.tables["prod"]
    right, miss = _line_sums(s, p, True), None  # ab+ac over (b, c, a)
    if s.whole and p.whole and _spread(s, p.col_bytes, p.packed_cols) == bytes(right):
        col.checked += k ** 3
        return
    right = _flat(_strided(k)(right))  # ab+ac over (a, b, c), rebound to free the first
    if s.exact and p.exact:
        w, ids, lines = p.w, s.ids, _lines(s, p.packed_cols)  # c(a+b) over c, for each a+b
        cells = functools.lru_cache(1)(lambda a: [line[a * w:a * w + w] for line in lines])

        def miss(lo, hi):  # a(b+c) over the rows (a, b), lo to hi: the cell a of each line
            left = b"".join(b"".join(map(cells(a).__getitem__,
                                         ids[max(lo - a * k, 0) * k:min(hi - a * k, k) * k]))
                            for a in range(lo // k, (hi - 1) // k + 1))
            return int.from_bytes(left, "big") ^ _pack(right[lo * k:hi * k], w)

    def row(n):
        a, b = divmod(n, k)
        yield from _judged(_equality, inex, zip(
            _unions(repeat(prods[a]), view.sum[b], inex), right[n * k:(n + 1) * k],
            repeat("hyper-dist"), [(els[a], els[b], c) for c in els]))

    _by_slabs(col, s, miss, row)


def _scan_signs(view, col):
    """-(ab) = (-a)b and -(ab) = a(-b), tested for the whole table at once.  On a
    whole table of one-member cells, -(ab) row by row (column by column) is one
    bytes.translate of its cells (transposed), the rows -a (columns -b) joined."""
    els, k, neg, inex, prod = view.elements, view.k, view.neg, view.inex, view.prod
    t = view.tables["prod"]
    neg_bits = [1 << n for n in neg]
    if t.whole and 255 not in t.members:
        to_neg = _LOG2.translate(bytes(neg_bits).ljust(256, b"\0"))  # {x} to {-x}
        passed = (t.cells.translate(to_neg) == b"".join(map(t.row_bytes.__getitem__, neg))
                  and t.transposed.translate(to_neg)
                  == b"".join(map(t.col_bytes.__getitem__, neg)))
    else:
        neg_ab = list(_unions(repeat(neg_bits), t.flat, inex))
        passed = (t.exact and neg_ab == _flat(map(prod.__getitem__, neg))
                  and neg_ab == _flat(zip(*map(t.cols.__getitem__, neg))))
    if passed:
        col.checked += 2 * k * k
        return
    neg_ab = list(_unions(repeat(neg_bits), t.flat, inex))
    col.record_all((_equality(neg_ab[a * k + b], cell, inex), "signs", (els[a], els[b]))
                   for a in range(k) for b in range(k)
                   for cell in (prod[neg[a]][b], prod[a][neg[b]]))


def _scan_nontrivial(view, col):
    if view.zero_i != view.one_i:
        col.checked += 1
    else:
        col.record_all([("fail", "nontrivial", ())])


def _scan_no_zero_divisors(view, col):
    k, z = view.k, view.zero_i
    # the pairs (a, b) with a and b nonzero, as selectors over the table's cells
    pairs = [1] * k * k
    pairs[z::k] = pairs[z * k:(z + 1) * k] = [0] * k
    cells = itertools.chain.from_iterable(view.prod)
    if view.tables["prod"].exact and not any(compress(map(and_, cells, repeat(1 << z)), pairs)):
        col.checked += (k - 1) ** 2
        return
    els, inex = view.elements, view.inex
    col.record_all(("fail" if cell >> z & 1 else "skip" if cell & inex else "pass",
                    "no-zero-div", (els[a], els[b]))
                   for a, row in enumerate(view.prod) if a != z
                   for b, cell in enumerate(row) if b != z)


def _scan_inverses(view, col):
    """Every nonzero a has some b with 1 in a.b; a miss is only a skip on a window
    (a view with an inexact or escaped cell is always partial)."""
    els, z, one = view.elements, view.zero_i, 1 << view.one_i
    found = list(map(and_, map(functools.reduce, repeat(or_), view.prod), repeat(one)))
    found[z] = True
    if all(found):
        col.checked += view.k - 1
        return
    col.record_all(("pass" if found[a] else "skip" if view.partial else "fail", "inverses",
                    (els[a],)) for a in range(view.k) if a != z)


# The ladders: each kind's laws in order.  Each tests a table's commutativity before
# its associativity, which has a test of all instances only on a commutative table.
# the additive group: nonemptiness and M1-M4 of the sum
_GROUP = (functools.partial(_scan_nonempty, op="sum"),
          functools.partial(_scan_unit, op="sum", axiom="M2"), _scan_m1,
          functools.partial(_scan_comm, op="sum", axiom="M4"),
          functools.partial(_scan_assoc, op="sum", axiom="M3", law=_containment))
# the multiplicative multimonoid: a weak unit law, M4 and M3 of the product
_MULTIMONOID = (functools.partial(_scan_nonempty, op="prod"), _scan_unit_mult,
                functools.partial(_scan_comm, op="prod", axiom="M4-mult"),
                functools.partial(_scan_assoc, op="prod", axiom="M3-mult", law=_containment))
# a multiring's product: a strict commutative monoid
_MONOID = (_scan_single, functools.partial(_scan_unit, op="prod", axiom="unit-prod"),
           functools.partial(_scan_comm, op="prod", axiom="comm-prod"),
           functools.partial(_scan_assoc, op="prod", axiom="assoc-prod", law=_equality))

_KIND_SCANS = {
    "multigroup": _GROUP,
    "multimonoid": _MULTIMONOID,
    "multiring": (*_GROUP, *_MONOID, _scan_absorb, _scan_weak_dist),
    "hyperring": (*_GROUP, *_MONOID, _scan_absorb, _scan_weak_dist, _scan_hyper_dist),
    "multifield": (*_GROUP, *_MONOID, _scan_absorb, _scan_weak_dist, _scan_nontrivial,
                   _scan_inverses),
    "hyperfield": (*_GROUP, *_MONOID, _scan_absorb, _scan_weak_dist, _scan_hyper_dist,
                   _scan_nontrivial, _scan_inverses),
    "superring": (*_GROUP, *_MULTIMONOID, _scan_absorb, _scan_weak_dist, _scan_signs),
    "superdomain": (*_GROUP, *_MULTIMONOID, _scan_absorb, _scan_weak_dist, _scan_signs,
                    _scan_nontrivial, _scan_no_zero_divisors),
    "quasi-superfield": (*_GROUP, *_MULTIMONOID, _scan_absorb, _scan_weak_dist, _scan_signs,
                         _scan_nontrivial, _scan_inverses),
    "superfield": (*_GROUP, *_MULTIMONOID, _scan_absorb, _scan_weak_dist, _scan_signs,
                   _scan_nontrivial, _scan_no_zero_divisors, _scan_inverses),
}


def verify_axioms(S, kind, window=None, witness_limit=3, stop_on_first=False):
    """Exhaustively check the axioms of the given kind over S.

    Lazy structures require window=(lo, hi), and only they take one; the verdict
    is then at best "pass-on-window" and skipped instance counts are reported.
    A window of k elements is charged k**3 to the search limit before its tables
    are built; a finite structure's check is not charged.
    """
    if kind not in _KIND_SCANS:
        raise StructureError(f"unknown structure kind {kind!r}")
    col = _Collector(limit=witness_limit, stop_on_first=stop_on_first)
    if isinstance(S, TropicalStructure):
        if window is None:
            raise WindowRequired("axiom check on a lazy structure needs window=(lo, hi)")
        charge(len(S.window_elements(*window)) ** 3, "window axiom instances")
        view = _View.of_window(S, *window)
    elif isinstance(S, Structure):
        if window is not None:
            raise StructureError(f"{S.name} is finite: only a lazy structure takes a window")
        view = _View.of_structure(S)
    else:
        raise StructureError(f"cannot verify {S!r}")

    return _report(S.name, kind, view, _scan_kind(view, _KIND_SCANS[kind], col))


def _scan_kind(view, laws, col):
    """The laws in order, until the collector is done; returns it."""
    for law in laws:
        law(view, col)
        if col.done:
            break
    return col


def _report(subject, kind, view, col):
    verdict = FAIL if col.witnesses else PASS_ON_WINDOW if view.partial else PASS
    return AxiomReport(subject=subject, kind=kind, verdict=verdict,
                       witnesses=tuple(col.witnesses),
                       checked=col.checked, skipped=col.skipped)


def structure_is(S, kind):
    """Whether the finite structure S is of the kind, cached on S: verify_axioms'
    laws, stopped at the first failing test (_Verdict), with no report made."""
    cache = S._kind_cache
    if kind not in cache:
        if kind not in _KIND_SCANS:
            raise StructureError(f"unknown structure kind {kind!r}")
        cache[kind] = not _scan_kind(_View.of_structure(S), _KIND_SCANS[kind],
                                     _Verdict(stop_on_first=True)).done
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
    images: tuple  # the target index of the image of each source index

    @classmethod
    def from_mapping(cls, source, target, mapping):
        for a in source.elements:
            if a not in mapping:
                raise StructureError(f"morphism map undefined at {a!r}")
            if mapping[a] not in target:
                raise StructureError(f"morphism image {mapping[a]!r} not in {target.name}")
        return cls(source, target, tuple(target._idx[mapping[a]] for a in source.elements))

    @classmethod
    def inclusion(cls, source, target):
        return cls.from_mapping(source, target, {a: a for a in source.elements})

    def __call__(self, a):
        return self.target.elements[self.images[self.source._idx[a]]]

    @property
    def mapping(self):
        return dict(zip(self.source.elements, map(self.target.elements.__getitem__, self.images)))

    @property
    def is_injective(self):
        return len(set(self.images)) == len(self.images)


def check_morphism(spec, full=False, witness_limit=3):
    """Check the morphism conditions on the mask tables of both structures; with
    full=True also setwise image equalities.  Only witnesses are made tokens."""
    S, T, f = spec.source, spec.target, spec.images
    bits = [1 << x for x in f]
    col = _Collector(limit=witness_limit)

    def instances():
        """(holds, axiom, source indices) in check order, lazily, so a stop stops the work."""
        yield f[S.zero_i] == T.zero_i, "m-zero", (S.zero_i,)
        yield f[S.one_i] == T.one_i, "m-one", (S.one_i,)
        for a, n in enumerate(S._neg):
            yield f[n] == T._neg[f[a]], "m-neg", (a,)
        for a, (sums, prods) in enumerate(zip(S._sum, S._prod)):
            for b in range(len(S)):
                img_sum, img_prod = T._sum[f[a]][f[b]], T._prod[f[a]][f[b]]
                for c in _bits(sums[b]):
                    yield img_sum >> f[c] & 1, "m-add", (a, b, c)
                for c in _bits(prods[b]):
                    yield img_prod >> f[c] & 1, "m-mul", (a, b, c)
                if full:
                    yield _union(bits, sums[b]) == img_sum, "full-add", (a, b)
                    yield _union(bits, prods[b]) == img_prod, "full-mul", (a, b)

    col.record_all(("pass" if ok else "fail", axiom, instance)
                   for ok, axiom, instance in instances())

    witnesses = tuple((ax, tuple(map(S.elements.__getitem__, wit))) for ax, wit in col.witnesses)
    label = "full-morphism" if full else "morphism"
    return AxiomReport(subject=f"{S.name}->{T.name}", kind=label,
                       verdict=FAIL if witnesses else PASS, witnesses=witnesses,
                       checked=col.checked)


# -- derived carriers: vector, matrix and extension multigroups ------------------


def verify_multigroup(elements, sum_fn, neg_fn, unit, subject="multigroup",
                      witness_limit=3):
    """Nonemptiness and M1-M4 for a set-valued operation on a finite carrier.

    sum_fn(a, b) must return an iterable of carrier members.  The carrier is
    tabulated into an index-level view and checked by the same group laws as
    a finite structure, so witnesses come in carrier order.
    """
    col = _Collector(limit=witness_limit)
    view = _View.of_carrier(elements, sum_fn, neg_fn, unit)
    return _report(subject, "multigroup", view, _scan_kind(view, _GROUP, col))


def _scan_action(view, F, col, full):
    """MV0-MV3 for the action of the scalars F on a tabulated vector carrier.

    MV2 and MV3 demand containment of the left side in the right side, or
    equality when full is set; MV0 and MV1 always demand equality.  A vector
    carrier's tables are exact, and a scalar cell is a mask over the scalars, so
    no cell here has an inexact bit.  MV1 and MV3 test one packed row (lam, mu)
    over v, MV2 one row (lam, v) over w.  The unions of lam.y over the members y
    of a cell come from _row_unions on the action table, over the distinct
    action cells for MV1 and the sum table's (its _Table form, shared with M3)
    for MV2.  The right side of MV2, lam.v + lam.w over w, is the OR over x in
    lam.v of packed rows that gather the unions of x + y over y in lam.w, read
    off the sum table's rows by _row_unions (over a hyperfield, whose action
    cells have one member each, the cells x + lam.w themselves).  A row that
    fails goes through the per-instance path.
    """
    els, act, k, scal, zero_vec = view.elements, view.act, view.k, F.elements, 1 << view.zero_i
    s, one, zero = len(scal), F.one_i, F.zero_i
    if [*act[one]] == [1 << v for v in range(k)] and [*act[zero]] == [zero_vec] * k:
        col.checked += 2 * k  # MV0 holds in both columns
    elif col.record_all((_equality(cell, unit, 0), axiom, (els[v],)) for v in range(k)
                        for cell, unit, axiom in ((act[one][v], 1 << v, "MV0-one"),
                                                  (act[zero][v], zero_vec, "MV0-zero"))):
        return
    t, width = view.tables["act"], (k + 7) // 8  # s x k: no whole-table form is read
    acts, cols, act_cells, act_getters = t.packed_rows, t.cols, t.distinct[0], t.getters
    # MV1: (lam mu) v = lam (mu v)
    for lam, unions in enumerate(_row_unions(act, act_cells, width)):
        for mu in range(s):
            m = F._prod[lam][mu]
            if _or(acts, _bits(m)) == _gather(act_getters[mu], unions):
                col.checked += k
            elif col.record_all(_judged(_equality, 0, zip(
                    _unions(cols, repeat(m), 0), _unions(repeat(act[lam]), act[mu], 0),
                    repeat("MV1"), ((scal[lam], scal[mu], v) for v in els)))):
                return
    law, plus = _equality if full else _containment, _Setwise(view.sum)
    # MV2: lam (v + w) within lam v + lam w
    sum_cells, sum_getters = view.tables["sum"].distinct[0], view.tables["sum"].getters
    # lam_sums[lam][x]: the packed row over w of x + lam.w
    lam_sums = list(zip(*([_gather(get, u) for get in act_getters]
                          for u in _row_unions(view.sum, act_cells, width))))
    for lam, (unions, sums) in enumerate(zip(_row_unions(act, sum_cells, width), lam_sums)):
        row = act[lam]
        for v in range(k):
            if _passes(_gather(sum_getters[v], unions), _or(sums, act_cells[row[v]]), full):
                col.checked += k
            elif col.record_all(_judged(law, 0, zip(
                    _unions(repeat(row), view.sum[v], 0),
                    map(plus.__getitem__, zip(repeat(row[v]), row)),
                    repeat("MV2"), ((scal[lam], els[v], w) for w in els)))):
                return
    # MV3: (lam + mu) v within lam v + mu v
    for lam in range(s):
        for mu in range(s):
            R, m = list(map(plus.__getitem__, zip(act[lam], act[mu]))), F._sum[lam][mu]
            if _passes(_or(acts, _bits(m)), _pack(R, width), full):
                col.checked += k
            elif col.record_all(_judged(law, 0, zip(
                    _unions(cols, repeat(m), 0), R, repeat("MV3"),
                    ((scal[lam], scal[mu], v) for v in els)))):
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
