"""Finite set-valued algebraic structures and the built-in examples.

A structure is a carrier together with two binary multioperations (sum and
product), a negation map and distinguished elements 0 and 1.  Result sets are
always nonempty subsets of the carrier.  The carrier order fixed at
construction time is the canonical total order used for deterministic
iteration, witness selection and serialization.
"""

from __future__ import annotations

import functools
import itertools
import math

from .errors import StructureError, WindowRequired, charge

INF = "inf"  # token for the tropical point at infinity
_BYTE_BITS = [tuple(i for i in range(8) if m >> i & 1) for m in range(256)]  # of _bits


class Structure:
    """A finite structure with set-valued sum and product tables.

    Instances are immutable after construction; every operation is a pure
    function of its inputs, so values can be shared freely across threads.
    """

    __slots__ = (
        "name", "elements", "zero", "one", "zero_i", "one_i",
        "_idx", "_neg", "_sum", "_prod",
        "_add_cache", "_mul_cache", "_kind_cache",
    )

    def __init__(self, name, elements, zero, one, neg, sum_table, prod_table):
        """The IO-edge constructor: tokens, neg a dict and tables keyed by token pairs."""
        elements = tuple(elements)
        idx = {e: i for i, e in enumerate(elements)}
        if zero not in idx or one not in idx:
            raise StructureError("zero/one must belong to the carrier")
        for e in elements:
            if e not in neg:
                raise StructureError(f"negation undefined for {e!r}")
            if neg[e] not in idx:
                raise StructureError(f"negation of {e!r} leaves the carrier: {neg[e]!r}")

        def masks(table, label):
            rows = []
            for a in elements:
                row = []
                for b in elements:
                    if (a, b) not in table:
                        raise StructureError(f"{label}({a!r},{b!r}) is undefined")
                    m = 0
                    for r in table[(a, b)]:
                        if r not in idx:
                            raise StructureError(
                                f"{label}({a!r},{b!r}) result {r!r} leaves the carrier")
                        m |= 1 << idx[r]
                    row.append(m)
                rows.append(row)
            return rows

        self._install(name, elements, idx[zero], idx[one], [idx[neg[e]] for e in elements],
                      masks(sum_table, "sum"), masks(prod_table, "prod"))

    @classmethod
    def from_masks(cls, name, elements, zero_i, one_i, neg, sum_tab, prod_tab):
        """A structure from index-level tables: neg[i] is the index of -elements[i],
        sum_tab[i][j] and prod_tab[i][j] are carrier masks."""
        S = cls.__new__(cls)
        S._install(name, elements, zero_i, one_i, neg, list(map(list, sum_tab)),
                   list(map(list, prod_tab)))
        return S

    def _install(self, name, elements, zero_i, one_i, neg, sum_tab, prod_tab):
        """The one construction path: check the carrier and the tables (lists of
        lists that no caller keeps), then store them."""
        elements = tuple(elements)
        if len(set(elements)) != len(elements):
            raise StructureError("carrier contains duplicate elements")
        if not elements:
            raise StructureError("carrier is empty")
        for e in elements:
            if isinstance(e, str) and (not e or any(c.isspace() for c in e) or e.startswith("#")):
                raise StructureError(f"bad element token {e!r}")
        k = len(elements)
        _check_tables("an element", k, (("zero_i", zero_i), ("one_i", one_i)), neg,
                      (("sum", sum_tab, k), ("prod", prod_tab, k)))
        self.name, self.elements, self.zero_i, self.one_i = name, elements, zero_i, one_i
        self.zero, self.one = elements[zero_i], elements[one_i]
        self._idx, self._neg = dict(zip(elements, range(k))), tuple(neg)
        self._sum, self._prod, self._kind_cache = sum_tab, prod_tab, {}

    def __getattr__(self, name):  # an unset slot: the setwise caches are made on first use
        if name not in ("_add_cache", "_mul_cache"):
            raise AttributeError(name)
        setattr(self, name, _Setwise(self._sum if name == "_add_cache" else self._prod))
        return getattr(self, name)

    # -- basic accessors ---------------------------------------------------

    def __len__(self):
        return len(self.elements)

    def __contains__(self, e):
        return e in self._idx

    def __repr__(self):
        return f"Structure({self.name!r}, {len(self.elements)} elements)"

    def index(self, e):
        try:
            return self._idx[e]
        except KeyError:
            raise StructureError(f"{e!r} is not an element of {self.name}") from None

    def __eq__(self, other):
        if not isinstance(other, Structure):
            return NotImplemented
        return (self.name == other.name and self.elements == other.elements
                and self.zero == other.zero and self.one == other.one
                and self._neg == other._neg
                and self._sum == other._sum and self._prod == other._prod)

    def __hash__(self):
        return hash((self.name, self.elements, self.zero, self.one))

    # -- mask helpers --------------------------------------------------------
    # Subsets of the carrier are represented as int bitmasks in carrier order;
    # this keeps exhaustive scans cheap and canonical order implicit.

    def mask_of(self, elems):
        m = 0
        for e in elems:
            m |= 1 << self.index(e)
        return m

    def set_of(self, mask):
        els = self.elements
        return frozenset(els[i] for i in range(len(els)) if mask >> i & 1)

    def canon_of(self, mask):
        els = self.elements
        return tuple(els[i] for i in range(len(els)) if mask >> i & 1)

    def sum_mask(self, a, b):
        return self._sum[self.index(a)][self.index(b)]

    def prod_mask(self, a, b):
        return self._prod[self.index(a)][self.index(b)]

    def add_masks(self, m1, m2):
        """Setwise sum of two subsets, as masks."""
        return self._add_cache[m1, m2]

    def mul_masks(self, m1, m2):
        """Setwise product of two subsets, as masks."""
        return self._mul_cache[m1, m2]

    def sum_of(self, masks):
        """Left fold of the setwise sum over masks; the empty fold gives {0}."""
        return _fold(self.add_masks, 1 << self.zero_i, masks)

    def prod_of(self, masks):
        """Left fold of the setwise product over masks; the empty fold gives {1}."""
        return _fold(self.mul_masks, 1 << self.one_i, masks)

    def neg_mask(self, mask):
        return sum({1 << n for i, n in enumerate(self._neg) if mask >> i & 1})

    # -- element-level API ---------------------------------------------------

    def sum_set(self, a, b):
        return self.set_of(self.sum_mask(a, b))

    def prod_set(self, a, b):
        return self.set_of(self.prod_mask(a, b))

    def neg(self, a):
        return self.elements[self._neg[self.index(a)]]

    def neg_set(self, elems):
        return frozenset(self.neg(e) for e in elems)

    def canon(self, elems):
        """Canonical tuple form of a subset: deduplicated, in carrier order."""
        return self.canon_of(self.mask_of(elems))

    def inverse_indices(self, i):
        """The indices of every b with 1 in a*b, for a of index i, in carrier order."""
        one_bit = 1 << self.one_i
        return tuple(j for j, m in enumerate(self._prod[i]) if m & one_bit)

    def inverses(self, a):
        """All b with 1 in a*b, in carrier order."""
        return tuple(map(self.elements.__getitem__, self.inverse_indices(self.index(a))))

    def inverse(self, a):
        """Least inverse of a in carrier order, or None."""
        return next(iter(self.inverses(a)), None)

    @property
    def is_strict(self):
        """True when every sum and product result is a singleton."""
        return not any(m & (m - 1) for tab in (self._sum, self._prod) for row in tab for m in row)

    # -- derived structures ----------------------------------------------------

    def with_entry(self, op, a, b, new_set, name=None):
        """Copy of this structure with one table entry replaced (for mutation tests)."""
        if op not in ("sum", "prod"):
            raise StructureError(f"unknown operation {op!r}")
        tabs = {"sum": [list(row) for row in self._sum],
                "prod": [list(row) for row in self._prod]}
        tabs[op][self.index(a)][self.index(b)] = self.mask_of(new_set)
        return Structure.from_masks(name or f"{self.name}*", self.elements,
                                    self.zero_i, self.one_i, self._neg,
                                    tabs["sum"], tabs["prod"])


def _check_tables(noun, k, indices, neg, tables):
    """The index-level tables over k members, or StructureError names the first bad
    entry: each (label, i) of indices and every neg[v] is {noun} index, and each
    (label, tab, rows) of tables is rows x k nonempty masks of the k members."""
    for label, i in indices:
        if not 0 <= i < k:
            raise StructureError(f"{label} = {i!r} is not {noun} index")
    if len(neg) != k:
        raise StructureError(f"neg has {len(neg)} entries, needs {k}")
    if min(neg) < 0 or max(neg) >= k:
        v, n = next((v, n) for v, n in enumerate(neg) if not 0 <= n < k)
        raise StructureError(f"neg[{v}] = {n!r} is not {noun} index")
    for label, tab, rows in tables:
        if list(map(len, tab)) != [k] * rows:
            raise StructureError(f"{label} is not a {rows} x {k} table")
        cells = list(itertools.chain.from_iterable(tab))
        if cells and (min(cells) <= 0 or max(cells) >> k):
            n, cell = next((n, c) for n, c in enumerate(cells) if not 0 < c < 1 << k)
            raise StructureError(f"{label}[{n // k}][{n % k}] = {cell!r} is not a nonempty "
                                 f"mask of the {k} {noun.split()[-1]}s")


# -- folds and boxes ---------------------------------------------------------------


def _bits(mask):
    """The carrier indices in a mask, in ascending order (below 256, read off a table)."""
    if mask < 256:
        return _BYTE_BITS[mask]
    out = []
    while mask:
        low = mask & -mask
        mask ^= low
        out.append(low.bit_length() - 1)
    return tuple(out)


def _union(cells, mask, start=0):
    """start ORed with cells[i] over the members i of mask."""
    while mask:
        low = mask & -mask
        mask ^= low
        start |= cells[low.bit_length() - 1]
    return start


def _setwise(tab, m1, m2):
    """The setwise sum or product m1.m2 over tab, read off its rows with no memo."""
    out, j = 0, m2.bit_length() - 1
    for i in _bits(m1):
        out |= tab[i][j] if m2 == 1 << j else _union(tab[i], m2)
    return out


class _Setwise(dict):
    """(m1, m2) -> union of table[i][j] over the bits i of m1, j of m2, on first use.

    A bit of m1 or m2 above the carrier is carried into the result as it is:
    the axiom engine's cells mark an inexact result with such a bit.
    """

    __slots__ = ("table",)

    def __init__(self, table):  # empty, as dict.__new__ made it
        self.table = table

    def __missing__(self, key):
        m1, m2 = key
        carrier = (1 << len(self.table)) - 1
        res = (m1 | m2) & ~carrier
        m1 &= carrier
        while m1:
            low = m1 & -m1
            m1 ^= low
            row = self.table[low.bit_length() - 1]
            m = m2 & carrier
            while m:
                low = m & -m
                m ^= low
                res |= row[low.bit_length() - 1]
        self[key] = res
        return res


def _fold(combine, unit, masks):
    masks = iter(masks)
    return functools.reduce(combine, masks, next(masks, unit))


def _masks(S, sets):
    return (part if isinstance(part, int) else S.mask_of(part) for part in sets)


def msum_sets(S, sets):
    """Left fold of the set-valued sum over subsets; empty fold gives {0}."""
    return S.set_of(S.sum_of(_masks(S, sets)))


def mprod_sets(S, sets):
    """Left fold of the set-valued product over subsets; empty fold gives {1}."""
    return S.set_of(S.prod_of(_masks(S, sets)))


def msum(S, xs):
    """Fold of the sum over a sequence of elements; empty sequence gives {0}."""
    return msum_sets(S, ([x] for x in xs))


def mprod(S, xs):
    """Fold of the product over a sequence of elements; empty sequence gives {1}."""
    return mprod_sets(S, ([x] for x in xs))


class Box:
    """Independent choices: one nonempty mask of the base carrier per position.

    Sums, negations and scalar multiples act position by position; a position
    past the end of a box holds {0}.  Subclasses fix the shape and build their
    members from the choices.
    """

    __slots__ = ("base", "masks")
    kind = "box"

    def __init__(self, base, masks):
        masks = tuple(masks)
        limit = 1 << len(base)
        if not all(0 < m < limit for m in masks):
            raise StructureError(f"a {self.kind} box position is not a nonempty subset "
                                 f"of {base.name}")
        self.base, self.masks = base, masks

    def _like(self, masks):
        """A box of the same kind and shape holding the given masks."""
        return type(self)(self.base, masks)

    def _shape(self):
        return ()

    def _pairs(self, other):
        if self.base is not other.base:
            raise StructureError(f"{self.kind} boxes over different structures")
        if self._shape() != other._shape():
            raise StructureError(f"{self.kind} box shapes do not match")
        zero = 1 << self.base.zero_i
        return itertools.zip_longest(self.masks, other.masks, fillvalue=zero)

    def add(self, other):
        return self._like(itertools.starmap(self.base.add_masks, self._pairs(other)))

    def neg(self):
        return self._like(map(self.base.neg_mask, self.masks))

    def scale(self, lam):
        """The left product lam * x at every position."""
        return self._like(map(self.base.mul_masks, itertools.repeat(1 << self.base.index(lam)),
                              self.masks))

    def intersect(self, other):
        """Positionwise intersection, or None when some position is empty."""
        masks = [a & b for a, b in self._pairs(other)]
        return self._like(masks) if all(masks) else None

    @property
    def size(self):
        return math.prod(m.bit_count() for m in self.masks)

    def choices(self):
        """Every choice of one element per position, as index tuples in carrier order."""
        charge(self.size, f"{self.kind} box members")
        return itertools.product(*map(_bits, self.masks))

    def __contains__(self, indices):
        return len(indices) == len(self.masks) and \
            all(m >> i & 1 for m, i in zip(self.masks, indices))

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return (self.base is other.base and self._shape() == other._shape()
                and self.masks == other.masks)

    def __hash__(self):
        return hash((id(self.base), self._shape(), self.masks))

    def _cells(self):
        return ["{" + ",".join(str(e) for e in self.base.canon_of(m)) + "}"
                for m in self.masks]


# -- built-in structures ---------------------------------------------------------


# Each built-in computes its index-level tables and goes through Structure.from_masks,
# which checks them like any other tables.


def _krasner():
    return Structure.from_masks("K", (0, 1), 0, 1, (0, 1), [[1, 2], [2, 3]], [[1, 1], [1, 2]])


def _signs():
    # index i holds the sign i - 1
    s = [[1 << j if i == 1 else 1 << i if j == 1 or i == j else 7 for j in range(3)]
         for i in range(3)]
    p = [[1 << (i - 1) * (j - 1) + 1 for j in range(3)] for i in range(3)]
    return Structure.from_masks("Q2", (-1, 0, 1), 1, 2, (2, 1, 0), s, p)


def _is_prime(p):
    return p >= 2 and all(map(p.__mod__, range(2, int(p ** 0.5) + 1)))


def _hp(p):
    if not _is_prime(p):
        raise StructureError(f"Hp needs a prime, got {p}")
    units = [1 << j for j in range(p)]
    s = [units] + [[u | b for u in units] for b in units[1:]]  # {i, j} off row 0
    for i in range(1, p):  # i + 0 = {i}, and i + i holds every element
        s[i][0], s[i][i] = units[i], (1 << p) - 1
    pr = [[units[i * j % p] for j in range(p)] for i in range(p)]
    els = tuple(range(p))
    return Structure.from_masks(f"H{p}", els, 0, 1, els, s, pr)


def _kaleidoscope(n):
    if n < 0:
        raise StructureError(f"Xn needs n >= 0, got {n}")
    if n == 0:
        raise StructureError("zero/one must belong to the carrier")
    # element a has index a + n

    def sum_cell(a, b):
        if b == -a:  # the interval from -|a| to |a|
            return ((1 << 2 * abs(a) + 1) - 1) << n - abs(a)
        return 1 << (a if abs(b) <= abs(a) else b) + n

    def prod_cell(a, b):
        if a == 0 or b == 0:
            return 1 << n
        return 1 << (1 if (a > 0) == (b > 0) else -1) * max(abs(a), abs(b)) + n

    els = tuple(range(-n, n + 1))
    s = [[sum_cell(a, b) for b in els] for a in els]
    p = [[prod_cell(a, b) for b in els] for a in els]
    return Structure.from_masks(f"X{n}", els, n, n + 1, tuple(range(2 * n, -1, -1)), s, p)


def strict_ring(n, name=None):
    """The ordinary ring of integers mod n, as a strict (singleton-valued) structure."""
    if n < 1:
        raise StructureError("modulus must be positive")
    s = [[1 << (a + b) % n for b in range(n)] for a in range(n)]
    p = [[1 << a * b % n for b in range(n)] for a in range(n)]
    return Structure.from_masks(name or f"Z{n}", tuple(range(n)), 0, 1 % n,
                                tuple(-a % n for a in range(n)), s, p)


def _fp(p):
    if not _is_prime(p):
        raise StructureError(f"Fp needs a prime, got {p}")
    return strict_ring(p, name=f"F{p}")


class TropicalStructure:
    """The tropical structure over the integers with a point at infinity.

    The carrier is lazy: membership, negation and the operation rules are
    available everywhere, but enumeration and exhaustive checks need an
    explicit finite window of integers.  window_cells is the one place where a
    window's cells are made; the axiom engine and characteristic read them.
    """

    name = "Trop"
    zero = INF  # additive neutral element
    one = 0     # multiplicative neutral element

    def __contains__(self, e):
        return e == INF or isinstance(e, int)

    def neg(self, a):
        self._check(a)
        return a

    def _check(self, a):
        if a not in self:
            raise StructureError(f"{a!r} is not a tropical element")

    def sum_contains(self, a, b, x):
        """Exact membership test for x in a+b, no window needed."""
        self._check(a), self._check(b), self._check(x)
        if a == INF:
            return x == b
        if b == INF:
            return x == a
        if a != b:
            return x == min(a, b)
        return x == INF or (isinstance(x, int) and x >= a)

    def prod_value(self, a, b):
        """The single member of a*b (min-plus convolution of points)."""
        self._check(a), self._check(b)
        if a == INF or b == INF:
            return INF
        return a + b

    def window_elements(self, lo, hi):
        if lo > 0 or hi < 0:
            raise StructureError(f"tropical window [{lo}, {hi}] does not hold the unit 0")
        return tuple(range(lo, hi + 1)) + (INF,)

    def window_cells(self, lo, hi):
        """The window [lo, hi] + {inf} as index cells: the one place where the
        rules are clipped to a window.

        Returns (elements, zero_i, one_i, neg, cell): neg[i] is the index of
        -elements[i], and cell(op, i, j), for op "sum" or "prod", is the mask of
        the members of elements[i] op elements[j], plus the inexact bit 1 << k
        (k the window's size) when the true result holds more: a sum a + a is
        clipped at hi, and a product that lands outside the window is that bit
        alone.
        """
        els = self.window_elements(lo, hi)
        k = len(els)  # the integer x has index x - lo, inf has index k - 1

        def cell(op, i, j):
            if op == "prod":
                v = self.prod_value(els[i], els[j])
                return 1 << k - 1 if v == INF else 1 << v - lo if lo <= v <= hi else 1 << k
            if i == k - 1 or j == k - 1 or i != j:  # inf is neutral, else the least wins
                return 1 << min(i, j)
            return (1 << k + 1) - (1 << i)  # a, ..., hi, inf and the inexact bit

        return els, k - 1, -lo, tuple(range(k)), cell

    def _no_window(self, *_args, **_kw):
        raise WindowRequired("tropical structure needs a window for this operation")

    sum_set = _no_window
    prod_set = _no_window
    # a finite structure's carrier and tables, which every entry point that takes
    # one reads first: spaces, Poly, Matrix, structure_is
    elements = _idx = zero_i = one_i = _kind_cache = property(_no_window)


def builtin(name, param=None):
    """Return a built-in structure by name.

    Names: K, Q2, Hp (prime param), Xn (n >= 0), Fp (prime param), Trop.
    """
    if name in _PLAIN:
        return _PLAIN[name]()
    if name not in _WITH_PARAM:
        raise StructureError(f"unknown builtin {name!r}")
    make, noun = _WITH_PARAM[name]
    if param is None:
        raise StructureError(f"{name} needs {noun} parameter")
    return make(param)


_PLAIN = {"K": _krasner, "Q2": _signs, "Trop": TropicalStructure}
_WITH_PARAM = {"Hp": (_hp, "a prime"), "Xn": (_kaleidoscope, "an integer"), "Fp": (_fp, "a prime")}
