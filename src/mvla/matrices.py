"""Set-valued matrix algebra: boxes of matrices, determinants, inverses.

A matrix stores its entries as carrier indices.  Sums, scalar products and
matrix products make every result entry an independent choice, so the
canonical container is a box: one nonempty mask per entry, with the full
Cartesian product materialized only on demand (for determinants, membership
and golden output).
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

from .axioms import structure_is
from .errors import StructureError, charge
from .structures import Box, _bits, _setwise, _union


class Matrix:
    """A concrete matrix over a finite structure.

    The entries are stored row-major as carrier indices; `entries`, `entry`
    and `row` read them back as elements.
    """

    __slots__ = ("base", "rows", "cols", "indices")

    def __init__(self, base, rows, cols, entries):
        entries = tuple(entries)
        if rows < 1 or cols < 1:
            raise StructureError("matrix shape must be positive")
        if len(entries) != rows * cols:
            raise StructureError("entry count does not match the shape")
        for e in entries:
            if e not in base:
                raise StructureError(f"entry {e!r} not in {base.name}")
        self.base, self.rows, self.cols = base, rows, cols
        self.indices = tuple(map(base._idx.__getitem__, entries))

    @classmethod
    def from_indices(cls, base, rows, cols, indices):
        """The matrix whose row-major entries have the given carrier indices."""
        M = cls.__new__(cls)
        M.base, M.rows, M.cols, M.indices = base, rows, cols, tuple(indices)
        return M

    @classmethod
    def from_rows(cls, base, rows):
        rows = [tuple(r) for r in rows]
        if not rows or len(set(map(len, rows))) > 1:
            raise StructureError("matrix rows must be nonempty and of one length")
        return cls(base, len(rows), len(rows[0]), tuple(itertools.chain(*rows)))

    @classmethod
    def zero(cls, base, rows, cols=None):
        cols = rows if cols is None else cols
        return cls.from_indices(base, rows, cols, (base.zero_i,) * (rows * cols))

    @classmethod
    def identity(cls, base, n):
        return cls.from_indices(base, n, n, [base.one_i if i == j else base.zero_i
                                             for i in range(n) for j in range(n)])

    @classmethod
    def column(cls, base, entries):
        entries = tuple(entries)
        return cls(base, len(entries), 1, entries)

    @property
    def entries(self):
        return tuple(map(self.base.elements.__getitem__, self.indices))

    def entry(self, i, j):
        return self.base.elements[self.indices[i * self.cols + j]]

    def row(self, i):
        return self.entries[i * self.cols:(i + 1) * self.cols]

    @property
    def is_square(self):
        return self.rows == self.cols

    @property
    def is_upper_triangular(self):
        zero = self.base.zero_i
        return all(self.indices[i * self.cols + j] == zero
                   for i in range(self.rows) for j in range(min(i, self.cols)))

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return (self.base is other.base and self.rows == other.rows
                and self.cols == other.cols and self.indices == other.indices)

    def __hash__(self):
        return hash((self.rows, self.cols, self.indices))

    def __repr__(self):
        body = "; ".join(" ".join(str(e) for e in self.row(i)) for i in range(self.rows))
        return f"Matrix[{body}]"


class MatrixSet(Box):
    """A box of matrices: one mask per entry, row-major, with independent choices."""

    __slots__ = ("rows", "cols")
    kind = "matrix"

    def __init__(self, base, rows, cols, masks):
        super().__init__(base, masks)
        if len(self.masks) != rows * cols:
            raise StructureError("entry set count does not match the shape")
        self.rows, self.cols = rows, cols

    @classmethod
    def of(cls, m):
        if isinstance(m, MatrixSet):
            return m
        return cls(m.base, m.rows, m.cols, [1 << i for i in m.indices])

    def _like(self, masks):
        return MatrixSet(self.base, self.rows, self.cols, masks)

    def _shape(self):
        return (self.rows, self.cols)

    def entry_set(self, i, j):
        return self.base.set_of(self.masks[i * self.cols + j])

    def members(self):
        return tuple(Matrix.from_indices(self.base, self.rows, self.cols, combo)
                     for combo in self.choices())

    def __contains__(self, m):
        return isinstance(m, Matrix) and (m.rows, m.cols) == (self.rows, self.cols) and \
            super().__contains__(m.indices)

    def __repr__(self):
        cells = self._cells()
        body = "; ".join(" ".join(cells[i * self.cols:(i + 1) * self.cols])
                         for i in range(self.rows))
        return f"MatrixSet[{body}]"


def madd(a, b):
    """Entrywise set-valued sum."""
    return MatrixSet.of(a).add(MatrixSet.of(b))


def mneg(a):
    return MatrixSet.of(a).neg()


def mscale(lam, a):
    """Entrywise left scalar product."""
    return MatrixSet.of(a).scale(lam)


def _inner(A, B):
    """The inner dimension of the product AB, after checking that it is defined."""
    if A.base is not B.base:
        raise StructureError("matrix boxes over different structures")
    if A.cols != B.rows:
        raise StructureError("inner dimensions do not match")
    return A.cols


def _dot(S, coeffs, d):
    """The left fold of the setwise sum over the cells prod[c_j][d_j] (c nonempty)."""
    sums, prod, out = S._sum, S._prod, None
    for c, x in zip(coeffs, d):
        t = prod[c][x]
        if out is None or out & (out - 1) or t & (t - 1):
            out = t if out is None else _setwise(sums, out, t)
        else:  # one member each: one cell of the sum table
            out = sums[out.bit_length() - 1][t.bit_length() - 1]
    return out


def _index_product(A, B):
    """The entry masks of AB for matrices A and B, row-major, one at a time: each the _dot
    of a row of A with a column of B, as mmul folds it."""
    n, a, b, c = _inner(A, B), A.indices, B.indices, B.cols
    return itertools.starmap(functools.partial(_dot, A.base), itertools.product(
        [a[i:i + n] for i in range(0, len(a), n)], [b[j::c] for j in range(c)]))


_BITS = [int.from_bytes(bytes(255 * (v >> e & 1) for v in range(256)), "little") for e in range(8)]
_ONES = (1 << 2048) // 255  # every byte is 1; byte v of _BITS[e] is 255 iff v has bit e


def _lane_table(unit, values):
    """The bytes.translate table of v -> unit | the OR of values[e] over the bits e of v."""
    return functools.reduce(int.__or__, map(int.__and__, _BITS, map(_ONES.__mul__, values)),
                            unit * _ONES).to_bytes(256, "little")


def _value_masks(S, tab, coeffs, targets, memo):
    """One mask per target t: bit d is set iff the left fold tab[c_0][d_0] + tab[c_1][d_1]
    + ... meets t, as S.sum_of folds it, for the vectors d in product order.

    The partial sums of the k^j prefixes of d are byte lanes in product order, in
    ceil(k/8) planes of 8 carrier bits.  Adding tab[c][x] translates each plane by one
    table per output plane, the OR of the sums {i} + tab[c][x] (each a union of the sum
    table's row i) over the bits i, and the k results interleave.  One more
    translate, to b"0"/b"1", reads a target.  memo, one per tab, keeps the tables, and
    the lanes of the last call's proper prefixes, which calls in product order extend."""
    k, sums, n, chain = len(S), S._sum, len(coeffs), memo.setdefault("chain", [])
    shifts, j = range(0, k, 8), min(len(chain), n - 1)
    while j and chain[j - 1][0] != coeffs[:j]:
        j -= 1
    planes = chain[j - 1][1] if j else [bytearray(t >> s & 255 for t in tab[coeffs[0]])
                                        for s in shifts]
    for j in range(max(j, 1), n):
        chain[j - 1:], out = [(coeffs[:j], planes)], [bytearray(k * len(planes[0])) for _ in shifts]
        for x, t in enumerate(tab[coeffs[j]]):
            if t not in memo:  # (p, q, table): plane p of a partial sum into plane q
                memo[t] = [(p, q, _lane_table(0, [_union(sums[s + e], t) >> r & 255
                                                  for e in range(min(8, k - s))]))
                           for q, r in enumerate(shifts) for p, s in enumerate(shifts)]
            for p, q, table in memo[t]:  # p > 0: OR onto what the planes before wrote
                part = planes[p].translate(table)
                out[q][x::k] = (int.from_bytes(out[q][x::k], "little") | int.from_bytes(
                    part, "little")).to_bytes(len(part), "little") if p else part
        planes = out
    for t in targets:
        if ("hit", t) not in memo:
            memo["hit", t] = [_lane_table(48, [t >> s + e & 1 for e in range(min(8, k - s))])
                              for s in shifts]
    return [functools.reduce(int.__or__, [int(p.translate(h)[::-1], 2) for p, h
                                          in zip(planes, memo["hit", t])]) for t in targets]


def _vector(k, n, d):
    """The entries of vector number d of length n, in product order."""
    return tuple(d // k ** e % k for e in reversed(range(n)))


def _rank(k, entries):
    """The number of an index tuple in product order, first position highest: _vector's."""
    return functools.reduce(lambda d, e: d * k + e, entries, 0)


def mmul(a, b):
    """Matrix product; every result entry ranges over its sum of products.  It is
    charged with its entry products, rows x inner x cols."""
    A, B = MatrixSet.of(a), MatrixSet.of(b)
    n = _inner(A, B)
    charge(A.rows * n * B.cols, "matrix product entry products")
    S = A.base
    cols = [B.masks[j::B.cols] for j in range(B.cols)]
    return MatrixSet(S, A.rows, B.cols,
                     [S.sum_of(map(S.mul_masks, A.masks[i * n:(i + 1) * n], col))
                      for i in range(A.rows) for col in cols])


# -- determinant -------------------------------------------------------------------


def det(a):
    """Permutation-expansion determinant; over a box, the union over members.

    Terms are accumulated in canonical order (identity permutation first,
    then lexicographic); the multivalued sum does not depend on the order, so
    the fixed order only pins down determinism.  The expansion is charged
    with its terms, n! per member.
    """
    A = MatrixSet.of(a)
    if A.rows != A.cols:
        raise StructureError("determinant needs a square matrix")
    n = A.rows
    charge(A.size * math.factorial(n), "determinant terms")
    S = A.base
    perms = [(perm, sum(x > y for x, y in itertools.combinations(perm, 2)) & 1)  # odd?
             for perm in itertools.permutations(range(n))]
    out = 0
    for M in A.members():
        bits = [1 << i for i in M.indices]
        terms = []
        for perm, odd in perms:
            term = S.prod_of(bits[j * n + perm[j]] for j in range(n))
            terms.append(S.neg_mask(term) if odd else term)
        out |= S.sum_of(terms)
    return S.set_of(out)


# -- elementary operations -----------------------------------------------------------


@dataclass(frozen=True)
class ElementaryOp:
    """swap(i,j), scale(i, lam != 0) or add(i,j) meaning row i += row j."""

    kind: str
    i: int
    j: int = None
    lam: object = None

    @classmethod
    def swap(cls, i, j):
        return cls("swap", i, j)

    @classmethod
    def scale(cls, i, lam):
        return cls("scale", i, lam=lam)

    @classmethod
    def add(cls, i, j):
        return cls("add", i, j)


def elementary(op, a):
    """Apply one elementary row operation; add operations branch entrywise."""
    A = MatrixSet.of(a)
    S, rows, cols = A.base, A.rows, A.cols
    if op.kind not in ("swap", "scale", "add"):
        raise StructureError(f"unknown elementary operation {op.kind!r}")
    if not 0 <= op.i < rows or (op.j is not None and not 0 <= op.j < rows):
        raise StructureError("row index out of range")
    if op.kind != "scale" and op.j is None:
        raise StructureError(f"{op.kind} needs a second row")

    masks = list(A.masks)
    row_i = slice(op.i * cols, (op.i + 1) * cols)
    if op.kind == "swap":
        row_j = slice(op.j * cols, (op.j + 1) * cols)
        masks[row_i], masks[row_j] = masks[row_j], masks[row_i]
    elif op.kind == "scale":
        if op.lam is None or op.lam == S.zero:
            raise StructureError("scale needs a nonzero element")
        lam_bit = 1 << S.index(op.lam)
        masks[row_i] = [S.mul_masks(lam_bit, m) for m in masks[row_i]]
    else:
        masks[row_i] = map(S.add_masks, masks[row_i], masks[op.j * cols:(op.j + 1) * cols])
    return MatrixSet(S, rows, cols, masks)


# -- invertibility -----------------------------------------------------------------


def is_inverse_pair(A, B):
    """1 in AB and 1 in BA, for matrices A and B; each product stops at its
    first entry that misses the identity's."""
    if not (isinstance(A, Matrix) and isinstance(B, Matrix)):
        raise StructureError("an inverse pair is a pair of matrices")
    n = A.rows
    ident = Matrix.identity(A.base, n).indices

    def holds(product):
        return all(m >> e & 1 for m, e in zip(product, ident))

    AB = _index_product(A, B)
    return B.cols == n and holds(AB) and A.cols == n and holds(_index_product(B, A))


def find_inverse(A):
    """A two-sided inverse of A, or None when A has none: the first B of a full scan
    in row-major canonical order.

    Rows of B are chosen one at a time, row i from R_i = {b: delta_il in b.A_col_l
    for all l}; a prefix is dropped as soon as some column j of it starts no member
    of C_j = {c: delta_ij in A_row_i.c for all i}.  Each line of A is folded once, for
    delta = 0 and 1, and R_i is built when the search first reaches row i.  BlowupError
    counts the 2n*k^n vectors of the R_i and C_j before any fold, then each row visited.
    """
    if not A.is_square:
        raise StructureError("only square matrices can be inverted")
    S = A.base
    if not structure_is(S, "superfield"):
        raise StructureError(f"{S.name} is not a superfield")

    n, k, a, prod = A.rows, len(S), A.indices, S._prod
    delta, memo = (1 << S.zero_i, 1 << S.one_i), {}
    work = 2 * n * k ** n  # the vectors of the R_i and C_j
    charge(work, "inverse search tables")
    # a superfield's product is commutative (axiom M4, checked above), so b.A_col_l
    # folds the same table as A_row_i.c, and every line shares one memo
    by_col = [_value_masks(S, prod, a[l::n], delta, memo) for l in range(n)]
    by_row = [_value_masks(S, prod, a[l * n:(l + 1) * n], delta, memo) for l in range(n)]

    def meet(lines, i):  # the vectors v with delta_il in the fold of line l and v, for all l
        return functools.reduce(int.__and__, (masks[i == l] for l, masks in enumerate(lines)))

    C, R = [meet(by_row, j) for j in range(n)], {}  # R[i]: the rows of R_i, in product order

    def pick(i, tops):  # rows i.. of B, given tops[j]: column j of rows 0..i-1, as a number
        nonlocal work
        span = k ** (n - 1 - i)  # the columns of B that share a prefix of i + 1 rows
        if i not in R:
            R[i] = [_vector(k, n, r) for r in _bits(meet(by_col, i))]
        for row in R[i]:
            work += 1
            charge(work, "inverse search rows")
            here = [t * k + x for t, x in zip(tops, row)]
            if all(C[j] >> v * span & (1 << span) - 1 for j, v in enumerate(here)):
                got = () if i == n - 1 else pick(i + 1, here)
                if got is not None:
                    return (row,) + got
        return None

    got = pick(0, [0] * n)
    return None if got is None else Matrix.from_indices(S, n, n, itertools.chain(*got))


def all_matrices(base, rows, cols):
    """Every matrix of the given shape, in canonical order."""
    for combo in itertools.product(range(len(base)), repeat=rows * cols):
        yield Matrix.from_indices(base, rows, cols, combo)
