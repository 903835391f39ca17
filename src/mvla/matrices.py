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
from .structures import Box, _bits


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
        self.base = base
        self.rows = rows
        self.cols = cols
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
        return cls(base, len(rows), len(rows[0]), tuple(itertools.chain(*rows)))

    @classmethod
    def zero(cls, base, rows, cols=None):
        cols = rows if cols is None else cols
        return cls.from_indices(base, rows, cols, (base.zero_i,) * (rows * cols))

    @classmethod
    def identity(cls, base, n):
        zero, one = base.zero_i, base.one_i
        return cls.from_indices(base, n, n, [one if i == j else zero
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
        self.rows = rows
        self.cols = cols

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


def _index_product(A, B):
    """The entry masks of AB for matrices A and B, row-major, one at a time.

    Each entry is the left fold of the setwise sum over the products of a row
    of A with a column of B, as in mmul, read off the product table directly.
    """
    n = _inner(A, B)
    S = A.base
    prod, a, b = S._prod, A.indices, B.indices
    cols = [b[j::B.cols] for j in range(B.cols)]
    return (S.sum_of([prod[x][y] for x, y in zip(a[i * n:(i + 1) * n], col)])
            for i in range(A.rows) for col in cols)


def _value_masks(S, tab, coeffs, target, memos):
    """Bit d is set iff the left fold tab[c_0][d_0] + tab[c_1][d_1] + ... meets target:
    S.sum_of's fold, as in _index_product, with vectors d numbered in product order as
    all_matrices yields them.  memos[target] maps (partial sum, coefficients left) to
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


def _vector(k, n, d):
    """The entries of vector number d of length n, in product order."""
    return tuple(d // k ** e % k for e in reversed(range(n)))


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


def _perm_sign(perm):
    inv = 0
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                inv += 1
    return -1 if inv & 1 else 1


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
    perms = [(perm, _perm_sign(perm) < 0) for perm in itertools.permutations(range(n))]
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
    S = A.base
    rows, cols = A.rows, A.cols
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
    of C_j = {c: delta_ij in A_row_i.c for all i}.  BlowupError counts the 2n*k^n
    vectors of the R_i and C_j, before they are built, and then each row visited on
    top of them.
    """
    if not A.is_square:
        raise StructureError("only square matrices can be inverted")
    S = A.base
    if not structure_is(S, "superfield"):
        raise StructureError(f"{S.name} is not a superfield")

    n, k, a, prod = A.rows, len(S), A.indices, S._prod
    delta = (1 << S.zero_i, 1 << S.one_i)
    # a superfield's product is commutative (axiom M4, checked above), so b.A_col_l
    # folds the same table as A_row_i.c, and R and C share one memo
    memos = {}

    def meet(lines):  # per i: the vectors v with delta_il in the fold of line l and v
        return [functools.reduce(int.__and__, (_value_masks(S, prod, line, delta[i == l], memos)
                                               for l, line in enumerate(lines))) for i in range(n)]

    work = 2 * n * k ** n  # the vectors of the R_i and C_j
    charge(work, "inverse search tables")
    R = meet([a[l::n] for l in range(n)])
    C = meet([a[l * n:(l + 1) * n] for l in range(n)])
    rows = [[_vector(k, n, r) for r in _bits(Ri)] for Ri in R]

    def pick(i, tops):  # rows i.. of B, given tops[j]: column j of rows 0..i-1, as a number
        nonlocal work
        span = k ** (n - 1 - i)  # the columns of B that share a prefix of i + 1 rows
        for row in rows[i]:
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
