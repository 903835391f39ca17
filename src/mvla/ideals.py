"""Characteristic, ideals, ideal classification and finite quotients."""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import CongruenceError, StructureError, WindowRequired, charge
from .structures import Structure, TropicalStructure, _bits, _union


def characteristic(S, window=None):
    """Least n >= 1 with 0 in the n-fold sum of ones; 0 when no such n exists.

    Each n-fold sum is a mask, the union of the cells a + 1 over the members a
    of the one before, so the masks repeat within 2^k steps (k the carrier
    size): a repeat without hitting 0 proves characteristic zero.  A lazy
    structure is searched on a window, whose k cells a + 1 come from
    TropicalStructure.window_cells and are charged before they are read.
    Every window holds the one, the integer 0, and 0 + 0 holds inf, the zero,
    so every window answers 2, before a clipped cell could matter.
    """
    if isinstance(S, TropicalStructure):
        if window is None:
            raise WindowRequired("characteristic of a lazy structure needs a window")
        els, zero_i, one_i, _, cell = S.window_cells(*window)
        charge(len(els), "window characteristic cells")
        ones = [cell("sum", i, one_i) & ~(1 << len(els)) for i in range(len(els))]  # exact
    else:
        els, zero_i, one_i = S.elements, S.zero_i, S.one_i
        ones = [row[one_i] for row in S._sum]
    mask, seen, n = 1 << one_i, set(), 1
    while not mask >> zero_i & 1:
        seen.add(mask)
        mask = _union(ones, mask)
        if mask in seen:
            return 0
        n += 1
    return n


@dataclass(frozen=True)
class Ideal:
    parent: Structure
    members: frozenset

    def __contains__(self, e):
        return e in self.members

    def canon(self):
        return self.parent.canon(self.members)


def _closed(S, mask):
    """Whether a carrier mask is closed under the set sum and carrier multiplication."""
    return (S.add_masks(mask, mask) | mask) == mask and \
        (S.mul_masks((1 << len(S)) - 1, mask) | mask) == mask


def _closure(S, mask):
    """The least closed mask holding mask, by fixed-point rounds."""
    while not _closed(S, mask):
        mask |= S.add_masks(mask, mask) | S.mul_masks((1 << len(S)) - 1, mask)
    return mask


def is_ideal(S, members):
    """Nonempty, closed under the set sum and under carrier multiplication."""
    m = S.mask_of(members)
    return m != 0 and _closed(S, m)


def principal_ideal(S, gens):
    """Least ideal containing gens, by fixed-point closure."""
    return Ideal(S, S.set_of(_closure(S, S.mask_of(gens) | 1 << S.zero_i)))


@dataclass(frozen=True)
class IdealFlags:
    is_ideal: bool
    prime: bool | None
    strongly_prime: bool | None
    maximal: bool | None


def classify_ideal(S, ideal):
    """Exhaustive prime / strongly prime / maximal flags for a candidate ideal."""
    members = ideal.members if isinstance(ideal, Ideal) else frozenset(ideal)
    imask = S.mask_of(members)
    if not (imask and _closed(S, imask)):
        return IdealFlags(False, None, None, None)
    full = (1 << len(S)) - 1
    one_in = imask >> S.one_i & 1

    prime = strongly = not one_in
    if not one_in:
        for a, row in enumerate(S._prod):
            if imask >> a & 1:
                continue
            for b, pm in enumerate(row):
                if not imask >> b & 1:
                    if pm & ~imask == 0:
                        prime = False
                    if pm & imask:
                        strongly = False
            if not prime and not strongly:
                break

    maximal = imask != full
    if maximal:
        for x in _bits(full & ~imask):
            grown = _closure(S, imask | 1 << x | 1 << S.zero_i)
            if grown != full and grown != imask:
                maximal = False
                break
    return IdealFlags(True, prime, strongly, maximal)


def quotient(S, ideal):
    """Quotient of a finite structure by an ideal, on canonical representatives.

    Elements x, y are identified when the sets x+I and y+I coincide; the
    induced operations are re-checked for well-definedness over every pair of
    representatives, and a CongruenceError names the witnesses when the
    candidate relation is not a congruence.
    """
    members = ideal.members if isinstance(ideal, Ideal) else frozenset(ideal)
    if not is_ideal(S, members):
        raise StructureError("quotient requires an ideal")
    imask = S.mask_of(members)

    # classes are numbered in the order of their least members, the representatives
    els = S.elements
    k = len(els)
    cosets = [S.add_masks(1 << i, imask) for i in range(k)]
    keys = list(dict.fromkeys(cosets))
    reps = [cosets.index(c) for c in keys]
    cls = [keys.index(c) for c in cosets]

    def image(mask):
        """The mask of the classes of the members of a carrier mask."""
        return sum({1 << cls[z] for z in _bits(mask)})

    def tokens(mask):
        return tuple(sorted(str(els[reps[c]]) for c in _bits(mask)))

    def induced(tab, label):
        out = [[image(tab[ra][rb]) for rb in reps] for ra in reps]
        # class by class, then member by member: the first mismatch is the witness
        for a, b in sorted(itertools.product(range(k), repeat=2),
                           key=lambda ab: (cls[ab[0]], cls[ab[1]], ab)):
            got, expected = image(tab[a][b]), out[cls[a]][cls[b]]
            if got != expected:
                ra, rb = els[reps[cls[a]]], els[reps[cls[b]]]
                raise CongruenceError(
                    f"{label} not well defined on classes of {ra!r}, {rb!r}",
                    witnesses=[(label, ra, rb, els[a], els[b], tokens(got), tokens(expected))])
        return out

    sum_tab, prod_tab = induced(S._sum, "sum"), induced(S._prod, "prod")
    neg = []
    for c, r in enumerate(reps):
        images = sum({1 << cls[S._neg[a]] for a in range(k) if cls[a] == c})
        if images & (images - 1):
            raise CongruenceError(f"negation not well defined on class of {els[r]!r}",
                                  witnesses=[("neg", els[r], tokens(images))])
        neg.append(images.bit_length() - 1)

    return Structure.from_masks(f"{S.name}/I", (els[r] for r in reps), cls[S.zero_i],
                                cls[S.one_i], neg, sum_tab, prod_tab)


def all_ideals(S):
    """Every ideal of a small finite structure, by subset scan.  The 2^(k-1)
    candidate subsets (every one holds 0) are charged before the scan."""
    charge(2 ** (len(S) - 1), "ideal candidate subsets")
    rest = [1 << i for i in range(len(S)) if i != S.zero_i]
    masks = (sum(extra, 1 << S.zero_i) for r in range(len(rest) + 1)
             for extra in itertools.combinations(rest, r))
    return [Ideal(S, S.set_of(m)) for m in masks if _closed(S, m)]
