"""Line-oriented text formats: structure files, matrix files, system files.

Structure files are UTF-8, whitespace-tokenized, with # comments:

    structure <name>
    elements <e1> <e2> ...
    zero <e>
    one <e>
    neg <e> -> <e>            one line per element
    symmetric                 optional: reversed pairs auto-fill from here on
    sum <a> <b> -> <c1> ...
    prod <a> <b> -> <c1> ...
    end

Canonical serialization writes full tables in carrier order with sorted
result sets, so parse then serialize is the identity on canonical files.
"""

from __future__ import annotations

import re

from .errors import ParseError, StructureError
from .linsys import LinearSystem
from .matrices import Matrix
from .polys import Poly
from .structures import Structure, _bits

_INT = re.compile(r"^-?[0-9]+$")


def token_to_element(tok):
    return int(tok) if _INT.match(tok) else tok


def element_token(e):
    if isinstance(e, tuple):
        return ",".join(element_token(x) for x in e)
    return str(e)


def format_set(S, elems):
    """A subset of S's carrier as {t ...}, in carrier order."""
    return "{" + " ".join(element_token(e) for e in S.canon(elems)) + "}"


def format_matrix(M):
    """A matrix's entries in row-major order."""
    return " ".join(element_token(e) for e in M.entries)


def format_box(B):
    """A matrix box's entry sets, row by row, the rows separated by "; "."""
    return "; ".join(" ".join(format_set(B.base, B.entry_set(i, j))
                              for j in range(B.cols)) for i in range(B.rows))


def _lines(text):
    for no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield no, line.split()


def parse_structure(text):
    """Parse one structure file; every diagnostic carries its line number."""
    name = None
    elements = None
    units = {}  # "zero" and "one": the element of each
    neg = {}
    sum_table = {}
    prod_table = {}
    symmetric = False
    ended = False
    last_line = 0

    for no, toks in _lines(text):
        last_line = no
        if ended:
            raise ParseError("content after end", no)
        head, rest = toks[0], toks[1:]
        if head == "structure":
            if name is not None:
                raise ParseError("duplicate structure line", no)
            if len(rest) != 1:
                raise ParseError("structure needs exactly one name", no)
            name = rest[0]
        elif head == "elements":
            if elements is not None:
                raise ParseError("duplicate elements line", no)
            if not rest:
                raise ParseError("elements line is empty", no)
            elements = tuple(token_to_element(t) for t in rest)
            if len(set(elements)) != len(elements):
                raise ParseError("duplicate element token", no)
        elif head in ("zero", "one"):
            if head in units:
                raise ParseError(f"duplicate {head} line", no)
            if len(rest) != 1:
                raise ParseError(f"{head} needs exactly one token", no)
            units[head] = token_to_element(rest[0])
        elif head == "neg":
            if len(rest) != 3 or rest[1] != "->":
                raise ParseError("neg syntax: neg <e> -> <e>", no)
            src = token_to_element(rest[0])
            if src in neg:
                raise ParseError(f"duplicate neg line for {rest[0]}", no)
            neg[src] = token_to_element(rest[2])
        elif head == "symmetric":
            if rest:
                raise ParseError("symmetric takes no arguments", no)
            symmetric = True
        elif head in ("sum", "prod"):
            if len(rest) < 4 or rest[2] != "->":
                raise ParseError(f"{head} syntax: {head} <a> <b> -> <c1> ...", no)
            a, b = token_to_element(rest[0]), token_to_element(rest[1])
            res = frozenset(token_to_element(t) for t in rest[3:])
            if not res:
                raise ParseError(f"{head}({rest[0]},{rest[1]}) has empty result", no)
            table = sum_table if head == "sum" else prod_table
            if (a, b) in table and table[(a, b)] != res:
                raise ParseError(f"conflicting {head} entry for ({rest[0]},{rest[1]})", no)
            table[(a, b)] = res
        elif head == "end":
            if rest:
                raise ParseError("end takes no arguments", no)
            ended = True
        else:
            raise ParseError(f"unknown directive {head!r}", no)

    if not ended:
        raise ParseError("missing end line", last_line or 1)
    if name is None:
        raise ParseError("missing structure line", 1)
    if elements is None:
        raise ParseError("missing elements line", 1)
    if len(units) < 2:
        raise ParseError("missing zero or one line", 1)

    if symmetric:
        for table in (sum_table, prod_table):
            for (a, b), res in list(table.items()):
                table.setdefault((b, a), res)

    try:
        return Structure(name, elements, units["zero"], units["one"], neg, sum_table, prod_table)
    except StructureError as exc:
        raise ParseError(str(exc), last_line) from exc


def serialize_structure(S):
    """Canonical file form: full tables in carrier order, results sorted."""
    tok = [element_token(e) for e in S.elements]
    out = [f"structure {S.name}", "elements " + " ".join(tok),
           f"zero {tok[S.zero_i]}", f"one {tok[S.one_i]}"]
    out += [f"neg {a} -> {tok[n]}" for a, n in zip(tok, S._neg)]
    for label, table in (("sum", S._sum), ("prod", S._prod)):
        for a, row in zip(tok, table):
            out += [f"{label} {a} {b} -> " + " ".join(map(tok.__getitem__, _bits(m)))
                    for b, m in zip(tok, row)]
    out.append("end")
    return "\n".join(out) + "\n"


def parse_matrix(text, S):
    """Matrix file: first line `rows cols`, then row-major element tokens."""
    return _matrix_from_lines(_lines(text), S)


def _matrix_from_lines(lines, S):
    """A matrix block from (line number, tokens) pairs; diagnostics keep the numbers."""
    rows = cols = None
    entries = []
    for no, toks in lines:
        if rows is None:
            if len(toks) != 2 or not all(_INT.match(t) and int(t) > 0 for t in toks):
                raise ParseError("first line must be: <rows> <cols>", no)
            rows, cols = int(toks[0]), int(toks[1])
            continue
        for t in toks:
            e = token_to_element(t)
            if e not in S:
                raise ParseError(f"unknown element token {t!r}", no)
            entries.append(e)
    if rows is None:
        raise ParseError("empty matrix file", 1)
    if len(entries) != rows * cols:
        raise ParseError(f"expected {rows * cols} entries, found {len(entries)}",
                         no if entries else 1)
    return Matrix(S, rows, cols, entries)


def serialize_matrix(M):
    out = [f"{M.rows} {M.cols}"]
    for i in range(M.rows):
        out.append(" ".join(element_token(e) for e in M.row(i)))
    return "\n".join(out) + "\n"


def parse_system(text, S):
    """System file: a matrix block, then one `rhs {a b c}` line per row."""
    matrix_lines = []
    rhs = []
    for no, toks in _lines(text):
        if toks[0] == "rhs":
            body = " ".join(toks[1:])
            m = re.match(r"^\{(.*)\}$", body)
            if not m:
                raise ParseError("rhs syntax: rhs { <e1> <e2> ... }", no)
            members = frozenset(token_to_element(t) for t in m.group(1).split())
            if not members:
                raise ParseError("empty rhs set", no)
            for e in members:
                if e not in S:
                    raise ParseError(f"unknown rhs element {e!r}", no)
            rhs.append(members)
        else:
            if rhs:
                raise ParseError("matrix rows after rhs lines", no)
            matrix_lines.append((no, toks))
    A = _matrix_from_lines(matrix_lines, S)
    if len(rhs) != A.rows:
        raise ParseError(f"expected {A.rows} rhs lines, found {len(rhs)}", 1)
    return LinearSystem.of(A, rhs)


def poly_from_text(text, S):
    """Coefficients low-to-high, comma separated (semicolons for tuple tokens)."""
    sep = ";" if ";" in text else ","
    coeffs = []
    for part in text.split(sep):
        part = part.strip()
        if not part:
            raise ParseError(f"empty coefficient in {text!r}")
        e = token_to_element(part)
        if e not in S:
            raise ParseError(f"unknown coefficient token {part!r}")
        coeffs.append(e)
    return Poly(S, coeffs)


def poly_to_text(f):
    if f.is_zero:
        return element_token(f.base.zero)
    return ",".join(element_token(c) for c in f.coeffs)
