"""Element tokens only at the IO edge.

Inside the library a subset of a carrier is a mask over element indices and an
element is an index; tokens are read and written by the file format, the
command line and the goldens.  The test walks the syntax tree of every module of
the package and fails on a call of one of Structure's token-level helpers, or on
a lookup of the index of zero or one through a token (`S._idx[S.zero]`,
`S.index(S.one)`: the structure holds them as `zero_i` and `one_i`), anywhere
but in the places listed in ALLOWED.
"""

import ast
from pathlib import Path

import mvla

TOKEN_CALLS = {"sum_set", "prod_set", "neg_set", "sum_mask", "prod_mask", "canon", "canon_of"}
EDGE_MODULES = {"fileformat", "cli", "goldens"}
# (class, function) pairs, None for any: Structure's own element-level API, the
# token-level witness oracle, a box's repr, an ideal's canonical form and the
# effective-root search, which takes a token
ALLOWED = {("Structure", None), (None, "recheck_witness"), ("Box", "_cells"),
           ("Ideal", "canon"), (None, "is_effective_root")}


def _token_uses(tree):
    """(line, class, function, what) for each token-level use in a module's tree,
    with its innermost class and outermost function."""
    found = []

    def visit(node, cls, fn):
        if isinstance(node, ast.ClassDef):
            cls = node.name
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and fn is None:
            fn = node.name
        if isinstance(node, ast.Call):
            name = getattr(node.func, "attr", getattr(node.func, "id", None))
            if name in TOKEN_CALLS:
                found.append((node.lineno, cls, fn, name))
            elif name == "index" and node.args and _zero_or_one(node.args[0]):
                found.append((node.lineno, cls, fn, "index of zero or one"))
        if (isinstance(node, ast.Subscript) and getattr(node.value, "attr", None) == "_idx"
                and _zero_or_one(node.slice)):
            found.append((node.lineno, cls, fn, "_idx of zero or one"))
        for child in ast.iter_child_nodes(node):
            visit(child, cls, fn)

    visit(tree, None, None)
    return found


def _zero_or_one(node):
    return isinstance(node, ast.Attribute) and node.attr in ("zero", "one")


def _allowed(cls, fn):
    return any((c is None or c == cls) and (f is None or f == fn) for c, f in ALLOWED)


def test_no_token_computation_outside_the_io_edge():
    bad, allowed = [], []
    for path in sorted(Path(mvla.__file__).parent.glob("*.py")):
        if path.stem in EDGE_MODULES:
            continue
        for line, cls, fn, what in _token_uses(ast.parse(path.read_text())):
            (allowed if _allowed(cls, fn) else bad).append(f"{path.name}:{line} {what}")
    assert not bad, bad
    assert allowed  # the walk reaches the element-level API


def test_the_walk_finds_each_kind_of_token_use():
    code = ("def f(S, a, b):\n"
            "    S.sum_set(a, b)\n"
            "    S._idx[S.zero]\n"
            "    S.index(S.one)\n"
            "    canon_of(a)\n"
            "class Ideal:\n"
            "    def canon(self):\n"
            "        return self.parent.canon(self.members)\n")
    uses = _token_uses(ast.parse(code))
    assert [(line, what) for line, _, _, what in uses] == [
        (2, "sum_set"), (3, "_idx of zero or one"), (4, "index of zero or one"),
        (5, "canon_of"), (8, "canon")]
    assert [_allowed(cls, fn) for _, cls, fn, _ in uses] == [False] * 4 + [True]
