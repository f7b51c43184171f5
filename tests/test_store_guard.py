"""The ring elements are slotted dataclasses that are not frozen, so that
building one is plain slot stores; they are immutable by contract, as a
Fraction is. This static guard holds that contract over the sources: no
module under src/ stores to a field of a ring element, or calls setattr or
__setattr__, outside the constructors that build one: __init__,
__post_init__ and FractionField._normalize."""

import ast
from pathlib import Path

SRC = Path(__file__).parents[1] / "src"

FIELDS = {"cnum", "cden", "prim", "num", "den", "rep", "modulus"}
CONSTRUCTORS = {"__init__", "__post_init__", "FractionField._normalize"}


def stores(source: str) -> list[tuple[int, str]]:
    """(line, what) for each field store, and each setattr or __setattr__
    call, outside the constructors; a nested function counts as its own."""
    found = []

    def visit(node, scope: str, allowed: bool) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
            allowed = (not isinstance(node, ast.ClassDef)
                       and (node.name in CONSTRUCTORS or scope in CONSTRUCTORS))
        elif isinstance(node, ast.Lambda):
            allowed = False
        if not allowed:
            if (isinstance(node, ast.Attribute) and node.attr in FIELDS
                    and isinstance(node.ctx, (ast.Store, ast.Del))):
                found.append((node.lineno, f"store to .{node.attr}"))
            elif isinstance(node, ast.Call):
                func = node.func
                if ((isinstance(func, ast.Name) and func.id == "setattr")
                        or (isinstance(func, ast.Attribute) and func.attr == "__setattr__")):
                    found.append((node.lineno, f"call of {ast.unparse(func)}"))
        for child in ast.iter_child_nodes(node):
            visit(child, scope, allowed)

    visit(ast.parse(source), "", False)
    return found


def test_no_module_stores_to_a_ring_element_outside_its_constructors():
    paths = sorted(SRC.rglob("*.py"))
    assert len(paths) > 10
    bad = [f"{path.relative_to(SRC)}:{line}: {what}"
           for path in paths for line, what in stores(path.read_text())]
    assert bad == []


def test_the_guard_finds_each_kind_of_store():
    source = '''
class FractionField:
    def _normalize(self, num, den):
        self.num = num
        self.den = den

class UniPoly:
    def __init__(self, cnum, cden, prim):
        self.cnum, self.cden, self.prim = cnum, cden, prim

def scale(p):
    p.prim = (1,)
    p.cnum += 1
    del p.cden
    q.num, (r.den, s) = 1, (2, 3)
    for t.rep in range(3):
        pass
    setattr(p, "prim", ())
    object.__setattr__(p, "modulus", 1)

class NFElement:
    def __post_init__(self):
        self.rep = self.rep
        def inner():
            self.modulus = 1
        return inner

class Other:
    def _normalize(self, num, den):
        self.num = num

p.rep = 0
f = lambda p: setattr(p, "rep", 0)
p.name = 0
'''
    assert stores(source) == [
        (12, "store to .prim"), (13, "store to .cnum"), (14, "store to .cden"),
        (15, "store to .num"), (15, "store to .den"), (16, "store to .rep"),
        (18, "call of setattr"), (19, "call of object.__setattr__"),
        (25, "store to .modulus"), (30, "store to .num"), (32, "store to .rep"),
        (33, "call of setattr"),
    ]
