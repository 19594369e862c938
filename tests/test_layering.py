"""Representations stay private to the module that owns them.

``PresentedRing`` writes v^-k as (v')^k with v*v' - 1 adjoined and decodes
on the way out, so no other module may name its encoding helpers or build a
primed partner name, and the Gröbner engine builds no primed variable at all.

``GaussianRational`` stores (a + b*i)/d as private integer fields, so no
module but ``scalars.py`` may name them; the rest reads ``re`` and ``im``.
"""

import ast
import re
from pathlib import Path

import pytest

from blowring.scalars import GaussianRational

SRC = Path(__file__).resolve().parent.parent / "src" / "blowring"

PRIVATE = {"_encode", "_decode", "_ambient"}
# helpers that used to spread the encoding over several modules
RETIRED = {
    "inv_name",
    "polynomialize",
    "unit_relations",
    "laurent_ambient_vars",
    "to_ambient",
    "ambient_vars",
    "ambient_ring",
    "split_for_ring",
}
PRIMED_NAME = re.compile(r"^[A-Za-z_][A-Za-z_0-9]*'+$")


def _names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, ast.alias):
            yield node.asname or node.name
        elif isinstance(node, ast.arg):
            yield node.arg


def _appended_primes(tree):
    """Expressions that append a prime to a name: ``v + "'"`` or ``f"{v}'"``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
            right = node.right
            if isinstance(right, ast.Constant) and isinstance(right.value, str) and right.value.startswith("'"):
                yield ast.unparse(node)
        elif isinstance(node, ast.JoinedStr):
            # f"{v}'" appends a prime; f"'{v}'" only quotes v
            parts = node.values
            for before, value, after in zip([None] + parts, parts, parts[1:]):
                quoted = isinstance(before, ast.Constant) and before.value.endswith("'")
                primed = isinstance(after, ast.Constant) and after.value.startswith("'")
                if isinstance(value, ast.FormattedValue) and primed and not quoted:
                    yield ast.unparse(node)


def _tree(name):
    return ast.parse((SRC / name).read_text(), filename=name)


MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != "rings.py")


@pytest.mark.parametrize("name", MODULES)
def test_encoding_stays_in_rings(name):
    tree = _tree(name)
    leaked = sorted((PRIVATE | RETIRED) & set(_names(tree)))
    assert not leaked, f"{name} uses {leaked}"
    primed = list(_appended_primes(tree))
    assert not primed, f"{name} builds partner names: {primed}"


def test_groebner_builds_no_primed_variable():
    tree = _tree("groebner.py")
    literals = [
        node.value
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, str) and PRIMED_NAME.match(node.value)
    ]
    assert not literals


def test_rings_owns_the_encoding():
    tree = _tree("rings.py")
    assert PRIVATE <= set(_names(tree))
    assert list(_appended_primes(tree))


SCALAR_FIELDS = set(GaussianRational.__slots__)


@pytest.mark.parametrize("name", sorted(p.name for p in SRC.glob("*.py") if p.name != "scalars.py"))
def test_scalar_fields_stay_in_scalars(name):
    leaked = sorted(SCALAR_FIELDS & set(_names(_tree(name))))
    assert not leaked, f"{name} names the private fields {leaked} of GaussianRational"


def test_scalar_fields_are_private():
    assert SCALAR_FIELDS and all(f.startswith("_") for f in SCALAR_FIELDS)
    assert SCALAR_FIELDS <= set(_names(_tree("scalars.py")))
