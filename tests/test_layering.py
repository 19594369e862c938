"""Representations stay private to the module that owns them.

``PresentedRing`` writes v^-k as (v')^k with v*v' - 1 adjoined and decodes
on the way out, so no other module may name its encoding helpers or build a
primed partner name, and the Gröbner engine builds no primed variable at all.

``GaussianRational`` stores (a + b*i)/d as private integer fields, so no
module but ``scalars.py`` may name them; the rest reads ``re`` and ``im``.

``LaurentPoly._make`` builds a polynomial without validating its terms, so
only the arithmetic of ``poly.py`` and ``groebner.py``, which builds clean
terms, may name it.

Powers are raised by one square-and-multiply loop, ``scalars.power``; every
``__pow__`` calls it, so no other module halves an exponent (``n >>= 1``).

Every public function, class and method is named somewhere in ``src`` outside
its own definition and the package's re-exports: a name only tests call is
dead code, even if ``__init__.py`` re-exports it. The scan matches methods by
bare name, so the method names that several classes define are pinned: a new
one fails until each owner's caller is checked by hand.

Each model relation is written once, in its ``centralizer.MODELS`` row; every
other module reads the declared row, so no string outside a docstring repeats
a relation text.
"""

import ast
import re
from pathlib import Path

import pytest

from blowring.centralizer import MODELS
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


def _uses(tree):
    """Every name a module reads, imports or looks up as an attribute (not its definitions)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.asname or node.name


def _names(tree):
    yield from _uses(tree)
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
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


TRUSTED_CONSTRUCTOR_USERS = {"poly.py", "groebner.py"}


@pytest.mark.parametrize("name", sorted(p.name for p in SRC.glob("*.py")))
def test_trusted_constructor_stays_in_the_kernel(name):
    named = "_make" in set(_names(_tree(name)))
    assert named == (name in TRUSTED_CONSTRUCTOR_USERS), f"{name}: names LaurentPoly._make is {named}"


@pytest.mark.parametrize("name", sorted(p.name for p in SRC.glob("*.py") if p.name != "scalars.py"))
def test_powers_are_raised_in_scalars(name):
    shifts = [
        ast.unparse(node)
        for node in ast.walk(_tree(name))
        if isinstance(node, ast.AugAssign) and isinstance(node.op, ast.RShift)
    ]
    assert not shifts, f"{name} halves an exponent itself ({shifts}); raise powers with scalars.power"


# public names kept although no src module names them (ROADMAP item 10)
UNCALLED_ALLOWED = {
    # perfbench/tracer.py times groebner.eliminate on it; it goes when the span moves
    "Ideal.eliminate",
    # perfbench/tracer.py times rings.divide on it; the tests keep it as the engine cross-check
    "PresentedRing.divide",
    # perfbench/tracer.py times groebner.saturate on it; the tests pin lemma 1 of blowup.py with it
    "Ideal.saturate",
}


def _public_definitions(tree):
    """(qualified name, name) of each public top-level function, class and method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item.name


def test_every_public_name_has_a_caller_in_src():
    """A public name that src names nowhere but in its own definition is dead code."""
    trees = {p.name: _tree(p.name) for p in SRC.glob("*.py") if p.name != "__init__.py"}
    uses = {name for tree in trees.values() for name in _uses(tree)}
    uncalled = {
        qualified for tree in trees.values() for qualified, name in _public_definitions(tree) if name not in uses
    }
    assert uncalled == UNCALLED_ALLOWED, f"public names no src module calls: {sorted(uncalled)}"


# public method names defined on several classes: the scan above takes a call of any
# owner's method for a call of every owner's, so each owner's caller was checked by hand
SHARED_METHOD_NAMES = {"inverse", "is_zero", "key", "neg_key", "passed"}


def test_shared_method_names_are_pinned():
    owners: dict[str, set[str]] = {}
    for path in SRC.glob("*.py"):
        for qualified, name in _public_definitions(_tree(path.name)):
            if qualified != name:
                owners.setdefault(name, set()).add(qualified)
    shared = {name for name, where in owners.items() if len(where) > 1}
    assert shared == SHARED_METHOD_NAMES, f"check each owner's caller by hand: {sorted(shared ^ SHARED_METHOD_NAMES)}"


TESTS = SRC.parent.parent / "tests"
IMPORTING_MODULES = sorted(SRC.glob("*.py")) + sorted(TESTS.glob("*.py"))


def _unused_imports(tree):
    """Names a module imports but never reads; ``from __future__`` imports are exempt."""
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - read)


@pytest.mark.parametrize("path", IMPORTING_MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_every_import_is_read(path):
    unused = _unused_imports(ast.parse(path.read_text(), filename=path.name))
    assert not unused, f"{path.name} imports {unused} without reading them"


def _docstrings(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant):
                yield first.value


@pytest.mark.parametrize("name", sorted(p.name for p in SRC.glob("*.py") if p.name != "centralizer.py"))
def test_each_model_relation_is_declared_once(name):
    texts = {relation for _, _, relation, _, _ in MODELS.values() if relation}
    tree = _tree(name)
    docstrings = {id(node) for node in _docstrings(tree)}
    copies = [
        node.value
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and node.value in texts and id(node) not in docstrings
    ]
    assert not copies, f"{name} writes the declared relation {copies} a second time"
