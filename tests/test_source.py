"""Static checks on the package sources, parsed with ast.

The package is stdlib-only, and no module keeps an import it never uses;
``__init__.py`` is exempt from the second rule since it imports in order
to re-export.  Only ``cli.py`` imports ``argparse`` and no module imports
``cli``, so the battery and the library stay free of the command line.
No source line is longer than 99 columns.  Among ``TermMap`` and its
subclasses, the container methods, the linear structure, the text form and
the Dirac-type methods are each defined in one class body, and ``__mul__`` in
two: ``TermMap``'s dispatch and ``Multivector``'s geometric product.
``merge_terms`` (the one rule that sums like terms) is defined once, and no
class of the package assigns ``__hash__`` (defining ``__eq__`` already makes
a class unhashable).  In ``steering.py`` one function calls
``NumeratorForm.combine``: every constructor builds its conjugate side
through that one rule, and one line, in ``SteeringSymbol.__new__``, allocates
a symbol: equal symbols are one object, which identity equality relies on.
In ``verify.py`` one function, ``residual``, makes every Dirac pass and every
combine: each operator is a preset of its terms.
Each rule a polynomial or expression constructor checks is written in one
function body: the polynomial decoder checks through the constructor's
``_checked`` and the expression decoder builds through its constructor; package-wide,
one function checks the side of a Dirac-type operator, one names
``MIN_GENERATORS`` and one words an integer bound.  Every name the package
root exports is used by the package, the benchmark or the tools, with two
named exemptions.  No module but ``polynomials.py`` names ``_numerators`` or
``_den``, so the layout of a polynomial's integer form stays in one module.
Only ``TermMap._ordered`` reads ``_order``, the canonical key order: terms are
stored in merge order, and only the writers sort them.
"""

import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "cliffsteer"
MODULES = sorted(PACKAGE.glob("*.py"))


def _tree(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _imports(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node


def test_sources_found():
    assert {p.name for p in MODULES} >= {"__init__.py", "algebra.py", "cli.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_imports_are_standard_library(path):
    outside = []
    for node in _imports(_tree(path)):
        if isinstance(node, ast.ImportFrom):
            if node.level:  # relative: inside the package
                continue
            names = [node.module]
        else:
            names = [alias.name for alias in node.names]
        outside += [n for n in names if n.split(".")[0] not in sys.stdlib_module_names]
    assert not outside, f"{path.name} imports from outside the standard library: {outside}"


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.name != "__init__.py"], ids=lambda p: p.name
)
def test_no_unused_imports(path):
    tree = _tree(path)
    bound = {}
    for node in _imports(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            bound[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    unused = sorted((line, name) for name, line in bound.items() if name not in used)
    assert not unused, f"{path.name} never uses imported names (line, name): {unused}"


def test_only_cli_imports_argparse_and_no_module_imports_cli():
    for path in MODULES:
        for node in _imports(_tree(path)):
            prefix = f"{node.module or ''}." if isinstance(node, ast.ImportFrom) else ""
            parts = {part for alias in node.names for part in (prefix + alias.name).split(".")}
            assert "cli" not in parts, f"{path.name} imports the cli module (line {node.lineno})"
            if path.name != "cli.py":
                assert "argparse" not in parts, f"{path.name} imports argparse"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_lines_fit_in_99_columns(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    long = [(n, len(line)) for n, line in enumerate(lines, 1) if len(line) > 99]
    assert not long, f"{path.name} has lines over 99 columns (line, length): {long}"


SHARED_MEMBERS = (
    "items",
    "__len__",
    "__bool__",
    "_require_same_m",
    "__repr__",
    "__str__",
    "__eq__",
    "__add__",
    "__radd__",
    "__neg__",
    "__sub__",
    "__rsub__",
    "__rmul__",
    "__truediv__",
    "_scale",
    "cr_left",
    "cr_right",
    "hypercomplex_d",
)


def _bound_names(node):
    """The names a statement defines: a def's name or the plain names an
    assignment binds, such as ``__radd__ = __add__``."""
    targets = getattr(node, "targets", None) or [getattr(node, "target", None)]
    names = [t.id for t in targets if isinstance(t, ast.Name)]
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        names.append(node.name)
    return names


def _term_map_classes(classes):
    """The (module name, class node) pairs of ``TermMap`` and its subclasses."""
    names = {"TermMap"}
    while True:
        more = {
            cls.name
            for _, cls in classes
            if any(isinstance(b, ast.Name) and b.id in names for b in cls.bases)
        }
        if more <= names:
            return [(where, cls) for where, cls in classes if cls.name in names]
        names |= more


def test_shared_members_defined_once_and_no_hash_assigned():
    classes = [
        (path.name, cls)
        for path in MODULES
        for cls in ast.walk(_tree(path))
        if isinstance(cls, ast.ClassDef)
    ]
    owners = {name: [] for name in SHARED_MEMBERS + ("__mul__",)}
    for where, cls in _term_map_classes(classes):
        for node in cls.body:
            for name in _bound_names(node):
                if name in owners:
                    owners[name].append(f"{where}:{cls.name}")
    products = owners.pop("__mul__")
    repeated = {name: where for name, where in owners.items() if len(where) != 1}
    assert not repeated, f"members not defined in exactly one class: {repeated}"
    assert sorted(products) == ["algebra.py:Multivector", "algebra.py:TermMap"], products
    hash_lines = [
        f"{where}:{node.lineno}"
        for where, cls in classes
        for node in cls.body
        if "__hash__" in _bound_names(node)
    ]
    assert not hash_lines, f"classes assign __hash__ at {hash_lines}"


def test_merge_terms_defined_once():
    where = [
        f"{path.name}:{node.lineno}"
        for path in MODULES
        for node in ast.walk(_tree(path))
        if "merge_terms" in _bound_names(node)
    ]
    assert len(where) == 1 and where[0].startswith("algebra.py:"), where


def test_steering_combines_forms_in_one_function():
    tree = _tree(PACKAGE / "steering.py")
    callers = set()
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(func):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "combine"
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "NumeratorForm"
            ):
                callers.add(func.name)
    assert len(callers) == 1, callers


def test_verify_makes_every_residual_in_one_function():
    # each operator is a preset of terms for verify.residual, the one function
    # that applies a Dirac pass or sums the terms
    callers = set()
    for func in ast.walk(_tree(PACKAGE / "verify.py")):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(func):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and (
                node.func.attr == "dirac"
                or node.func.attr == "combine" and ast.unparse(node.func.value) == "NumeratorForm"
            ):
                callers.add(func.name)
    assert callers == {"residual"}, callers


def _owned(tree, owner=""):
    """(enclosing class.function, node) of each node inside ``tree``."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _owned(node, f"{owner}.{node.name}".lstrip("."))
            continue
        yield owner, node
        yield from _owned(node, owner)


def _allocations(tree):
    """(enclosing class.function, line) of each call of a ``__new__`` attribute
    in ``tree``: ``object.__new__(cls)``, ``super().__new__(cls)`` and the like."""
    for owner, node in _owned(tree):
        if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "__new__":
            yield owner, node.lineno


def test_steering_symbols_are_allocated_in_one_place():
    # every symbol comes from SteeringSymbol.__new__, which returns the one
    # object of its value; a second allocation would make equal symbols unequal
    made = list(_allocations(_tree(PACKAGE / "steering.py")))
    assert [owner for owner, _ in made] == ["SteeringSymbol.__new__"], made
    elsewhere = [
        f"{path.name}:{node.lineno}"
        for path in MODULES
        if path.name != "steering.py"
        for node in ast.walk(_tree(path))
        if isinstance(node, ast.Call)
        and getattr(node.func, "attr", None) == "__new__"
        and "SteeringSymbol" in ast.unparse(node)
    ]
    assert not elsewhere, f"SteeringSymbol allocated outside steering.py at {elsewhere}"


def test_only_the_writer_helper_reads_the_canonical_order():
    # terms stay in merge order, and TermMap._ordered sorts them for str and
    # to_obj; a second reader of _order would be a sort on another path
    readers = [
        (f"{path.name}:{owner}", node.lineno)
        for path in MODULES
        for owner, node in _owned(_tree(path))
        if isinstance(node, (ast.Attribute, ast.Name))
        and "_order" in (getattr(node, "attr", None), getattr(node, "id", None))
        and isinstance(node.ctx, ast.Load)
    ]
    assert [where for where, _ in readers] == ["algebra.py:TermMap._ordered"], readers


# (module, rule) of each rule checked in one function body: a message text, or
# a constant that only the one function checking the rule names; module None is
# the whole package.  A decoder builds through the constructor rather than
# checking a rule again, the Dirac link alone checks the side, generator_count
# alone checks a generator count and integer_in alone words an integer bound
SINGLE_CHECKS = [
    ("polynomials.py", "var_scope must be a subset"),
    ("polynomials.py", "nonnegative exponents"),
    ("polynomials.py", "outside the declared variable scope"),
    ("polynomials.py", "coefficient dimension mismatch"),
    ("steering.py", "coefficient dimension mismatch"),
    (None, "side must be 'left' or 'right'"),
    (None, "MIN_GENERATORS"),
    (None, "is listed more than once"),
    (None, "must be an integer"),
]


def _states(node, rule):
    """Whether ``node`` is a string holding ``rule`` or a use of the name ``rule``."""
    if isinstance(node, ast.Constant):
        return isinstance(node.value, str) and rule in node.value
    return isinstance(node, ast.Name) and node.id == rule


@pytest.mark.parametrize(
    "module, rule", SINGLE_CHECKS, ids=lambda v: "package" if v is None else v.split()[0]
)
def test_each_rule_is_checked_in_one_function(module, rule):
    paths = MODULES if module is None else [PACKAGE / module]
    holders = [
        f"{path.name}:{func.name}"
        for path in paths
        for func in ast.walk(_tree(path))
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(func)
        if _states(node, rule)
    ]
    assert len(holders) == 1, f"{module or 'package'}: {rule!r} appears in {holders}"


# exports kept although nothing calls them: power_coefficient is the reference
# the power-family tests compare the construction rule against, and t_coeff the
# one the Appell tests compare appell_poly's running-ratio weights against
UNCALLED_EXPORTS = {"power_coefficient", "t_coeff"}


def test_every_export_has_a_caller():
    exported = next(
        ast.literal_eval(node.value)
        for node in _tree(PACKAGE / "__init__.py").body
        if isinstance(node, ast.Assign) and _bound_names(node) == ["__all__"]
    )
    callers = [p for p in MODULES if p.name != "__init__.py"]
    callers += sorted((ROOT / "perfbench").glob("*.py")) + sorted((ROOT / "tools").glob("*.py"))
    used = set()
    for path in callers:
        for node in ast.walk(_tree(path)):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    uncalled = sorted(set(exported) - used - UNCALLED_EXPORTS)
    assert not uncalled, f"exports nothing in the package, perfbench or tools uses: {uncalled}"


def test_only_polynomials_names_the_integer_form():
    names = {"_numerators", "_den"}
    where = [
        f"{path.name}:{node.lineno}"
        for path in MODULES
        if path.name != "polynomials.py"
        for node in ast.walk(_tree(path))
        if (isinstance(node, ast.Attribute) and node.attr in names)
        or (isinstance(node, ast.Name) and node.id in names)
        or (isinstance(node, ast.Constant) and node.value in names)
    ]
    assert not where, f"the integer form is named outside polynomials.py at {where}"
