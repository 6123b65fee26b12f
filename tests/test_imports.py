"""Every name a package, test or benchmark module imports is used in that module,
every private module-level name is used somewhere in the package, every
public name has a caller in the package unless it is kept on purpose, every
oracle is used somewhere in the tests, only ``partitions.py`` touches
the stored run form of a ``Partition``, and every cache in the package is
bounded by the one constant ``_CACHE_ENTRIES``.

No linter ships with the test dependencies, so these are the one check for
stale imports and dead helpers.  ``__init__.py`` is exempt from the import
check: its star imports re-export.  Other modules build partitions through
``Partition._from_runs`` and read them through ``exponents()``, so the
canonical form has one owner.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "cuspcheck"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
TEST_MODULES = sorted(Path(__file__).resolve().parent.glob("*.py"))
# The benchmark's modules get the unused-import check only.
BENCH_MODULES = sorted((ROOT / "cuspbench").glob("*.py"))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # ``import a.b`` binds ``a``.
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", MODULES + TEST_MODULES + BENCH_MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_the_check_sees_an_unused_import():
    assert unused_imports("from x import a, b\nimport c.d\nb()\n") == ["line 1: a", "line 2: c"]


def private_definitions(tree: ast.Module) -> dict[str, int]:
    """Private module-level functions, classes and constants, with their lines."""
    found = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        found.update((name, node.lineno) for name in names if name.startswith("_") and not name.startswith("__"))
    return found


def references(tree: ast.AST) -> set[str]:
    """Names read, attributes read, and names imported ``from`` another module."""
    refs = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute):
            refs.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            refs.update(alias.name for alias in node.names)
    return refs


def unreferenced_private_names(sources: dict[str, str]) -> list[str]:
    trees = {name: ast.parse(source) for name, source in sources.items()}
    refs = set().union(*(references(tree) for tree in trees.values()))
    return [
        f"{name} line {line}: {private}"
        for name, tree in trees.items()
        for private, line in private_definitions(tree).items()
        if private not in refs
    ]


def test_no_dead_private_names():
    sources = {p.name: p.read_text(encoding="utf-8") for p in PACKAGE.glob("*.py")}
    assert unreferenced_private_names(sources) == []


def test_the_check_sees_a_dead_private_name():
    sources = {
        "a.py": "_USED = 1\n_DEAD: int = 2\ndef _helper(): return _USED\nclass _Gone: pass\n",
        "b.py": "from a import _helper\n_helper()\n",
    }
    assert unreferenced_private_names(sources) == ["a.py line 2: _DEAD", "a.py line 4: _Gone"]


FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def unreferenced_definitions(module: str, sources: dict[str, str], kinds=FUNCTIONS, names=None) -> list[str]:
    """Top-level definitions of ``module`` of the given kinds (of ``names`` only,
    when given) that nothing outside their own body references."""
    body = ast.parse(sources[module]).body
    outside = set().union(*(references(ast.parse(s)) for name, s in sources.items() if name != module))
    return [
        f"{module} line {node.lineno}: {node.name}"
        for node in body
        if isinstance(node, kinds)
        and (names is None or node.name in names)
        and node.name not in outside.union(*(references(other) for other in body if other is not node))
    ]


def test_every_oracle_is_used():
    sources = {p.name: p.read_text(encoding="utf-8") for p in TEST_MODULES}
    assert unreferenced_definitions("oracles.py", sources) == []


def test_the_check_sees_an_unused_oracle():
    sources = {
        "o.py": "def used(): return helper()\ndef helper(): return 1\ndef recursive(): return recursive()\ndef dead(): pass\n",
        "t.py": "import o\no.used()\n",
    }
    assert unreferenced_definitions("o.py", sources) == ["o.py line 3: recursive", "o.py line 4: dead"]


def public_names(source: str) -> set[str]:
    """The names a module's literal ``__all__`` lists; ``__init__.py`` builds its own."""
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign) and [ast.unparse(t) for t in node.targets] == ["__all__"]:
            if isinstance(node.value, ast.List):
                return {ast.literal_eval(elt) for elt in node.value.elts}
    return set()


def unreferenced_public_names(sources: dict[str, str]) -> list[str]:
    """``__all__`` names that nothing in ``sources`` references outside their own body.

    ``__all__`` lists its names as strings, which are not references.
    """
    return [
        line
        for module, source in sources.items()
        for line in unreferenced_definitions(module, sources, FUNCTIONS + (ast.ClassDef,), public_names(source))
    ]


# Public names that nothing in the package calls, each kept on purpose.
KEPT_PUBLIC = {
    "lex_le",  # the order that acceptance 7e checks
    "partitions_of",  # patched by cuspbench/tracing.py until its wrapper goes (ROADMAP items 1 and 7)
    "is_realizable",  # the filter for the census of ROADMAP item 4
    "check_r_theta",  # the paper's R(theta) test
    "small_family_match",  # the paper's small families
}


def test_every_public_name_has_a_caller():
    sources = {p.name: p.read_text(encoding="utf-8") for p in PACKAGE.glob("*.py")}
    assert {line.rsplit(": ", 1)[1] for line in unreferenced_public_names(sources)} == KEPT_PUBLIC


def test_the_check_sees_a_public_name_without_a_caller():
    sources = {
        "a.py": (
            '__all__ = ["used", "Kept", "recursive", "planted"]\n'
            "def used(): return Kept()\nclass Kept: pass\n"
            "def recursive(): return recursive()\ndef planted(): pass\ndef _private(): pass\n"
        ),
        "b.py": "from a import used\nused()\n",
        "__init__.py": "from .a import *\n__all__ = []\n__all__ += a.__all__\n",
    }
    assert unreferenced_public_names(sources) == ["a.py line 4: recursive", "a.py line 5: planted"]


RUN_FORM = ("_runs", "_set_runs")


def run_form_accesses(source: str) -> list[str]:
    """Attributes (or ``getattr`` names) that reach a partition's stored runs."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr in RUN_FORM:
            found.add((node.lineno, node.attr))
        elif isinstance(node, ast.Constant) and node.value in RUN_FORM:
            found.add((node.lineno, node.value))
    return [f"line {line}: {name}" for line, name in sorted(found)]


@pytest.mark.parametrize("path", [p for p in PACKAGE.glob("*.py") if p.name != "partitions.py"], ids=lambda p: p.name)
def test_run_form_stays_in_partitions(path):
    assert run_form_accesses(path.read_text(encoding="utf-8")) == []


def test_the_check_sees_a_run_form_access():
    source = 'def f(p):\n    return p._runs[0]\nq._set_runs([])\ngetattr(r, "_runs")\ns._runs_seen, t._pairs()\n'
    assert run_form_accesses(source) == ["line 2: _runs", "line 3: _set_runs", "line 4: _runs"]


BOUNDED_CACHE = "lru_cache(maxsize=_CACHE_ENTRIES)"


def cache_uses(source: str) -> list[str]:
    """Each ``lru_cache`` or ``cache`` the source uses, as written: the call when it is called."""
    tree = ast.parse(source)
    calls = {id(node.func): node for node in ast.walk(tree) if isinstance(node, ast.Call)}
    uses = [
        (node.lineno, ast.unparse(calls.get(id(node), node)))
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and node.id in ("lru_cache", "cache")
        or isinstance(node, ast.Attribute) and node.attr in ("lru_cache", "cache")
    ]
    return [f"line {line}: {text}" for line, text in sorted(uses)]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_cache_has_the_one_bound(path):
    # Every cache in the package shares one bound, partitions._CACHE_ENTRIES.
    uses = cache_uses(path.read_text(encoding="utf-8"))
    assert [use for use in uses if not use.endswith(": " + BOUNDED_CACHE)] == []


def test_the_check_sees_an_unbounded_cache():
    source = (
        "from functools import cache, lru_cache\n"
        f"@{BOUNDED_CACHE}\ndef a(x): pass\n"
        "@functools.lru_cache(maxsize=4096)\ndef b(x): pass\n"
        "@lru_cache\ndef c(x): pass\n"
        "@cache\ndef d(x): pass\n"
    )
    assert cache_uses(source) == [
        f"line 2: {BOUNDED_CACHE}",
        "line 4: functools.lru_cache(maxsize=4096)",
        "line 6: lru_cache",
        "line 8: cache",
    ]
