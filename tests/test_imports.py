"""Every name a package, test or benchmark module imports is used in that module;
every top-level definition in the package is reached from its entry point or
from a name kept on purpose, and every oracle from a test; only
``partitions.py`` touches the stored run form of a ``Partition``; and every
cache in the package is bounded by the one constant ``_CACHE_ENTRIES``.

No linter ships with the test dependencies, so these are the one check for
stale imports and dead code.  ``__init__.py`` is exempt from the import
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


def definitions(tree: ast.Module):
    """Each top-level function, class and assigned name but a dunder, with its statement."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        yield from ((name, node) for name in names if not (name.startswith("__") and name.endswith("__")))


def reads(tree: ast.AST) -> set[str]:
    """Names and attributes read.  An import binds a name but reads none."""
    return {
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
    }


def dead_definitions(sources: dict[str, str], roots: set[str]) -> list[str]:
    """Top-level definitions in ``sources`` that no chain of reads reaches from ``roots``.

    A class reads what its methods read.  Names are matched across modules by
    spelling alone: a read of ``x.transpose`` keeps every top-level ``transpose`` alive.
    """
    found, edges = [], {}
    for module, source in sources.items():
        for name, node in definitions(ast.parse(source)):
            found.append((f"{module} line {node.lineno}: {name}", name))
            edges.setdefault(name, set()).update(reads(node))
    live, todo = set(), list(roots)
    while todo:
        name = todo.pop()
        if name not in live:
            live.add(name)
            todo += edges.get(name, ())
    return [line for line, name in found if name not in live]


def dead_oracles(sources: dict[str, str]) -> list[str]:
    """Definitions in ``oracles.py`` that nothing the other test modules read reaches."""
    roots = set().union(*(reads(ast.parse(s)) for name, s in sources.items() if name != "oracles.py"))
    return dead_definitions({"oracles.py": sources["oracles.py"]}, roots)


ENTRY_POINTS = {"main"}  # cli.main: the console script and ``python -m cuspcheck``

# Public names that the entry point does not reach, each kept on purpose.
KEPT_PUBLIC = {
    "lex_le",  # the order that acceptance 7e checks
    "partitions_of",  # patched by cuspbench/tracing.py until its wrapper goes (ROADMAP items 1 and 7)
    "check_r_theta",  # the paper's R(theta) test
    "small_family_match",  # the paper's small families
}


def test_every_definition_is_reached_from_a_root():
    sources = {p.name: p.read_text(encoding="utf-8") for p in PACKAGE.glob("*.py")}
    assert dead_definitions(sources, ENTRY_POINTS | KEPT_PUBLIC) == []


def test_every_kept_name_is_out_of_reach_of_the_entry_point():
    sources = {p.name: p.read_text(encoding="utf-8") for p in PACKAGE.glob("*.py")}
    # A kept name that gains a caller must leave the list.
    assert KEPT_PUBLIC <= {line.rsplit(": ", 1)[1] for line in dead_definitions(sources, ENTRY_POINTS)}


def test_every_oracle_is_reached_from_a_test():
    assert dead_oracles({p.name: p.read_text(encoding="utf-8") for p in TEST_MODULES}) == []


def test_the_check_sees_a_dead_private_name():
    sources = {
        "a.py": "_DEAD = 2\ndef _loop(): return _LOOP\n_LOOP: int = _loop()\ndef main(): return _helper()\n",
        "b.py": "from a import main\nLIMIT: int = 3\ndef _helper(): return Chain.run(LIMIT)\nclass Chain: pass\n",
    }
    assert dead_definitions(sources, {"main"}) == ["a.py line 1: _DEAD", "a.py line 2: _loop", "a.py line 3: _LOOP"]


def test_the_check_sees_a_public_name_without_a_caller():
    sources = {
        "a.py": '__all__ = ["main", "Order", "compare_lex", "compare_dominance"]\nclass Order:\n'
        "    def flip(self): return compare_dominance(self)\ndef compare_lex(p): return Order()\n"
        "def compare_dominance(p): return compare_lex(p)\ndef main(): return Kept()\nclass Kept: pass\n",
        "b.py": "from a import Order\n",
    }
    cluster = ["a.py line 2: Order", "a.py line 4: compare_lex", "a.py line 5: compare_dominance"]
    assert dead_definitions(sources, {"main"}) == cluster


def test_the_check_sees_an_unused_oracle():
    oracles = "def used(): return 1\ndef outer(): return inner()\ndef inner(): return 1\n"
    test = "import oracles\nfrom oracles import inner\ndef test_it(): assert oracles.used()\n"
    found = dead_oracles({"oracles.py": oracles, "t.py": test})
    assert found == ["oracles.py line 2: outer", "oracles.py line 3: inner"]


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
