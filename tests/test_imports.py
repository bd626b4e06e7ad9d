"""No module-level import may go unused, and no private code in `src/`.

A stdlib `ast` scan stands in for a linter: every name a module imports
at top level must appear as a name somewhere in that module. Package
`__init__.py` files are skipped, since their imports are re-exports, and
so is `from __future__`. An import kept for its side effect carries a
`# noqa` marker, as linters expect.

A second scan covers dead code: every private (single-underscore)
module-level function or method under `src/japdr` must be named, as a
name or an attribute, somewhere in `src/`. A third keeps public API
alive only where the package uses it: every public module-level
function and method of every package module must be named in `src/`
outside its own definition, or be exported from `japdr/__init__.py`
(a method through its class). A local variable or argument of the same
name does not count as a use. A name defined more than once counts only
where the scan can tie the use to its definition (`self.name` inside the
class, `Class.name`, a receiver bound from `Class(...)`, `module.name`
or an import); `UNTIED_USES` lists, with reasons, the uses it cannot.

A fourth keeps one budget gate: only `pdr.ask`, which counts each SAT
call and turns an out-of-budget answer into `pdr.Exhausted`, and
`oracle.bmc`, which reports its own timeout, call a `.solve(` method.
A fifth keeps one budget record per check: a deadline travels inside a
`pdr.PdrStats`, so no function or method takes a parameter named
`deadline` but `sat.Solver.solve`, the solver's own clock.
A sixth keeps one clause-store owner: no package module but `clausedb`
names the file's reader and writer, its record type or its seed
selection and filter; `clausedb.ClauseStore` is the way in.
A seventh keeps the solver's layout inside `sat`: no package module but
`sat` names a solver's value array, trail, levels, reasons, queue head,
clause store, watch lists or queue stamps.
An eighth keeps one certification owner: no package module but `pdr`
names `certify`, so every proof is certified where it is made, inside
`pdr.check_property`.
A ninth keeps one reset owner: no package code but `pdr._reset_inputs`
names `Circuit.reset_values` (its definition in `circuit` is no use), so
whether a bad fires at reset is asked in one place.
A tenth keeps one bit-parallel evaluator: `circuit.simulate` is the one
reader of `Circuit.gate_table` that evaluates the circuit's values, and
only the walks of another algebra read it besides (the ternary
`Circuit.reset_values`, the structural `circuit.cone_latches` and the
justification masks of `pdr.PdrEngine._lift`).
"""

import ast
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(
    path
    for folder in ("src", "tests", "demos")
    for path in (ROOT / folder).rglob("*.py")
    if path.name != "__init__.py"
)


PACKAGE = sorted((ROOT / "src" / "japdr").rglob("*.py"))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    lines = source.splitlines()
    imported: dict[str, int] = {}
    for node in tree.body:
        if "# noqa" in lines[node.lineno - 1]:
            continue
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_the_scan_sees_an_unused_import():
    source = (
        "from __future__ import annotations\n"
        "import os\n"
        "import re  # noqa: F401\n"
        "from sys import argv, path\n"
        "print(path)\n"
    )
    assert unused_imports(source) == ["line 2: os", "line 4: argv"]


@pytest.mark.parametrize("path", FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_module_level_imports(path):
    assert unused_imports(path.read_text()) == []


def _is_private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def unreferenced_private_defs(sources: dict[str, str]) -> list[str]:
    """Private module-level functions and methods that no source names."""
    trees = {name: ast.parse(source) for name, source in sources.items()}
    named = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
    funcs = (ast.FunctionDef, ast.AsyncFunctionDef)
    found = []
    for name, tree in trees.items():
        for node in tree.body:
            defs = [node] if isinstance(node, funcs) else []
            if isinstance(node, ast.ClassDef):
                defs = [n for n in node.body if isinstance(n, funcs)]
            found.extend(
                f"{name}:{d.lineno}: {d.name}"
                for d in defs
                if _is_private(d.name) and d.name not in named
            )
    return found


def test_the_scan_sees_an_unreferenced_private_def():
    sources = {
        "a.py": (
            "def _dead(): pass\n"
            "def _called(): pass\n"
            "class K:\n"
            "    def _stale(self): pass\n"
            "    def _used(self): pass\n"
            "    def __init__(self): self._used()\n"
        ),
        "b.py": "from a import _called\n_called()\n",
    }
    assert unreferenced_private_defs(sources) == ["a.py:1: _dead", "a.py:4: _stale"]


def test_no_unreferenced_private_code_in_the_package():
    sources = {str(p.relative_to(ROOT)): p.read_text() for p in PACKAGE}
    assert unreferenced_private_defs(sources) == []


def _local_names(tree) -> set[int]:
    """Ids of the `Name` nodes that read or bind a name bound inside an
    enclosing function, by assignment or as an argument."""
    found = set()
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        a = fn.args
        bound = {arg.arg for arg in (*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg) if arg}
        names = [n for n in ast.walk(fn) if isinstance(n, ast.Name)]
        bound.update(n.id for n in names if not isinstance(n.ctx, ast.Load))
        found.update(id(n) for n in names if n.id in bound)
    return found


def _public_defs(trees):
    """`(module, key, node)` of every public module-level function and
    method, keyed `stem.function` or `stem.Class.method`."""
    funcs = (ast.FunctionDef, ast.AsyncFunctionDef)
    for module, tree in trees.items():
        stem = Path(module).stem
        for node in tree.body:
            defs = [(f"{stem}.", node)] if isinstance(node, funcs) else []
            if isinstance(node, ast.ClassDef):
                defs = [(f"{stem}.{node.name}.", n) for n in node.body if isinstance(n, funcs)]
            yield from ((module, prefix + d.name, d) for prefix, d in defs if not d.name.startswith("_"))


def _constructed(node, classes) -> str | None:
    """The class `node` constructs, for `Class(...)` or `module.Class(...)`."""
    if not isinstance(node, ast.Call):
        return None
    func = node.func
    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
    return name if name in classes else None


def _bindings(scope, classes) -> dict[str, str]:
    """Names bound from `Class(...)` directly in one function or module
    body, not in the functions nested in it."""
    bound = {}
    todo = list(ast.iter_child_nodes(scope))
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)):
            continue
        if isinstance(node, ast.Assign) and (cls := _constructed(node.value, classes)):
            bound.update((t.id, cls) for t in node.targets if isinstance(t, ast.Name))
        todo.extend(ast.iter_child_nodes(node))
    return bound


def _tied_uses(trees, names, keys):
    """`(module, node, key)` of every use of a name in `names`, where
    `key` is the definition the use is tied to, or None when no rule ties
    it: `self.name` inside the class, `Class.name`, a receiver bound from
    `Class(...)` (or that call itself), `module.name`, an import of it,
    and a bare name in its defining module."""
    classes = {key.split(".")[1]: key.split(".")[0] for key in keys if key.count(".") == 2}
    stems = {Path(module).stem for module in trees}

    def tie(module, node, cls, scopes):
        stem = Path(module).stem
        if isinstance(node, ast.ImportFrom):
            source = (node.module or "").rpartition(".")[2]
            return [(alias.name, f"{source}.{alias.name}") for alias in node.names]
        if isinstance(node, ast.Name):
            return [(node.id, f"{stem}.{node.id}")]
        if not isinstance(node, ast.Attribute):
            return []
        value, owner = node.value, _constructed(node.value, classes)
        if isinstance(value, ast.Attribute) and value.attr in classes:
            owner = value.attr
        elif isinstance(value, ast.Name):
            if value.id == "self" and cls:
                owner = cls
            elif value.id in classes:
                owner = value.id
            elif value.id in stems:
                return [(node.attr, f"{value.id}.{node.attr}")]
            else:
                owner = next((b[value.id] for b in reversed(scopes) if value.id in b), None)
        if owner is None:
            return [(node.attr, None)]
        return [(node.attr, f"{classes.get(owner)}.{owner}.{node.attr}")]

    def visit(module, node, cls, scopes, found):
        if isinstance(node, ast.ClassDef):
            cls = node.name
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            scopes = [*scopes, _bindings(node, classes)]
        for name, key in tie(module, node, cls, scopes):
            if name in names and (key is None or key in keys):
                found.append((module, node, key))
        for child in ast.iter_child_nodes(node):
            visit(module, child, cls, scopes, found)

    found = []
    for module, tree in trees.items():
        visit(module, tree, None, [_bindings(tree, classes)], found)
    return found


def unreferenced_public_functions(sources: dict[str, str], checked, exported, untied=None) -> list[str]:
    """Public module-level functions and methods of the `checked` sources
    that no source names outside their own definition, leaving out the
    exported functions and the methods of exported classes. A name bound
    inside the function that reads it is a local, not a use.

    A name defined more than once (`Solver.value` and `SolveResult.value`)
    is used only where `_tied_uses` ties the use to one definition. A use
    it cannot tie is a finding unless `untied` maps its `(module, name)`
    to `(definition key, reason)`; an entry that matches no use is a
    finding too."""
    untied = untied or {}
    trees = {name: ast.parse(source) for name, source in sources.items()}
    local = set().union(*map(_local_names, trees.values()))
    uses = [
        (id(node), node.id if isinstance(node, ast.Name) else node.attr)
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute)) and id(node) not in local
    ]
    defs = list(_public_defs(trees))
    counts = Counter(key.rpartition(".")[2] for _, key, _ in defs)
    twice = {name for name, n in counts.items() if n > 1}
    tied, found, allowed = [], [], set()
    for module, node, key in _tied_uses(trees, twice, {key for _, key, _ in defs}):
        if id(node) in local:
            continue
        if key is None:
            entry = (Path(module).stem, node.attr)
            if entry not in untied:
                found.append(f"{module}:{node.lineno}: untied {node.attr}")
                continue
            key = untied[entry][0]
            allowed.add(entry)
        tied.append((id(node), key))
    stale = sorted(untied.keys() - allowed)
    found.extend(f"{stem}: untied {name} matches no use" for stem, name in stale)
    unused = []
    for module, key, node in defs:
        owner, _, name = key.partition(".")[2].rpartition(".")
        if module not in checked or (owner or name) in exported:
            continue
        own = {id(n) for n in ast.walk(node)}
        if name in twice:
            used = any(k == key and at not in own for at, k in tied)
        else:
            used = any(u == name and at not in own for at, u in uses)
        if not used:
            unused.append(f"{module}:{node.lineno}: {name}")
    return unused + found


def test_the_scan_sees_a_public_function_only_its_tests_use():
    sources = {
        "a.py": (
            "def dead(n): return dead(n - 1) if n else 0\n"
            "def used(): pass\n"
            "def shipped(): pass\n"
            "def _private(): pass\n"
            "def shadowed(): pass\n"
            "def passed(): pass\n"
            "class K:\n"
            "    def stale(self): return self.stale()\n"
            "    def called(self): pass\n"
            "    def shipped(self): pass\n"
            "class Api:\n"
            "    def method(self): pass\n"
        ),
        "b.py": (
            "from a import used\n"
            "used()\n"
            "def f(passed):\n"
            "    shadowed = passed\n"
            "    return shadowed\n"
            "def g(k): k.called()\n"
        ),
    }
    assert unreferenced_public_functions(sources, ["a.py"], {"shipped", "Api"}) == [
        "a.py:1: dead", "a.py:5: shadowed", "a.py:6: passed",
        "a.py:8: stale", "a.py:10: shipped",
    ]


def test_the_scan_ties_a_method_defined_twice_to_its_class():
    """`Solver.value` once had only test callers, yet passed the scan,
    which matched `.value` by name: `encode` reads `SolveResult.value` on
    a solve's result. Now that use ties to neither class by itself, so
    it needs an allowance, and `Solver.value` is found."""
    sources = {
        "sat.py": (
            "class SolveResult:\n"
            "    def value(self, lit): return lit\n"
            "class Solver:\n"
            "    def solve(self): return SolveResult()\n"
            "    def value(self, lit): return lit\n"
        ),
        "encode.py": (
            "from sat import Solver\n"
            "def model(solver):\n"
            "    return solver.solve().value(2)\n"
        ),
    }
    assert unreferenced_public_functions(sources, ["sat.py"], set()) == [
        "sat.py:2: value", "sat.py:5: value", "encode.py:3: untied value",
    ]
    untied = {("encode", "value"): ("sat.SolveResult.value", "the receiver is a solve's result")}
    assert unreferenced_public_functions(sources, ["sat.py"], set(), untied) == ["sat.py:5: value"]
    stale = {**untied, ("sat", "value"): ("sat.Solver.value", "no such use")}
    assert unreferenced_public_functions(sources, ["sat.py"], set(), stale) == [
        "sat.py:5: value", "sat: untied value matches no use",
    ]


def test_the_scan_ties_each_use_by_its_receiver():
    sources = {
        "a.py": (
            "def run(): pass\n"
            "def step(): pass\n"
            "def reset(): pass\n"
            "class Engine:\n"
            "    def run(self): return self.step()\n"
            "    def step(self): pass\n"
            "    def reset(self): pass\n"
            "    def stop(self): pass\n"
            "class Other:\n"
            "    def run(self): pass\n"
            "    def step(self): pass\n"
            "    def reset(self): return self.reset()\n"
            "    def stop(self): pass\n"
        ),
        "b.py": (
            "import a\n"
            "from a import run\n"
            "def f():\n"
            "    e = a.Engine()\n"
            "    return e.run(), run(), a.Engine.reset(e), a.step()\n"
            "def g():\n"
            "    return Other().stop(), Engine().stop()\n"
        ),
    }
    assert unreferenced_public_functions(sources, ["a.py"], set()) == [
        "a.py:3: reset", "a.py:10: run", "a.py:11: step", "a.py:12: reset",
    ]


# the package's uses of a twice-defined name that no rule ties to a
# definition: (module, name) -> (definition key, why it cannot be tied)
UNTIED_USES = {
    ("pdr", "latch_lit"): (
        "encode.StepEncoding.latch_lit",
        "pdr reaches each StepEncoding through a StepHolder or `_Frames.enc`, never its constructor",
    ),
}


def test_no_public_function_lives_only_for_its_tests():
    sources = {str(p.relative_to(ROOT)): p.read_text() for p in PACKAGE}
    init = ast.parse((ROOT / "src" / "japdr" / "__init__.py").read_text())
    exported = {
        alias.asname or alias.name
        for node in init.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert unreferenced_public_functions(sources, sorted(sources), exported, UNTIED_USES) == []


def solve_callers(sources: dict[str, str]) -> list[str]:
    """`module.function` of every function (or `<module>`) whose own
    body calls a `.solve(` method; a nested function counts on its own."""
    found = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = f"{where.partition('.')[0]}.{node.name}"
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "solve"
        ):
            found.append(where)
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    for name, source in sources.items():
        visit(ast.parse(source), f"{Path(name).stem}.<module>")
    return sorted(set(found))


def test_the_scan_sees_every_solve_caller():
    sources = {
        "pkg/a.py": (
            "def ask(s): return s.solve([])\n"
            "def outer(s):\n"
            "    def inner(): return s.solve([1])\n"
            "    return inner\n"
            "class K:\n"
            "    def m(self, s): return s.solve()\n"
            "    def solve(self): pass\n"
        ),
        "pkg/b.py": "import a\na.solver.solve([])\nsolve = None\n",
    }
    assert solve_callers(sources) == ["a.ask", "a.inner", "a.m", "b.<module>"]


def test_only_the_budget_gate_and_bmc_call_solve():
    sources = {str(p.relative_to(ROOT)): p.read_text() for p in PACKAGE}
    assert solve_callers(sources) == ["oracle.bmc", "pdr.ask"]


def deadline_parameters(sources: dict[str, str]) -> list[str]:
    """`module.[Class.]function` of every function, method or lambda
    with a parameter named `deadline`; nested ones are named by their
    enclosing scopes."""
    found = []

    def visit(node, where):
        if isinstance(node, ast.ClassDef):
            where = f"{where}.{node.name}"
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            where = f"{where}.{getattr(node, 'name', '<lambda>')}"
            a = node.args
            params = [*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg]
            if any(p is not None and p.arg == "deadline" for p in params):
                found.append(where)
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    for name, source in sources.items():
        visit(ast.parse(source), Path(name).stem)
    return sorted(found)


def test_the_scan_sees_every_deadline_parameter():
    sources = {
        "pkg/a.py": (
            "def plain(x, deadline=None): pass\n"
            "def keyword(x, *, deadline): pass\n"
            "def starred(*deadline): pass\n"
            "def other(deadline_s, stats): deadline = stats.deadline\n"
            "def outer():\n"
            "    def inner(deadline): pass\n"
            "    return lambda deadline: inner(deadline)\n"
            "class K:\n"
            "    deadline = None\n"
            "    def m(self, deadline): self.deadline = deadline\n"
        ),
    }
    assert deadline_parameters(sources) == [
        "a.K.m", "a.keyword", "a.outer.<lambda>", "a.outer.inner", "a.plain", "a.starred",
    ]


def test_only_the_solver_takes_a_deadline_parameter():
    sources = {str(p.relative_to(ROOT)): p.read_text() for p in PACKAGE}
    assert deadline_parameters(sources) == ["sat.Solver.solve"]


STORE_INTERNALS = {"append", "load", "ClauseRecord", "seeds_for_context", "filter_invariant"}


def owned_name_uses(sources: dict[str, str], names, owner: str) -> list[str]:
    """`module:line: name` of every use of one of `names`: a bare name, a
    name imported from a module, or an attribute of a module named
    `owner`. A method call such as `list.append` is no use. Package
    `__init__.py` files, which only re-export, are skipped."""
    found = []
    for name, source in sources.items():
        if Path(name).name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name):
                used = [node.id]
            elif isinstance(node, ast.ImportFrom):
                used = [alias.name for alias in node.names]
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                used = [node.attr] if node.value.id == owner else []
            else:
                continue
            stem = Path(name).stem
            found.extend(f"{stem}:{node.lineno}: {u}" for u in used if u in names)
    return sorted(found)


def test_the_scan_sees_every_clause_store_internal():
    sources = {
        "pkg/__init__.py": "from .clausedb import append, load\n",
        "pkg/a.py": (
            "from .clausedb import ClauseStore, ClauseRecord\n"
            "from . import clausedb\n"
            "xs = []\n"
            "xs.append(1)\n"
            "clausedb.seeds_for_context(xs)\n"
            "def f(load): return load\n"
            "g = filter_invariant\n"
        ),
    }
    assert owned_name_uses(sources, STORE_INTERNALS, "clausedb") == [
        "a:1: ClauseRecord", "a:5: seeds_for_context", "a:6: load", "a:7: filter_invariant",
    ]


def test_only_the_clause_store_module_names_its_internals():
    sources = {
        str(p.relative_to(ROOT)): p.read_text() for p in PACKAGE if p.name != "clausedb.py"
    }
    assert owned_name_uses(sources, STORE_INTERNALS, "clausedb") == []


def test_only_pdr_names_certify():
    sources = {
        str(p.relative_to(ROOT)): p.read_text() for p in PACKAGE if p.name != "pdr.py"
    }
    assert owned_name_uses(sources, {"certify"}, "pdr") == []


SOLVER_LAYOUT = {
    "vals", "trail", "trail_lim", "reason", "level", "qhead", "clauses", "watches", "activity",
}


def _names_a_solver(node, aliases) -> bool:
    """`solver`, `enc.solver`, `bad_solver`, `Solver()`, or a name bound
    to one of these in the same module."""
    if isinstance(node, ast.Call):
        node = node.func
    name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", "")
    return "solver" in name.lower() or name in aliases


def _scoped_matches(tree, stem: str, match) -> list[str]:
    """`stem[.Class][.function]: name` of every node for which `match`
    returns a name; a definition is never a match."""
    found = []

    def visit(node, where):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            where = f"{where}.{node.name}"
        elif name := match(node):
            found.append(f"{where}: {name}")
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(tree, stem)
    return found


def solver_layout_uses(sources: dict[str, str]) -> list[str]:
    """`module[.Class][.function]: name` of every use of an attribute in
    SOLVER_LAYOUT on a solver."""
    found = []
    for name, source in sources.items():
        tree = ast.parse(source)
        aliases = {
            target.id
            for node in ast.walk(tree)
            if isinstance(node, ast.Assign) and _names_a_solver(node.value, set())
            for target in node.targets
            if isinstance(target, ast.Name)
        }

        def layout(node):
            if isinstance(node, ast.Attribute) and node.attr in SOLVER_LAYOUT:
                return node.attr if _names_a_solver(node.value, aliases) else None
            return None

        found += _scoped_matches(tree, Path(name).stem, layout)
    return sorted(set(found))


def test_the_scan_sees_every_use_of_the_solver_layout():
    sources = {
        "pkg/a.py": (
            "from .sat import Solver\n"
            "s = Solver()\n"
            "s.trail.append(1)\n"
            "Solver().qhead = 0\n"
            "class K:\n"
            "    def m(self, enc, ob):\n"
            "        enc.solver.reason[0] = 1\n"
            "        self.bad_solver.trail_lim.clear()\n"
            "        return ob.level, self.clauses\n"
            "def f(solver):\n"
            "    return solver.vals[0], solver.ok, solver.level\n"
        ),
    }
    assert solver_layout_uses(sources) == [
        "a.K.m: reason", "a.K.m: trail_lim", "a.f: level", "a.f: vals",
        "a: qhead", "a: trail",
    ]


def test_only_the_solver_names_its_layout():
    sources = {str(p.relative_to(ROOT)): p.read_text() for p in PACKAGE if p.name != "sat.py"}
    assert solver_layout_uses(sources) == []


def attribute_readers(sources: dict[str, str], attr: str) -> list[str]:
    """`module[.Class][.function]: attr` of every name or attribute
    `attr`."""

    def reads(node):
        name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
        return name if name == attr else None

    return sorted({
        use
        for name, source in sources.items()
        for use in _scoped_matches(ast.parse(source), Path(name).stem, reads)
    })


def test_the_scan_sees_every_reset_value_reader():
    sources = {
        "pkg/circuit.py": (
            "class Circuit:\n"
            "    def reset_values(self): return ()\n"
            "    def init(self): return self.reset_values\n"
        ),
        "pkg/pdr.py": (
            "def _reset_inputs(c): return c.reset_values[0]\n"
            "def other(c):\n"
            "    reset_values = c.init()\n"
            "    return reset_values, c.reset_value\n"
            "x = Circuit().reset_values\n"
        ),
    }
    assert attribute_readers(sources, "reset_values") == [
        "circuit.Circuit.init: reset_values", "pdr._reset_inputs: reset_values",
        "pdr.other: reset_values", "pdr: reset_values",
    ]


def test_only_the_reset_query_reads_reset_values():
    sources = {str(p.relative_to(ROOT)): p.read_text() for p in PACKAGE}
    assert attribute_readers(sources, "reset_values") == ["pdr._reset_inputs: reset_values"]


def test_only_the_evaluator_and_three_other_walks_read_the_gate_table():
    sources = {str(p.relative_to(ROOT)): p.read_text() for p in PACKAGE}
    assert attribute_readers(sources, "gate_table") == [
        "circuit.Circuit.reset_values: gate_table", "circuit.cone_latches: gate_table",
        "circuit.simulate: gate_table", "pdr.PdrEngine._lift: gate_table",
    ]
