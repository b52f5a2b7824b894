"""Ratchet: no top-level definition in the package without a caller.

A function or class defined at module level, or a name that a
module-level assignment binds, must be referenced somewhere else in the
package (another module, or another statement of its own module),
unless the package docstring lists it as public API. Dunder names such
as `__version__` are exempt. A definition that only tests read belongs
in tests/, and one that nothing reads should go. Likewise every name
that a test or package module imports must be read in that module; a
package module may bind a name that only the benchmark's tests read
through it. The package's total source lines may not grow either, and
each module imports only the package modules pinned for it, and no
underscore name of another.
"""

import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import artifact

PACKAGE = Path(artifact.__file__).resolve().parent
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def public_api() -> set[tuple[str, str]]:
    """(module, name) pairs listed as `module: name name ...` lines."""
    found = set()
    for module, names in re.findall(r"^\s+(\w+): ([\w ]+)$", artifact.__doc__, re.M):
        found |= {(module, name) for name in names.split()}
    return found


def _referenced_name(node) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.alias):
        return node.name
    return None


def _bound_names(top) -> list[str]:
    """The names a top-level statement defines: a function or class, or
    the plain names an assignment binds, dunder names left out."""
    if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [top.name]
    if isinstance(top, ast.Assign):
        targets = top.targets
    elif isinstance(top, ast.AnnAssign):
        targets = [top.target]
    else:
        return []
    return [
        node.id
        for target in targets
        for node in ast.walk(target)
        if isinstance(node, ast.Name)
        and isinstance(node.ctx, ast.Store)
        and not (node.id.startswith("__") and node.id.endswith("__"))
    ]


def definitions_and_references():
    """Top-level definitions per (module, name), and every referenced name.

    A name used only inside the statement that defines it (recursion) is
    not a reference.
    """
    defs = {}
    refs = set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for top in tree.body:
            own = _bound_names(top)
            for name in own:
                defs[(path.stem, name)] = top.lineno
            for node in ast.walk(top):
                name = _referenced_name(node)
                if name is not None and name not in own:
                    refs.add(name)
    return defs, refs


def test_every_definition_has_a_caller_or_is_public_api():
    defs, refs = definitions_and_references()
    orphans = sorted(
        f"{module}.{name} (line {line})"
        for (module, name), line in defs.items()
        if name not in refs and (module, name) not in public_api()
    )
    assert not orphans, f"definitions with no caller in the package: {orphans}"


def test_public_api_list_names_existing_definitions():
    defs, refs = definitions_and_references()
    stale = sorted(f"{m}.{n}" for m, n in public_api() if (m, n) not in defs)
    assert not stale, f"listed as public API but not defined: {stale}"
    called = sorted(f"{m}.{n}" for m, n in public_api() if n in refs)
    assert not called, f"listed as public API but called in the package: {called}"


def test_public_api_list_does_not_grow():
    # 33 names once the conjunctive compiler, the gadget copier, the
    # pairwise gadget glue and the labeled interaction graph left the
    # package; listing another one takes an edit here.
    assert len(public_api()) <= 33


# The package's source lines once the labeled interaction graph left it.
# A change that adds a capability raises this bound in its own diff and
# says why; any other change keeps under it.
SOURCE_LINES = 5490


def test_the_package_does_not_grow():
    lines = sum(len(path.read_text(encoding="utf-8").splitlines()) for path in PACKAGE.glob("*.py"))
    assert lines <= SOURCE_LINES, f"{lines} source lines, bound {SOURCE_LINES}"


def _attribute_reads(file):
    """(module, name) of every `module.name` that a benchmark file reads of
    the package modules it imports."""
    tree = ast.parse((PERFBENCH / file).read_text(encoding="utf-8"))
    modules = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "artifact"
        for alias in node.names
    }
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) in modules:
            yield node.value.id, node.attr


def _benchmark_sites():
    """(module, name) of every tracer target and of every `module.name`
    that the benchmark's generators and workloads read."""
    tracer = ast.parse((PERFBENCH / "tracer.py").read_text(encoding="utf-8"))
    for node in ast.walk(tracer):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "Target":
            yield node.args[1].value, node.args[2].value
    for file in ("gen.py", "workloads.py"):
        for module, name in _attribute_reads(file):
            yield f"artifact.{module}", name


def test_names_the_benchmark_reads_stay_bound():
    sites = set(_benchmark_sites())
    assert len(sites) > 20
    missing = sorted(
        f"{module}.{name}"
        for module, name in sites
        if not hasattr(importlib.import_module(module), name)
    )
    assert not missing, f"the benchmark reads names that are gone: {missing}"


def unread_imports(path: Path) -> list[str]:
    """Names that a module's import statements bind and no other node reads.

    `from __future__` imports are exempt: they set compiler flags.
    """
    tree = ast.parse(path.read_text(encoding="utf-8"))
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{path.name}:{line} {name}" for name, line in bound.items() if name not in read)


def test_every_test_import_is_read():
    tests = Path(__file__).resolve().parent
    unread = [entry for path in sorted(tests.glob("*.py")) for entry in unread_imports(path)]
    assert not unread, f"imported and never read: {unread}"


def test_every_package_import_is_read():
    # `glue.step` and `simulate.step` are bound for the benchmark's tests alone.
    read_there = set(_attribute_reads("test_perfbench.py"))
    unread = [
        entry
        for path in sorted(PACKAGE.glob("*.py"))
        for entry in unread_imports(path)
        if (path.stem, entry.split()[-1]) not in read_there
    ]
    assert not unread, f"imported and never read: {unread}"


def call_sites(callee) -> set[tuple[str, str]]:
    """(module, qualified name of the enclosing definition) of every call in
    the package that `callee(call)` accepts; module level is ""."""
    sites = set()

    def visit(node, module, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        if isinstance(node, ast.Call) and callee(node):
            sites.add((module, scope))
        for child in ast.iter_child_nodes(node):
            visit(child, module, scope)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.stem, "")
    return sites


def _named(*names):
    return lambda call: _referenced_name(call.func) in names


def test_only_simulate_builds_embeddings():
    built = call_sites(_named("BlockEmbedding"))
    assert built and {module for module, _ in built} == {"simulate"}, built


def test_models_tabulate_and_compile_themselves():
    # A model's `network` and a network's `stepper` are the only callers,
    # with the CLI's reading of a CSAN document as a network.
    allowed = {
        ("gnet", "GNetwork.network"),
        ("csan", "Csan.network"),
        ("core", "Network.stepper"),
        ("cli", "_as_network"),
    }
    sites = call_sites(_named("gnetwork_to_network", "csan_to_network", "compile_step"))
    assert sites <= allowed, sites - allowed


def _validates_an_embedding(call) -> bool:
    # Only an embedding's and a dowel's validate take arguments; a dowel's
    # takes the two sizes `f1.n, f2.n`.
    return (
        _referenced_name(call.func) == "validate"
        and isinstance(call.func, ast.Attribute)
        and bool(call.args)
        and not all(isinstance(a, ast.Attribute) and a.attr == "n" for a in call.args)
    )


def test_embeddings_are_validated_where_they_are_built_or_given():
    sites = call_sites(_validates_an_embedding)
    outside = {
        site for site in sites
        if site[0] != "simulate" and site != ("problems", "reduce_pred_via_simulation")
    }
    assert ("simulate", "block_embedding") in sites and not outside, outside


# The package modules each module imports. An edge added here is a
# layering decision: `csan` reads no circuits, so glueing loads no
# circuit, gate network or simulation.
IMPORTS = {
    "__init__": set(),
    "circuit": {"core", "docs", "gnet", "simulate"},
    "cli": {"circuit", "core", "csan", "docs", "gadget", "glue", "gnet", "gol", "problems", "simulate"},
    "core": {"docs"},
    "csan": {"core", "docs"},
    "docs": set(),
    "gadget": {"core", "csan", "docs", "glue", "gnet", "simulate"},
    "glue": {"core", "csan", "docs"},
    "gnet": {"core", "docs"},
    "gol": {"core", "csan", "gadget", "glue", "gnet", "simulate"},
    "problems": {"core", "docs", "simulate"},
    "simulate": {"core", "docs"},
}


def package_imports(path: Path) -> tuple[set[str], list[str]]:
    """The package modules a module imports, and the `module.name` of every
    underscore name it imports from one, read from its relative imports."""
    modules, private = set(), []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            assert not any(a.name.startswith("artifact") for a in node.names), path.name
        elif isinstance(node, ast.ImportFrom):
            assert node.level == 1 or not (node.module or "").startswith("artifact"), path.name
            if node.level and node.module:
                modules.add(node.module)
                private += [f"{node.module}.{a.name}" for a in node.names if a.name[0] == "_"]
            elif node.level:
                modules |= {a.name for a in node.names}
    return modules, private


def test_each_module_imports_its_pinned_modules():
    got = {path.stem: package_imports(path)[0] for path in sorted(PACKAGE.glob("*.py"))}
    assert got == IMPORTS


def test_no_module_imports_another_modules_underscore_name():
    private = [name for path in sorted(PACKAGE.glob("*.py")) for name in package_imports(path)[1]]
    assert not private, f"underscore names imported from another module: {private}"


def test_glueing_loads_no_circuit_gate_network_or_simulation():
    code = "import sys, artifact.glue; print(sorted(m for m in sys.modules if 'artifact' in m))"
    path = [str(PACKAGE.parent), *filter(None, [os.environ.get("PYTHONPATH")])]
    done = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": os.pathsep.join(path)},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    loaded = ["artifact", "artifact.core", "artifact.csan", "artifact.docs", "artifact.glue"]
    assert done.stdout.strip() == repr(loaded)
