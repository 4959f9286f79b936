"""The interpreted engines stay an independent oracle for the compiled one.

Their arithmetic lives in ``repro.core``, ``repro.dataflow``, ``repro.sst``
and ``repro.hls`` and must never reach ``repro.compiled`` (its C conv
kernel included): the three-way digests compare two implementations, not
one twice. The one sanctioned edge is the engine factory that builds a
``CompiledEngine`` when ``scheduler="compiled"`` is asked for.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import repro
from repro.compiled import native

SRC = Path(repro.__file__).parent
ORACLE_PACKAGES = ("core", "dataflow", "sst", "hls")
#: (module file, enclosing function): where repro.compiled may be imported.
FACTORY = ("dataflow/simulator.py", "_compiled_engine")


def imported_modules(node, package):
    """Absolute names an import statement in ``package`` may bind."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    base = node.module or ""
    if node.level:
        parent = package.rsplit(".", node.level - 1)[0]
        base = f"{parent}.{base}" if base else parent
    return [base] + [f"{base}.{alias.name}" for alias in node.names]


def compiled_imports(path):
    """``(enclosing function or None, line)`` of every import of
    ``repro.compiled`` in one source file."""
    package = ".".join(path.parent.relative_to(SRC.parent).parts)
    found = []

    def walk(node, func):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                walk(child, child.name)
            elif isinstance(child, (ast.Import, ast.ImportFrom)):
                if any(name == "repro.compiled"
                       or name.startswith("repro.compiled.")
                       for name in imported_modules(child, package)):
                    found.append((func, child.lineno))
            else:
                walk(child, func)

    walk(ast.parse(path.read_text(), str(path)), None)
    return found


def test_no_oracle_module_imports_the_compiled_engine():
    edges = {}
    for package in ORACLE_PACKAGES:
        for path in sorted((SRC / package).rglob("*.py")):
            for func, line in compiled_imports(path):
                edges[(path.relative_to(SRC).as_posix(), func)] = line
    assert set(edges) == {FACTORY}, edges


def test_the_factory_imports_only_the_engine():
    tree = ast.parse((SRC / FACTORY[0]).read_text())
    (factory,) = [
        n for n in ast.walk(tree)
        if isinstance(n, ast.FunctionDef) and n.name == FACTORY[1]
    ]
    (imp,) = [n for n in ast.walk(factory) if isinstance(n, ast.ImportFrom)]
    assert imp.module == "repro.compiled"
    assert {a.name for a in imp.names} == {"CompiledEngine"}


def test_the_loader_imports_its_tools_lazily():
    # ctypes, subprocess, hashlib, ... load on first use of the kernel, not
    # with the package.
    tree = ast.parse(Path(native.__file__).read_text())
    top = {
        alias.name.split(".")[0]
        for node in tree.body if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in (node.names if isinstance(node, ast.Import)
                      else [ast.alias(node.module or "")])
    }
    assert top <= {"__future__", "os", "threading", "pathlib", "repro"}, top


def test_importing_the_cli_loads_no_compiled_module():
    code = (
        "import sys, repro.cli\n"
        "print(sorted(m for m in sys.modules if m.startswith('repro.compiled')))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], stdout=subprocess.PIPE, text=True,
        check=True, env=dict(os.environ, PYTHONPATH=str(SRC.parent)),
    ).stdout
    assert out.strip() == "[]"
