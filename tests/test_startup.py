"""Start-up work, counted rather than timed: the modules that `import
pdawg.cli` loads in a fresh interpreter.

At the sizes the CLI is run on, a command's wall time is mostly interpreter
start-up and imports, so a heavy import costs every command.  With bytecode
present, `-X importtime` put `click` at 12.5 ms and `dataclasses` at 6.4 ms
more through `inspect`, which loads `ast`, `dis` and `tokenize`; without
either, `python -c "import pdawg.cli"` fell from 72.5 to 49.5 ms (medians of
15 runs).  The package uses neither, and no command but `selftest` loads the
cross-checks of `pdawg.verify`.  The product modules import nothing from the
check modules, `pdawg.oracles` and `pdawg.verify`, at module level.
"""

import ast
import subprocess
import sys
from pathlib import Path

import pdawg
from helpers import src_env

HEAVY = ("click", "inspect", "dataclasses", "ast", "dis", "tokenize")

PROBE = """\
import sys
before = set(sys.modules)
import pdawg.cli
print(" ".join(sorted(set(sys.modules) - before)))
"""


def test_cli_import_loads_no_heavy_module():
    out = subprocess.run(
        [sys.executable, "-c", PROBE], capture_output=True, text=True, env=src_env(), check=True
    ).stdout
    loaded = set(out.split())
    assert "pdawg.cli" in loaded
    assert loaded.isdisjoint(HEAVY), sorted(loaded & set(HEAVY))
    assert "pdawg.verify" not in loaded


def test_python_dash_m_pdawg_runs_the_command():
    result = subprocess.run(
        [sys.executable, "-m", "pdawg", "--version"], capture_output=True, text=True, env=src_env()
    )
    assert (result.returncode, result.stdout, result.stderr) == (
        0, f"pdawg, version {pdawg.__version__}\n", ""
    )


def test_package_import_leaves_the_command_unloaded():
    probe = "import sys, pdawg; print(sorted(m for m in sys.modules if m.startswith('pdawg')))"
    out = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=src_env(), check=True
    ).stdout
    assert "pdawg.__main__" not in out and "'pdawg'" in out


PRODUCT = ("pstrings", "pdawg", "matcher", "duality", "cli")
CHECKS = {"oracles", "verify"}


def _module_level_imports(tree):
    """The import statements of a module outside its functions and classes."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        elif not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            stack.extend(ast.iter_child_nodes(node))


def _imported_modules(node):
    """The last dotted part of each module an import statement names, so
    `.verify` and `pdawg.verify` both read as `verify`."""
    if isinstance(node, ast.ImportFrom) and node.module is not None:
        names = [node.module]
    else:
        names = [alias.name for alias in node.names]
    return {name.rsplit(".", 1)[-1] for name in names}


def test_product_modules_import_no_check_module():
    src = Path(pdawg.__file__).parent
    found = []
    for name in PRODUCT:
        path = src / f"{name}.py"
        for node in _module_level_imports(ast.parse(path.read_text(), str(path))):
            for module in _imported_modules(node) & CHECKS:
                found.append(f"{name}.py:{node.lineno} imports {module}")
    assert found == []
