"""Every exported name is reached by the product, or says why it is kept,
and the closed forms and the FD oracle import nothing from each other.

A name counts as reached when the code of the package or of the acceptance
suite reads it, as a variable or an attribute.  Docstrings, comments, the
demos and the benchmark do not count.  A name that only unit tests reach is
deleted with those tests, unless `KEEP` gives the reason to keep it.
"""

import ast
import inspect
import os
import subprocess
import sys
from pathlib import Path

import solitonlab

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "solitonlab"

KEEP = {
    "warp3_rhs": "the paper's reduced system of the warped product",
    "family_metric": "a family's coordinate metric as 4 x 4 matrices; FD grids store "
                     "its diagonal (family_diagonal)",
    "sym_eigen": "the benchmark's per-node oracle loop (bench/workloads.oracle_deviations) "
                 "calls it until that loop moves to the library's batched route",
}


def exported_names():
    return sorted(name for name, obj in vars(solitonlab).items()
                  if not name.startswith("_") and not inspect.ismodule(obj))


def read_names():
    """Every name that the code of the package or of the acceptance suite
    reads: loaded variables and attributes."""
    names = set()
    for f in sorted(PACKAGE.glob("*.py")) + [ROOT / "tests" / "test_acceptance.py"]:
        for node in ast.walk(ast.parse(f.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                names.add(node.attr)
    return names


def test_every_exported_name_is_reached_or_kept():
    unreached = set(exported_names()) - read_names()
    assert sorted(unreached - set(KEEP)) == []
    # a kept name that the product reaches or no longer exports leaves KEEP
    assert sorted(set(KEEP) - unreached) == []


# the package modules each module may import: the closed forms and the FD
# oracle share only the metric and the errors, and meet in `verify`; the
# metric module takes the reduced states, and nothing of either side; the
# reduced system judges its identities by the evidence rule of `report`
ALLOWED_IMPORTS = {
    "families": {"errors", "reduced"},
    "reduced": {"errors", "report"},
    "report": {"errors"},
    "fdgrid": {"errors", "families", "frames"},
    "curvature": {"errors", "families"},
}


def package_imports(module):
    """The solitonlab modules that ``module`` imports, by name."""
    found = set()
    for node in ast.walk(ast.parse((PACKAGE / f"{module}.py").read_text())):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = ("solitonlab." * node.level + (node.module or "")).rstrip(".")
            names = [f"{base}.{a.name}" for a in node.names]  # a module, or a name in one
        else:
            continue
        found |= {n.split(".")[1] for n in names if n.startswith("solitonlab.")}
    return found


def test_closed_forms_and_fd_oracle_import_only_the_shared_modules():
    for module, allowed in ALLOWED_IMPORTS.items():
        assert package_imports(module) <= allowed, module


def imported_names(path):
    """The dotted names that the file at ``path`` imports ("m.x" for
    ``from m import x``; a relative import starts with ".")."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names |= {a.name for a in node.names}
        elif isinstance(node, ast.ImportFrom):
            names |= {f"{node.module or ''}.{a.name}" for a in node.names}
    return names


def test_exact_witness_imports_only_the_standard_library_and_sympy():
    # so that no fault of the package can hide in what it proves
    roots = {name.split(".")[0] for name in imported_names(ROOT / "tests" / "symbolic.py")}
    assert roots - sys.stdlib_module_names == {"sympy"}


def test_test_helpers_take_nothing_from_the_closed_forms():
    # the exact witness is the tables' one reference: no float stand-in beside it
    names = imported_names(ROOT / "tests" / "helpers.py")
    assert not [n for n in names if f"{n}.".startswith("solitonlab.curvature.")]


def test_importing_the_package_leaves_sympy_out():
    code = "import sys, solitonlab, solitonlab.cli; print('sympy' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert run.stdout == "False\n"
