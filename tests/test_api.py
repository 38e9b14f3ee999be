"""Every exported name is reached by the product, or says why it is kept,
and the closed forms and the FD oracle import nothing from each other.

A name counts as reached when it is mentioned in the package source (other
than `__init__.py` and its own ``def`` or ``class`` line), in a demo, in the
benchmark or in the acceptance suite.  A name that only unit tests reach is
deleted with those tests, unless `KEEP` gives the reason to keep it.
"""

import ast
import inspect
import re
from pathlib import Path

import solitonlab

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "solitonlab"

KEEP = {
    "dw_rhs": "the paper's reduced system of the doubly-warped soliton",
    "warp3_rhs": "the paper's reduced system of the warped product",
    "family_metric": "a family's coordinate metric as 4 x 4 matrices; FD grids store "
                     "its diagonal (family_diagonal)",
}


def exported_names():
    return sorted(name for name, obj in vars(solitonlab).items()
                  if not name.startswith("_") and not inspect.ismodule(obj))


def reaching_text():
    """The text in which a mention counts."""
    files = [f for f in sorted(PACKAGE.glob("*.py")) if f.name != "__init__.py"]
    files += sorted((ROOT / "demos").glob("*.py")) + sorted((ROOT / "bench").glob("*.py"))
    files.append(ROOT / "tests" / "test_acceptance.py")
    return "\n".join(f.read_text() for f in files)


def is_reached(name, text):
    own_definition = rf"(?m)^\s*(?:def|class)\s+{name}\b.*$"
    return re.search(rf"\b{name}\b", re.sub(own_definition, "", text)) is not None


def test_every_exported_name_is_reached_or_kept():
    text = reaching_text()
    unreached = {name for name in exported_names() if not is_reached(name, text)}
    assert sorted(unreached - set(KEEP)) == []
    # a kept name that the product reaches or no longer exports leaves KEEP
    assert sorted(set(KEEP) - unreached) == []


# the package modules each module may import: the closed forms and the FD
# oracle share only the metric and the errors, and meet in `verify`; the
# metric module takes the reduced states, and nothing of either side
ALLOWED_IMPORTS = {
    "families": {"errors", "reduced"},
    "reduced": {"errors"},
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
