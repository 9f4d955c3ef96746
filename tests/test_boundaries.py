"""Only `haar` knows the layout of the sigma-weighted Haar matrix.

`estimates` reaches `shifts` and `haar` through package-internal names, never
an underscored one; no other module of the package imports an underscored
name from `haar`; and `haar` imports nothing from `shifts`, so there is no
import cycle.  The imports are read from the source files with `ast`.
"""

import ast
import os
import re

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "dyadlab")


def _names_from(module, source):
    """The names `module` imports from the package module `source`, read
    with `ast` when its text holds `source` as a word at all."""
    with open(os.path.join(SRC, module + ".py"), encoding="utf-8") as fh:
        text = fh.read()
    if not re.search(rf"\b{source}\b", text):
        return []
    return [alias.name for node in ast.walk(ast.parse(text)) if isinstance(node, ast.ImportFrom)
            for alias in node.names
            if ((node.module or alias.name).removeprefix("dyadlab.") == source)]


def _modules():
    return sorted(f[:-3] for f in os.listdir(SRC) if f.endswith(".py"))


def test_estimates_imports_no_underscored_name_from_shifts_or_haar():
    assert [(source, name) for source in ("shifts", "haar")
            for name in _names_from("estimates", source) if name.startswith("_")] == []


def test_only_haar_uses_its_underscored_names():
    assert [(module, name) for module in _modules() if module != "haar"
            for name in _names_from(module, "haar") if name.startswith("_")] == []


def test_haar_imports_nothing_from_shifts():
    assert _names_from("haar", "shifts") == []
