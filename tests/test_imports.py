"""Every name a library module imports is used in that module.

``__init__.py`` is exempt because its imports are the package's public
names.  Elsewhere a deliberate re-export is written ``import x as x``.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "crossedprod"


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            aliases = node.names
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            aliases = node.names
        else:
            continue
        for alias in aliases:
            bound = alias.asname or alias.name.split(".")[0]
            if alias.asname != alias.name:  # "x as x" marks a re-export
                imported.setdefault(bound, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in sorted(imported.items(), key=lambda kv: kv[1])
            if name not in used]


def test_unused_imports_are_found():
    src = "import os\nfrom a import b, c as d, e as e\nfrom . import f\nprint(f)\n"
    assert unused_imports(src) == ["line 1: os", "line 2: b", "line 2: d"]


def test_library_modules_use_their_imports():
    found = {}
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        unused = unused_imports(path.read_text())
        if unused:
            found[path.name] = unused
    assert not found, f"unused imports: {found}"
