"""Layout guards, read off the source text: no engine runs here.

The oracle must stay independent of the engines it checks, and the
package must hold only what the engines, the CLI and the benchmark use;
test-only helpers belong in ``tests/reference.py``.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "dyntr"
USERS = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "benchmark").glob("*.py"))

# module-level definitions that nothing in src/dyntr or benchmark/ names,
# kept on purpose, one reason each
UNREFERENCED_ALLOWED = {
    "serialize_stream": "writes the stream format that parse_stream reads",
}


def _package_imports(path: Path) -> set[str]:
    """The ``dyntr`` modules a file imports, as dotted names."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            found |= {a.name for a in node.names if a.name.split(".")[0] == "dyntr"}
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:  # a relative import inside the package
                base = f"dyntr.{base}".rstrip(".")
            if base == "dyntr":
                found |= {f"dyntr.{a.name}" for a in node.names}
            elif base.startswith("dyntr."):
                found.add(base)
    return found


def test_oracle_imports_no_engine():
    assert _package_imports(PACKAGE / "oracle.py") == {"dyntr.errors", "dyntr.graph_core"}
    assert _package_imports(ROOT / "tests" / "reference.py") == {
        "dyntr.errors",
        "dyntr.graph_core",
        "dyntr.oracle",
    }


def test_every_package_definition_is_named_outside_itself():
    texts = {path: path.read_text() for path in USERS}
    unreferenced = []
    for path in sorted(PACKAGE.glob("*.py")):
        lines = texts[path].splitlines()
        for node in ast.parse(texts[path]).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            first = min([node.lineno] + [d.lineno for d in node.decorator_list])
            own = "\n".join(lines[: first - 1] + lines[node.end_lineno :])
            word = re.compile(rf"\b{node.name}\b")
            others = (text for p, text in texts.items() if p != path)
            if not word.search(own) and not any(word.search(t) for t in others):
                unreferenced.append(node.name)
    assert sorted(unreferenced) == sorted(UNREFERENCED_ALLOWED)
