"""Every public name in `src/defectkit` has a caller outside the tests.

A public top-level function or class, or a public method of any class (a
private class's too), must appear as a whole word somewhere in `src/`,
`demos/`, `README.md` or `perfbench/`, outside its own definition and outside
`__init__.py` (whose re-exports are not callers).  A name only the tests use is API nobody runs;
delete it, or move what the tests need into `tests/`.  Likewise every field of a
`@dataclass` must be named as `.field` somewhere in those files.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "defectkit"


def public_definitions():
    """(module path, name, first line, last line) of every public definition."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if not node.name.startswith("_"):
                found.append((path, node.name, node.lineno, node.end_lineno))
            if isinstance(node, ast.ClassDef):
                found += [(path, item.name, item.lineno, item.end_lineno)
                          for item in node.body
                          if isinstance(item, ast.FunctionDef)
                          and not item.name.startswith("_")]
    return found


def caller_files():
    files = [p for p in (ROOT / "src").rglob("*.py") if p.name != "__init__.py"]
    files += (ROOT / "demos").glob("*.py")
    files += (ROOT / "perfbench").glob("*.py")
    return files + [ROOT / "README.md"]


def test_every_public_name_has_a_caller():
    texts = {path: path.read_text(encoding="utf-8").splitlines() for path in caller_files()}
    uncalled = []
    for module, name, first, last in public_definitions():
        word = re.compile(rf"\b{re.escape(name)}\b")
        if not any(word.search(line)
                   for path, lines in texts.items()
                   for number, line in enumerate(lines, start=1)
                   if not (path == module and first <= number <= last)):
            uncalled.append(f"{module.stem}.{name}")
    assert not uncalled, f"public names with no caller outside tests: {uncalled}"


def test_every_export_resolves():
    import defectkit
    missing = [name for name in defectkit.__all__ if not hasattr(defectkit, name)]
    assert not missing, f"names in defectkit.__all__ that the package does not define: {missing}"


def dataclass_fields():
    """(module stem, class name, field name) of every field of a @dataclass in the package."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ClassDef) and any(
                    getattr(d.func if isinstance(d, ast.Call) else d, "id", "") == "dataclass"
                    for d in node.decorator_list):
                found += [(path.stem, node.name, item.target.id) for item in node.body
                          if isinstance(item, ast.AnnAssign)]
    return found


def test_every_dataclass_field_is_read():
    # A field no `.name` names outside the tests is state kept in step for nothing.
    text = "\n".join(path.read_text(encoding="utf-8") for path in caller_files())
    unread = [f"{module}.{cls}.{name}" for module, cls, name in dataclass_fields()
              if not re.search(rf"\.{name}\b", text)]
    assert not unread, f"dataclass fields nothing reads: {unread}"
