"""Every dataclass field in ``src/crossview`` has a reader: its name appears
as an attribute access somewhere in the package, the tests or the benchmark.
A field that is only ever set is state that nothing uses."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "crossview"
# serialised field by field (to_dict, metrics_dict, the manifest's spec), so
# every field is read without its name being spelled out
SERIALISED = {"TrainConfig", "EpochRecord", "SyntheticSpec"}


def _is_dataclass(node: ast.ClassDef) -> bool:
    for deco in node.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        if getattr(target, "id", None) == "dataclass" or getattr(target, "attr", None) == "dataclass":
            return True
    return False


def dataclass_fields(path: Path) -> list[tuple[str, str]]:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return [
        (node.name, stmt.target.id)
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef) and _is_dataclass(node) and node.name not in SERIALISED
        for stmt in node.body
        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
    ]


def attributes_read(paths) -> set[str]:
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                names.add(node.attr)
    return names


def test_every_dataclass_field_is_read():
    sources = [p for d in ("src", "tests", "perfbench") for p in sorted((ROOT / d).rglob("*.py"))]
    read = attributes_read(sources)
    fields = [f for path in sorted(PACKAGE.glob("*.py")) for f in dataclass_fields(path)]
    assert fields
    assert [f"{cls}.{name}" for cls, name in fields if name not in read] == []
