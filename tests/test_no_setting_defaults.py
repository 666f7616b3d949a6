"""``TrainConfig`` is the only home of the trainer's settings.

No function in ``src/crossview`` gives a parameter a default value of its
own, so a trainer setting's default lives only in ``TrainConfig``.
A default of ``None`` means "not given" and is always allowed. Otherwise
only the arguments below may carry one: the labels that ``as_matrix`` and
``ensure_finite`` put into their error messages, and ``Rng``'s key path and
draw arguments. None of them is a training setting.

No other dataclass keeps a copy of a setting under its ``TrainConfig``
name: a layer takes the config, or the one value it needs as an argument.
``SyntheticSpec`` describes a corpus, and its ``seed`` is the corpus's own."""

import ast
from dataclasses import fields
from pathlib import Path

from crossview.config import TrainConfig
from test_unread_fields import _is_dataclass

SRC = Path(__file__).resolve().parents[1] / "src" / "crossview"

ALLOWED = {
    ("numcore", "as_matrix", "name"),
    ("numcore", "ensure_finite", "what"),
    ("numcore", "Rng.__init__", "_key"),
    ("numcore", "Rng.normal", "scale"),
    ("numcore", "Rng.choice", "replace"),
}


def parameter_defaults(tree: ast.Module):
    """(qualified function name, parameter, default node) of every
    defaulted parameter of a module's functions and methods."""

    def walk(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                yield from walk(child, f"{prefix}{child.name}.")
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = prefix + child.name
                args = child.args
                positional = args.posonlyargs + args.args
                defaulted = list(zip(positional[len(positional) - len(args.defaults):], args.defaults))
                defaulted += [(a, d) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
                for arg, default in defaulted:
                    yield name, arg.arg, default
                yield from walk(child, f"{name}.")

    yield from walk(tree, "")


def test_no_parameter_repeats_a_setting_default():
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for function, param, default in parameter_defaults(tree):
            if isinstance(default, ast.Constant) and default.value is None:
                continue
            if (path.stem, function, param) not in ALLOWED:
                found.append(f"{path.stem}.{function}({param}={ast.unparse(default)})")
    assert found == []


def test_no_dataclass_copies_a_setting():
    settings = {f.name for f in fields(TrainConfig)}
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.ClassDef) or not _is_dataclass(node):
                continue
            if node.name in ("TrainConfig", "SyntheticSpec"):
                continue
            found += [
                f"{node.name}.{stmt.target.id}"
                for stmt in node.body
                if isinstance(stmt, ast.AnnAssign) and getattr(stmt.target, "id", None) in settings
            ]
    assert found == []
