"""The package's modules import only from the layers below them."""

from __future__ import annotations

import ast
from pathlib import Path

import triregion

#: Each module may import from the modules before it, and from no other.
LAYERS = (
    "monomials", "regions", "matrices", "tilings", "lefschetz",
    "families", "stability", "render", "cli", "__init__",
)


def imported_modules(path: Path) -> list[str | None]:
    """The module of every relative ``from .x import`` in the file, at any
    depth of its code; ``from . import x`` gives None, which no layer is."""
    tree = ast.parse(path.read_text(), str(path))
    return [node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.level]


def test_modules_import_only_earlier_layers():
    package = Path(triregion.__file__).parent
    files = {path.stem: path for path in package.glob("*.py")}
    assert set(files) == set(LAYERS)
    for layer, name in enumerate(LAYERS):
        for module in imported_modules(files[name]):
            assert module in LAYERS[:layer], f"{name} imports {module}"
