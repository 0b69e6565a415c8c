"""The package namespace exports exactly what ``__all__`` lists, and the
package imports nothing outside numpy and the standard library."""
import ast
import pathlib
import sys

import cxsect

SRC = pathlib.Path(cxsect.__file__).resolve().parent


def test_all_names_resolve():
    assert [name for name in cxsect.__all__ if not hasattr(cxsect, name)] == []
    assert len(set(cxsect.__all__)) == len(cxsect.__all__)


def test_only_numpy_and_the_standard_library_are_imported():
    allowed = set(sys.stdlib_module_names) | {"numpy"}
    foreign = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            foreign += [f"{path.name}: {name}" for name in names
                        if name.split(".")[0] not in allowed]
    assert foreign == []
