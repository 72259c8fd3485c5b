"""The package's export list is the set of public names it imports."""
import ast
from pathlib import Path

import invdel


def test_export_list_is_the_imported_public_names():
    assert len(invdel.__all__) == len(set(invdel.__all__))
    assert [name for name in invdel.__all__ if not hasattr(invdel, name)] == []
    tree = ast.parse(Path(invdel.__file__).read_text(encoding="utf-8"))
    imported = {alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert set(invdel.__all__) == {name for name in imported if not name.startswith("_")}
