"""The package's export list is the set of public names it imports, and the
package imports nothing but itself and the standard library."""
import ast
import sys
from pathlib import Path

import invdel
from invdel import cayley, npc


def test_export_list_is_the_imported_public_names():
    assert len(invdel.__all__) == len(set(invdel.__all__))
    assert [name for name in invdel.__all__ if not hasattr(invdel, name)] == []
    tree = ast.parse(Path(invdel.__file__).read_text(encoding="utf-8"))
    imported = {alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert set(invdel.__all__) == {name for name in imported if not name.startswith("_")}


def test_check_only_routes_are_not_in_the_package():
    # the class-graph route and the bitset split scan live in tests/oracles.py
    for module in (invdel, cayley, npc):
        for name in ("solve_pair_via_cayley", "partition_brute"):
            assert not hasattr(module, name), (module.__name__, name)


def test_package_imports_only_itself_and_the_standard_library():
    # no runtime dependency, and no package code imports a test oracle
    outside = []
    for path in sorted(Path(invdel.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            elif isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            else:
                continue
            outside += [(path.name, name) for name in names
                        if name.split(".")[0] not in sys.stdlib_module_names]
    assert outside == []
