"""The README's library example runs against the current API and prints
what its comments say, and its table of public names is the export list."""
import contextlib
import io
import re
from pathlib import Path

import invdel

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs():
    library = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    code = re.search(r"```python\n(.*?)```", library, re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {})
    assert out.getvalue().splitlines()[0] == "8 8 0"


def test_public_names_table_is_the_export_list():
    text = README.read_text(encoding="utf-8")
    after = text.split("The public names are those in `invdel.__all__`:\n", 1)[1]
    table = after.lstrip("\n").split("\n\n", 1)[0].splitlines()[2:]  # past the header rows
    names = [name for row in table for name in re.findall(r"`([^`]+)`", row.split("|")[2])]
    assert sorted(names) == sorted(invdel.__all__)
