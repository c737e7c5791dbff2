import contextlib
import io
import re
from pathlib import Path

import pytest

from nwgame.cli import CONFIG_FIELDS, HARDCORE_FIELDS
from nwgame.design import DESIGN_FIELDS
from nwgame.generator import INSTANCE_FIELDS

README = Path(__file__).parents[1] / "README.md"


def test_library_example_runs_as_written():
    text = README.read_text()
    section = text[text.index("## Library example") :]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {})
    assert out.getvalue() == "1/2 >= 1/30 True\n"


def _table_fields(anchor):
    """The first column of the first field table after `anchor` in README."""
    text = README.read_text()
    table = text[text.index(anchor) :].split("| field |", 1)[1].split("\n\n", 1)[0]
    return [re.match(r"\| `(\w+)` \|", row).group(1) for row in table.splitlines()[2:]]


@pytest.mark.parametrize(
    "anchor, fields",
    [
        ("## Experiment configs", CONFIG_FIELDS),
        ("The `hardcore` object", HARDCORE_FIELDS),
        ("A design file is read", DESIGN_FIELDS),
        ("An instance file is read", INSTANCE_FIELDS),
    ],
    ids=["run-config", "hardcore", "design-file", "instance-file"],
)
def test_readme_field_tables_list_the_reader_tables(anchor, fields):
    assert sorted(_table_fields(anchor)) == sorted(fields)
