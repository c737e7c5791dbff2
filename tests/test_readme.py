import argparse
import contextlib
import io
import re
from pathlib import Path

import pytest

import nwgame
from nwgame.cli import CONFIG_FIELDS, HARDCORE_FIELDS, build_parser
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


def _code_block(anchor):
    """The first fenced block after `anchor` in README, lines ending in a
    backslash joined to the next."""
    text = README.read_text()
    block = text[text.index(anchor) :].split("```", 2)[1]
    return block.split("\n", 1)[1].replace("\\\n", " ")


def _leaf_parsers(parser, path=()):
    subs = [action for action in parser._actions if isinstance(action, argparse._SubParsersAction)]
    if not subs:
        yield path, parser
    for action in subs:
        for name, sub in action.choices.items():
            yield from _leaf_parsers(sub, (*path, name))


@pytest.mark.parametrize(
    "path, parser", [pytest.param(path, parser, id="-".join(path)) for path, parser in _leaf_parsers(build_parser())]
)
def test_readme_cli_block_lists_every_option(path, parser):
    # a word such as `census|reduce|advantage` names each of its subcommands
    lines = [
        line for line in _code_block("## CLI").splitlines()
        if all(name in word.split("|") for name, word in zip(path, line.split()[1:]))
    ]
    assert len(lines) == 1, f"nwgame {' '.join(path)} has {len(lines)} lines in the README CLI block"
    # the line names exactly the parser's options, apart from help and --out
    options = {option for action in parser._actions for option in action.option_strings}
    assert options - {"-h", "--help", "--out"} == set(re.findall(r"--[\w-]+", lines[0])) - {"--out"}


def test_readme_layout_lists_every_module():
    listed = re.findall(r"^  (\w+\.py) ", _code_block("## Layout"), re.M)
    modules = sorted(path.name for path in Path(nwgame.__file__).parent.glob("*.py"))
    assert sorted(listed) == [name for name in modules if name not in ("__init__.py", "__main__.py")]


def test_readme_names_no_private_attribute():
    assert re.findall(r"\w\._\w*", README.read_text()) == []
