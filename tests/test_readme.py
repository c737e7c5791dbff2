import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).parents[1] / "README.md"


def test_library_example_runs_as_written():
    text = README.read_text()
    section = text[text.index("## Library example") :]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {})
    assert out.getvalue() == "1/2 >= 1/30 True\n"
