"""The code in README.md runs as written.

Every ```json block is an algebra document that ``parse_algebra`` accepts,
and the Quick start block prints, line by line, what the ``#`` comment on
each of its ``print`` calls says.
"""

import contextlib
import io
import re
from pathlib import Path

from gpstable.algebra import parse_algebra

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def blocks(lang):
    return re.findall(rf"^```{lang}\n(.*?)^```$", README, re.M | re.S)


def test_json_blocks_parse():
    docs = blocks("json")
    assert docs
    for doc in docs:
        parse_algebra(doc)


def test_quick_start_prints_its_comments():
    quick_start = README.split("## Quick start", 1)[1]
    code = re.search(r"^```python\n(.*?)^```$", quick_start, re.M | re.S)[1]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {})
    prints = [line for line in code.splitlines() if line.startswith("print(")]
    printed = out.getvalue().splitlines()
    assert len(printed) == len(prints)
    commented = [(line, got) for line, got in zip(prints, printed) if "# " in line]
    assert commented
    for line, got in commented:
        assert got == line.rpartition("# ")[2], line
