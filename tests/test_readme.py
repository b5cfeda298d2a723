"""The README's library example runs against the current API."""

import re
from pathlib import Path

README = Path(__file__).parent.parent / "README.md"


def library_example() -> str:
    text = README.read_text()
    section = text.split("\n## Library\n", 1)[1]
    match = re.search(r"```python\n(.*?)```", section, re.S)
    assert match, "no python block under ## Library"
    return match.group(1)


def test_readme_library_example_runs():
    namespace: dict = {}
    exec(compile(library_example(), str(README), "exec"), namespace)
    assert namespace["leaves"]
