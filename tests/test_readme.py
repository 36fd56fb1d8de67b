"""The README's library example runs against the current API."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def _section_python_blocks(heading: str) -> list:
    """The fenced python blocks between the heading and the next heading of
    the same level."""
    text = README.read_text()
    start = text.index(f"\n{heading}\n")
    end = text.find("\n## ", start + 1)
    section = text[start : end if end != -1 else len(text)]
    return re.findall(r"```python\n(.*?)```", section, flags=re.DOTALL)


def test_readme_library_example_runs():
    blocks = _section_python_blocks("## Library")
    assert len(blocks) == 1
    exec(compile(blocks[0], f"{README.name} (Library)", "exec"), {})
