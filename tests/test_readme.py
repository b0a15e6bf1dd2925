"""README's library sketch runs as written, so the documented API cannot
drift from the package."""

import pathlib
import re

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_sketch_runs():
    text = README.read_text(encoding="utf-8")
    assert "## Library sketch" in text
    section = text.split("## Library sketch", 1)[1]
    blocks = re.findall(r"```python\n(.*?)```", section, flags=re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md (Library sketch)", "exec"), {})
