"""README's library quick start runs as written, so an API change that
breaks it fails here instead of in a reader's session."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def quick_start() -> str:
    text = README.read_text()
    section = text[text.index("## Library quick start"):]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_quick_start_runs(capsys):
    exec(compile(quick_start(), "README.md (library quick start)", "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    assert printed[0] == "True"  # log L <= the coefficient-mass bound
    assert printed[1].startswith("{")  # the report's inequality flags
