"""The README's "Library" example runs against the current API."""

import re
from pathlib import Path

from iminfector.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def library_example():
    """The first ``python`` code block of the README's "Library" section."""
    text = README.read_text(encoding="utf-8")
    section = text[text.index("\n## Library\n") :]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_library_example_runs(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["synth", "--out", "cascades.txt"]) == 0
    capsys.readouterr()
    exec(compile(library_example(), str(README), "exec"), {})
    printed = capsys.readouterr().out.split()
    # DNI of the CELF seeds, then of the average-size baseline's top 10
    assert len(printed) == 2 and all(value.isdigit() for value in printed)
