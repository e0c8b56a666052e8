"""The README's "Library" example runs against the current API, the
README names the native library's functions and every manifest field,
and the public names it lists as removed are gone."""

import dataclasses
import importlib
import json
import pkgutil
import re
from pathlib import Path

import iminfector
from iminfector.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def library_example():
    """The first ``python`` code block of the README's "Library" section."""
    text = README.read_text(encoding="utf-8")
    section = text[text.index("\n## Library\n") :]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def native_library_names():
    """The function names and the other names the README lists for the
    module ``iminfector._native_lib``, remarks in parentheses left out."""
    text = README.read_text(encoding="utf-8")
    start = text.index("`iminfector._native_lib`,")
    sentence = re.sub(r"\([^()]*\)", "", text[start : text.index(". Its functions", start)])
    functions, others = sentence.split("whose other names are")
    return re.findall(r"`(\w+)`", functions), re.findall(r"`(\w+)`", others)


def without_remarks(text):
    """``text`` with its remarks in parentheses left out, innermost first,
    so that nested ones go too."""
    while True:
        shorter = re.sub(r"\([^()]*\)", "", text)
        if shorter == text:
            return text
        text = shorter


def manifest_fields():
    """The names the README lists under "Manifest fields", remarks in
    parentheses left out."""
    text = README.read_text(encoding="utf-8")
    start = text.index("Manifest fields:")
    return set(re.findall(r"`(\w+)`", without_remarks(text[start : text.index("\n\n", start)])))


def removed_public_names():
    """The names the README lists under "Removed public names", remarks in
    parentheses left out."""
    text = README.read_text(encoding="utf-8")
    start = text.index("Removed public names:")
    paragraph = without_remarks(text[start : text.index("\n\n", start)])
    return re.findall(r"`([A-Za-z_][\w.]*)`", paragraph)


def test_readme_removed_public_names_are_gone():
    # the list cannot drift from the API: a name listed as removed is in no
    # module of the package, and a dotted one is not on its class
    names = removed_public_names()
    assert "core_numbers" in names and "Cascade.event_nodes" in names
    assert {"SpreadBudget", "Cascade.nodes", "Cascade.size"} <= set(names)
    modules = [iminfector] + [
        importlib.import_module(f"iminfector.{info.name}")
        for info in pkgutil.iter_modules(iminfector.__path__)
        if info.name != "__main__"
    ]
    for name in names:
        owner, _, attr = name.rpartition(".")
        if owner:
            cls = getattr(iminfector, owner)
            fields = [f.name for f in dataclasses.fields(cls)] if dataclasses.is_dataclass(cls) else []
            assert not hasattr(cls, attr) and attr not in fields, name
        else:
            assert not any(hasattr(module, attr) for module in modules), name


def test_readme_names_the_native_library_functions(built_library):
    # a function deleted from the library cannot stay documented
    functions, others = native_library_names()
    public = [name for name in dir(built_library) if not name.startswith("_")]
    assert sorted(functions) == [name for name in public if callable(getattr(built_library, name))]
    assert sorted(others) == [name for name in public if not callable(getattr(built_library, name))]


def test_readme_library_example_runs(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["synth", "--out", "cascades.txt"]) == 0
    capsys.readouterr()
    exec(compile(library_example(), str(README), "exec"), {})
    printed = capsys.readouterr().out.split()
    # DNI of the CELF seeds, then of the average-size baseline's top 10
    assert len(printed) == 2 and all(value.isdigit() for value in printed)


# Every subcommand, on a small synth corpus, with each file a later one reads.
SUBCOMMANDS = [
    ["synth", "--nodes", "60", "--cascades", "60", "--planted", "2", "--lures", "2",
     "--out", "c.txt", "--edges-out", "e.txt"],
    ["split", "--cascades", "c.txt", "--train-out", "train.txt", "--test-out", "test.txt"],
    ["stats", "--train", "train.txt", "--test", "test.txt", "--out", "stats.tsv"],
    ["train", "--cascades", "train.txt", "--embed-dim", "4", "--epochs", "1", "--out", "m.infv"],
    ["rank", "--model", "m.infv", "--out", "d.bin"],
    ["seed", "--dmatrix", "d.bin", "--out", "s.txt"],
    ["evaluate", "--seeds", "s.txt", "--test", "test.txt", "--out", "r.tsv"],
    ["baseline", "--method", "kcore", "--edges", "e.txt", "--out", "k.txt"],
    ["baseline", "--method", "avgsize", "--train", "train.txt", "--out", "a.txt"],
    ["pipeline", "--cascades", "c.txt", "--outdir", "run", "--embed-dim", "4", "--epochs", "1"],
]


def test_readme_names_every_manifest_field(tmp_path, monkeypatch, capsys):
    # the list cannot drift from the manifests: every top-level key a
    # subcommand writes is named there, and every name there is written
    monkeypatch.chdir(tmp_path)
    written = set()
    for k, argv in enumerate(SUBCOMMANDS):
        assert main([*argv, "--manifest", f"{k}.json"]) == 0, argv
        with open(f"{k}.json", encoding="utf-8") as fh:
            written |= json.load(fh).keys()
    capsys.readouterr()
    assert manifest_fields() - {argv[0] for argv in SUBCOMMANDS} == written
