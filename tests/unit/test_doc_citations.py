"""Every Markdown file the code or the tests cite is in the repository.

A docstring or comment that cites a ``.md`` document sends its reader to
a file; this fails when that file is not there, so a citation of a
deleted or never-written document cannot stand. A name with a directory
part is looked up from the repository root, a bare name anywhere in it.
"""

from __future__ import annotations

import functools
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
_CITED = re.compile(r"[\w./-]*\w\.md\b")


def _files(*dirs: str):
    for name in dirs:
        for path in sorted((ROOT / name).rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                yield path


@functools.cache
def cited_documents() -> dict[str, list[str]]:
    """Cited ``*.md`` name → the files under ``src/`` and ``tests/`` citing it."""
    cited: dict[str, list[str]] = {}
    for path in _files("src", "tests"):
        text = path.read_text(errors="ignore")
        for name in set(_CITED.findall(text)):
            cited.setdefault(name, []).append(str(path.relative_to(ROOT)))
    return cited


def test_every_cited_markdown_file_exists():
    present = {
        part
        for path in ROOT.rglob("*.md")
        if ".git" not in path.parts
        for part in (str(path.relative_to(ROOT)), path.name)
    }
    missing = {
        name: where
        for name, where in cited_documents().items()
        if name.removeprefix("./") not in present
    }
    assert not missing, f"cited documents that do not exist: {missing}"


def test_the_check_sees_a_citation():
    """The scan has teeth: it finds the README this suite already cites."""
    assert "tests/unit/test_readme.py" in cited_documents()["README.md"]
    # Spelled in pieces, so that this file cites none of them itself.
    names = [stem + ".md" for stem in ("DESIGN", "EXPERIMENTS", "docs/a-b")]
    assert _CITED.findall("see {} §5, {}, {}.".format(*names)) == names
