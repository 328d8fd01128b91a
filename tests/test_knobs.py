"""The environment knobs: every ``REPRO_*`` variable the program reads
is named in README.md or docs/*.md, and every one they name is read."""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: A knob as the program reads it: a quoted ``REPRO_*`` string literal.
READ = re.compile(r"""["'](REPRO_[A-Z0-9_]+)["']""")
#: A knob as the documents name it.
NAMED = re.compile(r"\bREPRO_[A-Z0-9_]+\b")


def read_by_src():
    return {name for path in (ROOT / "src").rglob("*.py")
            for name in READ.findall(path.read_text(encoding="utf-8"))}


def named_by_docs():
    docs = [ROOT / "README.md", *sorted((ROOT / "docs").glob("*.md"))]
    return {name for path in docs
            for name in NAMED.findall(path.read_text(encoding="utf-8"))}


def test_every_knob_the_program_reads_is_documented():
    assert read_by_src(), "found no knobs: the pattern no longer matches"
    assert sorted(read_by_src() - named_by_docs()) == []


def test_every_documented_knob_is_one_the_program_reads():
    assert sorted(named_by_docs() - read_by_src()) == []
