"""The documentation names only what exists.

README.md (use), docs/ARCHITECTURE.md (design, algorithm, correctness)
and EXPERIMENTS.md (numbers) are the three documents; the API reference
is the docstrings under ``src/``.  Every repo-relative path, every
``repro <verb>`` and every ``§n`` section reference found in any of them
must resolve — to a file (and, for ``path::Name``, a definition in it), a
verb of :func:`repro.cli.build_parser`, a numbered heading of
docs/ARCHITECTURE.md — so a page can no longer describe a mechanism, a
script or a command some earlier change deleted.
"""

import glob
import re
from pathlib import Path

import pytest

from repro.cli import build_parser

ROOT = Path(__file__).resolve().parents[1]
DOCS = ["README.md", "docs/ARCHITECTURE.md", "EXPERIMENTS.md"]
SOURCES = DOCS + sorted(
    str(p.relative_to(ROOT)) for p in (ROOT / "src").rglob("*.py")
)

# ``tests/x.py::TestY::test_z``, ``specs/*.xml``, ``src/repro/serve/`` —
# or a bare upper-case top-level file such as ``ROADMAP.md``.
PATH = re.compile(
    r"(?<![\w/.-])"
    r"((?:src|tests|benchmarks|examples|specs|docs|\.github)/[\w./*-]*[\w/*]"
    r"|[A-Z][A-Za-z_]+\.(?:md|json))"
    r"((?:::\w+)*)"
)
VERB = re.compile(r"(?<![\w./-])(?<!from )repro ([a-z]+)\b")
SECTION = re.compile(r"§\s*(\d+(?:\.\d+)*)")
HEADING = re.compile(r"^#{2,4} (\d+(?:\.\d+)*)\.? ", re.MULTILINE)


def text_of(relative):
    return (ROOT / relative).read_text(encoding="utf-8")


VERBS = next(
    a.choices for a in build_parser()._actions if getattr(a, "choices", None)
)
HEADINGS = set(HEADING.findall(text_of("docs/ARCHITECTURE.md")))


def resolves(path):
    if "*" in path:
        return bool(glob.glob(str(ROOT / path), recursive=True))
    if "/" not in path:  # a bare name: the repo root, or docs/
        return (ROOT / path).exists() or (ROOT / "docs" / path).exists()
    return (ROOT / path).exists()


def test_the_old_pages_stay_folded():
    for gone in ("DESIGN.md", "docs/ALGORITHM.md", "docs/API.md"):
        assert not (ROOT / gone).exists(), f"{gone} is back: one page per job"
    assert HEADINGS


@pytest.mark.parametrize("source", SOURCES)
def test_every_reference_resolves(source):
    text = text_of(source)
    broken = []
    for path, names in PATH.findall(text):
        if not resolves(path):
            broken.append(f"path {path}")
            continue
        for name in filter(None, names.split("::")):
            if not re.search(rf"^\s*(?:def|class) {name}\b", text_of(path), re.M):
                broken.append(f"{path}::{name}")
    broken += [f"repro {v}" for v in VERB.findall(text) if v not in VERBS]
    broken += [f"§{n}" for n in SECTION.findall(text) if n not in HEADINGS]
    assert not broken, f"{source} names what does not exist: {sorted(set(broken))}"
