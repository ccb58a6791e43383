#!/usr/bin/env python
"""Markdown link checker for the repo's documentation.

Scans the given markdown files (or the default doc set) for inline
links and reference-style definitions, and verifies that every
*relative* link target exists on disk, resolved against the linking
file's directory.  Anchors (``page.md#section``) are checked for file
existence only; external links (``http://``, ``https://``, ``mailto:``)
are skipped — CI must not depend on the network.

Exit status: 0 when every link resolves, 1 otherwise (each broken link
is reported as ``file: target``).

Usage::

    python tools/check_links.py                  # default doc set
    python tools/check_links.py README.md docs/*.md
"""

from __future__ import annotations

import os
import re
import sys
from typing import Iterable, List, Tuple

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

DEFAULT_FILES = (
    "README.md",
    "DESIGN.md",
    "ROADMAP.md",
    "EXPERIMENTS.md",
    "docs/architecture.md",
    "docs/userguide.md",
    "docs/middleware.md",
    "docs/kernels.md",
    "docs/simulator.md",
    "docs/observability.md",
    "docs/service.md",
)

#: Inline links/images: [text](target) — target ends at the first
#: unnested ')' ; titles ("...") are stripped afterwards.
_INLINE = re.compile(r"!?\[[^\]]*\]\(([^)\s]+)(?:\s+\"[^\"]*\")?\)")
#: Reference definitions: [label]: target
_REFDEF = re.compile(r"^\s*\[[^\]]+\]:\s+(\S+)", re.MULTILINE)
#: Fenced code blocks are excluded from scanning.
_FENCE = re.compile(r"```.*?```", re.DOTALL)

_EXTERNAL = ("http://", "https://", "mailto:", "ftp://")


def extract_links(text: str) -> List[str]:
    text = _FENCE.sub("", text)
    return _INLINE.findall(text) + _REFDEF.findall(text)


def check_file(path: str) -> List[Tuple[str, str]]:
    """Return ``[(path, broken_target), ...]`` for one markdown file."""
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    base = os.path.dirname(os.path.abspath(path))
    broken = []
    for target in extract_links(text):
        if target.startswith(_EXTERNAL) or target.startswith("#"):
            continue
        rel = target.split("#", 1)[0]
        if not rel:
            continue
        resolved = os.path.normpath(os.path.join(base, rel))
        if not os.path.exists(resolved):
            broken.append((path, target))
    return broken


def main(argv: Iterable[str] | None = None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    files = args or [
        os.path.join(REPO_ROOT, f)
        for f in DEFAULT_FILES
        if os.path.exists(os.path.join(REPO_ROOT, f))
    ]
    broken: List[Tuple[str, str]] = []
    checked = 0
    for path in files:
        broken.extend(check_file(path))
        checked += 1
    for path, target in broken:
        print(f"BROKEN {os.path.relpath(path, REPO_ROOT)}: {target}",
              file=sys.stderr)
    print(f"checked {checked} files, {len(broken)} broken links")
    return 1 if broken else 0


if __name__ == "__main__":
    raise SystemExit(main())
