"""Locate the repository's ``src`` tree and import ``repro`` from it.

The benchmark always measures the source tree it ships beside, never an
installed copy: ``use_source_tree`` puts ``<repo>/src`` first on
``sys.path`` and exits non-zero when that tree is missing.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch space for store directories; removed when a run ends.
WORK = ROOT / ".perfbench_work"
#: Where a traced run writes its spans.
OUT = ROOT / ".perfbench_out"


def use_source_tree() -> None:
    """Make ``import repro`` load ``<repo>/src/repro`` or exit with code 2."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro source tree at {SRC}", file=sys.stderr)
        raise SystemExit(2)
    if sys.path[:1] != [str(SRC)]:
        sys.path.insert(0, str(SRC))
