"""Locate the program under test and import it from source.

The benchmark runs from the root of a source checkout and imports
``repro`` from ``src/``.  Every ``REPRO_*`` environment variable is
dropped first, so no ambient tier, cache directory, fault plan or tracer
changes what is measured.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


class MissingProgram(RuntimeError):
    """The checkout holds the benchmark but not the program."""


def bootstrap() -> None:
    """Make ``import repro`` load this checkout's sources; raise
    :class:`MissingProgram` when they are absent."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise MissingProgram(f"no program sources under {SRC}")
    for name in [n for n in os.environ if n.startswith("REPRO_")]:
        del os.environ[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
