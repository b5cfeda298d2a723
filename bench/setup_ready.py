"""Bring the CLI to its ready state: import it and build both JSON-Schema validators.

``run.py`` times this script in a fresh interpreter for ``setup_s``; the
worker calls :func:`ready` before its first timed pass.
"""

from __future__ import annotations

import sys
from pathlib import Path

SETUP = Path(__file__).resolve().parent / "setup"


def ready() -> None:
    from toroidalize import cli, scenario_io  # noqa: F401

    scenario_io.load_scenario_doc(SETUP / "smooth.json")
    scenario_io.load_trace(SETUP / "smooth_trace.json")


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    ready()
