"""Where benchmark result files (``BENCH_*.json``) are written.

By default every benchmark writes its JSON under the git-ignored
``.bench_build/bench/`` directory, so running the suite leaves the tracked
records at the repository root untouched.  ``REPRO_BENCH_DIR`` redirects the
whole suite; regenerate the tracked records on purpose with::

    REPRO_BENCH_DIR=. PYTHONPATH=src python -m pytest benchmarks/

The directory is created on first use.  Relative paths resolve against the
current working directory.
"""

from __future__ import annotations

import os
from pathlib import Path

_DEFAULT_DIR = Path(__file__).resolve().parent.parent / ".bench_build" / "bench"


def bench_dir() -> Path:
    """The directory results go to: ``$REPRO_BENCH_DIR`` or ``.bench_build/bench/``."""
    override = os.environ.get("REPRO_BENCH_DIR", "").strip()
    return Path(override).resolve() if override else _DEFAULT_DIR


def results_path(name: str) -> Path:
    """Absolute path for one result file, creating the directory if needed."""
    directory = bench_dir()
    directory.mkdir(parents=True, exist_ok=True)
    return directory / name
