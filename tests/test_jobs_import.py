"""Every job entry point under ``jobs/`` imports cleanly.

The jobs are not run here (each one is minutes of Spark work); importing
them catches a job that still names a moved or deleted module.
"""
from __future__ import annotations

import importlib
from pathlib import Path

import pytest

JOBS = Path(__file__).resolve().parents[1] / "jobs"


@pytest.mark.parametrize("name", sorted(p.stem for p in JOBS.glob("*.py")))
def test_job_module_imports(name, monkeypatch):
    monkeypatch.syspath_prepend(str(JOBS))
    module = importlib.import_module(name)
    if not name.startswith("_"):
        assert callable(module.main)
