"""The benchmark harness's contract with the program: every layer its tracer
wraps resolves on qdelta, and its own self-test passes on today's code."""

from __future__ import annotations

import importlib
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"


def test_traced_layers_resolve(monkeypatch):
    # a renamed or deleted function would make `perfbench/run.py --trace 1`
    # raise AttributeError when the tracer installs its wrappers
    monkeypatch.syspath_prepend(str(PERFBENCH))
    layertrace = importlib.import_module("layertrace")
    for name, (module, attr) in layertrace.SPANS.items():
        target = getattr(importlib.import_module(f"qdelta.{module}"), attr, None)
        assert callable(target), f"{name}: qdelta.{module}.{attr} is missing"


def test_selftest_passes():
    out = PERFBENCH / "out"
    before = set(out.iterdir()) if out.is_dir() else set()
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "selftest.py")],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]
    # the self-test works in a temporary directory under perfbench/out and
    # removes it
    assert set(out.iterdir()) == before
