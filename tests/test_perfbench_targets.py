"""The traced benchmark run's layer boundaries must exist in ``src/``.

``perfbench/tracing.py`` wraps program functions by ``module:qualname``
and, by design, only reports a target it cannot find as missing — the
run goes on and that layer's per-layer metrics read 0.  This test
resolves every target up front, so renaming or deleting a wrapped
function fails tier-1 instead of silently zeroing a metric.  It only
reads ``perfbench/``.
"""

from __future__ import annotations

import importlib
import sys
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parents[1]
if str(_ROOT) not in sys.path:
    sys.path.insert(0, str(_ROOT))

# Import without leaving bytecode behind in perfbench/.
_WRITE_BYTECODE, sys.dont_write_bytecode = sys.dont_write_bytecode, True
from perfbench.tracing import TARGETS  # noqa: E402

sys.dont_write_bytecode = _WRITE_BYTECODE


@pytest.mark.parametrize("where", sorted({t.where for t in TARGETS}))
def test_trace_target_resolves(where):
    module_name, qualname = where.split(":")
    owner = importlib.import_module(module_name)
    for part in qualname.split("."):
        assert hasattr(owner, part), \
            f"trace target {where} is missing: {part!r} not found"
        owner = getattr(owner, part)
    assert callable(owner), f"trace target {where} is not callable"
