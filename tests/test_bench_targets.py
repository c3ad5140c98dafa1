"""The benchmark tracer's targets still name functions of the package.

``bench/tracing.py`` wraps each target by module and attribute name and
reports a name that no longer resolves as unmeasured, so a deletion or a
rename would otherwise only show as a per-layer metric reading 0.
"""

import importlib
import sys
from pathlib import Path

import pytest

BENCH = str(Path(__file__).resolve().parents[1] / "bench")
sys.path.insert(0, BENCH)
try:
    from tracing import TARGETS
finally:
    sys.path.remove(BENCH)

# Targets whose functions were deleted or moved before this guard existed.
# Each must keep failing to resolve, so that fixing one updates this list.
STALE = {
    ("scg", "window_matrix"),
    ("detector", "window_matrix"),
    ("scg", "sse_loss"),
    ("scg", "gradient"),
}


def test_stale_targets_are_still_listed():
    assert STALE <= set(TARGETS)


@pytest.mark.parametrize("module,attr", TARGETS, ids=[".".join(target) for target in TARGETS])
def test_target_resolves_unless_known_stale(module, attr):
    fn = getattr(importlib.import_module(f"bgpnovelty.{module}"), attr, None)
    assert callable(fn) == ((module, attr) not in STALE)
