"""Every target the benchmark's tracer names must exist in qtopo.

The tracer skips a target it cannot resolve, so a renamed or deleted
function would silently drop its per-layer metrics from a traced run.
"""

import sys
from pathlib import Path

import qtopo.cli  # noqa: F401  (the tracer patches only modules already imported)
import qtopo.invariants  # noqa: F401
import qtopo.linkalg  # noqa: F401
import qtopo.linkgeom  # noqa: F401
import qtopo.numtheory  # noqa: F401
import qtopo.qsim  # noqa: F401

BENCH = Path(__file__).resolve().parents[1] / "bench"
if str(BENCH) not in sys.path:
    sys.path.insert(0, str(BENCH))

import tracing  # noqa: E402


def test_every_traced_target_is_installed():
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert tracer.installed == {group for _, _, group, _ in tracing.TARGETS}
    finally:
        tracer.uninstall()
