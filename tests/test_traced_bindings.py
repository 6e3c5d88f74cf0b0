"""Every package binding the benchmark's tracer wraps must exist.

perfbench/tracing.py wraps condinv's functions under the names their
calling modules resolve them by (BOUNDARIES). A refactor that drops or
renames one of those bindings hides a layer from the traced metrics; this
check reads the table as it stands and fails on such a refactor here, not
only in the benchmark's slower self-tests.
"""

import importlib
import importlib.util
import os

import pytest

_TRACING = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench", "tracing.py"
)


def _boundaries() -> dict:
    spec = importlib.util.spec_from_file_location("perfbench_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.BOUNDARIES


BOUNDARIES = _boundaries()


@pytest.mark.parametrize("span", list(BOUNDARIES))
def test_traced_binding_exists(span):
    home, func = span.split(".", 1)
    original = getattr(importlib.import_module(f"condinv.{home}"), func)
    callers, _ = BOUNDARIES[span]
    for caller in callers:
        module = importlib.import_module(f"condinv.{caller}")
        assert hasattr(module, func), f"condinv.{caller}.{func} is gone"
        assert getattr(module, func) is original, f"condinv.{caller}.{func} is not {span}"
