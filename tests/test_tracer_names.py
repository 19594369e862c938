"""Every function the benchmark's span recorder wraps still exists.

``perfbench/tracer.py`` patches ``blowring`` by module and attribute path. A
refactor that renames a traced function would leave its per-layer metric at
0 without any error, so each path must resolve. The recorder's source is
only read and executed here, never imported, so nothing is written under
``perfbench/``.
"""

import importlib
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _tracer_tables():
    namespace = {"__name__": "tracer_source"}
    exec(compile(TRACER.read_text(), str(TRACER), "exec"), namespace)
    return namespace["TIMED"], namespace["COUNTED"]


TIMED, COUNTED = _tracer_tables()


@pytest.mark.parametrize(
    "name, module, path", TIMED + COUNTED, ids=[f"{module}:{path}" for _, module, path in TIMED + COUNTED]
)
def test_wrapped_path_resolves(name, module, path):
    assert module.startswith("blowring.")
    target = importlib.import_module(module)
    for attr in path.split("."):
        assert hasattr(target, attr), f"{name}: {module}.{path} has no {attr!r}"
        target = getattr(target, attr)
    assert callable(target), f"{name}: {module}.{path} is not callable"
