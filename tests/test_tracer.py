"""The benchmark's tracer (perfbench/tracer.py) still finds every name it
wraps: `perfbench/run.py --trace 1` fails if a refactor deletes one."""

import importlib
import importlib.util
from pathlib import Path

import flatcheck

from conftest import FIXTURES

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _resolve(modname, qualname):
    obj = importlib.import_module(modname)
    for part in qualname.split("."):
        obj = getattr(obj, part)
    return obj


def test_tracer_wraps_every_target_and_restores_it():
    tracer = _load_tracer()
    tr = tracer.Tracer()
    with tr:
        for modname, qualname, _ in tracer.TARGETS:
            assert hasattr(_resolve(modname, qualname), "__wrapped__"), qualname
        # a call through the package binding lands in the wrapper
        flatcheck.parse_system((FIXTURES / "clm.flt").read_text())
        assert tr.calls["sysdsl.parse"] == 1
    for modname, qualname, _ in tracer.TARGETS:
        assert not hasattr(_resolve(modname, qualname), "__wrapped__"), qualname
