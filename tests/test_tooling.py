"""The benchmark's tracer still finds every method it wraps."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_methods_are_defined_on_their_classes():
    # Tracer.install looks each method up in the class __dict__, so a
    # method that moves to a helper or a base class breaks traced runs
    methods = _tracer().METHODS
    assert methods
    for (layer, cls_name), ops in methods.items():
        cls = getattr(importlib.import_module("kleinfib." + layer), cls_name)
        missing = sorted(set(ops) - set(vars(cls)))
        assert not missing, "%s.%s lacks %s" % (layer, cls_name, missing)
