"""The benchmark's tracer still finds every method it wraps, and a traced run
leaves kleinfib as it found it."""

import contextlib
import importlib
import importlib.util
import io
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


def test_traced_commands_record_spans_and_restore_every_name():
    tracer = _tracer()
    modules = [importlib.import_module("kleinfib." + layer)
               for layer in tracer.LAYERS]
    before = [dict(vars(mod)) for mod in modules]
    methods = {key: dict(vars(getattr(
        importlib.import_module("kleinfib." + key[0]), key[1])))
        for key in tracer.METHODS}
    from kleinfib.cli import main
    spans = tracer.Tracer()
    spans.install()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            codes = [main(["lattice", "6"]), main(["autos", "e6"])]
    finally:
        spans.uninstall()
    assert codes == [0, 0]
    layers = {name.partition(".")[0] for name in spans.totals}
    assert {"lattice", "autos"} <= layers
    for mod, names in zip(modules, before):
        moved = sorted(k for k, v in names.items()
                       if vars(mod).get(k) is not v)
        assert not moved, "%s keeps wrapped %s" % (mod.__name__, moved)
    for (layer, cls_name), attrs in methods.items():
        cls = getattr(importlib.import_module("kleinfib." + layer), cls_name)
        assert all(vars(cls)[k] is v for k, v in attrs.items())
