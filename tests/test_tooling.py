"""The benchmark's tracer still finds every method and span it reads, and a
traced run leaves kleinfib as it found it; every command runs without numpy,
and each starts on only the modules it runs; no module-level function or
class of kleinfib, and no method of its classes, is left without a
reference, no module-level import is unused, and every module.name that
README.md names exists."""

import ast
import contextlib
import importlib
import importlib.util
import inspect
import io
import json
import os
import re
import subprocess
import sys
import tokenize
from pathlib import Path

import pytest

import kleinfib

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(stem):
    spec = importlib.util.spec_from_file_location("perfbench_" + stem,
                                                  PERFBENCH / (stem + ".py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _tracer():
    return _load("tracer")


def test_traced_methods_are_defined_on_their_classes():
    # Tracer.install looks each method up in the class __dict__, so a
    # method that moves to a helper or a base class breaks traced runs
    methods = _tracer().METHODS
    assert methods
    for (layer, cls_name), ops in methods.items():
        cls = getattr(importlib.import_module("kleinfib." + layer), cls_name)
        missing = sorted(set(ops) - set(vars(cls)))
        assert not missing, "%s.%s lacks %s" % (layer, cls_name, missing)


def test_benchmark_spans_name_public_functions_of_their_layers():
    # perfbench/run.py reads these function spans by name, and the tracer
    # wraps only the public functions a layer defines itself: a span whose
    # function is renamed, made private or moved to another module would
    # silently read 0
    run = _load("run")
    spans = ("univariate.subresultant_prs", "univariate.cyclotomic_poly",
             "geometry.build_catalog", "geometry.on_surface",
             "numeric.durand_kerner", "orbits.s6_intersections",
             "orbits.dn_intersections", "orbits.verdict_grid",
             *run.CURVE_ENUMERATORS, *run.CONJUGATIONS)
    layers = _tracer().LAYERS
    for span in spans:
        layer, _, attr = span.partition(".")
        assert layer in layers, span
        fn = getattr(importlib.import_module("kleinfib." + layer), attr, None)
        assert not attr.startswith("_") and callable(fn), span
        assert not inspect.isclass(fn), span
        assert fn.__module__ == "kleinfib." + layer, span


def test_benchmark_output_checks_pass_in_process():
    # the benchmark's own output checks, run in process on what it runs:
    # every command of the mix and of the known defects, an unmutated
    # reproduction and a mutated one, so that an output the benchmark would
    # refuse as incorrect fails here first
    run = _load("run")
    from kleinfib.cli import main

    def cli(text):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(text.split())
        return code, out.getvalue(), err.getvalue()
    for text, expected, fields in run.MIX + run.KNOWN_DEFECTS:
        assert run.check_command(expected, fields, *cli(text)) == [], text
    assert run.check_reproduction(*cli("reproduce-paper")[:2]) == []
    assert run.check_mutation(
        *cli("reproduce-paper --mutate s8,0,1,2")[:2]) == []


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


def test_commands_run_without_numpy():
    # a fresh process whose import system refuses numpy: the reproduction,
    # the oracle audits and the other commands all run, and neither numpy
    # nor dataclasses is ever loaded
    script = """if True:
        import contextlib, io, json, sys

        class RefuseNumpy:
            def find_spec(self, name, path=None, target=None):
                if name.partition(".")[0] == "numpy":
                    raise ImportError("numpy is refused")

        sys.meta_path.insert(0, RefuseNumpy())
        from kleinfib.cli import main
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert main(["reproduce-paper"]) == 0
        status = [c["status"] for c in json.loads(buf.getvalue())["checks"]]
        assert status.count("verified") == 64, status
        assert status.count("assumed") == 2, status
        assert "dataclasses" not in sys.modules
        for argv in (["audit", "s6"], ["audit", "s8"], ["audit", "dn:9"],
                     ["curves", "s8"], ["verdict", "e8", "--ext", "30"],
                     ["lattice", "8"],
                     ["autos", "an", "--n", "3", "--poly", "1+y"]):
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(argv) == 0, argv
            assert "dataclasses" not in sys.modules, argv
        assert "numpy" not in sys.modules
        """
    src = os.path.dirname(os.path.dirname(kleinfib.__file__))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=src),
                          timeout=300)
    assert proc.returncode == 0, proc.stderr


PACKAGE = {path.stem for path in Path(kleinfib.__file__).parent.glob("*.py")
           if path.stem != "__init__"}


# each id lists the unloaded modules sorted, so that it does not vary with
# the hash seed
@pytest.mark.parametrize("argv,unloaded", [
    (["lattice", "8"], {"curves", "geometry", "orbits", "autos", "numeric",
                        "tower", "univariate"}),
    (["curves", "s7"], {"orbits", "autos", "lattice", "numeric"}),
    (["autos", "an", "--n", "3", "--poly", "1+y"],
     {"curves", "orbits", "lattice", "numeric"}),
    (["verdict", "e8", "--ext", "30"], {"autos", "numeric"}),
    (["verdict", "dn:6", "--ext", "6"], {"autos", "lattice", "numeric"}),
    # audit an|dn samples the fibre families that curves certifies
    (["audit", "dn:9", "--t", "5"], {"autos", "lattice", "orbits"}),
    # and audit s6 the lines: incidence is the exact engine's alone
    (["audit", "s6", "--t", "3"], {"autos", "lattice", "orbits"}),
    (["reproduce-paper"], set())],
    ids=lambda v: " ".join(sorted(v) if isinstance(v, set) else v))
def test_each_command_loads_only_its_pipeline(argv, unloaded):
    # cli holds only base and multipoly at module level and each command
    # imports geometry and its own pipeline as it runs, so a fresh process
    # that runs one command compiles and loads no other command's modules,
    # and no command loads dataclasses
    script = """if True:
        import contextlib, io, json, sys
        from kleinfib.cli import main
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(sys.argv[1:])
        print(json.dumps([code, sorted(sys.modules)]))
        """
    src = os.path.dirname(os.path.dirname(kleinfib.__file__))
    proc = subprocess.run([sys.executable, "-c", script] + argv,
                          capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), timeout=300)
    assert proc.returncode == 0, proc.stderr
    code, modules = json.loads(proc.stdout)
    assert code == 0
    loaded = {name.partition(".")[2] for name in modules
              if name.startswith("kleinfib.")}
    assert loaded == PACKAGE - unloaded
    assert "dataclasses" not in modules


def _unreferenced(members):
    """The defs that members(tree) yields, as (label, node), for the parsed
    modules of src/kleinfib, whose name occurs nowhere in src/ outside
    their own body, neither as a name in code nor as a word in a string:
    comments do not count."""
    defs, refs = [], {}
    for path in sorted(Path(kleinfib.__file__).parent.glob("*.py")):
        text = path.read_text()
        for tok in tokenize.generate_tokens(io.StringIO(text).readline):
            if tok.type == tokenize.NAME:
                words = [tok.string]
            elif tok.type == tokenize.STRING:
                words = re.findall(r"\w+", tok.string)
            else:
                continue
            for word in words:
                refs.setdefault(word, []).append((path, tok.start[0]))
        defs += [(path, label, node) for label, node in members(
            ast.parse(text))]
    return ["%s:%d %s" % (path.name, node.lineno, label)
            for path, label, node in defs
            if all(where == path and node.lineno <= line <= node.end_lineno
                   for where, line in refs[node.name])]


def test_every_module_level_name_is_referenced():
    # a def or class at module level in src/kleinfib that _unreferenced
    # finds has no caller
    assert not _unreferenced(lambda tree: [
        (node.name, node) for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))])


def test_every_method_is_referenced():
    # by the same rule, each method of a module-level class, dunders aside:
    # MultiPoly.reduce_mod, a wrapper of div_univariate(...)[1] that only
    # tests called, would have failed here
    assert not _unreferenced(lambda tree: [
        ("%s.%s" % (cls.name, node.name), node)
        for cls in tree.body if isinstance(cls, ast.ClassDef)
        for node in cls.body if isinstance(node, ast.FunctionDef)
        and not re.fullmatch(r"__\w+__", node.name)])


def _unused_imports(text):
    """The names that the module-level imports of the source `text` bind
    (`import a.b` binds a) and that its code never reads, __future__
    aside."""
    tree = ast.parse(text)
    bound = {(alias.asname or alias.name).partition(".")[0]
             for node in tree.body
             if isinstance(node, (ast.Import, ast.ImportFrom))
             and getattr(node, "module", None) != "__future__"
             for alias in node.names}
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(bound - read)


def test_every_module_level_import_is_used():
    # an import left behind by deleted code, such as FieldElement in curves
    # once its last reader is gone, fails here
    unused = {path.name: names
              for path in Path(kleinfib.__file__).parent.glob("*.py")
              if (names := _unused_imports(path.read_text()))}
    assert not unused
    assert _unused_imports(
        "from __future__ import annotations\nimport os.path\n"
        "from .tower import FieldElement, cyclotomic as c\n"
        "ring = c(3)\n") == ["FieldElement", "os"]


def _code_names():
    """The identifiers the code of src/kleinfib uses: its NAME tokens, and
    each string literal that is one identifier (getattr reads `_fields`
    so); words in comments and docstrings do not count."""
    names = set()
    for path in Path(kleinfib.__file__).parent.glob("*.py"):
        for tok in tokenize.generate_tokens(
                io.StringIO(path.read_text()).readline):
            if tok.type == tokenize.NAME:
                names.add(tok.string)
            elif tok.type == tokenize.STRING and re.fullmatch(
                    r"(['\"])\w+\1", tok.string):
                names.add(tok.string[1:-1])
    return names


def _stale_private_names(readme, names):
    """The names in the bare backticked private spans of readme (`_row`,
    `_ring(M)`, `_Ring.conjugate`, without a module prefix) that are not
    in names, and the number of such spans."""
    spans = [span.partition("(")[0]
             for span in re.findall(r"`([^`\n]+)`", readme)
             if re.fullmatch(r"_\w+(\.\w+)*(\(.*\))?", span)]
    return sorted({name for span in spans for name in span.split(".")
                   if name not in names}), len(spans)


def test_readme_private_names_exist():
    # every bare backticked private name in README.md is one the code of
    # src/kleinfib still uses, so a helper deleted or renamed there that
    # README still cites fails here: `_certify_member`, deleted while
    # README cited it, would have
    names = _code_names()
    readme = (Path(kleinfib.__file__).parents[2] / "README.md").read_text()
    stale, spans = _stale_private_names(readme, names)
    assert spans >= 20 and not stale
    assert _stale_private_names(readme + " `_certify_member` ", names) == (
        ["_certify_member"], spans + 1)


def test_readme_names_exist():
    # every backticked <module>.<name> in README.md, for a module of
    # kleinfib, names an attribute of that module (file names such as
    # cli.py aside): a renamed or deleted function leaves no stale name
    package = Path(kleinfib.__file__).parent
    modules = {path.stem for path in package.glob("*.py")}
    readme = (package.parents[1] / "README.md").read_text()
    stale = sorted({"%s.%s" % (module, name)
                    for span in re.findall(r"`([^`\n]+)`", readme)
                    for module, name in re.findall(r"\b(\w+)\.(\w+)", span)
                    if module in modules and name != "py" and not hasattr(
                        importlib.import_module("kleinfib." + module),
                        name)})
    assert not stale
