"""The public API: ``heckediv.__all__`` lists exactly the public names that
``heckediv/__init__.py`` binds, each once, and each resolves; importing the
package or its CLI loads neither of the numeric backends; only the
coset-sum oracles' module imports the cyclotomic field; every module-level function and class of the package
is referenced somewhere other than its own definition, every private
one by the package or its tests, and every one that only the tests read
is exported; every module of the
package and of its tests reads each name it imports; and calling
``cache_clear()`` on every module-level object that has one leaves no
cache warm."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import heckediv
from heckediv import algebra, curve, forms, niebur, operators, pairing, series


def _bound_public_names() -> set:
    tree = ast.parse(Path(heckediv.__file__).read_text())
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
    return {n for n in names if not n.startswith("_")}


def test_every_export_resolves():
    missing = [name for name in heckediv.__all__ if not hasattr(heckediv, name)]
    assert missing == []


def test_no_duplicate_exports():
    assert len(heckediv.__all__) == len(set(heckediv.__all__))


def test_exports_match_bound_names():
    assert set(heckediv.__all__) == _bound_public_names()


def test_import_leaves_the_numeric_backends_unloaded():
    # mpmath and numpy are imported inside the numeric functions that use
    # them, so the exact layers and the exact CLI verbs never pay for
    # loading them
    src = str(Path(heckediv.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = ("import sys, heckediv, heckediv.cli; "
            "print(sorted(m for m in ('mpmath', 'numpy') if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120, check=True)
    assert out.stdout.strip() == "[]"


def test_the_numeric_layer_runs_without_scipy():
    # scipy is not a dependency: with its import blocked, the Poincare sum
    # at m >= 1 (Kloosterman FFT, Bessel series) and the CM values of j_n
    # run on numpy and mpmath alone
    src = str(Path(heckediv.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = ("import sys; sys.modules['scipy'] = None; "
            "from heckediv import niebur; "
            "pv = niebur.niebur_value(2, 3, 0.1 + 0.05j, niebur.EvalParams(truncation=20)); "
            "from heckediv.curve import HeegnerPoint; "
            "j = niebur.jn_value(1, HeegnerPoint(7, -21, 16), 20); "
            "print(pv.value == pv.value, abs(j) > 0)")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120, check=True)
    assert out.stdout.split() == ["True", "True"]


def test_the_curve_layer_runs_without_mpmath():
    # divisors hold exact points only and the bko and divisor-hecke suites
    # read j at them from the exact table of curve, so L4, its CLI verbs and
    # those suites run with mpmath's import blocked
    src = str(Path(heckediv.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = ("import sys; sys.modules['mpmath'] = None\n"
            "from heckediv import cli\n"
            "for verb in (['divisor', '--form', 'jminus:1728'],\n"
            "             ['hecke-div', '--form', 'jminus:1728', '--n', '2'],\n"
            "             ['divisor', '--form', 'jminus:8000', '--level', '2'],\n"
            "             ['verify', '--suite', 'divisor-hecke'],\n"
            "             ['verify', '--suite', 'bko']):\n"
            "    if cli.main(verb):\n"
            "        sys.exit(f'{verb} failed')\n")
    subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                   text=True, timeout=120, check=True)


def test_the_divisor_sums_run_without_mpmath():
    # pair sums in the arithmetic of the values it is given: the doubles of
    # the Niebur series and the exact j_n of the BKO sum need no mpmath
    src = str(Path(heckediv.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = ("import sys; sys.modules['mpmath'] = None\n"
            "from heckediv import forms, pairing\n"
            "from heckediv.niebur import EvalParams\n"
            "E4 = forms.FormExpression.of(forms.Eisenstein(4))\n"
            "r = pairing.r_numeric(1, 1, 1.5, E4, EvalParams(truncation=40))\n"
            "total, _ = pairing._bko_sum(5, E4)\n"
            "print(type(r.value).__name__, r.exact, r.error_estimate > 0, total)\n")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120, check=True)
    e4 = forms.FormExpression.of(forms.Eisenstein(4))
    assert out.stdout.split() == ["complex", "False", "True", str(pairing.r_at_s1(1, 5, e4))]


def _imports_cyclotomic(tree) -> bool:
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if module.split(".")[-1] == "cyclotomic":
                return True
            if module in ("", "heckediv") and any(a.name == "cyclotomic" for a in node.names):
                return True
        elif isinstance(node, ast.Import):
            if any(a.name == "heckediv.cyclotomic" for a in node.names):
                return True
    return False


def test_only_the_oracles_import_the_cyclotomic_field():
    # Q(zeta_d) enters a series only in the twisted translates of the
    # coset-sum oracles in operators.py; the kernel and every other layer
    # compute in Q
    package = Path(heckediv.__file__).parent
    importers = sorted(path.name for path in package.glob("*.py")
                       if _imports_cyclotomic(ast.parse(path.read_text())))
    assert importers == ["operators.py"]


REPO = Path(__file__).resolve().parents[1]


def _module_level_definitions(path):
    tree = ast.parse(path.read_text())
    return [node.name for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))]


def _references(path) -> set:
    """Every name a file reads (a name, an attribute or an imported name),
    except a definition's references to itself."""
    refs = set()
    for stmt in ast.parse(path.read_text()).body:
        names = set()
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name)
        names.discard(getattr(stmt, "name", None))
        refs |= names
    return refs


def _files(*folders) -> list:
    return [path for folder in folders for path in (REPO / folder).rglob("*.py")]


def _unread_definitions(readers, refs=frozenset()) -> list:
    """(module, name) of each module-level function and class of the
    package that neither the files readers nor the names refs read."""
    refs = set(refs)
    for path in readers:
        refs |= _references(path)
    return [(path.name, name) for path in sorted((REPO / "src" / "heckediv").glob("*.py"))
            for name in _module_level_definitions(path) if name not in refs]


def _dotted_names(path) -> set:
    """The parts of each dotted "module.name" string a file holds: how the
    trace layer names what it wraps or reads, as forms.euler_product."""
    return {part for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
            and re.fullmatch(r"\w+(\.\w+)+", node.value)
            for part in node.value.split(".")}


def test_every_module_level_definition_is_referenced():
    # a function or class that nothing in the library, its tests or the
    # benchmark names is dead code
    assert _unread_definitions(_files("src", "tests", "perfbench")) == []


def test_every_private_definition_is_read_by_the_library_or_its_tests():
    # a private _function or _Class is no API: the benchmark reading it
    # does not keep it alive, only the library or a test that checks it
    unread = [(module, name) for module, name in _unread_definitions(_files("src", "tests"))
              if name.startswith("_")]
    assert unread == []


def test_what_only_the_tests_read_is_exported():
    # a definition that neither the library nor the benchmark reads serves
    # the tests alone unless it is public API; a test-only oracle or
    # reference lives in the tests.  The package's exports are not a read,
    # and the trace layer's dotted names are
    readers = [path for path in _files("src", "perfbench") if path.name != "__init__.py"]
    unread = _unread_definitions(readers, _dotted_names(REPO / "perfbench" / "tracing.py"))
    assert [(module, name) for module, name in unread if name not in heckediv.__all__] == []


def _unused_imports(path) -> list:
    """The names a file imports (``from __future__`` aside) and never reads."""
    tree = ast.parse(path.read_text())
    imported = {alias.asname or alias.name.split(".")[0]
                for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom))
                and getattr(node, "module", None) != "__future__"
                for alias in node.names}
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - read)


def test_every_import_is_used():
    # an import that its module never reads is left over from deleted code
    paths = [path for path in (REPO / "src" / "heckediv").glob("*.py")
             if path.name != "__init__.py"] + list((REPO / "tests").glob("*.py"))
    unused = [f"{path.name}: {name}" for path in sorted(paths)
              for name in _unused_imports(path)]
    assert unused == []


CACHED_MODULES = (series, forms, operators, algebra, curve, niebur, pairing)


def _clear_every_cache():
    # what a cold session starts from: every module-level object with a
    # cache_clear, called as it stands (a class with a cache_clear method
    # would fail here with a TypeError)
    for mod in CACHED_MODULES:
        for obj in vars(mod).values():
            clear = getattr(obj, "cache_clear", None)
            if clear is not None:
                clear()


@pytest.mark.parametrize("n", [1, 9, 40])
def test_clearing_every_cache_makes_the_next_call_recompute(monkeypatch, n):
    runs = []
    real = forms.log_derivative_coeffs

    def spy(c, h, m, prefix=()):
        runs.append((len(prefix), m))
        return real(c, h, m, prefix)

    monkeypatch.setattr(forms, "log_derivative_coeffs", spy)
    e4 = forms.Eisenstein(4)
    want = e4.log_derivative(n)
    runs.clear()
    assert e4.log_derivative(n) == want
    assert runs == []  # warm: read from the store
    _clear_every_cache()
    assert e4.log_derivative(n) == want
    assert runs == [(0, n)]  # cold again: the whole recurrence, from q^0
