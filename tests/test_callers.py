"""Every function, class and method of the package has a caller outside the tests, and module state is listed."""

import ast
import importlib
import math
import pkgutil
import weakref
from collections import Counter
from pathlib import Path

import puomm

ROOT = Path(__file__).resolve().parent.parent
CALLER_DIRS = ("src", "perfbench", "tools")


def _names(tree: ast.AST) -> Counter:
    """Identifiers that tree reads: names, attribute names and the last part of each imported name."""
    found = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found[node.id] += 1
        elif isinstance(node, ast.Attribute):
            found[node.attr] += 1
        elif isinstance(node, ast.alias):
            found[node.name.rsplit(".", 1)[-1]] += 1
    return found


def _definitions(tree: ast.Module):
    """Top-level functions and classes, and the methods of those classes, as (label, node)."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if isinstance(node, kinds):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for method in node.body:
                if isinstance(method, kinds):
                    yield f"{node.name}.{method.name}", method


def test_every_package_definition_is_referenced_outside_its_own_body():
    """Code that only tests call is deleted, not kept for them.

    A definition in src/puomm passes when some file under src/, perfbench/
    or tools/ reads its name outside the definition's own body.  The match
    is by name alone: a definition whose name is also some other
    identifier (a field, a keyword argument, a method of another class)
    passes on that identifier's uses, as a public metrics.brier did
    through MetricsReport.brier.  Names in puomm.__all__ and dunder
    methods are exempt.
    """
    trees = {path: ast.parse(path.read_text(), str(path)) for d in CALLER_DIRS for path in (ROOT / d).rglob("*.py")}
    read = sum((_names(tree) for tree in trees.values()), Counter())
    unread = []
    for path in sorted((ROOT / "src" / "puomm").glob("*.py")):
        for label, node in _definitions(trees[path]):
            name = node.name
            if name in puomm.__all__ or (name.startswith("__") and name.endswith("__")):
                continue
            if read[name] == _names(node)[name]:
                unread.append(f"{path.name}:{node.lineno} {label}")
    assert unread == [], "defined but read nowhere outside its own body: " + ", ".join(unread)


def _calls(tree: ast.AST) -> Counter:
    """Calls in tree as (called name, positional count, keyword names, whether it unpacks *args or **kwargs)."""
    found = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute)):
            name = node.func.id if isinstance(node.func, ast.Name) else node.func.attr
            unpacks = any(isinstance(a, ast.Starred) for a in node.args) or any(k.arg is None for k in node.keywords)
            found[name, len(node.args), frozenset(k.arg for k in node.keywords if k.arg), unpacks] += 1
    return found


def test_every_parameter_default_is_overridden_by_a_caller_outside_the_tests():
    """A parameter default that only tests override is a knob kept for them, and is deleted.

    A defaulted parameter of a function or method in src/puomm passes
    when some call under src/, perfbench/ or tools/, outside the
    definition's own body, passes it by keyword or by position.  Calls
    match by name alone, as above; a class call counts for its __init__,
    and a call that unpacks *args or **kwargs passes every parameter.
    Other dunder methods are exempt.
    """
    trees = {path: ast.parse(path.read_text(), str(path)) for d in CALLER_DIRS for path in (ROOT / d).rglob("*.py")}
    calls = sum((_calls(tree) for tree in trees.values()), Counter())
    unpassed = []
    for path in sorted((ROOT / "src" / "puomm").glob("*.py")):
        for label, node in _definitions(trees[path]):
            if isinstance(node, ast.ClassDef) or (node.name.startswith("__") and node.name != "__init__"):
                continue
            names = {label.split(".")[0], "__init__"} if node.name == "__init__" else {node.name}
            static = any(isinstance(d, ast.Name) and d.id == "staticmethod" for d in node.decorator_list)
            bound = "." in label and not static  # self or cls is not passed in the call's arguments
            a = node.args
            positional = a.posonlyargs + a.args
            defaulted = positional[len(positional) - len(a.defaults) :]
            defaulted += [arg for arg, default in zip(a.kwonlyargs, a.kw_defaults) if default is not None]
            outside = [call for call in calls - _calls(node) if call[0] in names]
            for arg in defaulted:
                index = positional.index(arg) - bound if arg in positional else math.inf
                if not any(unpacks or arg.arg in keywords or n_pos > index for _, n_pos, keywords, unpacks in outside):
                    unpassed.append(f"{path.name}:{node.lineno} {label}({arg.arg})")
    assert unpassed == [], "defaults that no caller outside the tests overrides: " + ", ".join(unpassed)


def test_the_package_keeps_exactly_these_module_level_weak_maps():
    """State kept across calls, keyed by object identity, lives only in these maps.

    A forked child inherits exactly these.  Anything else that depends on
    one immutable Dataset alone is cached on that Dataset instead.
    """
    found = set()
    for info in pkgutil.iter_modules(puomm.__path__):
        module = importlib.import_module(f"puomm.{info.name}")
        for name, value in vars(module).items():
            if isinstance(value, (weakref.WeakKeyDictionary, weakref.WeakValueDictionary)):
                found.add(f"{info.name}.{name}")
    assert found == {"baselines._OCCURRENCE", "simulate._DESIGNS"}


def test_only_the_model_json_format_asks_a_model_for_its_class():
    """A fitted model answers for itself (occurrence_prob, recorded_prob, size_mean, coefficients, converged).

    So only dataio, which writes each model's JSON kind, may call
    isinstance with PuOmmModel or TwoPartModel, and metrics, which scores
    any model through those methods, imports neither selection nor
    baselines.
    """
    classes = {"PuOmmModel", "TwoPartModel"}
    asking, metrics_imports = [], set()
    for path in sorted((ROOT / "src" / "puomm").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "isinstance":
                if classes & set(_names(node)) and path.name != "dataio.py":
                    asking.append(f"{path.name}:{node.lineno}")
            elif isinstance(node, (ast.Import, ast.ImportFrom)) and path.name == "metrics.py":
                modules = [getattr(node, "module", None)] + [alias.name for alias in node.names]
                metrics_imports.update(m.rsplit(".", 1)[-1] for m in modules if m)
    assert asking == [], "isinstance with a model class outside dataio: " + ", ".join(asking)
    assert not metrics_imports & {"selection", "baselines"}, sorted(metrics_imports)
