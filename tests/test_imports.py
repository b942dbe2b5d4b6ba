"""No module of the package or of its tests imports a name it never uses,
and no function of the package has a defaulted parameter that no caller
passes, or one that every caller passes: a default that never applies is
either a required parameter or a constant.  The project ships no linter, so
the checks read the syntax trees with `ast`."""
import ast
from pathlib import Path

import widthlab
from widthlab import certlab

ROOT = Path(__file__).parents[1]


def _unused_imports(source):
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                imported[a.asname or a.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                imported[a.asname or a.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


def _unused_in(folder):
    unused = {p.name: _unused_imports(p.read_text()) for p in sorted(folder.glob("*.py"))}
    return {name: found for name, found in unused.items() if found}


def test_package_modules_use_every_import():
    assert _unused_imports("import os.path\nfrom x import y as z, w\nz()\n") == \
        ["os (line 1)", "w (line 2)"]
    assert _unused_in(Path(widthlab.__file__).parent) == {}


def test_test_modules_use_every_import():
    assert _unused_in(Path(__file__).parent) == {}


def _defaulted_params(tree):
    """(function name, position or None, name) of every parameter with a
    default; positions skip a leading self or cls, keyword-only ones have
    none."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            a = node.args
            pos = [p.arg for p in a.posonlyargs + a.args]
            if pos[:1] in (["self"], ["cls"]):
                pos = pos[1:]
            out += [(node.name, i, pos[i])
                    for i in range(len(pos) - len(a.defaults), len(pos))]
            out += [(node.name, None, p.arg)
                    for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
    return out


def _calls_by_name(sources, suites):
    """Calls grouped by the called name; a call of `SUITES[...]` counts as a
    call of every suite."""
    calls = {}
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if not isinstance(node, ast.Call):
                continue
            f = node.func
            if isinstance(f, ast.Subscript) and \
                    getattr(f.value, "attr", getattr(f.value, "id", None)) == "SUITES":
                names = suites
            else:
                names = [getattr(f, "attr", getattr(f, "id", None))]
            for name in names:
                calls.setdefault(name, []).append(node)
    return calls


def _passes(call, pos, name):
    """The call passes the parameter by keyword or **kwargs, or by position
    or *args."""
    if any(k.arg in (None, name) for k in call.keywords):
        return True
    return pos is not None and (pos < len(call.args) or any(
        isinstance(a, ast.Starred) for a in call.args))


def _unpassed_defaults(modules, caller_sources, suites):
    """`module.function(parameter)` for each defaulted parameter of the
    modules (name -> source) that no call of the function's name passes."""
    calls = _calls_by_name(caller_sources, suites)
    return sorted(f"{mod}.{fn}({name})" for mod, source in modules.items()
                  for fn, pos, name in _defaulted_params(ast.parse(source))
                  if not any(_passes(c, pos, name) for c in calls.get(fn, ())))


def _always_passed_defaults(modules, caller_sources, suites):
    """`module.function(parameter)` for each defaulted parameter of the
    modules (name -> source) that every call of the function's name passes,
    when there is at least one call."""
    calls = _calls_by_name(caller_sources, suites)
    return sorted(f"{mod}.{fn}({name})" for mod, source in modules.items()
                  for fn, pos, name in _defaulted_params(ast.parse(source))
                  if calls.get(fn) and all(_passes(c, pos, name) for c in calls[fn]))


def _package_and_callers():
    package = Path(widthlab.__file__).parent
    modules = {p.stem: p.read_text() for p in sorted(package.glob("*.py"))}
    callers = [p.read_text() for folder in ("src", "tests", "perfbench")
               for p in sorted((ROOT / folder).rglob("*.py"))]
    suites = [fn.__name__ for fn in certlab.SUITES.values()]
    return modules, callers, suites


def test_every_defaulted_parameter_is_passed():
    module = ("def f(a, b=1, *, c=2): pass\n"
              "class K:\n    def g(self, d=0, e=1): pass\n"
              "def s(seed=0, tol=1): pass\n"
              "def t(x=0, *, y=0): pass\n")
    callers = ["f(0, 1)\nK().g(e=2)\ncl.SUITES['s'](seed=1)\nt(*xs)\n"]
    assert _unpassed_defaults({"m": module}, callers, ["s"]) == \
        ["m.f(c)", "m.g(d)", "m.s(tol)", "m.t(y)"]
    assert _unpassed_defaults({"m": module}, ["SUITES[k](**kw)\n"], ["s"]) == \
        ["m.f(b)", "m.f(c)", "m.g(d)", "m.g(e)", "m.t(x)", "m.t(y)"]
    assert _unpassed_defaults(*_package_and_callers()) == []


def test_no_defaulted_parameter_is_always_passed():
    module = ("def f(a, b=1, c=2): pass\n"
              "def s(seed=0, tol=1): pass\n"
              "def u(x=0): pass\n")
    assert _always_passed_defaults({"m": module}, ["f(0, 1)\nf(0, b=2)\n"], ["s"]) == \
        ["m.f(b)"]
    assert _always_passed_defaults(
        {"m": module}, ["cl.SUITES['s'](seed=1)\ns(seed=2, tol=0)\n"], ["s"]) == \
        ["m.s(seed)"]
    assert _always_passed_defaults(*_package_and_callers()) == []
