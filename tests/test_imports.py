"""No module of the package or of its tests imports a name it never uses;
no function of the package has a defaulted parameter that no caller
passes, or one that every caller passes: a default that never applies is
either a required parameter or a constant; and no function of the package
changes module state, so results travel by return value; neither
`sweepout` nor `dirichlet` differentiates a map, so slices are measured
only through `dmap.measure`; and neither `dmap` nor `dirichlet` prepares a
Catmull-Rom stencil, so chart refreshes read the stencils the domain
prepared once; and no package module guesses the shape of a target by
asking for a `radius` or `semi_axes` attribute by name; and every
function, class and method of the package is named by some package
module, or is listed with the reason it stays without a caller.  The project ships no linter, so the checks read the
syntax trees with `ast`."""
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
    or *args.  The guard cannot see what a splat carries, so a `**` splat
    counts as passing every parameter and a `*` splat every positional one:
    a default that only a splat could reach, such as one of the fixture
    parameters perfbench passes as `**self.fixture_params(seed)`, is not
    flagged even when no call passes it."""
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


def _own_nodes(func):
    """The nodes of a function's body, nested definitions included but not
    their bodies."""
    todo, out = list(func.body), []
    while todo:
        n = todo.pop()
        out.append(n)
        if not isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            todo.extend(ast.iter_child_nodes(n))
    return out


def _bound_names(func):
    """Names a function binds in its own scope: parameters, assignment and
    loop targets, imports, handler names and nested definitions."""
    a = func.args
    names = {p.arg for p in a.posonlyargs + a.args + a.kwonlyargs}
    names |= {p.arg for p in (a.vararg, a.kwarg) if p is not None}
    for n in _own_nodes(func):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store):
            names.add(n.id)
        elif isinstance(n, (ast.Import, ast.ImportFrom)):
            names |= {x.asname or x.name.split(".")[0] for x in n.names}
        elif isinstance(n, (ast.ExceptHandler, ast.FunctionDef,
                            ast.AsyncFunctionDef, ast.ClassDef)) and n.name:
            names.add(n.name)
    return names


def _store_base(node):
    """The name a subscript or attribute store or delete writes into, or
    None for any other node."""
    if not (isinstance(node, (ast.Subscript, ast.Attribute))
            and isinstance(node.ctx, (ast.Store, ast.Del))):
        return None
    while isinstance(node, (ast.Subscript, ast.Attribute)):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


def _module_state_writes(source):
    """The qualified name of each function with a `global` statement, or
    with a subscript or attribute store or delete into a name bound at
    module level and neither in the function nor in an enclosing one."""
    tree = ast.parse(source)
    module_names = {n.id for top in tree.body if not isinstance(
        top, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        for n in ast.walk(top) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)}
    for top in tree.body:
        if isinstance(top, (ast.Import, ast.ImportFrom)):
            module_names |= {x.asname or x.name.split(".")[0] for x in top.names}
        elif isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            module_names.add(top.name)
    found = []

    def scan(node, prefix, enclosing):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                scan(child, f"{prefix}{child.name}.", enclosing)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                local = enclosing | _bound_names(child)
                outside = module_names - local
                if any(isinstance(n, ast.Global) or _store_base(n) in outside
                       for n in _own_nodes(child)):
                    found.append(prefix + child.name)
                scan(child, f"{prefix}{child.name}.", local)
            else:
                scan(child, prefix, enclosing)

    scan(tree, "", set())
    return sorted(found)


def test_no_function_changes_module_state():
    module = ("import numpy as np\n"
              "LOG = {}\nN = 0\n"
              "def put(x):\n    LOG['x'] = x\n"
              "def drop():\n    del LOG['x']\n"
              "def bump():\n    global N\n    N += 1\n"
              "def seed():\n    np.random.state = 1\n"
              "def deep():\n    LOG['a'].b[0] = 1\n"
              "def own(LOG):\n    LOG['x'] = 1\n"
              "def local():\n    LOG = {}\n    LOG['x'] = 1\n"
              "def read():\n    return LOG.get('x'), N\n"
              "def outer():\n    out = {}\n"
              "    def inner(k):\n        out[k] = LOG\n    return inner\n"
              "def closure():\n    def inner():\n        LOG['x'] = 1\n    return inner\n"
              "class K:\n    def set(self, v):\n        self.v = v\n"
              "    def leak(self):\n        LOG['k'] = self\n")
    assert _module_state_writes(module) == \
        ["K.leak", "bump", "closure.inner", "deep", "drop", "put", "seed"]
    package = Path(widthlab.__file__).parent
    found = {p.stem: _module_state_writes(p.read_text())
             for p in sorted(package.glob("*.py"))}
    assert {mod: fns for mod, fns in found.items() if fns} == {}


DIFFERENTIALS = ("chart_differential", "energy_density", "jacobian_density")
# what prepares a Catmull-Rom stencil on every call
STENCIL_BUILDERS = ("catmullrom", "catmullrom_stencil", "sample_chart")


def _calls_of(names, source):
    """`name (line n)` of each call, by bare name or as an attribute, of a
    function of the given names."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            name = getattr(node.func, "attr", getattr(node.func, "id", None))
            if name in names:
                found.append(f"{name} (line {node.lineno})")
    return sorted(found)


def test_slices_are_measured_only_through_measure():
    """sweepout and dirichlet read a slice's functionals from its
    dm.Measure and never differentiate a map themselves, so a second
    measurement path cannot come back unseen."""
    module = ("from . import dmap as dm\n"
              "du = dm.chart_differential(u, 0)\n"
              "e = energy_density(*du)\n"
              "m = dm.measure(u)\n"
              "d = m.energy_density[0] + m.jacobian_density[1]\n"
              "j = dm.jacobian_density(ux, uy)\n")
    assert _calls_of(DIFFERENTIALS, module) == \
        ["chart_differential (line 2)", "energy_density (line 3)",
         "jacobian_density (line 6)"]
    package = Path(widthlab.__file__).parent
    for name in ("sweepout.py", "dirichlet.py"):
        assert _calls_of(DIFFERENTIALS, (package / name).read_text()) == [], name


def test_refreshes_interpolate_only_through_prepared_stencils():
    """dmap and dirichlet call catmullrom nowhere and prepare no stencil:
    they interpolate with `domains.interpolate` through the refresh sets
    the domain prepares once (`SphereDomain.owner_refresh`, and the ball
    caps' `refresh_stencil` in its memo), so a per-call path cannot come
    back unseen.  Resampling at points that move with every call goes
    through `SphereDomain.evaluate`."""
    module = ("from . import domains\n"
              "v = domains.catmullrom(g, x0, h, px, py)\n"
              "st = catmullrom_stencil(n, x0, h, px, py)\n"
              "w = domains.interpolate(g, dom.owner_refresh[0][2:])\n"
              "r = dom.refresh_stencil(0, mask)\n"
              "s = dom.sample_chart(g, px, py)\n")
    assert _calls_of(STENCIL_BUILDERS, module) == \
        ["catmullrom (line 2)", "catmullrom_stencil (line 3)", "sample_chart (line 6)"]
    package = Path(widthlab.__file__).parent
    for name in ("dmap.py", "dirichlet.py"):
        assert _calls_of(STENCIL_BUILDERS, (package / name).read_text()) == [], name


# attribute names a reader could ask a target for by name, and so fall
# back to a round answer where the target has no such attribute
SHAPE_ATTRIBUTES = ("radius", "semi_axes")


def _shape_guesses(source):
    """`function 'name' (line n)` of each getattr or hasattr call that asks
    an object for one of SHAPE_ATTRIBUTES by name."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Call)
                and getattr(node.func, "id", None) in ("getattr", "hasattr")
                and len(node.args) >= 2 and isinstance(node.args[1], ast.Constant)
                and node.args[1].value in SHAPE_ATTRIBUTES):
            found.append(f"{node.func.id} {node.args[1].value!r} (line {node.lineno})")
    return found


def test_no_module_guesses_the_shape_of_a_target():
    """A target's shape is its `semi_axes`, which every kind gives or
    refuses with KindUnknown, so no package module asks an object whether
    it has a radius or semi-axes: such a reader treats every target it does
    not know as a round sphere, silently."""
    module = ("r = getattr(target, 'radius', 1.0)\n"
              "if hasattr(m, 'semi_axes'):\n    r = 2.0\n"
              "a = target.semi_axes\n"
              "k = getattr(node, 'attr', None)\n")
    assert _shape_guesses(module) == \
        ["getattr 'radius' (line 1)", "hasattr 'semi_axes' (line 2)"]
    package = Path(widthlab.__file__).parent
    found = {p.name: _shape_guesses(p.read_text()) for p in sorted(package.glob("*.py"))}
    assert {name: calls for name, calls in found.items() if calls} == {}


BENCHMARK_PROBE = "the benchmark wraps it (perfbench/layers.py probes)"
SWEEPOUT_CHECK = "measures whether a tightened family is still a sweepout; " \
                 "the ROADMAP plans its caller in the tightening report"
RICCI_GATE = "bounds width decay under non-round Ricci flows; the ROADMAP plans its gate"
# Package functions, classes and methods that no package module names, and
# why each one stays.
WITHOUT_PACKAGE_CALLER = {
    "dmap.mollify": BENCHMARK_PROBE,
    "sweepout.almost_harmonic_check": BENCHMARK_PROBE,
    "sweepout.curve_latitude_sweepout": "acceptance criterion 11 (Birkhoff curve mode)",
    "sweepout.birkhoff_tighten": "acceptance criterion 11 (Birkhoff curve mode)",
    "dmap.collar_interpolate": "acceptance criterion 12 (collar interpolation)",
    "sweepout.numerical_degree": SWEEPOUT_CHECK,
    "sweepout.continuity_gap": SWEEPOUT_CHECK,
    "ricci.comparison_constant": RICCI_GATE,
    "ricci.scalar_min_bound": RICCI_GATE,
    "ricci.integrating_factor_residuals": RICCI_GATE,
    "ricci.ModelFlow.tabulated": RICCI_GATE,
    "ricci.ModelFlow.min_scalar_at": RICCI_GATE,
    "io.load_sweepout": "reads the sweepout container that `widthlab width` writes",
    "cli.main": "entry point: the `widthlab` console script and `python -m widthlab.cli`",
}


def _definitions(source):
    """Qualified names of the functions, classes and methods a module
    defines, nested ones included, dunders excluded."""
    found = []

    def scan(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not (child.name.startswith("__") and child.name.endswith("__")):
                    found.append(prefix + child.name)
                scan(child, f"{prefix}{child.name}.")
            else:
                scan(child, prefix)

    scan(ast.parse(source), "")
    return found


def _names_used(source):
    """Every name a module uses as a Name, an Attribute or in an import,
    outside its `if __name__ == "__main__":` block, which runs the module
    as a script and calls nothing for the package."""
    names = set()
    for top in ast.parse(source).body:
        if isinstance(top, ast.If) and getattr(getattr(top.test, "left", None),
                                               "id", None) == "__name__":
            continue
        for n in ast.walk(top):
            if isinstance(n, ast.Name):
                names.add(n.id)
            elif isinstance(n, ast.Attribute):
                names.add(n.attr)
            elif isinstance(n, ast.alias):
                names.add(n.name.split(".")[-1])
    return names


def _caller_faults(modules, allowed):
    """(definitions of the modules (name -> source) that no module names and
    `allowed` does not list, entries of `allowed` that are not such a
    definition: gone, or named after all)."""
    used = set().union(*(_names_used(s) for s in modules.values()))
    uncalled = {f"{mod}.{q}" for mod, source in modules.items()
                for q in _definitions(source) if q.rsplit(".", 1)[-1] not in used}
    return sorted(uncalled - set(allowed)), sorted(set(allowed) - uncalled)


def test_every_package_function_has_a_package_caller():
    """A function, class or method that no package module names either gets
    a caller or is listed with its reason in WITHOUT_PACKAGE_CALLER, and the
    list holds nothing else; tests and the benchmark are not callers."""
    m = ("import sys\n"
         "def called(): pass\n"
         "def orphan(): pass\n"
         "def listed(): pass\n"
         "def named_after_all(): pass\n"
         "class K:\n"
         "    def __init__(self): pass\n"
         "    def method(self): return called()\n"
         "    def lost(self):\n"
         "        def inner(): pass\n"
         "        return inner\n"
         "def main(): return K().method()\n"
         "if __name__ == '__main__':\n    sys.exit(main())\n")
    n = "from .m import named_after_all as f\n"
    allowed = {"m.listed": "why", "m.named_after_all": "why", "m.gone": "why"}
    assert _caller_faults({"m": m, "n": n}, allowed) == \
        (["m.K.lost", "m.main", "m.orphan"], ["m.gone", "m.named_after_all"])
    package = Path(widthlab.__file__).parent
    modules = {p.stem: p.read_text() for p in sorted(package.glob("*.py"))}
    assert _caller_faults(modules, WITHOUT_PACKAGE_CALLER) == ([], [])
