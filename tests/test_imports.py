import ast
import inspect
from pathlib import Path

import ghcs
from ghcs import states

SRC = Path(ghcs.__file__).parent


def test_no_private_names_imported_across_modules():
    # no module imports a sibling's underscore name; so the exact-distance
    # disk density stays behind weights.density_integral
    leaks = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.level > 0 or node.module.startswith("ghcs")):
                leaks += [f"{path.name}: {node.module or '.'}.{a.name}"
                          for a in node.names if a.name.startswith("_")]
    assert leaks == []


def test_specfun_imports_no_quadrature():
    # specfun's integral representations use their own trapezoid rule, so the
    # only adaptive quadrature pass is the outer one of weights.density_integral
    tree = ast.parse((SRC / "specfun.py").read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported |= {node.module or ""} | {a.name for a in node.names}
        elif isinstance(node, ast.Import):
            imported |= {a.name for a in node.names}
    assert not {n for n in imported if n.split(".")[-1] == "quadrature"}


def test_one_rho_store():
    # the rho sequence lives on its ParameterSet: no module keeps a cache
    # dict of its own, and none needs a lock
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            names = ([a.name for a in node.names] if isinstance(node, ast.Import)
                     else [node.module or ""] if isinstance(node, ast.ImportFrom) else [])
            assert "threading" not in names, path.name
        if path.name in ("states.py", "ladder.py"):
            for node in tree.body:
                value = node.value if isinstance(node, (ast.Assign, ast.AnnAssign)) else None
                assert not isinstance(value, (ast.Dict, ast.DictComp)), (path.name, node.lineno)
                assert not (isinstance(value, ast.Call) and getattr(value.func, "id", "") == "dict")


def test_one_density_path():
    # the weight densities and ln_bessel_k take node arrays and the scalar
    # entry points wrap a float into one, so no function in weights or specfun
    # picks numpy or math by the type of its argument
    for name in ("weights.py", "specfun.py"):
        for node in ast.walk(ast.parse((SRC / name).read_text())):
            if isinstance(node, ast.IfExp):  # np ... if ... else math ..., either way round
                body, orelse = ({n.id for n in ast.walk(side) if isinstance(n, ast.Name)}
                                for side in (node.body, node.orelse))
                assert not ("np" in body and "math" in orelse
                            or "math" in body and "np" in orelse), (name, node.lineno)
            if isinstance(node, ast.Compare) and any(
                    isinstance(op, (ast.Is, ast.IsNot)) for op in node.ops):
                ids = {getattr(v, "id", None) for v in (node.left, *node.comparators)}
                assert not ids & {"np", "math"}, (name, node.lineno)


def test_one_gamma_ratio():
    # Gamma ratios are specfun.ln_gamma_ratio, the half-order anchor log rho(1/2)
    # of states.log_rho_half included: no other module calls lgamma or ln_gamma,
    # and in specfun only ln_gamma, ln_gamma_ratio and the Laplace integral's
    # 1/Gamma(a) call math.lgamma, so a second hand-written ratio cannot return
    callers = {}
    for path in sorted(SRC.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            for node in ast.walk(top):
                if isinstance(node, ast.Call) and {"lgamma", "ln_gamma"} & {
                        getattr(node.func, "attr", None), getattr(node.func, "id", None)}:
                    callers.setdefault(path.name, set()).add(getattr(top, "name", "<module>"))
    assert callers == {"specfun.py": {"ln_gamma", "ln_gamma_ratio", "_tricomi_laplace"}}


def test_one_density_formula():
    # every weight density is written once, as (log|wt|, sign): each special
    # function a density needs is called from one top-level function of
    # weights.py, so a second (cut or linear) density formula cannot return;
    # gauss_2f1 owns the 2F1 branch dispatch, so weights calls no pfq or unit
    # formula of its own
    evaluators = {"tricomi_u", "ln_bessel_k", "gauss_2f1", "pfq", "gauss_2f1_unit"}
    callers = {name: set() for name in evaluators}
    for top in ast.parse((SRC / "weights.py").read_text()).body:
        for node in ast.walk(top):
            if isinstance(node, ast.Call):
                f = node.func
                name = f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)
                if name in evaluators:
                    callers[name].add(getattr(top, "name", "<module>"))
    assert callers.pop("pfq") == callers.pop("gauss_2f1_unit") == set()
    assert all(len(c) == 1 for c in callers.values()), callers


def test_one_series_loop():
    # pfq is specfun's one block-series loop and stopping rule: the 2F1
    # logarithmic case sums its log part as one weighted pfq call, so no
    # other function forms term blocks with np.multiply.accumulate
    tops = {f.name: f for f in ast.parse((SRC / "specfun.py").read_text()).body
            if isinstance(f, ast.FunctionDef)}
    blocks = {name for name, f in tops.items() for n in ast.walk(f)
              if isinstance(n, ast.Attribute) and n.attr == "accumulate"
              and getattr(n.value, "attr", None) == "multiply"}
    assert blocks == {"pfq"}
    assert [n.func.id for n in ast.walk(tops["_gauss_log_case"]) if isinstance(n, ast.Call)
            and getattr(n.func, "id", None) == "pfq"] == ["pfq"]


def test_one_bessel_k_rule():
    # K has one rule, the cosh integral: no function reachable from
    # ln_bessel_k sums a pfq series, and _log_trapezoid is specfun's only
    # integrator (the one top-level function that calls a function it is
    # handed), so a second K rule, a series or another quadrature, cannot
    # come back beside it
    tops = {f.name: f for f in ast.parse((SRC / "specfun.py").read_text()).body
            if isinstance(f, ast.FunctionDef)}

    def called(func):
        return {n.func.id for n in ast.walk(func)
                if isinstance(n, ast.Call) and isinstance(n.func, ast.Name)}

    reach, todo = set(), ["ln_bessel_k"]
    while todo:
        name = todo.pop()
        if name not in reach:
            reach.add(name)
            todo += called(tops[name]) & tops.keys()
    assert "pfq" not in reach and "_log_trapezoid" in reach, reach
    integrators = {name for name, f in tops.items() if called(f) & {a.arg for a in f.args.args}}
    assert integrators == {"_log_trapezoid"}


def test_closed_forms_sum_no_series():
    # the closed-form oracle takes contiguous ratios by continued fractions
    # and P(n) by positive-term sums: nothing reachable from
    # closed_form_stats calls pfq or gauss_2f1, so it stays independent of
    # the Gauss evaluator it could be used to check
    tops = {}
    for name in ("photstat.py", "states.py"):
        tops.update({f.name: f for f in ast.parse((SRC / name).read_text()).body
                     if isinstance(f, ast.FunctionDef)})

    def called(func):
        return {n.func.attr if isinstance(n.func, ast.Attribute) else getattr(n.func, "id", None)
                for n in ast.walk(func) if isinstance(n, ast.Call)}

    reach, todo, calls = set(), ["closed_form_stats"], set()
    while todo:
        name = todo.pop()
        if name not in reach:
            reach.add(name)
            calls |= called(tops[name])
            todo += calls & tops.keys()
    assert "_lentz" in reach and not calls & {"pfq", "gauss_2f1"}, reach


def test_no_per_row_python_in_the_densities():
    # the densities and the kernels they call take whole node arrays: none of
    # them walks its rows in Python through .tolist(), map() or a comprehension
    kernels = {"weights.py": ("_ln_density",),
               "specfun.py": ("ln_bessel_k", "tricomi_u", "gauss_2f1")}
    for name, funcs in kernels.items():
        tops = {f.name: f for f in ast.parse((SRC / name).read_text()).body
                if isinstance(f, ast.FunctionDef)}
        for func in funcs:
            for node in ast.walk(tops[func]):
                assert not isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                                             ast.GeneratorExp)), (func, node.lineno)
                if isinstance(node, ast.Call):
                    f = node.func
                    called = f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)
                    assert called not in ("tolist", "map"), (func, node.lineno)


def test_one_slice_row():
    # the factorial moments take the term ratio on the one row log t_n: neither
    # log_terms nor its settling pass takes a count of shifted rows, and no
    # call in the package passes log_terms more than (params, x)
    assert list(inspect.signature(states.log_terms).parameters) == ["params", "x"]
    assert "shifts" not in inspect.signature(states._settled_slice).parameters
    extra = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and "log_terms" in (
                    getattr(node.func, "id", None), getattr(node.func, "attr", None)):
                if len(node.args) > 2 or node.keywords:
                    extra.append(f"{path.name}:{node.lineno}")
    assert extra == []


def test_export_list_resolves():
    # every name in ghcs.__all__ is bound on the package, once: a deleted
    # evaluator cannot linger in the export list
    assert len(ghcs.__all__) == len(set(ghcs.__all__))
    assert [n for n in ghcs.__all__ if not hasattr(ghcs, n)] == []


def test_every_function_and_class_is_reached_from_the_cli():
    # cli.main is the one root of the package: walking the names and the
    # module attributes (states.fock_vector) that each reached function,
    # class or module-level value refers to reaches every top-level function
    # and class, so code that no `ghcs` command runs cannot stay
    trees = {p.stem: ast.parse(p.read_text()) for p in SRC.glob("*.py") if p.stem != "__init__"}
    defs = {m: {} for m in trees}
    imported = {m: {} for m in trees}  # local name -> (module, name), module None for a module
    for m, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs[m][node.name] = node
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defs[m].update((t.id, node) for t in targets if isinstance(t, ast.Name))
            elif isinstance(node, ast.ImportFrom) and node.level == 1:
                imported[m].update((a.asname or a.name, (node.module, a.name)) for a in node.names)

    def refers(m, node):
        if isinstance(node, ast.Name):
            if node.id in defs[m]:
                return m, node.id
            mod, name = imported[m].get(node.id, (None, None))
            return (mod, name) if mod else None
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            mod, name = imported[m].get(node.value.id, (None, None))
            return (name, node.attr) if mod is None and name else None

    reached, todo = set(), [("cli", "main")]
    while todo:
        key = todo.pop()
        if key not in reached and key[1] in defs.get(key[0], {}):
            reached.add(key)
            todo += filter(None, (refers(key[0], n) for n in ast.walk(defs[key[0]][key[1]])))
    unreached = [f"{m}.{name}" for m, names in defs.items() for name, node in names.items()
                 if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and (m, name) not in reached]
    assert unreached == []
