"""Every definition in the package has a caller outside the tests: each
module-level function and class, and each non-dunder method of such a
class, is named somewhere in the package outside its own body, or in the
benchmark (perfbench/*.py).  An oracle that only the tests call belongs
in tests/.  The guard is static, by name: a call trace of the CLI and
the gate takes far longer than a unit test may.  In the same way each
optional parameter of a module-level function or classmethod is set by
some call in the package or the benchmark: an option that every caller
leaves at its default is a second formula nobody runs.  A second guard keeps
the scalar tower layered: scalars imports nothing of the package, linalg
only scalars.  A third keeps one dispatcher per module family: only
jantzen.kac_module compares a value with the case names "c1" and
"discrete"."""

import ast
from collections import Counter
from pathlib import Path

import virasoro

PACKAGE = sorted(Path(virasoro.__file__).parent.glob("*.py"))
BENCH = sorted((Path(__file__).resolve().parents[1] / "perfbench").glob("*.py"))


def _definitions(tree):
    """(qualified name, node) of each module-level function and class and
    of each non-dunder method of a module-level class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not (
                    item.name.startswith("__") and item.name.endswith("__")
                ):
                    yield f"{node.name}.{item.name}", item


def _names(tree) -> Counter:
    """How often `tree` uses each name as a Name, an Attribute or an
    import alias."""
    found = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found[node.id] += 1
        elif isinstance(node, ast.Attribute):
            found[node.attr] += 1
        elif isinstance(node, ast.alias):
            found[node.asname or node.name.rsplit(".", 1)[-1]] += 1
    return found


def unreached(modules, outside=frozenset()) -> list:
    """The definitions of `modules` ({module name: tree}) that no module
    names outside their own body and that `outside` does not name."""
    total = sum((_names(tree) for tree in modules.values()), Counter())
    missing = []
    for module, tree in modules.items():
        for qualified, node in _definitions(tree):
            name = qualified.rsplit(".", 1)[-1]
            if name not in outside and total[name] == _names(node)[name]:
                missing.append(f"{module}.{qualified}")
    return missing


def test_the_guard_sees_an_unused_function():
    src = (
        "def used():\n    return 1\n\n"
        "def unused():\n    return used()\n\n"
        "class Kept:\n"
        "    def only_itself(self):\n        return self.only_itself()\n\n"
        "    def __repr__(self):\n        return ''\n\n"
        "Kept()\n"
    )
    assert unreached({"demo": ast.parse(src)}) == ["demo.unused", "demo.Kept.only_itself"]
    assert unreached({"demo": ast.parse(src)}, outside={"unused"}) == ["demo.Kept.only_itself"]


def test_every_definition_has_a_caller():
    modules = {path.stem: ast.parse(path.read_text(), filename=str(path)) for path in PACKAGE}
    bench = set()
    for path in BENCH:
        bench.update(_names(ast.parse(path.read_text(), filename=str(path))))
    assert BENCH, "perfbench/*.py not found"
    assert unreached(modules, bench) == []


def _options(tree):
    """(qualified name, position, name) of each optional parameter of a
    module-level function and of each classmethod of a module-level
    class; the position counts the arguments a call passes (not `cls`),
    and is None for a keyword-only parameter."""
    functions = [(node.name, node, 0) for node in tree.body if isinstance(node, ast.FunctionDef)]
    for cls in tree.body:
        if isinstance(cls, ast.ClassDef):
            functions += [(f"{cls.name}.{item.name}", item, 1) for item in cls.body
                          if isinstance(item, ast.FunctionDef) and any(
                              isinstance(d, ast.Name) and d.id == "classmethod"
                              for d in item.decorator_list)]
    for qualified, node, skip in functions:
        args = node.args
        positional = [*args.posonlyargs, *args.args][skip:]
        for i, arg in enumerate(positional[len(positional) - len(args.defaults):],
                                len(positional) - len(args.defaults)):
            yield qualified, i, arg.arg
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                yield qualified, None, arg.arg


def _calls(trees) -> dict:
    """For each name called as a Name or an Attribute in `trees`: the
    most positional arguments one call passes, and the keywords any call
    passes (a `*args` passes every position, a `**kwargs` every keyword,
    marked by None)."""
    found = {}
    for tree in trees:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            entry = found.setdefault(name, [0, set()])
            star = any(isinstance(a, ast.Starred) for a in node.args)
            entry[0] = max(entry[0], float("inf") if star else len(node.args))
            entry[1].update(k.arg for k in node.keywords)
    return found


def unset_options(modules, outside=()) -> list:
    """The optional parameters of `modules` ({module name: tree}) that no
    call in them or in the trees `outside` sets, matched by the called
    name, as "module.function.parameter"."""
    calls = _calls([*modules.values(), *outside])
    missing = []
    for module, tree in modules.items():
        for qualified, position, name in _options(tree):
            most, keywords = calls.get(qualified.rsplit(".", 1)[-1], (0, set()))
            if not (position is not None and most > position or name in keywords
                    or None in keywords):
                missing.append(f"{module}.{qualified}.{name}")
    return missing


def test_the_guard_sees_an_unset_option():
    src = (
        "def f(a, b=1, c=2, *, d=3):\n    return a\n\n"
        "class K:\n"
        "    @classmethod\n"
        "    def make(cls, x, y=0):\n        return cls()\n\n"
        "    def method(self, z=0):\n        return z\n\n"
        "f(0, 1)\nf(0, d=4)\nK.make(1)\n"
    )
    assert unset_options({"demo": ast.parse(src)}) == ["demo.f.c", "demo.K.make.y"]
    assert unset_options({"demo": ast.parse(src)}, [ast.parse("f(*args)\nmake(1, 2)")]) == []
    assert unset_options({"demo": ast.parse(src)}, [ast.parse("g(**kw)\nf(0, **kw)")]) == [
        "demo.K.make.y"]


def test_every_option_is_set_by_a_caller():
    modules = {path.stem: ast.parse(path.read_text(), filename=str(path)) for path in PACKAGE}
    bench = [ast.parse(path.read_text(), filename=str(path)) for path in BENCH]
    assert unset_options(modules, bench) == []


def _package_imports(tree) -> set:
    """The modules of the package that `tree` imports, anywhere in it:
    `from . import m`, `from .m import x`, `from virasoro.m import x`
    and `import virasoro.m` all name m."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
            node.level or (node.module or "").split(".")[0] == "virasoro"
        ):
            module = (node.module or "").removeprefix("virasoro").lstrip(".")
            found.update([module] if module else (a.name for a in node.names))
        elif isinstance(node, ast.Import):
            found.update(a.name.removeprefix("virasoro.") for a in node.names
                         if a.name.split(".")[0] == "virasoro")
    return found


def test_the_scalar_tower_is_layered():
    """scalars, which owns the coefficient formats and their arithmetic,
    imports nothing of the package; linalg, which only eliminates,
    imports only scalars."""
    modules = {path.stem: ast.parse(path.read_text(), filename=str(path)) for path in PACKAGE}
    demo = "from . import verma\nfrom .x import y\nimport virasoro.z\ndef f():\n    from virasoro.w import v\n"
    assert _package_imports(ast.parse(demo)) == {"verma", "x", "z", "w"}
    assert _package_imports(modules["scalars"]) == set()
    assert _package_imports(modules["linalg"]) == {"scalars"}


CASES = {"c1", "discrete"}


def case_comparisons(modules) -> set:
    """Where `modules` ({module name: tree}) compare a value with a case
    name of CASES, by == or in, or match it: the enclosing module-level
    definition as "module.name", or "module" at module level."""
    found = set()
    for module, tree in modules.items():
        for top in tree.body:
            named = isinstance(top, (ast.FunctionDef, ast.ClassDef))
            for node in ast.walk(top):
                if isinstance(node, ast.Compare):
                    operands = [node.left, *node.comparators]
                elif isinstance(node, ast.MatchValue):
                    operands = [node.value]
                else:
                    continue
                for op in operands:
                    elts = op.elts if isinstance(op, (ast.Tuple, ast.List, ast.Set)) else [op]
                    if any(isinstance(e, ast.Constant) and e.value in CASES for e in elts):
                        found.add(f"{module}.{top.name}" if named else module)
    return found


def test_one_dispatcher_per_module_family():
    demo = (
        "def kac_module(case):\n    return 1 if case == 'c1' else 2\n\n"
        "def second(case):\n    return 'discrete' != case\n\n"
        "def third(case):\n    return case in ('c1', 'x')\n\n"
        "def fourth(case):\n    match case:\n        case 'discrete':\n            return 1\n\n"
        "TABLE = {'c1': 1, 'discrete': 2}\n\n"
        "def by_table(case):\n    return TABLE[case]\n"
    )
    assert case_comparisons({"demo": ast.parse(demo)}) == {
        "demo.kac_module", "demo.second", "demo.third", "demo.fourth"}
    modules = {path.stem: ast.parse(path.read_text(), filename=str(path)) for path in PACKAGE}
    assert case_comparisons(modules) == {"jantzen.kac_module"}
