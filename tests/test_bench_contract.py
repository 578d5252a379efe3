"""The benchmark's contract with the package: every package attribute that
perfbench/*.py and perfbench/tests/*.py read exists, and every package call
in perfbench/*.py binds to the signature it calls, so a deletion from src/
that would break a benchmark run or the benchmark's own tests fails here."""

import ast
import importlib
import inspect
import itertools
import re
from pathlib import Path

from cartandev import cohomology as co
from cartandev import develop as dv

BENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_benchmark_reads_only_what_the_package_has():
    used = set()
    for path in sorted(BENCH.glob("*.py")):
        text = path.read_text()
        for module, alias in re.findall(r"^from cartandev import (\w+) as (\w+)$", text, re.M):
            mod = importlib.import_module(f"cartandev.{module}")
            used |= {(mod, name) for name in re.findall(rf"\b{alias}\.(\w+)", text)}
    names = {f"{mod.__name__}.{name}" for mod, name in used}
    assert {"cartandev.develop.simulate_carnot_lift", "cartandev.cohomology.Cohomology",
            "cartandev.ratlinalg.span_intersection"} <= names
    assert sorted(f"{mod.__name__}.{name}" for mod, name in used
                  if not hasattr(mod, name)) == []

    workloads = (BENCH / "workloads.py").read_text()
    methods = set(re.findall(r"\bctx\.(\w+)\(", workloads))
    assert methods == {"image_partial_plus", "normal_module_popp",
                       "normal_module_morimoto", "morimoto_popp_obstruction"}
    assert all(callable(getattr(co.Cohomology, m, None)) for m in methods)
    fields = set(re.findall(r"\bconfig\.(\w+)", workloads))
    assert {"scheme", "projection"} <= fields
    assert all(hasattr(dv.SDEConfig(), f) for f in fields)


def test_benchmark_tests_read_only_what_the_package_has():
    # perfbench/tests reach the package through layers.package_modules(): as
    # mods["<module>"].name, or as alias.name after alias = mods["<module>"]
    used = set()
    for path in sorted((BENCH / "tests").glob("*.py")):
        text = path.read_text()
        refs = re.findall(r'\bmods\["(\w+)"\]\.(\w+)', text)
        for alias, module in re.findall(r'^\s*(\w+) = mods\["(\w+)"\]$', text, re.M):
            refs += [(module, name) for name in re.findall(rf"\b{alias}\.(\w+)", text)]
        used |= {(importlib.import_module(f"cartandev.{module}"), name) for module, name in refs}
    names = {f"{mod.__name__}.{name}" for mod, name in used}
    assert {"cartandev.ratlinalg.rref", "cartandev.ratlinalg.rank",
            "cartandev.ratlinalg.invert"} <= names
    assert sorted(f"{mod.__name__}.{name}" for mod, name in used
                  if not hasattr(mod, name)) == []


def _constants(cls):
    """The literal class-level constants of a class body, NAME = literal or
    NAME = dict(key=literal, ...), by name."""
    out = {}
    for node in cls.body:
        if not (isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name)):
            continue
        value = node.value
        try:
            out[node.targets[0].id] = (
                {k.arg: ast.literal_eval(k.value) for k in value.keywords}
                if isinstance(value, ast.Call) and ast.unparse(value.func) == "dict"
                else ast.literal_eval(value))
        except ValueError:
            pass
    return out


def _unpacked(node, constants):
    """The values the operand of a * or ** argument can take: self.NAME is
    that class constant, and self.NAME[key] is any value of it."""
    if isinstance(node, ast.Subscript):
        return [v for d in _unpacked(node.value, constants) for v in d.values()]
    assert isinstance(node, ast.Attribute) and ast.unparse(node.value) == "self", \
        f"cannot resolve the unpacked argument {ast.unparse(node)}"
    return [constants[node.attr]]


def _calls(tree, aliases):
    """(line, alias, name, positional count, keyword names) of each way that
    each alias.name(...) call in a module can be made."""
    for top in tree.body:
        constants = _constants(top) if isinstance(top, ast.ClassDef) else {}
        for node in ast.walk(top):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and isinstance(node.func.value, ast.Name)
                    and node.func.value.id in aliases):
                continue
            positional = [[1] if not isinstance(a, ast.Starred)
                          else [len(v) for v in _unpacked(a.value, constants)]
                          for a in node.args]
            keywords = [[{k.arg}] if k.arg else [set(v) for v in _unpacked(k.value, constants)]
                        for k in node.keywords]
            for counts in itertools.product(*positional):
                for names in itertools.product(*keywords):
                    yield (node.lineno, node.func.value.id, node.func.attr,
                           sum(counts), set().union(*names))


def test_benchmark_calls_bind_to_the_package_signatures():
    # the positional count and the keyword names of each call bind to the
    # signature of the function or class it calls, so removing a parameter
    # that perfbench passes (squares, sym, metric, record) fails here
    bound, failed = set(), []
    for path in sorted(BENCH.glob("*.py")):
        text = path.read_text()
        aliases = {alias: importlib.import_module(f"cartandev.{module}") for module, alias
                   in re.findall(r"^from cartandev import (\w+) as (\w+)$", text, re.M)}
        for line, alias, name, count, keywords in _calls(ast.parse(text), aliases):
            try:
                inspect.signature(getattr(aliases[alias], name)).bind(
                    *range(count), **dict.fromkeys(keywords))
            except TypeError as e:
                failed.append(f"{path.name}:{line} {alias}.{name}: {e}")
            bound.add((f"{aliases[alias].__name__}.{name}", count, frozenset(keywords)))
    assert failed == []
    assert {("cartandev.montecarlo.default_test_functions", 1, frozenset({"squares"})),
            ("cartandev.montecarlo.generator_family_test", 7, frozenset()),
            ("cartandev.algebra.symmetry_algebra", 2, frozenset()),
            ("cartandev.develop.develop_sde", 5, frozenset({"record"})),
            ("cartandev.develop.SDEConfig", 0, frozenset({"seed", "dt", "T", "paths"})),
            ("cartandev.algebra.free_nilpotent", 2, frozenset())} <= bound
