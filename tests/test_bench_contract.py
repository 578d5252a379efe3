"""The benchmark's contract with the package: every package attribute that
perfbench/*.py reads exists, so a deletion from src/ that would break a
benchmark run fails here."""

import importlib
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
