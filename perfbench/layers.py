"""Per-layer metrics of the traced run, and what each should move.

Each row is (metric, unit, better, moves): ``moves`` names the end-to-end
metric and the workload a change to that layer should show up in. Write it
down before measuring; on the other workloads the prediction is no change.
BENCHMARK.json's ``per_layer`` list holds the same names, units and
directions.

Span-derived metrics are named ``<layer>.<function>.<field>``: ``calls`` is
the number of calls, ``self_s`` the time inside the function but outside any
other wrapped function it called, ``total_s`` the time covered by its calls.
Values cover the traced set-up plus one traced iteration of the workload; a
layer the workload does not use reads 0.
"""

import importlib

from spans import CELLS, NODES, layer_self_times

NUMERIC_STEP = "run_s on paths-narrow; path_steps_per_s on mc-wide"
EXACT = "run_s on normal-module-exact only"
NUMERIC_SETUP = "setup_s on mc-wide and paths-narrow"

LAYER_METRICS = [
    # manifold: frame evaluation, the per-step structure solve, divergence, Gamma
    ("manifold.FrameField.matrix.calls", "count", "lower", NUMERIC_STEP),
    ("manifold.FrameField.matrix.self_s", "s", "lower", NUMERIC_STEP),
    ("manifold.StructureField.at.calls", "count", "lower", NUMERIC_STEP),
    ("manifold.StructureField.at.self_s", "s", "lower", NUMERIC_STEP),
    ("manifold.StructureField.bracket_values.self_s", "s", "lower", NUMERIC_STEP),
    ("manifold.StructureField.divergence.self_s", "s", "lower", NUMERIC_STEP),
    ("manifold.ChristoffelField.at.self_s", "s", "lower", NUMERIC_STEP),
    ("manifold.PoppOperator.apply.total_s", "s", "lower", "run_s on mc-wide"),
    ("manifold.solve_christoffel.total_s", "s", "lower", NUMERIC_SETUP),
    ("builtins.frame.total_s", "s", "lower", NUMERIC_SETUP),
    # expr: top-level evaluations, every node call (repeats exactly), eval time
    ("expr.eval.calls", "count", "lower", "run_s on paths-narrow most, mc-wide less"),
    ("expr.eval.nodes", "count", "lower", "run_s on paths-narrow most, mc-wide less"),
    ("expr.eval.self_s", "s", "lower", "run_s on paths-narrow most, mc-wide less"),
    # develop: RNG, orthogonality upkeep, the simulators' own loops, group law
    ("develop.increments.calls", "count", "lower",
     "path_steps_per_s on mc-wide; run_s on paths-narrow"),
    ("develop.increments.self_s", "s", "lower",
     "path_steps_per_s on mc-wide; run_s on paths-narrow"),
    ("develop.polar_project.self_s", "s", "lower", "path_steps_per_s on mc-wide"),
    ("develop.ortho_defect.self_s", "s", "lower", "path_steps_per_s on mc-wide"),
    ("develop.develop_sde.self_s", "s", "lower", "run_s on mc-wide and paths-narrow"),
    ("develop.simulate_popp.self_s", "s", "lower", "run_s on paths-narrow"),
    ("develop.develop_curve.self_s", "s", "lower", "run_s on paths-narrow"),
    ("develop.simulate_carnot_lift.self_s", "s", "lower", "run_s on mc-wide"),
    ("develop.CarnotGroup.bracket.calls", "count", "lower", "run_s on mc-wide only"),
    ("develop.CarnotGroup.bracket.self_s", "s", "lower", "run_s on mc-wide only"),
    ("develop.path_steps", "count", "higher", "work per iteration; base of path_steps_per_s"),
    # montecarlo: the estimators around the simulations
    ("montecarlo.generator_family_test.self_s", "s", "lower",
     "run_s and peak_rss_mb on mc-wide"),
    # ratlinalg: echelon work, products, span queries
    ("ratlinalg.rref.calls", "count", "lower", EXACT),
    ("ratlinalg.rref.self_s", "s", "lower", EXACT),
    ("ratlinalg.rref.cells", "count", "lower", EXACT),
    ("ratlinalg.matmul.self_s", "s", "lower", EXACT),
    ("ratlinalg.in_span.calls", "count", "lower", EXACT),
    ("ratlinalg.in_span.total_s", "s", "lower", EXACT),
    ("ratlinalg.span_intersection.total_s", "s", "lower", EXACT),
    ("ratlinalg.nullspace.total_s", "s", "lower", EXACT),
    # cohomology: differential, Gram form, h-action, the two normal modules
    ("cohomology.Cohomology.differential.calls", "count", "lower", EXACT),
    ("cohomology.Cohomology.differential.self_s", "s", "lower", EXACT),
    ("cohomology.Cohomology.inner.calls", "count", "lower", EXACT),
    ("cohomology.Cohomology.inner.self_s", "s", "lower", EXACT),
    ("cohomology.Cohomology.h_action.self_s", "s", "lower", EXACT),
    ("cohomology.Cohomology.image_partial_plus.total_s", "s", "lower", EXACT),
    ("cohomology.Cohomology.normal_module_popp.total_s", "s", "lower", EXACT),
    ("cohomology.Cohomology.normal_module_morimoto.total_s", "s", "lower", EXACT),
    # algebra: building the model algebras and their symmetries
    ("algebra.free_nilpotent.total_s", "s", "lower", "setup_s on normal-module-exact"),
    ("algebra.symmetry_algebra.total_s", "s", "lower", "setup_s on normal-module-exact"),
    # self time per layer; with trace.unattributed_s they sum to
    # trace.setup_s + trace.run_s
    ("layer.algebra.self_s", "s", "lower", "setup_s; run_s on normal-module-exact"),
    ("layer.builtins.self_s", "s", "lower", NUMERIC_SETUP),
    ("layer.cohomology.self_s", "s", "lower", EXACT),
    ("layer.develop.self_s", "s", "lower", "run_s on mc-wide and paths-narrow"),
    ("layer.expr.self_s", "s", "lower", "run_s on paths-narrow most, mc-wide less"),
    ("layer.manifold.self_s", "s", "lower", NUMERIC_STEP),
    ("layer.montecarlo.self_s", "s", "lower", "run_s on mc-wide"),
    ("layer.ratlinalg.self_s", "s", "lower", EXACT),
    ("trace.unattributed_s", "s", "lower", "benchmark glue and recorder cost"),
    ("trace.setup_s", "s", "lower", "traced set-up wall time"),
    ("trace.run_s", "s", "lower", "traced iteration wall time"),
    ("trace_overhead_s", "s", "lower", "trace.run_s minus the untraced run_s"),
]

LAYERS = ("algebra", "builtins", "cohomology", "develop", "expr", "manifold",
          "montecarlo", "ratlinalg")


def package_modules():
    """The package's layer modules for spans.Instrumentation, and its expr module."""
    mods = {name: importlib.import_module(f"cartandev.{name}") for name in LAYERS}
    return {k: v for k, v in mods.items() if k != "expr"}, mods["expr"]


def layer_values(summary, counts, path_steps):
    """Every span-, count- and layer-derived metric of LAYER_METRICS.

    ``summary`` is spans.summarize output, ``counts`` the recorder's counts.
    trace.setup_s, trace.run_s and trace_overhead_s are filled in by the caller.
    """
    layers = layer_self_times(summary)
    out = {}
    for name, _, _, _ in LAYER_METRICS:
        if name in (NODES, CELLS):
            out[name] = counts.get(name, 0)
        elif name == "develop.path_steps":
            out[name] = path_steps
        elif name.startswith("layer."):
            out[name] = layers.get(name.split(".")[1], 0.0)
        elif name == "trace.unattributed_s":
            out[name] = layers.get("unattributed", 0.0)
        elif name.startswith("trace"):
            continue
        else:
            func, field = name.rsplit(".", 1)
            row = summary.get(func)
            out[name] = row[field] if row else (0 if field == "calls" else 0.0)
    return out
