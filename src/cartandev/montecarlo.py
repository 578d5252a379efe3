"""Monte Carlo estimators and statistical tests for the generator claims."""

from __future__ import annotations

import numpy as np

from . import develop as dv
from . import manifold as mf
from .errors import MalformedSpec, NonFinite


def _evaluate(f, chart, points):
    env = chart.env(points)
    vals = np.broadcast_to(f(env), (len(points),))
    if not np.all(np.isfinite(vals)):
        raise NonFinite("test function evaluated to a non-finite sample")
    return vals


def summarize(samples):
    """Sample mean and its standard error, (mean, stderr), of >= 2 finite samples."""
    samples = np.asarray(samples, dtype=float)
    if len(samples) < 2:
        raise MalformedSpec(f"a standard error needs two or more samples, got {len(samples)}")
    if not np.all(np.isfinite(samples)):
        raise NonFinite("non-finite Monte Carlo samples")
    return (float(samples.mean()),
            float(samples.std(ddof=1) / np.sqrt(len(samples))))


def default_test_functions(chart, squares=True, products=False):
    """The fixed comparison family: coordinates, squares, pairwise products."""
    from . import expr as ex

    out = [(name, ex.Var(name)) for name in chart.coords]
    if squares:
        out += [(f"{name}^2", ex.Pow(ex.Var(name), 2)) for name in chart.coords]
    if products:
        names = chart.coords
        out += [(f"{a}*{b}", ex.Mul(ex.Var(a), ex.Var(b)))
                for i, a in enumerate(names) for b in names[i + 1:]]
    return out


def generator_family_test(frame, structure, gamma, sym, fs, q0, config):
    """Compare (E f(q_t) - f(q0)) / t against (1/2) Delta f(q0) for each f.

    Delta is the generator of the development with gamma: second_order with
    drift div + defect, the Popp sub-Laplacian when gamma solves the
    divergence system. fs is a list of (label, Expr). The process runs once
    to t and is recorded at t/2 and t (both whole numbers of steps dt), and
    every function is evaluated on the same endpoints. A function passes
    when its t discrepancy is within 3 stderr/t plus twice an empirical O(t)
    bias allowance extrapolated from the two times; bias_shrinks reports
    whether the bias estimate shrinks with t. sym is not read: gamma carries
    its symmetry algebra.
    """
    chart = frame.chart
    q0v = np.asarray(q0, dtype=float)
    half = dv.SDEConfig(dt=config.dt, T=config.T / 2.0).steps
    path = dv.develop_sde(frame, structure, gamma, q0v, config, record=(half, config.steps))
    t1, t2 = config.T, config.T / 2.0
    endpoints = {t1: path.points[1], t2: path.points[0]}
    q = q0v[None]
    drift = structure.divergence(q) + mf.generator_defect(gamma, q)
    reports = []
    for label, f in fs:
        f0 = float(_evaluate(f, chart, q)[0])
        symbolic = 0.5 * float(mf.second_order(frame, f, q, drift)[0])
        runs = {}
        for t, end in endpoints.items():
            mean, stderr = summarize(_evaluate(f, chart, end))
            runs[t] = {"mc_value": (mean - f0) / t, "stderr": stderr / t}
        gap1 = runs[t1]["mc_value"] - symbolic
        gap2 = runs[t2]["mc_value"] - symbolic
        # O(t) weak bias: model gap ~ C t, estimate C from the t/2 record
        bias1 = abs(gap2 - gap1) + 3.0 * (runs[t1]["stderr"] + runs[t2]["stderr"])
        tol1 = 3.0 * runs[t1]["stderr"] + 2.0 * bias1
        reports.append({
            "f": label,
            "mc_value": float(runs[t1]["mc_value"]),
            "mc_value_half_t": float(runs[t2]["mc_value"]),
            "symbolic_value": symbolic,
            "stderr": float(runs[t1]["stderr"]),
            "tolerance": float(tol1),
            "bias_shrinks": bool(abs(gap2) <= abs(gap1)
                                 + 3.0 * (runs[t1]["stderr"] + runs[t2]["stderr"])),
            "pass": bool(abs(gap1) <= tol1),
        })
    return {
        "test": "generator-family",
        "t": config.T,
        "dt": config.dt,
        "paths": config.paths,
        "functions": reports,
        "pass": bool(all(r["pass"] for r in reports)),
    }


def equivalence_test(frame, structure, gamma, q0, config, direct=None):
    """Developed process vs direct Popp diffusion: moment z-scores.

    Compares first and second empirical moments of every chart coordinate at
    the endpoint time; passes iff all |z| <= 3. The direct diffusion
    does not depend on gamma: direct, when given, is its simulate_popp Path
    at the same q0 and config, so several connections can be compared with
    one simulation of it.
    """
    q0v = np.asarray(q0, dtype=float)
    if direct is None:
        direct = dv.simulate_popp(frame, structure, q0v, config)
    elif (direct.points.shape[1:] != (config.paths, frame.chart.dim)
          or direct.times[-1] != config.steps * config.dt):
        raise MalformedSpec("the direct Popp path was simulated at another config")
    dev = dv.develop_sde(frame, structure, gamma, q0v, config)
    a, b = dev.endpoints(), direct.endpoints()
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        raise NonFinite("non-finite endpoints in the equivalence test")
    rows = []
    worst = 0.0
    for i, name in enumerate(frame.chart.coords):
        for label, xa, xb in ((name, a[:, i], b[:, i]),
                              (f"{name}^2", a[:, i] ** 2, b[:, i] ** 2)):
            (ma, sa), (mb, sb) = summarize(xa), summarize(xb)
            se = np.hypot(sa, sb)
            z = float((ma - mb) / se) if se else 0.0
            worst = max(worst, abs(z))
            rows.append({"moment": label, "developed": ma,
                         "direct": mb, "stderr": float(se), "z": z})
    return {
        "test": "equivalence",
        "t": config.T,
        "dt": config.dt,
        "paths": config.paths,
        "moments": rows,
        "max_abs_z": worst,
        "pass": bool(worst <= 3.0),
    }
