"""Monte Carlo estimators and statistical tests for the generator claims.

Both tests read their moments from one compiled program of test functions
(``_moments``): one call per point set, then ``summarize`` of each output.
"""

from __future__ import annotations

import numpy as np

from . import develop as dv
from . import expr as ex
from . import manifold as mf
from .errors import MalformedSpec, NonFinite


def summarize(samples):
    """Sample mean and its standard error, (mean, stderr), of >= 2 finite samples."""
    samples = np.asarray(samples, dtype=float)
    if len(samples) < 2:
        raise MalformedSpec(f"a standard error needs two or more samples, got {len(samples)}")
    if not np.all(np.isfinite(samples)):
        raise NonFinite("non-finite Monte Carlo samples")
    return (float(samples.mean()),
            float(samples.std(ddof=1) / np.sqrt(len(samples))))


def default_test_functions(chart, squares=True):
    """The fixed comparison family as (label, Expr) pairs: the coordinates,
    then, with squares, their squares."""
    out = [(name, ex.Var(name)) for name in chart.coords]
    if squares:
        out += [(f"{name}^2", ex.Pow(ex.Var(name), 2)) for name in chart.coords]
    return out


def _moments(fs, chart):
    """The test functions fs, a list of (label, Expr), as one Compiled program.

    Returns the program and a map from a (P, d) point set to the (mean,
    stderr) of each function there, in the order of fs: one
    program(chart.env(points)) call, then summarize of each output.
    """
    program = ex.Compiled([f for _, f in fs], "test functions")

    def moments(points):
        return [summarize(np.broadcast_to(v, (len(points),)))
                for v in program(chart.env(points))]
    return program, moments


def generator_family_test(frame, structure, gamma, sym, fs, q0, config):
    """Compare (E f(q_t) - f(q0)) / t against (1/2) Delta f(q0) for each f.

    Delta is the generator of the development with gamma: second_order with
    drift div + defect, the Popp sub-Laplacian when gamma solves the
    divergence system. fs is a list of (label, Expr), compiled once: f(q0)
    and the moments at t/2 and t are read from the one program. The process
    runs once to t and is recorded at t/2 and t, so T/dt must be even. A
    function passes when its t discrepancy is within 3 stderr/t plus twice
    an empirical O(t) bias allowance extrapolated from the two times;
    bias_shrinks reports whether the bias estimate shrinks with t. sym is
    not read: gamma carries its symmetry algebra.
    """
    chart = frame.chart
    q0v = np.asarray(q0, dtype=float)
    if config.steps % 2:
        raise MalformedSpec(f"T/dt must be even to record t/2, got dt={config.dt}, T={config.T}")
    path = dv.develop_sde(frame, structure, gamma, q0v, config,
                          record=(config.steps // 2, config.steps))
    q = q0v[None]
    program, moments = _moments(fs, chart)
    f0s = mf._evaluate(program, chart, q)[:, 0]
    if not np.all(np.isfinite(f0s)):
        raise NonFinite("test function evaluated to a non-finite sample")
    t1, t2 = config.T, config.T / 2.0
    drift = structure.divergence(q) + mf.generator_defect(gamma, q)
    reports = []
    for (label, f), f0, (m1, s1), (m2, s2) in zip(
            fs, f0s.tolist(), moments(path.points[1]), moments(path.points[0])):
        symbolic = 0.5 * float(mf.second_order(frame, f, q, drift)[0])
        mc1, se1, mc2, se2 = (m1 - f0) / t1, s1 / t1, (m2 - f0) / t2, s2 / t2
        gap1, gap2, noise = mc1 - symbolic, mc2 - symbolic, 3.0 * (se1 + se2)
        # O(t) weak bias: model gap ~ C t, estimate C from the t/2 record
        tol1 = 3.0 * se1 + 2.0 * (abs(gap2 - gap1) + noise)
        reports.append({"f": label, "mc_value": mc1, "mc_value_half_t": mc2,
                        "symbolic_value": symbolic, "stderr": se1, "tolerance": tol1,
                        "bias_shrinks": abs(gap2) <= abs(gap1) + noise,
                        "pass": abs(gap1) <= tol1})
    return {"test": "generator-family", "t": config.T, "dt": config.dt,
            "paths": config.paths, "functions": reports,
            "pass": all(r["pass"] for r in reports)}


def equivalence_test(frame, structure, gammas, q0, config):
    """Developed processes vs the direct Popp diffusion: moment z-scores.

    Compares the means of the chart coordinates and of their squares
    (default_test_functions, in that order) at the endpoint time, for each
    connection in gammas; a report passes iff all its |z| <= 3. The direct
    diffusion does not depend on the connection, so it is simulated once
    and every connection is compared with it. Returns one report per
    connection, in the order of gammas.
    """
    q0v = np.asarray(q0, dtype=float)
    fs = default_test_functions(frame.chart, squares=True)
    _, moments = _moments(fs, frame.chart)
    direct = moments(dv.simulate_popp(frame, structure, q0v, config).endpoints())
    reports = []
    for gamma in gammas:
        developed = moments(dv.develop_sde(frame, structure, gamma, q0v, config).endpoints())
        rows = []
        for (label, _), (ma, sa), (mb, sb) in zip(fs, developed, direct):
            se = np.hypot(sa, sb)
            z = float((ma - mb) / se) if se else 0.0
            rows.append({"moment": label, "developed": ma,
                         "direct": mb, "stderr": float(se), "z": z})
        worst = max(abs(r["z"]) for r in rows)
        reports.append({"test": "equivalence", "t": config.T, "dt": config.dt,
                        "paths": config.paths, "moments": rows, "max_abs_z": worst,
                        "pass": worst <= 3.0})
    return reports
