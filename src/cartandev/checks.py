"""The eleven acceptance checks, and the set-up they share with the CLI.

Each check runs at the configuration its caller passes and returns what it
measured; the bounds are the caller's. `cartandev verify suite` and
tests/test_acceptance.py run these same functions at different seeds and scales.
"""

from __future__ import annotations

import numpy as np

from . import algebra as al
from . import builtins as bi
from . import cohomology as co
from . import develop as dv
from . import manifold as mf
from . import montecarlo as mc


def context(frame):
    """(frame, structure functions, nilpotent model, symmetries) of a FrameField
    or builtin name; only a frame with no builtin model is nilpotentized."""
    alg = None
    if isinstance(frame, str):
        frame, alg = bi.frame(frame), bi.model_algebra_for(frame)
    structure = mf.StructureField(frame)
    alg = alg or mf.nilpotentization(frame, structure)
    return frame, structure, alg, al.symmetry_algebra(alg)


def connection(frame):
    """(frame, structure functions, symmetries, solved Christoffel field)."""
    frame, structure, _, sym = context(frame)
    return frame, structure, sym, mf.solve_christoffel(frame, structure, sym)


def cohomology_for(alg):
    """The cohomology of alg's ambient algebra under its extended metric."""
    metric = al.extend_metric(alg)
    return co.Cohomology(al.ambient(alg, al.symmetry_algebra(alg, metric)), metric)


def free23_brackets():
    """The bracket table of free(2,3), the paper's (2,3,5) algebra."""
    return al.free_nilpotent(2, 3).brackets


def obstructions(alg):
    """The serialized Morimoto-Popp obstruction of each layer-1 index."""
    c = cohomology_for(alg)
    return [c.morimoto_popp_obstruction(i).serialize() for i in range(alg.growth[0])]


def symmetry_dims():
    """dim h of heisenberg3, free23 and engel."""
    return {name: al.symmetry_algebra(bi.algebra(name)).dimH
            for name in ("heisenberg3", "free23", "engel")}


def differential_complex(alg):
    """How many arity-1 monomials m have d(d m) != 0; both normal modules are
    then built, so a failed exact certificate raises."""
    c = cohomology_for(alg)
    nonzero = sum(not c.differential(c._monomial_differential(1, m)).is_zero()
                  for m in c.monomials(1))
    c.normal_module_popp()
    c.normal_module_morimoto()
    return nonzero


def contact_christoffel(seed):
    """At 100 contact-halfplane sample points, with Gamma solved there: the
    largest |Gamma^1_i - c_12^i| (i <= 2) and the largest generator defect."""
    frame, structure, _, sym = context("contact-halfplane")
    points = frame.chart.sample_points(100, seed=seed)
    gamma = mf.solve_christoffel(frame, structure, sym, points)
    err = np.abs(gamma.at(points)[:, 0] - structure.at(points)[:, 0, 1, :2]).max()
    defect = np.abs(mf.generator_defect(gamma, points)).max()
    return {"err": float(err), "defect": float(defect)}


def goursat(count, seed):
    """The development condition of goursat-halfplane at count sample points."""
    frame, structure, alg, sym = context("goursat-halfplane")
    points = frame.chart.sample_points(count, seed=seed)
    return mf.develop_condition(frame, structure, alg, sym, points).to_dict()


def levi_civita(frames):
    """The largest gap between the connection drift and the divergence drift
    over Riemannian frames."""
    return max(mf.levi_civita_check(f, mf.StructureField(f)) for f in frames)


def lift_independence(name, q0, h0, u_rotated, record):
    """The largest gap between two recorded developments of one model curve
    on a builtin, dt 1e-3 to T 1: control (cos t, sin t) from the identity
    frame, and the same control rotated, u_rotated, from the frame h0."""
    frame, structure, _, gamma = connection(name)
    p1, p2 = (dv.develop_curve(frame, structure, gamma, u, q0, 1e-3, 1.0, h0=h, record=record)
              for u, h in ((["cos(t)", "sin(t)"], None), (u_rotated, h0)))
    return float(np.abs(p1.points - p2.points).max())


def levy_area_variance(config):
    """The variance of the area coordinate of the heisenberg3 Carnot lift."""
    end = dv.simulate_carnot_lift(bi.algebra("heisenberg3"), config).endpoints()
    return float(end[:, 2].var())


def generator(q0, config):
    """generator_family_test on contact-halfplane: coordinates and squares."""
    frame, structure, sym, gamma = connection("contact-halfplane")
    fs = mc.default_test_functions(frame.chart, squares=True)
    return mc.generator_family_test(frame, structure, gamma, sym, fs, q0, config)


def equivalence(q0, config, delta):
    """equivalence_test on contact-halfplane for the solved Gamma and for
    Gamma + delta (the negative control): one report each, both against one
    simulation of the direct diffusion."""
    frame, structure, _, gamma = connection("contact-halfplane")
    return mc.equivalence_test(frame, structure, (gamma, gamma.perturbed(delta)), q0, config)
