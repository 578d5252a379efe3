"""Named built-in algebras and chart structures used by the CLI and tests."""

from __future__ import annotations

from . import algebra as al
from . import expr as ex
from . import manifold as mf
from .errors import MalformedSpec

HEISENBERG3_SPEC = {
    "dim": 3,
    "growth": [2, 3],
    "brackets": {"1,2": {"3": "1"}},
}

# Engel algebra adapted to the doubly-prolonged frame: e3 = [e1, e2],
# e4 = [e2, e3].
ENGEL_SPEC = {
    "dim": 4,
    "growth": [2, 3, 4],
    "brackets": {"1,2": {"3": "1"}, "2,3": {"4": "1"}},
}


# the nilpotent model each modelled built-in structure develops over
_MODEL_SPECS = {
    "heisenberg3": HEISENBERG3_SPEC,
    "contact-halfplane": HEISENBERG3_SPEC,
    "engel-halfplane": ENGEL_SPEC,
    "goursat-halfplane": ENGEL_SPEC,
}


def algebra(name):
    """A built-in graded Lie algebra by name, or the model of a built-in structure."""
    if name in _MODEL_SPECS:
        return al.build_algebra(_MODEL_SPECS[name])
    if name == "engel":
        return al.build_algebra(ENGEL_SPEC)
    if name == "free23":
        return al.free_nilpotent(2, 3)
    if name == "free24":
        return al.free_nilpotent(2, 4)
    raise MalformedSpec(f"unknown built-in algebra {name!r}")


def _halfplane_frame():
    """Orthonormal frame (y d/dx, y d/dy) of the hyperbolic half-plane."""
    chart = mf.Chart(coords=("x", "y"), box=((-2.0, 2.0), (0.5, 2.5)))
    f = [["y", "0"], ["0", "y"]]
    fields = tuple(tuple(mf.parse_component(t, chart) for t in row) for row in f)
    return mf.FrameField(chart=chart, fields=fields, growth=(2,))


def _sphere_patch_frame():
    """Orthonormal frame (d/dth, (1/sin th) d/dph) away from the poles."""
    chart = mf.Chart(coords=("th", "ph"), periodic=("ph",),
                     box=((0.6, 2.5), (0.0, 6.283185307179586)))
    f = [["1", "0"], ["0", "1/sin(th)"]]
    fields = tuple(tuple(mf.parse_component(t, chart) for t in row) for row in f)
    return mf.FrameField(chart=chart, fields=fields, growth=(2,))


def _contact_halfplane_frame():
    """The once-prolonged half-plane with a normalized vertical field.

    The raw bracket completion X3 = [X1, X2] has [X2, X3] with a nonzero
    X3-component; replacing X3 by X3 + sin(t1) X1 makes both [X1, X3] and
    [X2, X3] horizontal while keeping [X1, X2] = X3 mod the distribution.
    """
    base = mf.prolong(_halfplane_frame())
    x1, x3 = base.fields[0], base.fields[2]
    s = ex.Call("sin", ex.Var("t1"))
    x3n = tuple(ex.add(c3, ex.mul(s, c1)) for c3, c1 in zip(x3, x1))
    return mf.FrameField(chart=base.chart,
                         fields=(base.fields[0], base.fields[1], x3n),
                         growth=base.growth)


def _heisenberg3_frame():
    chart = mf.Chart(coords=("x", "y", "z"),
                     box=((-2.0, 2.0), (-2.0, 2.0), (-2.0, 2.0)))
    f = [["1", "0", "-y/2"], ["0", "1", "x/2"], ["0", "0", "1"]]
    fields = tuple(tuple(mf.parse_component(t, chart) for t in row) for row in f)
    return mf.FrameField(chart=chart, fields=fields, growth=(2, 3))


def frame(name):
    """A built-in chart structure (FrameField) by name."""
    if name == "heisenberg3":
        return _heisenberg3_frame()
    if name in ("hyperbolic-plane", "halfplane"):
        return _halfplane_frame()
    if name == "sphere-patch":
        return _sphere_patch_frame()
    if name == "contact-halfplane":
        return _contact_halfplane_frame()
    if name in ("engel-halfplane", "goursat-halfplane"):
        return mf.prolong(mf.prolong(_halfplane_frame()))
    if name == "flat-plane":
        chart = mf.Chart(coords=("x", "y"), box=((-2.0, 2.0), (-2.0, 2.0)))
        fields = tuple(tuple(mf.parse_component(t, chart) for t in row)
                       for row in [["1", "0"], ["0", "1"]])
        return mf.FrameField(chart=chart, fields=fields, growth=(2,))
    raise MalformedSpec(f"unknown built-in structure {name!r}")


FRAME_NAMES = ("heisenberg3", "contact-halfplane", "engel-halfplane",
               "goursat-halfplane", "hyperbolic-plane", "sphere-patch",
               "flat-plane")


def model_algebra_for(name):
    """The nilpotent model a built-in structure develops over, or None."""
    return algebra(name) if name in _MODEL_SPECS else None
