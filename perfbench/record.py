"""Write perfbench/references.json from the program as it stands.

    python3 perfbench/record.py

Stores what the checks compare against: the RK4 endpoint of paths-narrow,
the exact normal modules, dimensions and obstructions of
normal-module-exact, the fixed bounds of the checks, and the output
fingerprint of each workload for seeds 0 .. 31 (fingerprints are reported,
never gated). Re-record only when a change is meant to alter an
output, and say so where the change is described.
"""

from __future__ import annotations

import json
import os
import sys

import run

# Levy-area variance bounds of `cartandev verify suite`: (min paths, lo, hi)
LEVY_VARIANCE_BOUNDS = [[200_000, 0.24, 0.26], [0, 0.22, 0.28]]
CURVE_TOL = 1e-9
ORTHO_DEFECT_MAX = 1e-8
FINGERPRINT_SEEDS = 32


def record():
    import workloads

    def one_pass(cls, seed):
        w = cls(seed)
        w.setup()
        return w, w.iterate()

    refs = {}
    exact = workloads.NormalModuleExact
    w, out = one_pass(exact, 0)
    refs[exact.name] = {**w.serialized(out), "fingerprints": {"any": w.fingerprint(out)}}

    wide = workloads.McWide
    refs[wide.name] = {"levy_variance_bounds": LEVY_VARIANCE_BOUNDS, "fingerprints": {}}
    narrow = workloads.PathsNarrow
    refs[narrow.name] = {"curve_tol": CURVE_TOL, "ortho_defect_max": ORTHO_DEFECT_MAX,
                         "fingerprints": {}}
    for seed in range(FINGERPRINT_SEEDS):
        for cls in (wide, narrow):
            w, out = one_pass(cls, seed)
            if cls is narrow and seed == 0:
                refs[narrow.name]["curve_endpoint"] = out["curves"][-1].endpoints()[0].tolist()
            refs[cls.name]["fingerprints"][str(seed)] = w.fingerprint(out)
        print(f"seed {seed} recorded", flush=True)
    return refs


def main():
    for var in run.BLAS_VARS:
        os.environ.setdefault(var, "1")
    sys.path.insert(0, str(run.SRC))
    refs = record()
    (run.HERE / "references.json").write_text(json.dumps(refs, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
