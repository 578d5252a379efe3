"""The cartandev benchmark: one workload per run, checked, every metric named.

    python3 perfbench/run.py --workload mc-wide --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1

With ``--trace 0`` it prints the end-to-end metrics: ``setup_s`` (median over
fresh processes of the time from process start to the first timed call),
``run_s`` (median wall time of one pass over the workload's calls) and
``peak_rss_mb``; ``path_steps_per_s`` and ``failed_fraction`` are printed in
the table above the result line. With ``--trace 1`` it runs the workload
untraced for the same time, then once more under the span recorder, and prints
the per-layer metrics of layers.py. The last line of output is always one
JSON object with the keys correct, attempted, failed and metrics. The full
result, with its ``meta`` block, is written to perfbench/out/.

The program is imported from ``src/`` next to this directory; the run stops
with exit code 2 if that source is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import layers
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 9
END_TO_END = (("setup_s", "s"), ("run_s", "s"), ("peak_rss_mb", "MB"))


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("mc-wide", "paths-narrow", "normal-module-exact", "all"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


# -- run metadata ---------------------------------------------------------------

def git_commit():
    """HEAD of the checkout, read from .git without running git; None if absent."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def src_lines():
    return sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py")))


def run_meta(args):
    import numpy as np
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "git_commit": git_commit(),
            "python": platform.python_version(), "numpy": np.__version__,
            "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS},
            "src_lines": src_lines()}


# -- measurement ------------------------------------------------------------------

def timing(samples):
    """Median, the highest percentile with at least ten samples beyond it, count."""
    xs = sorted(samples)
    out = {"median": statistics.median(xs), "count": len(xs)}
    if len(xs) >= 11:
        k = len(xs) - 11
        out[f"p{100.0 * (k + 1) / len(xs):.0f}"] = xs[k]
    return out


def measure_setup(workload, seed):
    """Time from process start to the end of set-up, in fresh processes."""
    samples = []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", workload, "--seed", str(seed)]
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            try:
                line = proc.stdout.readline()
                t1 = time.perf_counter()
                proc.communicate(timeout=120)
            except BaseException:
                proc.kill()
                raise
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up process failed with exit code {proc.returncode}")
        samples.append(t1 - t0)
    return samples


def timed_loop(w, seconds, refs):
    """Closed loop: one pass over the workload's calls at a time.

    Only the calls are timed; checks run between passes. A new pass starts
    only while the loop's elapsed time plus the last pass fits in ``seconds``,
    and at least one pass always runs.
    """
    res = {"samples": [], "attempted": 0, "failed": 0, "failures": [], "first": None}
    begin = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        try:
            out = w.iterate()
        except Exception:
            res["samples"].append(time.perf_counter() - t0)
            res["attempted"] += 1
            res["failed"] += 1
            res["failures"].append(["exception in the workload's calls",
                                    traceback.format_exc(limit=8)])
            return res
        dt = time.perf_counter() - t0
        res["samples"].append(dt)
        record_checks(res, w, out, refs)
        if res["first"] is None:
            res["first"] = {"fingerprint": w.fingerprint(out), "meta": w.meta(out)}
        out = None
        if time.perf_counter() - begin + dt > seconds:
            return res


def record_checks(res, w, out, refs):
    try:
        rows = w.check(out, refs)
    except Exception:
        rows = [("checks raised", False, traceback.format_exc(limit=8))]
    res["attempted"] += len(rows)
    res["failed"] += sum(not ok for _, ok, _ in rows)
    seen = {f[0] for f in res["failures"]}
    res["failures"] += [[name, detail] for name, ok, detail in rows
                        if not ok and name not in seen]
    res.setdefault("checks", rows)


def traced_run(cls, seed, refs, untraced_run_s):
    """Set-up and one pass under the span recorder; per-layer metrics."""
    modules, expr = layers.package_modules()
    before = spans.attribute_snapshot(list(modules.values()) + [expr])
    rec = spans.Recorder()
    with spans.Instrumentation(rec, modules, expr):
        with rec.span("bench.setup"):
            w = cls(seed)
            w.setup()
        rec.run_id = 1
        with rec.span("bench.iteration"):
            out = w.iterate()
    restored = spans.same_attributes(
        before, spans.attribute_snapshot(list(modules.values()) + [expr]))
    res = {"attempted": 0, "failed": 0, "failures": []}
    record_checks(res, w, out, refs)
    fingerprint = w.fingerprint(out)
    out = None
    summary = spans.summarize(rec)
    values = layers.layer_values(summary, rec.counts, w.path_steps())
    values["trace.setup_s"] = summary["bench.setup"]["total_s"]
    values["trace.run_s"] = summary["bench.iteration"]["total_s"]
    values["trace_overhead_s"] = values["trace.run_s"] - untraced_run_s
    OUT.mkdir(exist_ok=True)
    dump = OUT / f"{cls.name}-seed{seed}.spans.gz"
    rec.dump(dump)
    res.update(values=values, fingerprint=fingerprint, wrappers_restored=restored,
               spans=len(rec.start), spans_file=str(dump.relative_to(ROOT)))
    return res


def fingerprint_flag(fingerprint, refs, seed):
    stored = refs.get("fingerprints", {})
    ref = stored.get(str(seed), stored.get("any"))
    if fingerprint is None:
        return None
    if ref is None:
        return "unrecorded"
    return "match" if fingerprint == ref else "changed"


# -- reporting --------------------------------------------------------------------

def print_table(rows):
    width = max(len(r[0]) for r in rows)
    for name, value, unit, note in rows:
        text = f"{value:.6g}" if isinstance(value, float) else str(value)
        print(f"  {name:<{width}}  {text:>14} {unit:<6} {note}")


def untraced_rows(setup, run, steps, result):
    """End-to-end metrics, plus path_steps_per_s where the workload simulates paths."""
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    high = [k for k in run if k.startswith("p")]
    rows = [("setup_s", statistics.median(setup), "s",
             f"median of {len(setup)} fresh processes"),
            ("run_s", run["median"], "s", f"median of {run['count']} passes"
             + (f"; {high[0]} {run[high[0]]:.6g} s" if high
                else "; too few passes for a high percentile")),
            ("peak_rss_mb", peak_rss_mb, "MB", "peak resident memory of this process")]
    result["untraced"].update(setup_s=timing(setup), setup_samples=setup)
    if steps:
        pss = steps / run["median"]
        result["untraced"]["path_steps_per_s"] = pss
        rows.insert(2, ("path_steps_per_s", pss, "1/s", f"{steps} path-steps per pass"))
    return rows


def traced_rows(tr, result):
    result["traced"] = {k: tr[k] for k in ("fingerprint", "wrappers_restored",
                                            "spans", "spans_file", "failures")}
    result["traced"]["outputs_unchanged"] = tr["fingerprint"] == result["fingerprint"]["sha256"]
    return [(name, tr["values"][name], unit, moves)
            for name, unit, _, moves in layers.LAYER_METRICS]


def print_sum_check(tr):
    v = tr["values"]
    layer_sum = sum(v[f"layer.{n}.self_s"] for n in layers.LAYERS) + v["trace.unattributed_s"]
    print(f"  layer self times + unattributed = {layer_sum:.6f} s; traced set-up + run"
          f" = {v['trace.setup_s'] + v['trace.run_s']:.6f} s;"
          f" wrappers restored: {tr['wrappers_restored']}")


def run_one(args):
    import workloads

    cls = workloads.WORKLOADS[args.workload]
    w = cls(args.seed)
    w.setup()
    if args.setup_only:
        print("ready", flush=True)
        return 0
    refs = json.loads((HERE / "references.json").read_text())[args.workload]

    setup = None if args.trace else measure_setup(args.workload, args.seed)
    loop = timed_loop(w, args.seconds, refs)
    run = timing(loop["samples"])
    first = loop["first"] or {"fingerprint": None, "meta": None}
    result = {"meta": {**run_meta(args), "workload_meta": first["meta"]},
              "untraced": {"run_s": run, "run_samples": loop["samples"],
                           "checks": len(loop.get("checks", [])),
                           "failures": loop["failures"]},
              "fingerprint": {"sha256": first["fingerprint"],
                              "flag": fingerprint_flag(first["fingerprint"], refs, args.seed)}}
    attempted, failed, failures = loop["attempted"], loop["failed"], loop["failures"]

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {run['count']}")
    if args.trace:
        tr = traced_run(cls, args.seed, refs, run["median"])
        attempted, failed = attempted + tr["attempted"], failed + tr["failed"]
        failures = failures + tr["failures"]
        rows = traced_rows(tr, result)
        names = {name for name, _, _, _ in layers.LAYER_METRICS}
    else:
        rows = untraced_rows(setup, run, w.path_steps(), result)
        names = {name for name, _ in END_TO_END}
    print_table(rows)
    if args.trace:
        print_sum_check(tr)
    metrics = {name: {"value": value, "unit": unit}
               for name, value, unit, _ in rows if name in names}
    ff = failed / attempted
    print_table([("failed_fraction", ff, "1", f"{failed} failed of {attempted} checks"),
                 ("fingerprint", result["fingerprint"]["sha256"], "",
                  result["fingerprint"]["flag"])])
    for name, detail in failures:
        print(f"  FAILED {name}: {detail}")
    result.update(attempted=attempted, failed=failed, failed_fraction=ff, metrics=metrics)
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(result, indent=1, default=str) + "\n")
    print(f"  result with meta: {path.relative_to(ROOT)}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def run_all(args):
    """Every workload in its own process, one after another; a combined table."""
    lines = {}
    for name in ("mc-wide", "paths-narrow", "normal-module-exact"):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
        out = proc.stdout.rstrip("\n").split("\n")
        print("\n".join(out[:-1]))
        if proc.returncode != 0:
            return proc.returncode
        lines[name] = json.loads(out[-1])
    metrics = {f"{w}.{m}": v for w, res in lines.items() for m, v in res["metrics"].items()}
    print(json.dumps({"correct": all(r["correct"] for r in lines.values()),
                      "attempted": sum(r["attempted"] for r in lines.values()),
                      "failed": sum(r["failed"] for r in lines.values()),
                      "metrics": metrics}))
    return 0


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "cartandev" / "develop.py").is_file():
        print(f"perfbench: no cartandev source under {SRC}", file=sys.stderr)
        return 2
    for var in BLAS_VARS:
        os.environ.setdefault(var, "1")
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
