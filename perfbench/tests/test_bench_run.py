"""The benchmark command: named metrics with units, checks that fail, missing source."""

import json
import shutil
import subprocess
import sys

import pytest

import layers
import run

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def run_bench(*args, cwd=run.ROOT):
    cmd = [sys.executable, "perfbench/run.py", "--workload", "mc-wide", "--seed", "5",
           "--seconds", "0", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def test_benchmark_json_matches_the_metric_tables():
    assert [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]] == list(run.END_TO_END)
    assert BENCHMARK["per_layer"] == [{"name": n, "unit": u, "better": b}
                                      for n, u, b, _ in layers.LAYER_METRICS]


@pytest.mark.parametrize("trace, table", [("0", "end_to_end"), ("1", "per_layer")])
def test_every_named_metric_is_printed_with_its_unit(trace, table):
    proc = run_bench("--trace", trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().split("\n")
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    expected = {m["name"]: m["unit"] for m in BENCHMARK[table]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    table_lines = [line.split() for line in lines[:-1]]
    for name, unit in expected.items():
        assert any(row[0] == name and row[2] == unit for row in table_lines if len(row) > 2), name
    printed = {row[0] for row in table_lines if row}
    if trace == "0":
        assert {"path_steps_per_s", "failed_fraction"} <= printed
    else:
        assert "wrappers restored: True" in proc.stdout


def test_a_wrong_reference_raises_failed_fraction():
    import workloads

    refs = json.loads((run.HERE / "references.json").read_text())["mc-wide"]
    refs["levy_variance_bounds"] = [[0, 0.30, 0.40]]      # true variance is 1/4
    w = workloads.McWide(5)
    w.setup()
    res = run.timed_loop(w, 0.0, refs)
    assert res["attempted"] > 0
    assert res["failed"] == 1
    assert [f[0] for f in res["failures"]] == ["free24 levy variance"]


def test_fails_without_the_package_source(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench("--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
