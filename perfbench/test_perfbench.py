"""Self-tests of the benchmark: `python3 -m pytest perfbench`.

They are not part of the repository's test suite; the traced run takes
about half a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracer  # noqa: E402


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    per_layer = [m["name"] for m in spec["per_layer"]]
    assert per_layer == tracer.metric_names() + [
        "starprod.neumaier_N.build_s", "trace.overhead_s"]
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(run.WORKLOADS)
    assert [m["name"] for m in spec["end_to_end"]] == [
        "setup_s", "peak_rss_mb", "work_s"]
    for expect in run.LAYER_EXPECTATIONS.values():
        assert set(expect["zero"] + expect["nonzero"]) <= set(per_layer)


def test_tracer_rebinds_every_reference():
    script = """
import sys
sys.path[:0] = ["src", "perfbench"]
import importlib
import redstar, tracer
starprod, koszul, suites = (importlib.import_module("redstar." + n)
                            for n in ("starprod", "koszul", "suites"))
original = starprod.star_G
tracer.Tracer().install()
assert starprod.star_G is not original
assert redstar.star_G is suites.star_G is starprod.star_G
assert suites.SUITES["star"] is suites.suite_star
assert koszul.deformed_restriction is suites.deformed_restriction
"""
    proc = subprocess.run([sys.executable, "-c", script], cwd=ROOT,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_tracer_refuses_a_reference_it_cannot_rebind():
    script = """
import importlib, sys
sys.path[:0] = ["src", "perfbench"]
import tracer
koszul = importlib.import_module("redstar.koszul")
koszul.HELD = (koszul.deformed_restriction,)
tracer.Tracer().install()
"""
    proc = subprocess.run([sys.executable, "-c", script], cwd=ROOT,
                          capture_output=True, text=True, timeout=60)
    assert "cannot rebind references in ['redstar.koszul.HELD']" in proc.stderr


def test_traced_runs_repeat_their_counts():
    counts = []
    for _ in range(2):
        proc = bench("--workload", "verify-aff1", "--seed", "0", "--trace", "1")
        assert proc.returncode == 0, proc.stdout + proc.stderr
        result = json.loads(proc.stdout.splitlines()[-1])
        assert result["correct"] and result["failed"] == 0
        metrics = result["metrics"]
        counts.append({k: v["value"] for k, v in metrics.items()
                       if k.endswith((".calls", ".new"))})
    assert counts[0] == counts[1]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "verify-aff1", "--seed", "0", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
