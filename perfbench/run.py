"""The redstar benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds T --trace 0|1

Run from the root of a checkout that holds `src/redstar`.  Each sample runs
in a fresh interpreter (`worker.py`), so no process-global cache carries over
between samples.  Human-readable lines go first; the last line of standard
output is one JSON object with the keys `correct`, `attempted`, `failed` and
`metrics`.  With `--trace 0` the metrics are the end-to-end metrics of
`BENCHMARK.json`; with `--trace 1` they are its per-layer metrics.  The exit
code is 1 when any output is wrong, and 2 when the program is missing or a
worker fails.

End-to-end times are scaled to a reference host speed that each worker
measures while it runs (see `worker.REFERENCE_S`); the notes print the
measured speed and the unscaled work time.  Per-layer times are unscaled.

The verify workloads run the scenes pinned under `perfbench/scenes` exactly
as committed, whatever `--seed` says.  The scene seed fixes verify's random
inputs; over five other scene seeds heis3's median check took 140 to 184 ms
and its tail check 647 to 1109 ms, against 165 to 185 ms and 654 to 775 ms
for five runs of the pinned scene on the same machine.  Each report is
checked against its status counts and a digest recorded at the seed commit.
`--seed` shifts the seed of the call stream; every call is checked against
properties that do not depend on the code measured, and at `--seed 0` the
first pass is checked against a recorded digest too.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCENES = HERE / "scenes"

SETUP_SAMPLES = 7   # set-ups per run, each in a fresh interpreter
CHILD_TIMEOUT = 170

# name -> (mode, scene, truncation order override)
WORKLOADS = {
    "verify-heis3": ("verify", "heisenberg.json", None),
    "verify-aff1": ("verify", "affine_line.json", None),
    "calls-heis3-k4": ("calls", "heisenberg.json", 4),
}

# Outputs at --seed 0, recorded at the seed commit.  The verify digests are
# the sha256 of `redstar verify --scene <scene> --format json --out <file>`.
EXPECTED = {
    "verify-heis3": {
        "counts": {"pass": 93, "fail": 0, "skip": 0},
        "digest": "93e7f273242f73bef76c39b3e2bbe2c8934bed5b9a63605df3af7cb7c5ee3764",
    },
    "verify-aff1": {
        "counts": {"pass": 55, "fail": 0, "skip": 6},
        "digest": "50f97d27be352b529440aa382fdb0d9c68e98914e8f256d8f14089cfad9fd423",
    },
    "calls-heis3-k4": {
        "digest": "22536bc3cfa81920eaba10fdb562c0c6716f2e035f75d752f24af6e68d91f450",
    },
}

# Per-layer counters that must be zero, or nonzero, on each workload in a
# traced run.  A zero where work is expected means a layer fell out of the
# trace; a nonzero where none is expected means a path the workload is meant
# to bypass ran.
_GROUP_ONLY = ["starprod.star_std.calls", "starprod.stdrep.calls",
               "starprod.neumaier_N.build_s",
               "morita.deformation_comparison_H.calls",
               "morita.inner_product_red_closed_form.calls"]
_EVERYWHERE = ["starprod.star_G.calls", "starprod.moyal.calls",
               "diffop.DiffOperator.apply.calls",
               "diffop.DiffOperator.compose.calls",
               "diffop.DiffOperator.formal_adjoint.calls",
               "koszul.quantized_koszul.calls",
               "koszul.deformed_restriction.calls",
               "involution.reduced_involution.calls",
               "series.series_inverse.calls",
               "koszul.perturbation.nonzero_ratio",
               "poly.Poly.new", "scalars.GaussRational.new",
               "series.LambdaSeries.new", "funcs.Func.new"]
_VERIFY = ["integrate.gaussian_integrate.calls", "linalg.solve_linear.calls",
           "koszul.deformed_homotopy.calls"]
_SUITES = [f"suites.{s}.s" for s in ("star", "koszul", "reduction",
                                      "involution", "gns", "kms", "morita",
                                      "crossed", "rieffel")]
LAYER_EXPECTATIONS = {
    "verify-heis3": {
        "nonzero": _EVERYWHERE + _VERIFY + _GROUP_ONLY + _SUITES + [
            "series.series_sqrt.calls"],
        "zero": [],
    },
    "verify-aff1": {
        "nonzero": _EVERYWHERE + _VERIFY + _SUITES,
        "zero": _GROUP_ONLY,
    },
    "calls-heis3-k4": {
        "nonzero": _EVERYWHERE + ["starprod.star_std.calls",
                                  "starprod.stdrep.calls",
                                  "starprod.neumaier_N.build_s"],
        "zero": _SUITES,
    },
}


class BenchError(Exception):
    """The program under test is missing or a worker broke."""


def start_worker(mode: str, scene: str, seed: int, order, seconds=None,
                 trace=False) -> subprocess.Popen:
    cmd = [sys.executable, str(HERE / "worker.py"), mode,
           "--scene", str(SCENES / scene), "--seed", str(seed)]
    if order is not None:
        cmd += ["--order", str(order)]
    if seconds is not None:
        cmd += ["--seconds", str(seconds)]
    if trace:
        cmd.append("--trace")
    return subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)


def finish_workers(procs: list) -> list:
    """Wait for every worker and return their results; a worker that fails
    or overruns stops the others too."""
    try:
        results = []
        for proc in procs:
            out, err = proc.communicate(timeout=CHILD_TIMEOUT)
            if proc.returncode != 0:
                raise BenchError(f"worker {proc.args[2]} failed:\n{err.strip()}")
            results.append(json.loads(out.splitlines()[-1]))
        return results
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
            proc.wait()


class Run:
    """Samples and correctness tallies of one benchmark run."""

    def __init__(self, name: str, seed: int):
        self.name = name
        self.mode, self.scene, self.order = WORKLOADS[name]
        self.seed = seed if self.mode == "calls" else 0
        self.expected = EXPECTED[name]
        self.attempted = 0
        self.failed = 0
        self.notes: list = []

    def start(self, mode=None, **kwargs) -> subprocess.Popen:
        return start_worker(mode or self.mode, self.scene, self.seed,
                            self.order, **kwargs)

    def call(self, mode=None, **kwargs) -> dict:
        return finish_workers([self.start(mode, **kwargs)])[0]

    def mismatch(self, what: str, got, want):
        self.failed += 1
        self.notes.append(f"MISMATCH {what}: got {got}, expected {want}")

    def check_digest(self, digest: str, what: str):
        if self.seed == 0 and digest != self.expected["digest"]:
            self.mismatch(f"{what} digest", digest, self.expected["digest"])

    def check_verify(self, res: dict):
        self.attempted += 1
        if res["counts"] != self.expected["counts"]:
            self.mismatch("status counts", res["counts"], self.expected["counts"])
        else:
            self.check_digest(res["digest"], "report")

    def check_calls(self, res: dict):
        self.attempted += res["attempted"]
        self.failed += res["failed"]
        if res["failed"]:
            self.notes.append(f"MISMATCH {res['failed']} call properties")
        self.check_digest(res["digest"], "call stream")

    def setups(self, first: list) -> float:
        samples = list(first)
        while len(samples) < SETUP_SAMPLES:
            samples.append(self.call("setup"))
        return statistics.median(r["setup_s"] * r["setup_speed"] for r in samples)

    # -- untraced run -------------------------------------------------------

    def measure(self, seconds: float) -> dict:
        """End-to-end metrics; every time is scaled by the host speed that
        its own worker measured (see worker.REFERENCE_S)."""
        if self.mode == "verify":
            results, begin = [], time.perf_counter()
            while not results or time.perf_counter() - begin < seconds:
                res = self.call()
                self.check_verify(res)
                results.append(res)
            work = sum(r["work_s"] * r["speed"] for r in results)
            raw = sum(r["work_s"] for r in results)
            units = len(results)
            self.notes.append(f"{units} verifies")
        else:
            res = self.call(seconds=seconds)
            self.check_calls(res)
            results = [res]
            work = sum(res["pass_s"]) * res["speed"]
            raw = sum(res["pass_s"])
            units = len(res["pass_s"])
            self.notes.append(f"{units} passes")
        self.notes.append(
            f"host speed {statistics.mean(r['speed'] for r in results):.3f} "
            f"of the reference; unscaled work_s {raw / units:.4g} s")
        return {
            "setup_s": (self.setups(results), "s"),
            "peak_rss_mb": (max(r["rss_mb"] for r in results), "MB"),
            "work_s": (work / units, "s"),
        }

    # -- traced run ---------------------------------------------------------

    def trace(self) -> dict:
        if self.mode == "verify":
            # Side by side on two cores, so that a traced run of the slowest
            # workload stays well inside its time limit.
            plain, traced = finish_workers([self.start(),
                                            self.start(trace=True)])
            self.check_verify(plain)
            self.check_verify(traced)
            untraced_digest = plain["digest"]
            overhead = traced["work_s"] - plain["work_s"]
        else:
            traced = self.call(trace=True)
            self.check_calls(traced)
            untraced_digest = traced["digest"]
            traced["digest"] = traced["traced_digest"]
            overhead = traced["traced_pass_s"] - traced["untraced_pass_s"]
        self.attempted += 1
        if traced["digest"] != untraced_digest:
            self.mismatch("traced digest", traced["digest"], untraced_digest)
        layers = dict(traced["layers"])
        layers["starprod.neumaier_N.build_s"] = traced["build_s"]
        layers["trace.overhead_s"] = overhead
        want = LAYER_EXPECTATIONS[self.name]
        for key in want["nonzero"]:
            if not layers[key]:
                self.mismatch(key, 0, "nonzero")
        for key in want["zero"]:
            if layers[key]:
                self.mismatch(key, layers[key], 0)
        units = {"calls": "count", "new": "count", "nonzero_ratio": "ratio"}
        return {k: (v, units.get(k.rpartition(".")[2], "s"))
                for k, v in layers.items()}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="the redstar benchmark")
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "redstar" / "__init__.py").is_file():
        print(f"no redstar sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    run = Run(args.workload, args.seed)
    try:
        metrics = run.trace() if args.trace else run.measure(args.seconds)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    for note in run.notes:
        print(note)
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if run.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
