"""The per-layer tracer of perfbench installs on this source tree.

perfbench/tracer.py wraps every traced layer by its module and qualified
name and refuses references it cannot rebind, so renaming or moving a
traced function, or holding one where rebinding cannot reach it, breaks the
benchmark.  This test runs the install in a fresh interpreter so such a
change fails the unit tests too.  One small traced involution also checks
that the adjoint, composition and series-inverse layers, which the
benchmark requires on every workload, still run beneath it.

The call-stream workload traces a warm model: a warm-up step and a first
pass run untraced and fill the model's lazy caches, then the same pass runs
traced.  A cache kept across calls that skips a required layer on repeat
calls therefore passes a cold trace and fails only the benchmark, so a
second test runs that traced pass through perfbench's own worker and checks
every layer the benchmark requires on it.  The verify workloads run traced
end to end through perfbench/run.py, which checks their reports and every
zero and nonzero layer counter of run.LAYER_EXPECTATIONS.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = """
import sys
sys.path[:0] = ["src", "perfbench"]
import tracer
import redstar
from redstar import cli  # Tracer.install imports the traced modules itself
from redstar.geometry import (fiber_integral, gaussian_base_weight, ModelSpace,
                              aff1, heisenberg3)

t = tracer.Tracer()
t.install()
m = ModelSpace(heisenberg3(), base_dim=2, order=1)
phi = m.fiber_state(m.one())
fiber_integral(m, phi * phi)  # by-name import in geometry
redstar.gaussian_integrate(phi * phi, list(m.group_names))  # re-export
a = ModelSpace(aff1(), base_dim=2, order=2)
redstar.reduced_involution(a, a.var("q") * a.var("p"), gaussian_base_weight(a, 1))
metrics = t.metrics()
assert list(metrics) == tracer.metric_names(), "metric names changed"
assert metrics["integrate.gaussian_integrate.calls"] == 2, metrics
# the layers beneath the involution that the benchmark requires on every workload
for name in ("diffop.DiffOperator.formal_adjoint.calls",
             "diffop.DiffOperator.compose.calls", "series.series_inverse.calls"):
    assert metrics[name] > 0, name
print("installed")
"""


def test_tracer_installs_and_counts():
    proc = subprocess.run([sys.executable, "-c", SCRIPT], cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "installed"


WARM_SCRIPT = """
import sys
sys.path[:0] = ["src", "perfbench"]
import run
import worker

_, scene, order = run.WORKLOADS["calls-heis3-k4"]
scene, model, build_s = worker.set_up(str(run.SCENES / scene), 0, order)
out = worker.run_calls(model, scene.seed, 0, trace=True)
layers = dict(out["layers"], **{"starprod.neumaier_N.build_s": build_s})
missing = [k for k in run.LAYER_EXPECTATIONS["calls-heis3-k4"]["nonzero"]
           if not layers[k]]
assert not missing, missing
assert out["traced_digest"] == out["digest"] and out["failed"] == 0, out
print("warm")
"""


def test_warm_call_pass_keeps_every_required_layer():
    proc = subprocess.run([sys.executable, "-c", WARM_SCRIPT], cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "warm"


@pytest.mark.parametrize("workload", ["verify-aff1", "verify-heis3"])
def test_traced_verify_workload_is_correct(workload):
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", "0", "--trace", "1"], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    assert out["correct"] and out["failed"] == 0, out
    assert out["metrics"]["starprod.moyal.calls"]["value"] > 0
