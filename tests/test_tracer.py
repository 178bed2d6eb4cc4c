"""The per-layer tracer of perfbench installs on this source tree.

perfbench/tracer.py wraps every traced layer by its module and qualified
name and refuses references it cannot rebind, so renaming or moving a
traced function, or holding one where rebinding cannot reach it, breaks the
benchmark.  This test runs the install in a fresh interpreter so such a
change fails the unit tests too.  One small traced involution also checks
that the adjoint, composition and series-inverse layers, which the
benchmark requires on every workload, still run beneath it.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = """
import sys
sys.path[:0] = ["src", "perfbench"]
import tracer
import redstar
from redstar import cli  # imports every redstar module
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
