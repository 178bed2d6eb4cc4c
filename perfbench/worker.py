"""One measured redstar process; `run.py` starts a fresh one per sample.

    python3 perfbench/worker.py setup  --scene S --seed N [--order K]
    python3 perfbench/worker.py verify --scene S --seed N [--trace]
    python3 perfbench/worker.py calls  --scene S --seed N --order K
                                       --seconds T [--trace]

Prints one JSON object on its last line of standard output.  Times come from
`time.perf_counter`, memory from `resource.getrusage`.  The redstar package
is imported from the `src/` directory next to this one.
"""

from __future__ import annotations

import time

START = time.perf_counter()  # before the imports, which set-up includes

import argparse
import gc
import hashlib
import json
import random
import resource
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

# The calls stream, pinned here so that no edit to the program or its tests
# can shrink it: random polynomials with NTERMS terms, each a product of up
# to DEGREE coordinates times an integer in [-COEFF, COEFF].
DEGREE = 4
NTERMS = 3
COEFF = 3
PASS_STEPS = 6      # steps per timed pass; the digest covers the first pass
WARMUP_STEPS = 1    # untimed steps that fill the model's lazy caches

# Host speed.  On a shared machine the speed of the same code drifts by a
# quarter over minutes, and one 50-s verify cannot average that out.  The
# worker therefore times a fixed piece of exact arithmetic between measured
# operations and reports `speed` = REFERENCE_S / (its mean time); run.py
# multiplies every time by it, giving the time on a host where the
# reference takes REFERENCE_S.  Over 15-s blocks the reference's time
# tracked the call stream's with correlation 0.95.
REFERENCE_S = 0.010
PROBE_EVERY_S = 0.5


def reference() -> float:
    """Seconds for a fixed piece of Fraction and dict arithmetic.  The
    collector is paused so that the size of the program's heap does not
    count."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        acc, x = {}, Fraction(1, 3)
        for i in range(400):
            x = (x * Fraction(7, 5) + Fraction(i, 11)) % 3
            key = (i % 13, i % 7)
            acc[key] = acc.get(key, 0) + x
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class SpeedProbe:
    """Reference timings taken after every PROBE_EVERY_S of measured work."""

    def __init__(self):
        self.samples = [reference()]
        self.spent = self.samples[0]
        self._since = 0.0

    def after(self, measured_s: float):
        self._since += measured_s
        if self._since >= PROBE_EVERY_S:
            self._since = 0.0
            self.samples.append(reference())
            self.spent += self.samples[-1]

    def speed(self) -> float:
        return REFERENCE_S * len(self.samples) / sum(self.samples)


def set_up(scene_path: str, seed: int, order: int | None):
    """Import, load the scene, build the model and, on group-level models,
    the normalization N and its inverse.  Returns (scene, model, build_s)."""
    from redstar import cli
    from redstar.starprod import neumaier_N, neumaier_N_inverse

    scene = cli.load_scene(scene_path)
    scene.seed += seed
    if order is not None:
        scene.order = order
    model = scene.model()
    if not model.has_group:
        return scene, model, 0.0
    start = time.perf_counter()
    neumaier_N(model)
    neumaier_N_inverse(model)
    return scene, model, time.perf_counter() - start


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def install_tracer():
    import tracer

    t = tracer.Tracer()
    t.install()
    return t


def run_verify(scene, model, trace: bool) -> dict:
    """The work of `redstar verify --format json`, timed without set-up."""
    from redstar import cli, suites

    check = suites.SuiteContext.check
    probe = SpeedProbe()

    def probed_check(self, *args, **kwargs):
        start = time.perf_counter()
        try:
            return check(self, *args, **kwargs)
        finally:
            probe.after(time.perf_counter() - start)

    suites.SuiteContext.check = probed_check
    tr = install_tracer() if trace else None
    ctx = scene.context(model)
    start = time.perf_counter()
    spent = probe.spent
    for name in scene.suites:
        suites.run_suite(ctx, name)
    report = cli.emit_report(ctx.records, "json", scene.label) + "\n"
    work_s = time.perf_counter() - start - (probe.spent - spent)
    counts = {s: sum(r["status"] == s for r in ctx.records)
              for s in ("pass", "fail", "skip")}
    out = {"work_s": work_s, "counts": counts, "speed": probe.speed(),
           "digest": hashlib.sha256(report.encode()).hexdigest()}
    if tr is not None:
        out["layers"] = tr.metrics()
    return out


class CallStream:
    """A seeded stream of fresh random inputs, one step at a time."""

    def __init__(self, model, seed: int):
        self.model = model
        self.rng = random.Random(seed)

    def poly(self, gens):
        from redstar.scalars import GaussRational

        m, rng = self.model, self.rng
        out = m.zero()
        for _ in range(NTERMS):
            t = m.one()
            for _ in range(rng.randint(0, DEGREE)):
                t = t * m.var(rng.choice(gens))
            out = out + t * GaussRational(rng.randint(-COEFF, COEFF))
        return out

    def step(self):
        m = self.model
        return (self.poly(m.gens), self.poly(m.gens),
                self.poly(m.base_names), self.poly(m.base_names))


def call_step(model, cfg, weight, inputs):
    """One call each of the star, restrict, reduce and involve verbs.
    Returns (seconds, results); only the calls are timed."""
    from redstar.involution import reduced_involution
    from redstar.koszul import deformed_restriction, reduced_star
    from redstar.starprod import star_G

    f, g, u, v = inputs
    start = time.perf_counter()
    results = (star_G(model, f, g), deformed_restriction(cfg, f),
               reduced_star(cfg, u, v), reduced_involution(model, u, weight))
    return time.perf_counter() - start, results


def step_failures(model, inputs, results) -> int:
    """Properties of the results that do not depend on the code measured:
    the classical limits of the products, restriction and involution, and
    that the reduced product reproduces the base product."""
    from redstar.starprod import moyal

    f, g, u, v = inputs
    star, rest, red, ustar = results
    ok = (
        star.series.coeffs[0] == (f * g).series.coeffs[0],
        model.is_momentum_free(rest)
        and rest.series.coeffs[0] == model.restrict(f).series.coeffs[0],
        red == moyal(model, u, v),
        ustar.series.coeffs[0] == u.conj().series.coeffs[0],
    )
    return ok.count(False)


def run_calls(model, seed: int, seconds: float, trace: bool) -> dict:
    """Closed loop, one client: each step starts when the previous ends."""
    from redstar.geometry import gaussian_base_weight
    from redstar.koszul import ReductionConfig

    cfg = ReductionConfig(model, Fraction(1, 2))
    weight = gaussian_base_weight(model, 1)
    stream = CallStream(model, seed)
    probe = SpeedProbe()
    attempted = failed = 0

    def run(steps):
        times, results = [], []
        for inputs in steps:
            dt, res = call_step(model, cfg, weight, inputs)
            probe.after(dt)
            times.append(dt)
            results.append(res)
        return times, results

    def check(steps, results) -> str:
        nonlocal attempted, failed
        digest = hashlib.sha256()
        for inputs, res in zip(steps, results):
            attempted += len(res)
            failed += step_failures(model, inputs, res)
            for r in res:
                digest.update(repr(r).encode())
        return digest.hexdigest()

    def run_checked(steps):
        times, results = run(steps)
        return times, check(steps, results)

    begin = time.perf_counter()
    run_checked([stream.step() for _ in range(WARMUP_STEPS)])
    first = [stream.step() for _ in range(PASS_STEPS)]
    step_s, digest = run_checked(first)
    out = {"digest": digest}
    if trace:
        tr = install_tracer()
        traced_s, results = run(first)
        out["layers"] = tr.metrics()
        out.update(traced_digest=check(first, results),
                   untraced_pass_s=sum(step_s), traced_pass_s=sum(traced_s))
    else:
        while time.perf_counter() - begin < seconds:
            step_s += run_checked([stream.step() for _ in range(PASS_STEPS)])[0]
    passes = [sum(step_s[i:i + PASS_STEPS])
              for i in range(0, len(step_s), PASS_STEPS)]
    out.update(pass_s=passes, speed=probe.speed(),
               attempted=attempted, failed=failed)
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("mode", choices=["setup", "verify", "calls"])
    p.add_argument("--scene", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--order", type=int, default=None)
    p.add_argument("--seconds", type=float, default=1.0)
    p.add_argument("--trace", action="store_true")
    args = p.parse_args(argv)

    scene, model, build_s = set_up(args.scene, args.seed, args.order)
    out = {"setup_s": time.perf_counter() - START, "build_s": build_s,
           "setup_speed": REFERENCE_S * 3 / sum(reference() for _ in range(3))}
    if args.mode == "verify":
        out.update(run_verify(scene, model, args.trace))
    elif args.mode == "calls":
        out.update(run_calls(model, scene.seed, args.seconds, args.trace))
    out["rss_mb"] = peak_rss_mb()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
