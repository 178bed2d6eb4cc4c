"""Per-layer tracing of redstar, installed from outside its source tree.

`Tracer.install()` replaces each traced function by a wrapper in every
`redstar.*` namespace that holds it: module globals, the values of
module-level dicts (`suites.SUITES`) and the attributes of redstar classes.
A function imported by name into another module (`from .starprod import
star_total` in koszul, the suite imports, the re-exports in `__init__`) is
therefore traced wherever it is called from.  Methods are replaced on their
class.  `install()` raises if an original is still held where it cannot be
replaced (a module-level tuple, a default argument, a closure), so a layer
cannot silently drop out of the trace.

A span records calls, inclusive seconds and self seconds (inclusive minus
the time spent in traced callees).  Constructors are counted, not timed.
"""

from __future__ import annotations

import importlib
import inspect
import sys
from time import perf_counter

# (module, qualified name) of every timed layer entry point.
SPANS = (
    ("starprod", "star_G"),
    ("starprod", "star_std"),
    ("starprod", "stdrep"),
    ("starprod", "moyal"),
    ("diffop", "DiffOperator.apply"),
    ("diffop", "DiffOperator.compose"),
    ("diffop", "DiffOperator.formal_adjoint"),
    ("koszul", "quantized_koszul"),
    ("koszul", "deformed_restriction"),
    ("koszul", "deformed_homotopy"),
    ("involution", "reduced_involution"),
    ("morita", "deformation_comparison_H"),
    ("morita", "inner_product_red_closed_form"),
    ("linalg", "solve_linear"),
    ("integrate", "gaussian_integrate"),
    ("series", "series_inverse"),
    ("series", "series_sqrt"),
)
# (module, class) whose __init__ calls are counted.
CONSTRUCTORS = (
    ("poly", "Poly"),
    ("scalars", "GaussRational"),
    ("series", "LambdaSeries"),
    ("funcs", "Func"),
)
# The keys of suites.SUITES; each suite function is a span.
SUITE_NAMES = ("star", "koszul", "reduction", "involution", "gns", "kms",
               "morita", "crossed", "rieffel")


def metric_names() -> list:
    """The names of the metrics `Tracer.metrics()` returns, in order."""
    names = []
    for mod, qual in SPANS:
        names += [f"{mod}.{qual}.calls", f"{mod}.{qual}.self_s"]
    names.append("koszul.perturbation.nonzero_ratio")
    names += [f"suites.{name}.s" for name in SUITE_NAMES]
    names += [f"{mod}.{cls}.new" for mod, cls in CONSTRUCTORS]
    return names


def _redstar_modules() -> list:
    return [m for n, m in sorted(sys.modules.items())
            if n == "redstar" or n.startswith("redstar.")]


def _references(modules):
    """Yield (value, rebind) for every reference that can be replaced:
    module globals, values of module-level dicts and attributes of redstar
    classes."""
    for mod in modules:
        for key, value in list(vars(mod).items()):
            yield value, lambda new, m=mod, k=key: setattr(m, k, new)
            if isinstance(value, dict):
                for dkey, dvalue in list(value.items()):
                    yield dvalue, lambda new, d=value, k=dkey: d.__setitem__(k, new)
            elif isinstance(value, type) and value.__module__.startswith("redstar"):
                for attr, avalue in list(vars(value).items()):
                    yield avalue, lambda new, c=value, a=attr: setattr(c, a, new)


def _unreachable(modules, ids) -> list:
    """References to `ids` that rebinding cannot replace: items of
    module-level sequences and sets, and the defaults and closure cells of
    redstar functions and methods."""
    found = []
    for mod in modules:
        for key, value in vars(mod).items():
            held = []
            if isinstance(value, (list, tuple, set, frozenset)):
                held += value
            members = vars(value).values() if isinstance(value, type) else [value]
            for fn in members:
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    held += fn.__defaults__ or ()
                    held += (fn.__kwdefaults__ or {}).values()
                    for cell in fn.__closure__ or ():
                        try:
                            held.append(cell.cell_contents)
                        except ValueError:  # an empty cell
                            pass
            if any(id(v) in ids for v in held):
                found.append(f"{mod.__name__}.{key}")
    return found


class Tracer:
    def __init__(self):
        self._stack: list = []
        self._spans: dict = {}    # span name -> [calls, inclusive_s, self_s]
        self._counts: dict = {}   # constructor name -> [count]
        self._perturbation = [0, 0]  # attempted, nonzero
        self._replaced: list = []    # (original, wrapper)

    # -- wrappers -----------------------------------------------------------

    def _span(self, name, fn):
        rec = self._spans[name] = [0, 0.0, 0.0]
        stack = self._stack

        def traced(*args, **kwargs):
            stack.append(0.0)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                inner = stack.pop()
                rec[0] += 1
                rec[1] += elapsed
                rec[2] += elapsed - inner
                if stack:
                    stack[-1] += elapsed

        return traced

    def _counter(self, name, fn):
        cell = self._counts[name] = [0]

        def counted(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        return counted

    def _nonzero_ratio(self, fn):
        cell = self._perturbation

        def traced(*args, **kwargs):
            out = fn(*args, **kwargs)
            cell[0] += 1
            if not out.is_zero():
                cell[1] += 1
            return out

        return traced

    # -- installation -------------------------------------------------------

    def _replace(self, owner, attr, wrapper_for):
        original = owner.__dict__[attr]
        wrapper = wrapper_for(original)
        setattr(owner, attr, wrapper)
        self._replaced.append((original, wrapper))

    def install(self):
        """Wrap every traced layer; call once per process."""
        mods = {n: importlib.import_module(f"redstar.{n}") for n in
                ("starprod", "diffop", "koszul", "involution", "morita",
                 "linalg", "integrate", "series", "suites", "poly",
                 "scalars", "funcs")}
        for mod, qual in SPANS:
            owner, _, attr = qual.rpartition(".")
            owner = getattr(mods[mod], owner) if owner else mods[mod]
            self._replace(owner, attr,
                          lambda fn, name=f"{mod}.{qual}": self._span(name, fn))
        for mod, cls in CONSTRUCTORS:
            self._replace(getattr(mods[mod], cls), "__init__",
                          lambda fn, name=f"{mod}.{cls}": self._counter(name, fn))
        self._replace(mods["koszul"], "_perturbation", self._nonzero_ratio)
        suites = mods["suites"].SUITES
        if set(suites) != set(SUITE_NAMES):
            raise RuntimeError(f"suites changed: {sorted(suites)}")
        for name in SUITE_NAMES:
            fn = suites[name]
            self._replace(mods["suites"], fn.__name__,
                          lambda fn, name=f"suites.{name}": self._span(name, fn))

        swap = {id(orig): wrapper for orig, wrapper in self._replaced}
        modules = _redstar_modules()
        for value, rebind in _references(modules):
            if id(value) in swap:
                rebind(swap[id(value)])
        missed = _unreachable(modules, swap)
        if missed:
            raise RuntimeError(f"tracer cannot rebind references in {missed}")

    def metrics(self) -> dict:
        """The counters and times gathered since `install()`."""
        out = {}
        for mod, qual in SPANS:
            calls, _, self_s = self._spans[f"{mod}.{qual}"]
            out[f"{mod}.{qual}.calls"] = calls
            out[f"{mod}.{qual}.self_s"] = self_s
        attempted, nonzero = self._perturbation
        out["koszul.perturbation.nonzero_ratio"] = (
            nonzero / attempted if attempted else 0.0)
        for name in SUITE_NAMES:
            out[f"suites.{name}.s"] = self._spans[f"suites.{name}"][1]
        for mod, cls in CONSTRUCTORS:
            out[f"{mod}.{cls}.new"] = self._counts[f"{mod}.{cls}"][0]
        return out
