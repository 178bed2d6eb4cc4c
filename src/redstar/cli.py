"""Scene-driven command line: configure a model, run verification suites,
and emit machine-readable reports.

Scenes are JSON files; all numbers may be given as strings like "1/2" to
stay exact.  Reports are deterministic for a fixed scene and seed: records
are sorted by identity and coefficients print as exact rationals with
explicit powers of pi.

star, involve and reduce load the engine only (a random reduce draws its
inputs with geometry.random_poly, as the suites do); verify imports the
suites, and with them morita, when it runs.

Exit codes: 0 all identities pass, 1 some identity fails, 2 configuration
error (a SceneError), 3 an exception inside the engine, either during some
check (status "error") or anywhere else in a verb (one "engine error" line),
141 the reader closed standard output before the report was written.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import re
import sys
from contextlib import nullcontext
from fractions import Fraction

from .funcs import Func
from .geometry import (
    LieAlgebraData,
    ModelSpace,
    gaussian_base_weight,
    lebesgue_weight,
    random_poly,
)
from .involution import reduced_involution
from .koszul import ReductionConfig, reduced_star
from .scalars import GaussRational
from .starprod import STAR_PRODUCTS, StarProduct


class SceneError(Exception):
    pass


# Upper bounds on the sizes a scene or an expression may ask for.  They sit
# far above every committed scene (order 3, degree cap 3, trials <= 5, Lie
# dimension <= 4, base dimension 2); past them a run would not end in any
# useful time.  Loading a scene checks the Jacobi identity densely, in
# O(dim^5) exact steps, and the default Poisson matrix has base dim^2 entries.
# Nested powers and product chains reach degrees past any single exponent.
MAX_ORDER = 12
MAX_LIE_DIM = 12
MAX_BASE_DIM = 12
MAX_DEGREE_CAP = 12
MAX_TRIALS = 1000
MAX_EXPONENT = 64
MAX_EXPR_DEGREE = 64
MAX_NESTING = 100

# The exit code when standard output is a pipe whose reader has gone, the
# code a shell gives a writer that SIGPIPE ends (128 + 13).
EXIT_CLOSED_PIPE = 141


def _json_type(value) -> str:
    return "null" if value is None else type(value).__name__


def _integer(value, what: str) -> int:
    """An int, or a string that spells one; bools, floats, lists and null
    are errors."""
    if isinstance(value, str):
        try:
            return int(value)
        except ValueError:
            raise SceneError(f"{what} must be an integer, got {value!r}") from None
    if type(value) is not int:
        raise SceneError(f"{what} must be an integer, got {_json_type(value)}")
    return value


def _rational(value, what: str) -> Fraction:
    """An int, a float or a string that spells a rational such as "1/2";
    bools, null, lists and a zero denominator are errors."""
    if isinstance(value, bool) or not isinstance(value, (int, float, str)):
        raise SceneError(f"{what} must be a rational number, got {_json_type(value)}")
    try:
        return Fraction(str(value))
    except (ValueError, ZeroDivisionError):
        raise SceneError(f"{what} must be a rational number, got {value!r}") from None


def _string(value, what: str) -> str:
    if not isinstance(value, str):
        raise SceneError(f"{what} must be a string, got {_json_type(value)}")
    return value


def _at_least(value, low: int, what: str, high: int | None = None) -> int:
    value = _integer(value, what)
    if value < low:
        raise SceneError(f"{what} must be at least {low}, got {value}")
    if high is not None and value > high:
        raise SceneError(f"{what} must be at most {high}, got {value}")
    return value


def _object(value, what: str, keys=None) -> dict:
    """value as a JSON object; with keys given, every key must be one of them."""
    if not isinstance(value, dict):
        raise SceneError(f"{what} must be a JSON object, got {type(value).__name__}")
    unknown = [key for key in value if keys and key not in keys]
    if unknown:
        raise SceneError(f"unknown key {unknown[0]!r} in {what}; expected {', '.join(keys)}")
    return value


def _structure_constant(entry, n: int, dim: int) -> tuple:
    """((a, b, c), value) from entry n of a scene's structure_constants,
    [a, b, c, value] with 1-based indices; the key is 0-based."""
    name = f"structure_constants entry {n} {json.dumps(entry)}:"
    if not (isinstance(entry, list) and len(entry) == 4):
        raise SceneError(f"{name} must be a JSON list of four items [a, b, c, value]")
    index = [_integer(i, f"{name} structure constant index") for i in entry[:3]]
    bad = next((i for i in index if not 1 <= i <= dim), None)
    if bad is not None:
        raise SceneError(f"{name} structure constant index {bad} is outside 1..{dim}")
    return tuple(i - 1 for i in index), _rational(entry[3], f"{name} structure constant")


class Scene:
    def __init__(self, data: dict, path: str = "<memory>"):
        self.path = path
        _object(data, "a scene", ("label", "lie_algebra", "base", "truncation_order",
                                  "degree_caps", "seed", "trials", "suites", "weights",
                                  "star_product"))
        try:
            lie_spec = _object(data["lie_algebra"], "lie_algebra",
                               ("dim", "structure_constants", "label"))
            dim = _at_least(lie_spec["dim"], 1, "lie_algebra dim", MAX_LIE_DIM)
            entries = lie_spec.get("structure_constants", [])
            if not isinstance(entries, list):
                raise SceneError("structure_constants must be a JSON list, got "
                                 f"{_json_type(entries)}")
            structure, given = {}, {}  # (a, b, c) -> value, and -> its entry number
            for n, entry in enumerate(entries, 1):
                key, value = _structure_constant(entry, n, dim)
                if key in given:
                    m = given[key]
                    raise SceneError(f"structure_constants entry {n} {json.dumps(entry)} "
                                     f"repeats entry {m} {json.dumps(entries[m - 1])}")
                structure[key], given[key] = value, n
            self.lie = LieAlgebraData(dim, structure,
                                      _string(lie_spec.get("label", ""), "lie_algebra label"))
        except (KeyError, TypeError, IndexError) as exc:
            raise SceneError(f"bad lie_algebra block: {exc}") from exc
        except ValueError as exc:
            raise SceneError(str(exc)) from exc

        base = _object(data.get("base", {}), "base", ("dim", "poisson_matrix"))
        self.base_dim = _at_least(base.get("dim", 2), 0, "base dim", MAX_BASE_DIM)
        matrix = base.get("poisson_matrix")
        if matrix is not None:
            if not (isinstance(matrix, list) and len(matrix) == self.base_dim
                    and all(isinstance(row, list) and len(row) == self.base_dim
                            for row in matrix)):
                raise SceneError(
                    f"poisson_matrix must be {self.base_dim}x{self.base_dim} "
                    f"for a {self.base_dim}-dimensional base")
            matrix = [[_rational(v, "poisson_matrix entry") for v in row]
                      for row in matrix]
        self.poisson_matrix = matrix
        self.order = _at_least(data.get("truncation_order", 4), 0, "truncation order",
                               MAX_ORDER)
        # operator_basis is read by no check and accepted for older scenes
        caps = _object(data.get("degree_caps", {}), "degree_caps",
                       ("polynomial", "operator_basis"))
        self.degree_cap = _at_least(caps.get("polynomial", 3), 0, "degree cap",
                                    MAX_DEGREE_CAP)
        self.seed = _integer(data.get("seed", 0), "seed")
        self.trials = _at_least(data.get("trials", 8), 1, "trials", MAX_TRIALS)
        self.suites = data.get("suites", ["all"])
        if not (isinstance(self.suites, list)
                and all(isinstance(name, str) for name in self.suites)):
            raise SceneError("suites must be a JSON list of suite names, got "
                             f"{_json_type(self.suites)}")
        if not self.suites:
            raise SceneError("suites must name at least one suite")
        repeated = next((n for i, n in enumerate(self.suites) if n in self.suites[:i]), None)
        if repeated is not None:
            raise SceneError(f"suites names {repeated!r} more than once")
        if "all" in self.suites and len(self.suites) > 1:
            raise SceneError("suites lists 'all' beside other suites")
        self.weights = _object(data.get("weights", {}), "weights")
        self.exponents = {}
        for name, spec in self.weights.items():
            spec = _object(spec, f"weight {name!r}", ("kind", "exponent"))
            kind = spec.get("kind", "gaussian")
            if kind not in ("gaussian", "lebesgue"):
                raise SceneError(f"unknown weight kind {kind!r} for weight {name!r}")
            self.exponents[name] = _rational(spec.get("exponent", 1),
                                             f"weight {name!r} exponent")
            if kind == "gaussian" and self.exponents[name] <= 0:
                raise SceneError(f"weight {name!r} exponent must be positive, "
                                 f"got {self.exponents[name]}")
        self.star_product = data.get("star_product", "total")
        if self.star_product not in STAR_PRODUCTS:
            shown = (repr(self.star_product) if isinstance(self.star_product, str)
                     else _json_type(self.star_product))
            raise SceneError(f"star_product must be one of {', '.join(STAR_PRODUCTS)}, "
                             f"got {shown}")
        self.label = _string(data.get("label", self.lie.label), "label")

    def model(self) -> ModelSpace:
        try:
            return ModelSpace(self.lie, self.base_dim, self.order,
                              self.poisson_matrix)
        except ValueError as exc:
            raise SceneError(str(exc)) from exc

    def weight(self, model: ModelSpace, name: str) -> Func:
        spec = self.weights.get(name)
        if spec is None:
            if name == "lebesgue":
                return lebesgue_weight(model)
            if name == "gaussian":
                return gaussian_base_weight(model, 1)
            raise SceneError(f"unknown weight {name!r}")
        if spec.get("kind", "gaussian") == "lebesgue":
            return lebesgue_weight(model)
        return gaussian_base_weight(model, self.exponents[name])

    def context(self, model: ModelSpace) -> "SuiteContext":
        from .suites import SuiteContext

        return SuiteContext(model, seed=self.seed, trials=self.trials,
                            degree_cap=self.degree_cap)


def load_scene(path: str) -> Scene:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise SceneError(f"cannot read scene file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SceneError(f"scene file is not valid JSON: {exc}") from exc
    return Scene(data, path)


# ---------------------------------------------------------------------------
# a small polynomial expression parser for the computation verbs
# ---------------------------------------------------------------------------


_TOKEN = re.compile(r"\s+|(\d+/\d+|\d+|[A-Za-z_][A-Za-z_0-9]*|\*\*|[-+*^()])|(.)",
                    re.S | re.A)


class _ExprParser:
    """Polynomials in the model coordinates with +, -, *, ^ (or **), integers,
    fractions a/b, the imaginary unit i and parentheses; whitespace is
    ignored and any other character is an error.  Parentheses and a unary
    minus inside a product recurse, so together they nest at most
    MAX_NESTING levels deep.  Every product and power is checked before it
    is formed: its total degree is at most MAX_EXPR_DEGREE."""

    def __init__(self, text: str, model: ModelSpace):
        self.tokens = []
        for m in _TOKEN.finditer(text):
            tok, bad = m.groups()
            if bad is not None:
                raise SceneError(f"unexpected character {bad!r} in expression")
            if tok is not None:
                self.tokens.append(tok)
        self.pos = 0
        self.depth = 0
        self.model = model

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def parse(self) -> Func:
        out = self.expr()
        if self.peek() is not None:
            raise SceneError(f"unexpected token {self.peek()!r}")
        return out

    def expr(self) -> Func:
        sign = 1
        while self.peek() in ("+", "-"):
            if self.take() == "-":
                sign = -sign
        node = self.term() * GaussRational(sign)
        while self.peek() in ("+", "-"):
            op = self.take()
            rhs = self.term()
            node = node + (rhs if op == "+" else -rhs)
        return node

    def term(self) -> Func:
        node = self.factor()
        while self.peek() == "*":
            self.take()
            rhs = self.factor()
            _at_least(_degree(node) + _degree(rhs), 0, "expression degree", MAX_EXPR_DEGREE)
            node = node * rhs
        return node

    def factor(self) -> Func:
        """A unary minus negates the factor after it: q*-p^2 is -(q*p^2)."""
        if self.peek() != "-":
            return self.power()
        self.take()
        return -self.nested(self.factor)

    def nested(self, parse) -> Func:
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise SceneError("expression nests parentheses and unary minus "
                             f"deeper than {MAX_NESTING} levels")
        node = parse()
        self.depth -= 1
        return node

    def power(self) -> Func:
        base = self.atom()
        if self.peek() in ("^", "**"):
            self.take()
            tok = self.take()
            if tok is None or not tok.isdigit():
                raise SceneError(f"exponent must be a non-negative integer, got {tok!r}")
            exp = _at_least(tok, 0, "exponent", MAX_EXPONENT)
            _at_least(_degree(base) * exp, 0, "expression degree", MAX_EXPR_DEGREE)
            out = self.model.one()
            for _ in range(exp):
                out = out * base
            return out
        return base

    def atom(self) -> Func:
        tok = self.take()
        if tok is None:
            raise SceneError("unexpected end of expression")
        if tok == "(":
            node = self.nested(self.expr)
            if self.take() != ")":
                raise SceneError("missing closing parenthesis")
            return node
        if tok.replace("/", "").isdigit():
            try:
                return self.model.constant(Fraction(tok))
            except ZeroDivisionError:
                raise SceneError(f"division by zero in {tok!r}") from None
        if tok in self.model.gens:
            return self.model.var(tok)
        if tok == "i":
            return self.model.constant(0) + self.model.one() * GaussRational(0, 1)
        raise SceneError(f"unknown symbol {tok!r}; coordinates are {self.model.gens}")


def _degree(f: Func) -> int:
    return max(p.total_degree() for p in f.series.coeffs)


def parse_expr(text: str, model: ModelSpace) -> Func:
    return _ExprParser(text, model).parse()


# ---------------------------------------------------------------------------
# report emission
# ---------------------------------------------------------------------------


def emit_report(records: list, fmt: str, scene_label: str = "",
                timings: bool = False) -> str:
    """Render records with a stable field order.

    Reports are byte-identical across runs for a fixed scene and seed;
    wall-clock timings are therefore opt-in.
    """
    records = sorted(records, key=lambda r: r["id"])
    counts = {s: sum(r["status"] == s for r in records)
              for s in ("pass", "fail", "skip", "error")}
    if not counts["error"]:  # absent unless an engine error occurred
        del counts["error"]
    if fmt == "json":
        out_records = []
        for r in records:
            rec = {
                "id": r["id"],
                "statement": r["statement"],
                "status": r["status"],
                "first_bad_order": r["first_bad_order"],
                "detail": r["detail"],
            }
            if timings:
                rec["seconds"] = r["seconds"]
            out_records.append(rec)
        doc = {"scene": scene_label, "counts": counts, "records": out_records}
        return json.dumps(doc, indent=2, sort_keys=False)
    if fmt == "text":
        lines = [f"scene: {scene_label}"]
        for r in records:
            mark = {"pass": "ok  ", "fail": "FAIL", "skip": "skip",
                    "error": "ERR "}[r["status"]]
            extra = ""
            if r["status"] == "fail":
                extra = f"  [first bad order {r['first_bad_order']}] {r['detail']}"
            elif r["status"] in ("skip", "error"):
                extra = f"  [{r['detail']}]"
            lines.append(f"{mark}  {r['id']}: {r['statement']}{extra}")
        lines.append("total: " + ", ".join(f"{n} {s}" for s, n in counts.items()))
        return "\n".join(lines)
    raise SceneError(f"unknown report format {fmt!r}")


def _open_out(out):
    """The report file, opened for writing before any suite runs, so that an
    unwritable path is a configuration error and not a failed run; without
    a path, a context that holds None (the report goes to standard
    output)."""
    if not out:
        return nullcontext()
    try:
        return open(out, "w")
    except OSError as exc:
        raise SceneError(f"cannot write report: {exc}") from None


# ---------------------------------------------------------------------------
# verbs
# ---------------------------------------------------------------------------


def cmd_verify(args) -> int:
    from .suites import SUITES, run_suite

    scene = load_scene(args.scene)
    if args.seed is not None:
        scene.seed = args.seed
    if args.order is not None:
        scene.order = _at_least(args.order, 0, "truncation order", MAX_ORDER)
    if args.degree_cap is not None:
        scene.degree_cap = _at_least(args.degree_cap, 0, "degree cap", MAX_DEGREE_CAP)
    # every battery reads the lam^1 coefficient of its defects
    _at_least(scene.order, 1, "verify truncation order")
    suites = [args.suite] if args.suite else scene.suites
    for name in suites:
        if name != "all" and name not in SUITES:
            raise SceneError(
                f"unknown suite {name!r}; choose from {sorted(SUITES)} or 'all'"
            )
    with _open_out(args.out) as out:
        model = scene.model()
        ctx = scene.context(model)
        for name in suites:
            run_suite(ctx, name)
        text = emit_report(ctx.records, args.format, scene.label, timings=args.timings)
        print(text, file=out)
    statuses = {r["status"] for r in ctx.records}
    return 3 if "error" in statuses else 1 if "fail" in statuses else 0


def _scene_model(args) -> tuple:
    """A computation verb's scene, with its --order override, and its model."""
    scene = load_scene(args.scene)
    if args.order is not None:
        scene.order = _at_least(args.order, 0, "truncation order", MAX_ORDER)
    return scene, scene.model()


def _print_coeffs(f: Func, label: str = "lam^") -> None:
    for r, coeff in enumerate(f.series.coeffs):
        print(f"{label}{r}: {coeff!r}")


def cmd_star(args) -> int:
    scene, model = _scene_model(args)
    name = args.product or scene.star_product
    try:
        product = StarProduct(model, name)
    except ValueError as exc:  # a product the model cannot carry
        raise SceneError(str(exc)) from None
    f = parse_expr(args.left, model)
    g = parse_expr(args.right, model)
    result = product(f, g)
    print(f"# {name}: ({args.left}) with ({args.right})")
    _print_coeffs(result)
    return 0


def cmd_reduce(args) -> int:
    scene, model = _scene_model(args)
    cfg = ReductionConfig(model, Fraction(1, 2))
    if (args.left is None) != (args.right is None):
        raise SceneError(
            "reduce takes both --left and --right, or neither for random inputs")
    if args.left is not None:
        u = parse_expr(args.left, model)
        v = parse_expr(args.right, model)
    else:
        # the first two base draws of the scene's suite context
        rng = random.Random(scene.seed)
        u, v = (random_poly(rng, model, scene.degree_cap, model.base_names)
                for _ in range(2))
        print(f"# random inputs (seed {scene.seed}): u = {u!r}; v = {v!r}")
    if not (model.is_base_only(u) and model.is_base_only(v)):
        raise SceneError("reduce takes base-coordinate functions")
    result = reduced_star(cfg, u, v)
    print("# coefficients of the reduced product")
    _print_coeffs(result, "C_")
    return 0


def cmd_involve(args) -> int:
    scene, model = _scene_model(args)
    u = parse_expr(args.input, model)
    if not model.is_base_only(u):
        raise SceneError("involve takes base-coordinate functions")
    weight = scene.weight(model, args.weight)
    ustar = reduced_involution(model, u, weight)
    print(f"# involution of ({args.input}) for weight {args.weight}")
    _print_coeffs(ustar)
    return 0


class _Parser(argparse.ArgumentParser):
    """An option error is a SceneError, so it prints one configuration-error
    line with exit 2 instead of a usage block; its subparsers inherit this."""

    def error(self, message):
        raise SceneError(message)


# argparse reads a value that starts with '-' as an option
_DASH_NOTE = "an expression that starts with '-' is written with '=': --input=-(q)"


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="redstar",
        description="exact verification of star-product reduction identities",
        epilog=_DASH_NOTE,
    )
    sub = p.add_subparsers(dest="command", required=True)

    pv = sub.add_parser("verify", help="run verification suites from a scene")
    pv.add_argument("--scene", required=True)
    pv.add_argument("--suite", default=None,
                    help="suite name (default: the scene's list)")
    pv.add_argument("--format", default="text", choices=["text", "json"])
    pv.add_argument("--out", default=None, help="write the report to a file")
    pv.add_argument("--seed", type=int, default=None)
    pv.add_argument("--order", type=int, default=None)
    pv.add_argument("--degree-cap", dest="degree_cap", type=int, default=None)
    pv.add_argument("--timings", action="store_true",
                    help="include wall-clock timings (breaks byte determinism)")
    pv.set_defaults(fn=cmd_verify)

    ps = sub.add_parser("star", epilog=_DASH_NOTE,
                        help="multiply two functions and print the series")
    ps.add_argument("--scene", required=True)
    ps.add_argument("--product", default=None,
                    choices=STAR_PRODUCTS,
                    help="default: the scene's star_product entry")
    ps.add_argument("--left", required=True)
    ps.add_argument("--right", required=True)
    ps.add_argument("--order", type=int, default=None)
    ps.set_defaults(fn=cmd_star)

    pr = sub.add_parser("reduce", epilog=_DASH_NOTE,
                        help="print the reduced-product coefficients")
    pr.add_argument("--scene", required=True)
    pr.add_argument("--left", default=None)
    pr.add_argument("--right", default=None)
    pr.add_argument("--order", type=int, default=None)
    pr.set_defaults(fn=cmd_reduce)

    pi = sub.add_parser("involve", epilog=_DASH_NOTE,
                        help="print the weighted involution of a function")
    pi.add_argument("--scene", required=True)
    pi.add_argument("--input", required=True)
    pi.add_argument("--weight", default="gaussian")
    pi.add_argument("--order", type=int, default=None)
    pi.set_defaults(fn=cmd_involve)
    return p


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        status = args.fn(args)
        sys.stdout.flush()
        return status
    except SceneError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # stdout goes to devnull, so the interpreter's flush at exit finds
        # no closed pipe either (the recipe of the Python signal docs)
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_CLOSED_PIPE
    except Exception as exc:  # an engine error, kept apart from bad input
        print(f"engine error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
