"""A seeded, size-bounded fuzz of the command line, run in-process.

Mutated scenes (one or two fields set to odd values or dropped) go through
`verify --suite star`, `star`, `reduce` and `involve`; random and garbled
expressions, products, weights and orders go through the three calculation
verbs on three valid scenes.  Every run must end in exit 0, or in exit 2
with exactly one line on stderr and nothing on stdout, and never in a
traceback: a malformed input is a configuration error, not an engine error
(exit 3) or a failed identity (exit 1).  The mutations keep every model
small (orders, dimensions and trial counts that pass the checks stay low),
so the whole fuzz runs in seconds.
"""

import json
import random

import pytest

from redstar.cli import main

HEIS = {
    "label": "fuzz-heis",
    "lie_algebra": {"dim": 3,
                    "structure_constants": [[1, 2, 3, "1"], [2, 1, 3, "-1"]],
                    "label": "heis3"},
    "base": {"dim": 2},
    "truncation_order": 2,
    "degree_caps": {"polynomial": 2},
    "seed": 5,
    "trials": 1,
    "suites": ["star"],
}
AFF = {
    "label": "fuzz-aff",
    "lie_algebra": {"dim": 2,
                    "structure_constants": [[1, 2, 2, "1"], [2, 1, 2, "-1"]],
                    "label": "aff1"},
    "base": {"dim": 2},
    "truncation_order": 2,
    "seed": 3,
    "trials": 1,
    "suites": ["star"],
}
ABELIAN = {
    "label": "fuzz-abelian",
    "lie_algebra": {"dim": 1, "structure_constants": []},
    "base": {"dim": 2},
    "truncation_order": 2,
    "seed": 7,
    "trials": 1,
    "suites": ["star"],
    "weights": {"wide": {"kind": "gaussian", "exponent": "1/4"}},
}
SCENES = [HEIS, AFF, ABELIAN]
# the coordinates of each scene's model: base, then group (nilpotent
# algebras only), then momenta
BASE = ["q", "p"]
COORDS = {"fuzz-heis": BASE + ["g1", "g2", "g3", "J1", "J2", "J3"],
          "fuzz-aff": BASE + ["J1", "J2"],
          "fuzz-abelian": BASE + ["g", "J"]}

# odd values for a field: wrong types, out-of-range and small in-range values
ODD = [None, True, -1, 0, 1, 2, 13, 1.5, "2", "x", "", [], [1], {}, {"a": 1}]
FIELDS = {
    "label": ODD,
    "lie_algebra": ODD + [{"dim": 2}, {"dim": 13, "structure_constants": []},
                          {"dim": 2, "structure_constants": [[1, 2, 1, "1"]]},
                          {"dim": 2, "structure_constants": [[1, 2, 3, "1"]]},
                          {"dim": 1, "structure_constants": [["a", 1, 1, 1]]}],
    "base": ODD + [{"dim": 0}, {"dim": 1}, {"dim": 3}, {"dim": 14}, {"dim": "2"},
                   {"dim": 2, "poisson_matrix": [[0, 1], [1, 0]]},
                   {"dim": 2, "poisson_matrix": [[0, "1/0"], [-1, 0]]}],
    "truncation_order": ODD,
    "degree_caps": ODD + [{"polynomial": -1}, {"polynomial": "1"}, {"polynomial": 13}],
    "seed": ODD + [-5, 10 ** 30],
    "trials": ODD + [1001],
    "suites": ODD + [["star", "star"], ["all", "star"], ["brst"], ["star"]],
    "weights": ODD + [{"w": "x"}, {"w": {"kind": "bogus"}},
                      {"w": {"kind": "gaussian", "exponent": "0"}},
                      {"w": {"kind": "gaussian", "exponent": "2"}}],
    "star_product": ODD + ["moyal", "std", "weyl_g", "total", "bogus"],
    "kappa": ODD,
}
DROP = object()

VERBS = [
    ["verify", "--suite", "star"],
    ["star", "--left", "q*p + 1", "--right", "q"],
    ["reduce", "--left", "q", "--right", "p^2"],
    ["involve", "--input", "q*p"],
]
PRODUCTS = ["moyal", "std", "weyl_g", "total", "bogus", ""]
WEIGHTS = ["gaussian", "wide", "bogus", ""]
ORDERS = ["-1", "0", "1", "1", "2", "2", "3", "x", "1.5"]
TOKENS = ["+", "-", "*", "^", "/", "(", ")", " ", "1", "2", "3/2", "0", "q", "p",
          "g1", "J", "J1", "J3", "lam", "z", ".", "!", "é", "^2", "^0"]


def run(tmp_path, capsys, scene, argv):
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(scene))
    code = main([argv[0], "--scene", str(path), *argv[1:]])
    captured = capsys.readouterr()
    what = (scene, argv, captured.err)
    assert code in (0, 2), what
    assert "Traceback" not in captured.err, what
    if code == 2:
        assert captured.out == "", what
        assert captured.err.count("\n") == 1 and captured.err.endswith("\n"), what
    return code


def mutated(rng):
    scene = json.loads(json.dumps(rng.choice(SCENES)))
    for field in rng.sample(sorted(FIELDS), rng.randint(1, 2)):
        value = rng.choice(FIELDS[field] + [DROP])
        if value is DROP:
            scene.pop(field, None)
        else:
            scene[field] = value
    return scene


def expression(rng, names):
    """A random polynomial of degree at most 4 in the given coordinates, now
    and then with a foreign symbol, and garbled in a third of the draws."""
    terms = []
    for _ in range(rng.randint(1, 3)):
        factors = [rng.choice(["1", "2", "-3", "1/2", "(1+q)"])]
        factors += [rng.choice(names) + rng.choice(["", "^2"])
                    for _ in range(rng.randint(0, 2))]
        terms.append("*".join(factors))
    text = " + ".join(terms)
    if rng.random() < 0.1:
        text += " + " + rng.choice(TOKENS[12:18])
    if rng.random() < 0.33:
        chars = list(text)
        for _ in range(rng.randint(1, 3)):
            pos = rng.randint(0, len(chars))
            if rng.random() < 0.5 and pos < len(chars):
                del chars[pos]
            else:
                chars.insert(pos, rng.choice(TOKENS))
        text = "".join(chars)
    return text


def test_mutated_scenes_exit_zero_or_two_with_one_line(tmp_path, capsys):
    rng = random.Random(2029)
    codes = [run(tmp_path, capsys, mutated(rng), rng.choice(VERBS)) for _ in range(60)]
    assert codes.count(2) >= 20 and codes.count(0) >= 5


def test_random_calls_exit_zero_or_two_with_one_line(tmp_path, capsys):
    rng = random.Random(4051)
    codes = []
    for _ in range(80):
        scene = rng.choice(SCENES)
        verb = rng.choice(["star", "reduce", "involve"])
        # reduce and involve take base functions, star any function
        names = COORDS[scene["label"]] if verb == "star" else BASE
        if rng.random() < 0.1:
            names = COORDS[scene["label"]]
        if verb == "involve":
            argv = ["involve", f"--input={expression(rng, names)}"]
            if rng.random() < 0.3:
                argv.append(f"--weight={rng.choice(WEIGHTS)}")
        else:
            argv = [verb, f"--left={expression(rng, names)}",
                    f"--right={expression(rng, names)}"]
            if verb == "star" and rng.random() < 0.3:
                argv.append(f"--product={rng.choice(PRODUCTS)}")
        if rng.random() < 0.3:
            argv.append(f"--order={rng.choice(ORDERS)}")
        codes.append(run(tmp_path, capsys, scene, argv))
    assert codes.count(2) >= 20 and codes.count(0) >= 20


@pytest.mark.parametrize("scene", SCENES, ids=[s["label"] for s in SCENES])
def test_fuzz_scenes_are_valid(tmp_path, capsys, scene):
    """The base scenes themselves pass, so a mutation is what fails."""
    assert run(tmp_path, capsys, scene, ["verify", "--suite", "star"]) == 0
