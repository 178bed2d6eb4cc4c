"""Byte-identical verify reports for the word calculus and the involution.

The digests are the sha256 of `redstar verify --format json --out <file>`
recorded before the momentum-level product, the standard-ordered product
and the conjugation transport were folded onto one word calculus and one
resolvent; a refactor of that code must leave every byte of these reports
unchanged.
"""

import hashlib
from pathlib import Path

import pytest

from redstar.cli import main

SCENES = Path(__file__).resolve().parent.parent / "scenes"

GOLDEN = {
    ("star", "affine_line"):
        "2d2a9a445dc3d496c593c2dc5e185eeed4115b3a6ca961d86b485c9a1aa3b7ec",
    ("star", "heisenberg"):
        "2fa1103fe89c446dde8172170d280e9cf8e75d1e4c0168f0b92913ea4fc5f554",
    ("involution", "affine_line"):
        "beefa0951549659e8b61bbba907ebdcdb224c2823171f76c0ae9857fb7ecebe1",
}


@pytest.mark.parametrize("suite,scene", sorted(GOLDEN),
                         ids=[f"{s}-{n}" for s, n in sorted(GOLDEN)])
def test_report_digest(tmp_path, suite, scene):
    out = tmp_path / "report.json"
    code = main(["verify", "--scene", str(SCENES / f"{scene}.json"),
                 "--suite", suite, "--format", "json", "--out", str(out)])
    assert code == 0
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == GOLDEN[(suite, scene)]
