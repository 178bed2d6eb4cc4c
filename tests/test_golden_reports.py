"""Byte-identical verify reports for the word calculus, the involution,
the Koszul homotopy, the KMS functions and the Morita layer.

The digests are the sha256 of `redstar verify --format json --out <file>`.
The star and involution digests were recorded before the momentum-level
product, the standard-ordered product and the conjugation transport were
folded onto one word calculus and one resolvent.  The full abelian_r report
(all nine suites), the heisenberg reduction suite and the affine-line KMS
suite were recorded before the involution and Morita helpers were merged
and `deformed_homotopy` moved to the term-by-term resolvent.  The
heisenberg Morita suite was recorded before the comparison operator's
solve moved from dense coefficient vectors to sparse equations.  The full
sl(2) and so(3) reports, the first non-solvable and the first compact
structure group, were recorded while the PBW word calculus still reordered
every word recursively per coefficient, before it read memoised tables.  A
refactor of that code must leave every byte of these reports unchanged.
The heisenberg involution suite, which runs the density ratio and the
modular inner difference on a model with group coordinates, was recorded
while the density ratio still took one integral per Gram entry, per target
and per defect at every order, and the inner difference built its
commutator columns anew for each lam shift.  The full heisenberg and
affine_line reports, which also pin the random draws of the crossed and
rieffel suites, were recorded while the comparison operator still formed a
base product per (probe, word, probe) and the random kernels and fiber
states were drawn by products of coordinate Funcs.  The full filiform4
report, on the filiform algebra of class three at group level (93 pass, 0
fail, 0 skip), was recorded when the left-invariant fields and the Gutt
right multiplication came to be read from one psi-series.  The full
abelian_r2 report, the last runnable committed scene without a pin, was
recorded while the positive and KMS functionals still returned lam-series
of pi-graded scalars rather than constant Funcs; with it every runnable
committed scene has its full report pinned.  The heisenberg, filiform4 and
morita digests were recorded while the comparison operator's target was
still formed per (probe, probe) pair, from a form ip2(phi, psi), rather than
by one moment pass per probe of a ket map.

The involve digests are the sha256 of the standard output of `redstar
involve` for a degree-4 input on heisenberg at order 4 and for an input on
the affine line.  They were recorded while the formal adjoint still composed
a chain of twisted partials per entry, series_inverse recomputed the whole
product at every order and the involution transposed the full left
multiplication operator at every step.

The depth digests are the sha256 of the standard output of `involve` at
order 12 on the same two inputs and of `star` and `reduce` at order 8.  They
and the order-6 reports of abelian_r, abelian_r2, affine_line, sl2 and so3
were recorded while the symmetrization tables were still summed over every
distinct arrangement of a word.
"""

import hashlib
from pathlib import Path

import pytest

from redstar.cli import main

SCENES = Path(__file__).resolve().parent.parent / "scenes"

GOLDEN = {
    ("all", "abelian_r"):
        "49dae4605a9f51c59d8fd8f0678b36fbd7e7df63015f5e29f95c0cd10b0e83e9",
    ("reduction", "heisenberg"):
        "39ea48c5ddaf95b4050a01f8687044c931f74e80212b046987248c2e95892a3c",
    ("kms", "affine_line"):
        "812eea0fd6fb2f4e7a3f4103e556e279de9414d39897e9a303408205a9426b17",
    ("star", "affine_line"):
        "2d2a9a445dc3d496c593c2dc5e185eeed4115b3a6ca961d86b485c9a1aa3b7ec",
    ("star", "heisenberg"):
        "2fa1103fe89c446dde8172170d280e9cf8e75d1e4c0168f0b92913ea4fc5f554",
    ("involution", "affine_line"):
        "beefa0951549659e8b61bbba907ebdcdb224c2823171f76c0ae9857fb7ecebe1",
    ("involution", "heisenberg"):
        "0da1635dfde9e59959f33b43b7e39396f41772d2c5a917b8778712d25875a231",
    ("morita", "heisenberg"):
        "ee15b603f711f23706fb9502b87a0b5abeef253a4428dbf29b435705dbafd0d4",
    ("all", "sl2"):
        "acda0264969f15e26da347a5243f3978287708e7c38989f4cc6862279a5307f2",
    ("all", "so3"):
        "fec15ce6e71a36b49d060dbfdb5fc981d01a664fa200bcc9bceacbaf09c980a2",
    ("all", "heisenberg"):
        "93e7f273242f73bef76c39b3e2bbe2c8934bed5b9a63605df3af7cb7c5ee3764",
    ("all", "affine_line"):
        "50f97d27be352b529440aa382fdb0d9c68e98914e8f256d8f14089cfad9fd423",
    ("all", "filiform4"):
        "287451d157af147a740482114ad9f9b494dac24cd52d9c44db20dfcaba6c1936",
    ("all", "abelian_r2"):
        "3910bc443f576912e9479c2212f9d80f57f0df5ac40a6f57666d5a8c821f6b8e",
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


@pytest.mark.parametrize("scene", ["abelian_r", "abelian_r2", "affine_line", "filiform4",
                                   "heisenberg", "sl2", "so3"])
def test_report_digest_at_order_6(tmp_path, scene):
    """At order 6 every record of every runnable scene still passes, so the
    report is byte-identical to the pinned full report at the scene's order.
    The checks then read the lam^4 to lam^6 coefficients that no order-3
    report reads, on filiform4 those of the Morita comparison's vertical
    compose and apply too."""
    out = tmp_path / "report.json"
    code = main(["verify", "--scene", str(SCENES / f"{scene}.json"), "--order", "6",
                 "--format", "json", "--out", str(out)])
    assert code == 0
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == GOLDEN[("all", scene)]


INVOLVE_GOLDEN = {
    ("heisenberg", "q^4 + 2*i*q^2*p - 3*p^3*q + p", "4"):
        "d4e82a59abb608ad2c9a17685d4cced98853e4d1a6139c0c98a8824a8ac74a75",
    ("affine_line", "q^3*p - 2*i*p^2 + q", None):
        "ed70bf1ef8aa1b93b2d91ece108c5626e9e3c8a2c4ed21d84d439bf1989e8994",
}


@pytest.mark.parametrize("scene,expr,order", sorted(INVOLVE_GOLDEN, key=str),
                         ids=[s for s, _, _ in sorted(INVOLVE_GOLDEN, key=str)])
def test_involve_digest(capsys, scene, expr, order):
    argv = ["involve", "--scene", str(SCENES / f"{scene}.json"), "--input", expr]
    if order is not None:
        argv += ["--order", order]
    assert main(argv) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == INVOLVE_GOLDEN[(scene, expr, order)]


DEPTH_GOLDEN = {
    ("involve", "--scene", "heisenberg", "--input", "q^4 + 2*i*q^2*p - 3*p^3*q + p",
     "--order", "12"):
        "48d9541e7864f2a33992f91a2b4ea2ffcd56b5c8e44242e3c3372b7a6a6b3310",
    ("involve", "--scene", "affine_line", "--input", "q^3*p - 2*i*p^2 + q", "--order", "12"):
        "7372dcd772a3a6b25d3ed675a00f9fd2f70d47445a244dc910e0bfb394d9f3c2",
    ("star", "--scene", "sl2", "--left", "J1^2*J2^2*J3^2", "--right", "J1*J2*J3^2+J2^3",
     "--order", "8"):
        "a031663146b7c446f84f0b1e2a969a2216abb7894817c23d96f4f005a2fbf5a1",
    ("star", "--scene", "heisenberg", "--left", "J1^2*J2*q", "--right", "J2^2*J3*p+g1",
     "--product", "std", "--order", "8"):
        "1128c1bf221a44353e344906870874878c818b2a4ea4ddfb91f2e35fc5e38c50",
    ("reduce", "--scene", "heisenberg", "--left", "q^3*p+2*q", "--right", "p^3-q*p",
     "--order", "8"):
        "78f1b9de44fe4f00b7a55cd7a103a1e1546e24ead2a0a80ef290a0718c214928",
    ("star", "--scene", "heisenberg", "--left", "J1^32*J2^32", "--right", "1",
     "--product", "std", "--order", "3"):
        "f4713942759a731c928bd0a000431985c161f7934971044ddfd2df5c397e75d5",
    ("star", "--scene", "heisenberg", "--left", "J1^20*J2^20", "--right", "J3^4*J2",
     "--product", "weyl_g", "--order", "6"):
        "7dd9853a2e0ea2d440f56d1f2200318f0562080a4fb2e91bea3bc9fc479157ad",
    ("star", "--scene", "so3", "--left", "J1^6*J2^6*J3^6", "--right", "J1",
     "--product", "total", "--order", "4"):
        "c897d1c749a7a8f91acb9151395c22149d34e5d9f8bed343435cefadd677f9a4",
}


@pytest.mark.parametrize("argv", sorted(DEPTH_GOLDEN),
                         ids=[f"{a[0]}-{a[2]}-{a[-1]}" for a in sorted(DEPTH_GOLDEN)])
def test_output_digest_at_depth(capsys, argv):
    """The values that a pass record does not pin, at orders no other test
    reaches: involve at order 12, star and reduce at order 8; and star on
    the long words whose sorted symbols stop at level K: J1^32 J2^32 and
    J1^20 J2^20 on heisenberg, J1^6 J2^6 J3^6 on so3."""
    verb, _, scene, *rest = argv
    assert main([verb, "--scene", str(SCENES / f"{scene}.json"), *rest]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == DEPTH_GOLDEN[argv]
