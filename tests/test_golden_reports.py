"""Golden reports: the sha256 of the canonical ``--json`` output of a fixed
request list.

A refactor that is meant to leave every certificate unchanged must keep
these digests.  A change that alters a report on purpose updates the digest
here and says which report changed and why.
"""

import hashlib

import pytest

from wreathcover.cli import main

A5_SPEC = 'name: A5\ndegree: 5\ngenerators: ["(1 2 3 4 5)", "(1 2 3)"]\n'

# argv ("{a5_spec}" is the A5 spec file), exit status, sha256 of stdout
GOLDEN = [
    (
        "catalog M11",
        0,
        "3446fcc45e7b2ffefd2103abd456b4913358d0ee76043dbf9ed7d6ce66a1645b",
    ),
    (
        "sigma M11 --exact",
        0,
        "966ef68b701b664e92a4014f13ca1c88c5e6b7d7d4a7284fb752bb29dda77a90",
    ),
    (
        "sigma {a5_spec} --greedy",
        0,
        "52723f0f1529329bffb89f398331b7527b9466609ca1fc036ea4a1ca90c5fea6",
    ),
    (
        # the search order: the nodes and the chosen optimum of each pin it
        "sigma A6 --exact --target cycle-types:1,1,1,3/3,3",
        0,
        "5ed23f6aa47ea4f2afc6af1ed495104aa5b60672d560e79a02cd39210e1a1808",
    ),
    (
        "sigma PSL(2,11) --exact --target orders:3",
        0,
        "e030365772fd53b00a3c161172494bbdb9e0732c5f860ee86c93594de17bb0e1",
    ),
    (
        "sigma PSL(2,7) --exact --target orders:3",
        0,
        "008811583bd936cc1ec6781c40a4cc3bfc71599f0375204ce23293aa67130f20",
    ),
    (
        "sigma PSL(2,13) --exact",
        0,
        "a3d402d47f10170668e198780ae5e6086ffdac8603f20f88db47498f52b38931",
    ),
    (
        "construct-cover A5 -m 2",
        0,
        "76eb8a67c3f5cec4614b646d573980c4019238674171a0ca794fbbbcd3ae9c69",
    ),
    (
        "construct-cover PSL(2,7) -m 2",
        0,
        "907aea295fc721054efa33c1a4ba5c9537084729ec05cc6b9c2ad4bab206bb22",
    ),
    (
        "verify-unbeatable A5 --sigma-spec orders:5,3 --families D10,S3 -m 2",
        1,
        "eb9264844652de7b628a45498fb9d92fe5fb3b87f1eede673ac4a7c93a52231e",
    ),
    (
        # the M11 row of the theorem table: the report shape of verify-c2
        "verify-c1 -m 2",
        0,
        "aac974631981ee03d1c3f5c34a2f1f6d0271e92dca973ee92e935c51c3ab338e",
    ),
    (
        "verify-c2 -p 11 -m 5",
        0,
        "49ec13480bbbc0fd07fe27a36e152f37472ac80af10de7a691a6fc9d57cd9148",
    ),
    (
        "wreath-bounds M11 --sigma-spec orders:8,11 --families M10,PSL(2,11) -m 3",
        0,
        "5b7c0fcadeb20effb4f344fc5d85cb7296cd316f5f636f5561e04a5efa8b2591",
    ),
    (
        # the product-type family: its members, their order and their count
        "construct-cover A6 -m 2 --cover-method greedy",
        0,
        "8711eef7c5f6b62bacbbee6edd6730db0c215190fdcf2809de18318c96f47f73",
    ),
    (
        "construct-cover A5 -m 3",
        0,
        "47f25a0846dab65dd3324ddfdb5aba41ef0c2d7536332069a5847bedbd3be5b5",
    ),
    (
        "verify-unbeatable A5 --sigma-spec orders:5,3 --families D10,S3 -m 3 --mode explicit",
        1,
        "7625bee5982344372bb4c187e8f7dae7b653a8d934050a9d303e292b7da4d9a3",
    ),
    (
        "verify-unbeatable M11 --sigma-spec orders:8,11 --families M10,PSL(2,11) -m 3",
        0,
        "b43e682aa86c45f77f4da62c56081d8a3caa4ca70274a08104178b9d10beeb15",
    ),
    (
        "wreath-bounds M11 --sigma-spec orders:8,11 --families M10,PSL(2,11) -m 1",
        0,
        "23f44fd967911be433875f61ad17d9b1937a57d6e53ce9a08ea7e141dabd731e",
    ),
    (
        "verify-unbeatable PSL(2,11) --sigma-spec orders:11,6 --families 11:5,D12 -m 1",
        1,
        "9f538bd4dbfc47985408b2ca97f2c107ded365c2d8d50fc1a415e5ac1eb4208b",
    ),
]


def _ids(commands):
    """The command name and group, or the whole command where those repeat."""
    seen = set()
    for command in commands:
        short = command.split(" -")[0]
        yield command if short in seen else short
        seen.add(short)


@pytest.mark.parametrize(
    "command, status, digest", GOLDEN, ids=list(_ids(c for c, _, _ in GOLDEN))
)
def test_golden_report(command, status, digest, tmp_path, capsys):
    spec = tmp_path / "a5.yaml"
    spec.write_text(A5_SPEC)
    argv = command.format(a5_spec=spec).split()
    assert main([*argv, "--json"]) == status
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest
