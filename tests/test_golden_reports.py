"""Golden reports: the sha256 of the canonical ``--json`` output of a fixed
request list.

A refactor that is meant to leave every certificate unchanged must keep
these digests.  A change that alters a report on purpose updates the digest
here and says which report changed and why.  The subgroup lattices of a
few spec-file groups and of M11 are pinned the same way, by the sha256 of
their lattice cache file, and a few also by the sha256 of their classes in
memory: each class's conjugates, their generators and conjugators.
"""

import hashlib
import json

import pytest

from wreathcover import catalog
from wreathcover.cli import main
from wreathcover.lattice import _cache_path, all_subgroup_classes

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
        # 554,032 nodes for sigma(A6) = 16
        "sigma A6 --exact",
        0,
        "397c614d27fe4e95d63e539345487dec0e37b3beff7025628285f5baf094d13c",
    ),
    (
        # 38,256 nodes, most of them in subtrees exhausted before
        "sigma A6 --exact --target orders:3",
        0,
        "dc4d3cd15059cc34a31e741001a637d08adb30507e4b82156fe91d2d82df09c4",
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
        # 79,915 nodes, most of them in subtrees exhausted before
        "sigma PSL(2,13) --exact --target orders:6",
        0,
        "f9d5af7b02afe08a596954bae1b21b9b50adb86be6cd831bdc60535e456979c9",
    ),
    (
        # 402,234 nodes
        "sigma PSL(2,11) --exact --target orders:2",
        0,
        "b7f82693c0c0345198762775457604b7490f559798bfe1535a642e19c72f3edd",
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
        # U4 at m = 1 over the maximal outsiders: M9:2 meets 36 seed
        # elements against a member minimum of 120
        "verify-c1 -m 1",
        0,
        "ba38d05f9d11d4be5f9f1cb22f2f4f2f1414ab14b39f21c129cbcfaf3e28fbdb",
    ),
    (
        # sigma(PSL(2,p)) = p(p+1)/2 + 1 at m = 1: no maximal class outside
        # the family meets the seed, against member minima of 2 and 6
        "verify-c2 -p 11 -m 1",
        0,
        "15218049a679b9be8c5ea56add5658f2541fb63fc1c0a5d188c1bdc8affbfd2a",
    ),
    (
        "verify-c2 -p 13 -m 1",
        0,
        "27a97881325382c49fc3f7d59d1f01d785b07307d2f74fd72066496acd72778e",
    ),
    (
        # symbolic mode: C5 fails on the diagonal bound, 2,184 against 1,176
        "verify-c2 -p 13 -m 3",
        1,
        "6004fdf2e791ae62e7ef1a0bff8b9caeaf7e557e820e98683ee0b2ca6cc21566",
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
        # S3 meets no element of order 5, so the U1 witness is a
        # product-type member, the first over S3
        "verify-unbeatable A5 --sigma-spec orders:5 --families D10,S3 -m 2 --mode explicit",
        1,
        "83dfb33b442c75e47fc6b78a8f1e0f928edd86f741d4b9404c7289d9ae0ca327",
    ),
    (
        # ties on both sides of C5: A5 and PSL(2,5) both reach 1,200 outside,
        # S4 and S4' both 192 inside; the first in class order is named
        "verify-unbeatable A6 --sigma-spec orders:3 --families S4,S4' -m 2",
        1,
        "1c7ab7c86819e391231045b2ddde02efefad38c3ca271ca5a1f90040025ce302",
    ),
    (
        # C2 and C4 fail, and the member minimum is 0
        "verify-unbeatable A5 --sigma-spec orders:5,3 --families D10 -m 2",
        1,
        "c97e6f37d8d2c87a87414d1bb5539aa12c3f1c5c5036fe2e3e50d9e17eef8eb6",
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
        # the bounds read the certificate: U4 holds over the maximal
        # outsiders, so the lower bound 67 meets the cover at m = 1
        "wreath-bounds PSL(2,11) --sigma-spec orders:11,6 --families 11:5,D12 -m 1",
        0,
        "36d1eae0bd967f0a82241fb7114eccc5a3f395afe44e3faddd6eda921834d7de",
    ),
    (
        "verify-unbeatable PSL(2,11) --sigma-spec orders:11,6 --families 11:5,D12 -m 1",
        0,
        "ca125c97c37a1c8fee1b20874f02d3656388f390ac9c708d0e6546653467339e",
    ),
    (
        # the nine lemma sweeps: case counts, skips and the tightest case
        "check-inequalities --lemma small-block --n-range 11..60",
        0,
        "a85f09a801bf022db33c414ea09f07b0b6a631f9a85a6f74040c5adc1576ff10",
    ),
    (
        "check-inequalities --lemma divisor-monotone --n-range 8..64",
        0,
        "3ce8b5b747063e3169191e4ccce89a225a608cf76a989cdf67c67b50a7462a5a",
    ),
    (
        # the one sweep that fails: n = 75, (a, b) = (15, 25).  The row pins
        # how a counterexample renders, not the lemma, whose hypothesis is
        # still an open item in ROADMAP.md (Standing)
        "check-inequalities --lemma divisor-monotone --n-range 1..120",
        1,
        "7581c2299f381211e46a5c6bd0e8bf1b223b579d8831b96ad9cc823e86e9c67b",
    ),
    (
        "check-inequalities --lemma power-vs-index --n-range 15..98",
        0,
        "14e8bebe2213b8a03747783621576d8e7b3fefa72bb538cc68b5cc77fe8f6166",
    ),
    (
        "check-inequalities --lemma min-member --n-range 5..60 --m-range 2..5",
        0,
        "64722ba519feb60c42d3e20c76f86e44ccedc2432c77b4c6e456b187bd9f6175",
    ),
    (
        "check-inequalities --lemma diagonal --n-range 5..60 --m-range 2..5",
        0,
        "9d4fafd72a4f2d1cd310f7e435d303e9bea9ec3f0f51e2f842f83b86439d47ab",
    ),
    (
        "check-inequalities --lemma imprimitive-product --n-range 5..60 --m-range 2..5",
        0,
        "654f8457d5436d63177f5737ec0119be89d5b5cb4d9273dde528037fde3e2885",
    ),
    (
        "check-inequalities --lemma primitive-bound --n-range 5..60 --m-range 2..5",
        0,
        "89696d2daf4d85c7844872adf7b8a3173b6dfb2bc27eac8d8f1aa3d38f141d8f",
    ),
    (
        "check-inequalities --lemma power-vs-primitive --n-range 5..60 --m-range 2..5",
        0,
        "03dbe2db7924d643bb8e41515c17b7da0b5263974ca75a01ae3cc0a659e989bd",
    ),
    (
        "check-inequalities --lemma power-vs-diagonal --n-range 5..60 --m-range 2..5",
        0,
        "97a71e9c28d01b58df2b7350369dafc8576a0c7e653342906cf860bcfebdfbde",
    ),
    (
        # an alias reports under its lemma's key
        "check-inequalities --lemma sec13-1 --n-range 15..98",
        0,
        "14e8bebe2213b8a03747783621576d8e7b3fefa72bb538cc68b5cc77fe8f6166",
    ),
    (
        # closed forms: exact rationals, and warnings outside the hypothesis
        "formula main2-lower -n 16 -m 2",
        0,
        "ea2bf5cb2dc943be3b03fbea4a9d1142f45ecf8181df3f715f0f655a941adc84",
    ),
    (
        "formula f-ratio -n 27 -m 2",
        0,
        "8826932d8902e5a7fb27e2c72d4281b3186cc503753d4a32af8d436952b9c7c5",
    ),
    (
        "formula c2 -p 9 -m 1",
        0,
        "afdac64da1a28c215bdd2c4eb0b26c414214df8b909e570d1552986e1ed40715",
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


# spec-file groups (name, degree, generators) and the sha256 of their
# lattice cache file: its classes, their representatives and generators
LATTICE_GOLDEN = [
    (
        "A5",
        5,
        ["(1 2 3 4 5)", "(1 2 3)"],
        "02fca2c18c44a571afa43e5b2f75911db4ede23e19dd571cb12978f77878da14",
    ),
    (
        "S5",
        5,
        ["(1 2 3 4 5)", "(1 2)"],
        "f5ea98f23d66eb12a807912793550a1e29f17f901d5120d12e1a864eb5518c51",
    ),
    (
        "PSL(2,7)",
        7,
        ["(1 2 3 4 5 6 7)", "(1 2)(3 6)"],
        "9d894a715463e54883a955efc18d412ec0e8cd4f1bbd81a1498902038c3cc3c8",
    ),
    (
        "PSL(2,11)",
        12,
        ["(1 2 3 4 5 6 7 8 9 10 11)", "(1 12)(2 11)(3 6)(4 8)(5 9)(7 10)"],
        "7cb52912810f55dc3795cf2b5e3ddbeb0664cab43356ebd5bccae99e4dd35e5b",
    ),
    (
        "A7",
        7,
        ["(1 2 3 4 5 6 7)", "(1 2 3)"],
        "4dda3123b812a42bb968a08074ae2088d3380e74f13ce71fc77a71e206d5c79c",
    ),
    (
        # simple: every join is cut off at |G|/6, from A6 <= A_6
        "A6",
        6,
        ["(1 2 3 4 5)", "(4 5 6)"],
        "b823e4b1c3101240d0895234d555ccea7af29e8104860c8ac152bb946e87e585",
    ),
    (
        # not simple (A6 is normal in it): joins are cut off at |G|/2
        "S6",
        6,
        ["(1 2 3 4 5 6)", "(1 2)"],
        "70e1a1c43b657f638d322bc15e79f9926e365b189bed9042c74ff55332b20998",
    ),
]
M11_LATTICE_DIGEST = "da114ba2a0d4edf84a123a7eb274d218f6e0f1b5159542c0490cc1ad08f2cb87"


def _digest(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize(
    "name, degree, generators, digest", LATTICE_GOLDEN, ids=[row[0] for row in LATTICE_GOLDEN]
)
def test_golden_lattice(name, degree, generators, digest, tmp_path):
    spec = tmp_path / "group.yaml"
    spec.write_text(f"name: {name}\ndegree: {degree}\ngenerators: {json.dumps(generators)}\n")
    table = catalog.load(str(spec)).table
    all_subgroup_classes(table, cache_dir=tmp_path)
    assert _digest(_cache_path(table, tmp_path)) == digest


def test_golden_m11_lattice(m11, m11_lattice, _cache_dir):
    assert _digest(_cache_path(m11.table, _cache_dir)) == M11_LATTICE_DIGEST


# the sha256 of each LATTICE_GOLDEN group's classes as enumerated in memory
# (see _classes_digest): the cache file keeps only the representatives
LATTICE_MEMORY_GOLDEN = {
    "A5": "e88d03c36edde118ae0e5a3b35cf52b54b7f7625075191b2b9ee4f8201fe0c70",
    "S5": "4c692c7334b1c9b99572262d01ca8c2184342a74b77d427d95a18de26180e926",
    "PSL(2,7)": "36775db9e1f8bb9849f234d7089e15f083d12654cf83caeefcc14caf9c843a6c",
    "A7": "6863a526e682a1a8f4814cb305b1aba51248a262272dcf6ae1c6ba38e690acdd",
}


def _classes_digest(classes):
    """The sha256 of every class's stacked ``members``, ``generator_images``
    and ``conjugators`` (shape, then little-endian int64 bytes) and its
    representative's generators, in lattice order."""
    h = hashlib.sha256()
    for c in classes:
        for arr in (c.members, c.generator_images, c.conjugators):
            h.update(repr(arr.shape).encode())
            h.update(arr.astype("<i8").tobytes())
        h.update(repr(c.representative.generators).encode())
    return h.hexdigest()


@pytest.mark.parametrize("name", list(LATTICE_MEMORY_GOLDEN))
def test_golden_lattice_in_memory(name, tmp_path):
    [(degree, generators)] = [(d, gens) for n, d, gens, _ in LATTICE_GOLDEN if n == name]
    spec = tmp_path / "group.yaml"
    spec.write_text(f"name: {name}\ndegree: {degree}\ngenerators: {json.dumps(generators)}\n")
    table = catalog.load(str(spec)).table
    assert _classes_digest(all_subgroup_classes(table)) == LATTICE_MEMORY_GOLDEN[name]


def _garbage(data):
    return "{not json"


def _missing_key(data):
    del data["classes"]
    return json.dumps(data)


def _truncated_members(data):
    # the order-4 representative (a Klein four-group) cut to 3 of its members
    entry = next(e for e in data["classes"] if len(e["members"]) == 4)
    entry["members"] = entry["members"][:3]
    return json.dumps(data)


def _dropped_cyclic_class(data):
    # the order-5 class: the remaining entries all pass the closure re-check
    data["classes"] = [e for e in data["classes"] if len(e["members"]) != 5]
    return json.dumps(data)


def _proper_generators(data):
    # the order-12 representative (an A4) given two of its involutions,
    # which generate its Klein four-group: its members stay closed
    entry = next(e for e in data["classes"] if len(e["members"]) == 12)
    orders = catalog.load("A5").table.element_orders()
    entry["generators"] = [x for x in entry["members"] if orders[x] == 2][:2]
    return json.dumps(data)


def _generator_outside(data):
    # the order-5 representative's generator replaced by the least id
    # outside its members
    entry = next(e for e in data["classes"] if len(e["members"]) == 5)
    entry["generators"] = [min(set(range(60)) - set(entry["members"]))]
    return json.dumps(data)


def _not_closed(data):
    # the order-6 representative (an S3) keeps the identity and its
    # generators, and takes the least ids outside it for its other members
    entry = next(e for e in data["classes"] if len(e["members"]) == 6)
    kept = {0, *entry["generators"]}
    others = sorted(set(range(60)) - set(entry["members"]))[: 6 - len(kept)]
    entry["members"] = sorted(kept | set(others))
    return json.dumps(data)


def _oversized_generator(data):
    # a generator id past int64
    entry = next(e for e in data["classes"] if len(e["members"]) == 5)
    entry["generators"] = [10**30]
    return json.dumps(data)


def _oversized_member(data):
    # a member id past int64
    entry = next(e for e in data["classes"] if len(e["members"]) == 5)
    entry["members"][-1] = 10**30
    return json.dumps(data)


def _wrong_order(data):
    # the group hash still matches, the recorded order does not
    data["order"] += 1
    return json.dumps(data)


def _empty_members(data):
    # an order-0 entry, whose order divides nothing
    entry = next(e for e in data["classes"] if len(e["members"]) == 5)
    entry["members"] = []
    return json.dumps(data)


@pytest.mark.parametrize(
    "corrupt",
    [
        _garbage,
        _missing_key,
        _truncated_members,
        _dropped_cyclic_class,
        _proper_generators,
        _generator_outside,
        _not_closed,
        _oversized_generator,
        _oversized_member,
        _empty_members,
        _wrong_order,
    ],
)
def test_bad_lattice_cache_is_rebuilt(corrupt, tmp_path, capsys):
    # a cache file that fails to parse or to verify is a miss: the lattice
    # is enumerated again and the file rewritten byte for byte, whether the
    # library or a request reads it.  The one request that reads the cache
    # is sigma on a spec file without maximal classes; the catalog's A5 has
    # the generators of the pinned A5 spec, so both share one cache file.
    digest = LATTICE_GOLDEN[0][3]
    table = catalog.load("A5").table
    path = _cache_path(table, tmp_path)
    expected = [(c.order, c.class_size) for c in all_subgroup_classes(table, cache_dir=tmp_path)]
    assert _digest(path) == digest
    spec = tmp_path / "a5.yaml"
    spec.write_text(A5_SPEC)
    argv = ["sigma", str(spec), "--greedy", "--json", "--cache-dir", str(tmp_path)]
    status = main(argv)
    clean = capsys.readouterr()

    path.write_text(corrupt(json.loads(path.read_text())))
    classes = all_subgroup_classes(table, cache_dir=tmp_path)
    assert [(c.order, c.class_size) for c in classes] == expected
    assert _digest(path) == digest

    path.write_text(corrupt(json.loads(path.read_text())))
    assert main(argv) == status
    assert capsys.readouterr() == clean
    assert _digest(path) == digest
