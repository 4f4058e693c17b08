"""Acceptance suite: one test per criterion, each printing a pass/fail line
and enforcing its stated tolerance (exact) and runtime budget.

Criterion 10 checks that the ratio f(n, m) of the extra cover terms to the
certified-family terms tends to 0 for 4 | n, which is what makes the A_n
estimate asymptotically sharp.  At m = 2 the ratio has a closed form:
Vandermonde gives sum_i C(n,i)^2 = C(2n,n), and for n/2 even
sum_i (-1)^i C(n,i)^2 = C(n,n/2), so the odd-i half-sum is
(C(2n,n) - C(n,n/2)) / 4 and

    f(n,2) = C(n,n/2)^2 / (C(2n,n) - C(n,n/2)),
    f(n,2) * sqrt(pi*n) / 2 = 1 - 3/(8n) + O(n^-2).

So f decays like n^(-1/2), not geometrically: f(128,2)/f(16,2) is about
0.361 (about 1/sqrt(8)), and a clause asking for a drop below f(16,2)/1000
is false for the formula, which every in-repo source agrees on.  The
criterion therefore pins the closed form and the rate with its constant,
in exact rationals.
"""

import io
import json
import math
import time
from contextlib import redirect_stdout
from fractions import Fraction

import numpy as np
import pytest

from wreathcover import catalog, formulas
from wreathcover.cover import (
    build_instance,
    sigma_exact,
    verify_cover,
    verify_cover_handles,
)
from wreathcover.lattice import all_subgroup_classes
from wreathcover.unbeat import (
    SeedInstance,
    check_definitely_unbeatable_group,
    check_definitely_unbeatable_symbolic,
    check_seed_conditions,
    theorem_bounds,
)
from wreathcover.wreath import (
    ProductTypeDescriptor,
    WreathContext,
    construct_product_cover,
    product_type_mask,
    verify_wreath_cover,
)

from oracles import (
    exhaustive_min_cover,
    normalizes_product_subgroup,
    product_subgroup_perm_keys,
    random_element,
)


class Budget:
    def __init__(self, name, seconds):
        self.name = name
        self.seconds = seconds

    def __enter__(self):
        self.start = time.time()
        return self

    def __exit__(self, exc_type, exc, tb):
        self.elapsed = time.time() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        print(f"{self.name}: {status} ({self.elapsed:.1f}s / budget {self.seconds}s)")
        if exc_type is None:
            assert self.elapsed < self.seconds, (
                f"{self.name} exceeded its {self.seconds}s budget: {self.elapsed:.1f}s"
            )
        return False


def _m11_seed_instance(m11, m):
    g = m11.table
    seed = np.concatenate([g.elements_with_order(8), g.elements_with_order(11)])
    bl = m11.classes_by_label()
    return SeedInstance(
        S=g,
        seed_ids=seed,
        seed_classes=[bl["M10"], bl["PSL(2,11)"]],
        m=m,
        maximal_classes=m11.maximal_classes,
    )


def test_criterion_1_m11_data_reproduction(m11):
    with Budget("criterion 1 (M11 data reproduction)", 30):
        g = m11.table
        assert g.order == 7920
        stats = {c.label: c for c in m11.maximal_classes}
        assert {c.order for c in m11.maximal_classes} == {720, 660, 144, 120, 48}
        assert {c.class_size for c in m11.maximal_classes} == {11, 12, 55, 66, 165}
        o8 = g.elements_with_order(8)
        o11 = g.elements_with_order(11)
        expected = {
            "M10": (720, 11, 180, 0),
            "PSL(2,11)": (660, 12, 0, 120),
            "M9:2": (144, 55, 36, 0),
            "S5": (120, 66, 0, 0),
            "M8:S3": (48, 165, 12, 0),
        }
        for label, (order, size, n8, n11) in expected.items():
            cls = stats[label]
            rep = cls.representative
            assert cls.order == order and cls.class_size == size, label
            assert int(np.isin(o8, rep.member_ids).sum()) == n8, label
            assert int(np.isin(o11, rep.member_ids).sum()) == n11, label

        def unique_membership(label, ids):
            cls = stats[label]
            per = [
                int(np.isin(ids, h.member_ids).sum()) for h in cls.conjugates
            ]
            union = np.zeros(g.order, dtype=bool)
            for h in cls.conjugates:
                union[h.member_ids[np.isin(h.member_ids, ids)]] = True
            return sum(per) == int(union.sum()) == ids.shape[0]

        assert unique_membership("M10", o8)
        assert unique_membership("PSL(2,11)", o11)


def test_criterion_2_sigma_m11_is_23(m11, m11_lattice):
    with Budget("criterion 2 (sigma(M11) = 23)", 60):
        inst = _m11_seed_instance(m11, 1)
        cover = [h for cls in inst.seed_classes for h in cls.conjugates]
        ok, _ = verify_cover_handles(m11.table, cover)
        assert ok and len(cover) == 23  # upper bound
        labels = [
            f"{cls.label}[{i}]"
            for cls in inst.seed_classes
            for i in range(cls.class_size)
        ]
        du = check_definitely_unbeatable_group(
            m11.table, inst.seed_ids, cover, labels, all_classes=m11_lattice
        )
        assert du.passed and not du.conditional
        assert du.certified_lower_bound == 23  # lower bound meets it


def test_criterion_3_m11_pipeline_m2(m11):
    with Budget("criterion 3 (M11 wreath pipeline, m=2)", 60):
        inst = _m11_seed_instance(m11, 2)
        rep = check_seed_conditions(inst)
        assert rep.passed
        assert rep.diagonal_bound == 15840
        assert rep.outside_family_max == 5184
        assert rep.cross_class_layer == 2 * 132 * 180 * 120
        assert rep.family_min == 79200
        cover = [h for cls in inst.seed_classes for h in cls.conjugates]
        bounds = theorem_bounds(inst, cover, check_definitely_unbeatable_symbolic(inst, rep))
        assert bounds.lower == bounds.upper == 266 == formulas.c1_value(2)


def test_criterion_4_psl211_pipeline_m5(psl11):
    with Budget("criterion 4 (PSL(2,11) wreath pipeline, m=5)", 60):
        g = psl11.table
        assert g.order == 660 and g.degree == 12
        bl = psl11.classes_by_label()
        seed = np.concatenate([g.elements_with_order(11), g.elements_with_order(6)])
        inst = SeedInstance(
            S=g,
            seed_ids=seed,
            seed_classes=[bl["11:5"], bl["D12"]],
            m=5,
            maximal_classes=psl11.maximal_classes,
        )
        cover = [h for cls in inst.seed_classes for h in cls.conjugates]
        assert len(cover) == 12 + 55
        ok, _ = verify_cover_handles(g, cover)
        assert ok
        rep = check_seed_conditions(inst)
        assert rep.passed
        counts = rep.seed_counts["per_class"]
        assert counts["D12"]["per_member"] == formulas.euler_phi(6) == 2
        assert counts["11:5"]["per_member"] == 10
        bounds = theorem_bounds(inst, cover, check_definitely_unbeatable_symbolic(inst, rep))
        expect = formulas.alpha(5) + 12**5 + 55**5
        assert bounds.lower == bounds.upper == expect


def test_criterion_5_membership_oracle_equivalence(a5):
    with Budget("criterion 5 (membership = normalizer oracle)", 120):
        rng = np.random.default_rng(2025)
        labels = sorted(a5.classes_by_label())

        def random_descriptor(m):
            cls = a5.classes_by_label()[labels[int(rng.integers(0, len(labels)))]]
            M = cls.conjugates[int(rng.integers(0, cls.class_size))]
            cosets = tuple(
                int(rng.integers(0, a5.table.order)) for _ in range(m - 1)
            )
            return ProductTypeDescriptor.create(M, cosets)

        # m = 2: all 7200 elements against 30 random descriptors
        ctx2 = WreathContext(a5.table, 2)
        grid = ctx2.base_grid()
        disagreements = checks = 0
        for _ in range(30):
            d = random_descriptor(2)
            keys = product_subgroup_perm_keys(ctx2, d)
            for shift in (0, 1):
                fast = product_type_mask(ctx2, d, grid, shift)
                shifts = np.full(grid.shape[0], shift)
                slow = normalizes_product_subgroup(ctx2, grid, shifts, keys)
                disagreements += int((fast != slow).sum())
                checks += grid.shape[0]
        assert checks == 30 * 7200 and disagreements == 0  # |A5 wr C_2| = 7200

        # m = 3: at least 1e5 sampled elements, the mask evaluated once per
        # descriptor and shift on that descriptor's sampled base rows, the
        # oracle run once per descriptor
        ctx3 = WreathContext(a5.table, 3)
        desc3 = [random_descriptor(3) for _ in range(10)]
        samples = [[] for _ in desc3]
        for j in range(100_000):
            d_idx = int(rng.integers(0, len(desc3)))
            samples[d_idx].append(random_element(ctx3, rng))
        checks = 0
        for d, ws in zip(desc3, samples):
            bases = np.array([w.base for w in ws])
            shifts = np.array([w.shift for w in ws])
            fast = np.zeros(len(ws), dtype=bool)
            for shift in range(3):
                rows = shifts == shift
                fast[rows] = product_type_mask(ctx3, d, bases[rows], shift)
            keys = product_subgroup_perm_keys(ctx3, d)
            slow = normalizes_product_subgroup(ctx3, bases, shifts, keys)
            disagreements += int((fast != slow).sum())
            checks += len(ws)
        assert checks >= 100_000 and disagreements == 0


def test_criterion_6_constructive_cover(a5):
    with Budget("criterion 6 (constructive wreath cover, m=2)", 60):
        inst = build_instance(a5.table, a5.maximal_classes)
        cert = sigma_exact(inst)
        assert cert.value == 10
        by_label = dict(zip(inst.labels, inst.handles))
        N = [by_label[lab] for lab in cert.chosen]
        descs, socle = construct_product_cover(a5.table, N, 2)
        expect = formulas.alpha(2) + sum(h.index for h in N)
        assert len(descs) + len(socle) == expect
        ctx = WreathContext(a5.table, 2)
        ok, witness = verify_wreath_cover(ctx, descs, socle)
        assert ok and witness is None


def test_criterion_7_sigma_a5_and_psl27(a5, psl7):
    with Budget("criterion 7 (sigma(A5)=10, sigma(PSL(2,7))=15)", 300):
        inst = build_instance(a5.table, a5.maximal_classes)
        cert = sigma_exact(inst)
        assert cert.value == 10
        assert cert.lower_bound["value"] == 10
        ok, _ = verify_cover(inst, cert.chosen)
        assert ok
        oracle = exhaustive_min_cover(inst.masks, inst.full_mask, 10)
        assert oracle is not None and oracle[0] == 10

        inst7 = build_instance(psl7.table, psl7.maximal_classes)
        cert7 = sigma_exact(inst7)
        assert cert7.value == 15
        assert cert7.lower_bound["value"] == 15
        ok, _ = verify_cover(inst7, cert7.chosen)
        assert ok
        oracle7 = exhaustive_min_cover(inst7.masks, inst7.full_mask, 15)
        assert oracle7 is not None and oracle7[0] == 15


def test_criterion_8_inequality_sweeps():
    with Budget("criterion 8 (inequality sweeps)", 60):
        r = formulas.inequality_suite("small-block", range(11, 61))
        assert r.passed and r.counterexample is None
        r = formulas.inequality_suite("divisor-monotone", range(8, 65))
        assert r.passed and r.counterexample is None
        for lemma in ("min-member", "diagonal", "imprimitive-product", "primitive-bound"):
            r = formulas.inequality_suite(lemma, range(5, 61), (2, 3, 4, 5))
            assert r.passed and r.cases_checked > 0, lemma
        r = formulas.inequality_suite("power-vs-index", range(15, 99))
        assert r.passed and r.cases_checked == 23


def test_criterion_9_identity_check():
    with Budget("criterion 9 (doubly-stated power-of-two identity)", 1):
        for n in range(14, 63, 4):
            assert formulas.main2_value(n, 1) == 2 ** (n - 2)


def test_criterion_10_ratio_trend():
    # pi- < pi < pi+: 333/106 and 355/113 are continued-fraction convergents
    pi_lo, pi_hi = Fraction(333, 106), Fraction(355, 113)
    with Budget("criterion 10 (ratio trend surrogate)", 10):
        ns = (16, 32, 64, 128)
        vals = {n: formulas.f_ratio(n, 2) for n in ns}
        quotient = float(vals[128] / vals[16])
        assert vals[16] > vals[32] > vals[64] > vals[128], (
            "f_ratio(n,2) not strictly decreasing; "
            f"f_ratio(128,2) / f_ratio(16,2) = {quotient:.6f}"
        )
        for n in ns:
            c = math.comb(n, n // 2)
            closed = Fraction(c * c, math.comb(2 * n, n) - c)
            assert vals[n] == closed, (
                f"f_ratio({n},2) = {vals[n]} differs from the m = 2 closed "
                f"form C(n,n/2)^2 / (C(2n,n) - C(n,n/2)) = {closed}"
            )
            # f(n,2) = 2/sqrt(pi*n) * (1 - 3/(8n) + O(n^-2)), bracketed in
            # squared form so that no float or square root enters
            lower = (1 - Fraction(1, 2 * n)) ** 2 * 4 / (pi_hi * n)
            upper = 4 / (pi_lo * n)
            assert lower < vals[n] ** 2 < upper, (
                f"f_ratio({n},2)^2 = {float(vals[n] ** 2):.6g} outside "
                f"({float(lower):.6g}, {float(upper):.6g}), the n^(-1/2) law; "
                f"f_ratio(128,2) / f_ratio(16,2) = {quotient:.6f}"
            )


def _cli_json(args):
    from wreathcover.cli import main

    buf = io.StringIO()
    with redirect_stdout(buf):
        status = main([*args, "--json"])
    return status, buf.getvalue()


def test_criterion_11_determinism_across_threads(tmp_path, _cache_dir):
    with Budget("criterion 11 (byte-identical reports across --threads)", 300):
        fam1 = tmp_path / "fam1.txt"
        fam4 = tmp_path / "fam4.txt"
        commands = [
            ["catalog", "M11"],
            ["verify-c1", "-m", "2"],
            ["verify-c1", "-m", "1"],
            ["verify-c2", "-p", "11", "-m", "5"],
            ["sigma", "A5", "--exact"],
            ["sigma", "PSL(2,7)", "--exact"],
            ["verify-unbeatable", "A5", "--sigma-spec", "orders:5,3",
             "--families", "D10,S3", "-m", "2"],
            ["check-inequalities", "--lemma", "small-block", "--n-range", "11..60"],
            ["check-inequalities", "--lemma", "sec13-1", "--n-range", "15..98"],
            ["formula", "main2", "-n", "14", "-m", "1"],
            ["formula", "f-ratio", "-n", "16", "-m", "2"],
        ]
        for cmd in commands:
            s1, out1 = _cli_json([*cmd, "--threads", "1"])
            s4, out4 = _cli_json([*cmd, "--threads", "4"])
            assert s1 == s4, cmd
            assert out1 == out4, cmd
        s1, out1 = _cli_json(
            ["construct-cover", "A5", "-m", "2", "--threads", "1", "--out", str(fam1)]
        )
        s4, out4 = _cli_json(
            ["construct-cover", "A5", "-m", "2", "--threads", "4", "--out", str(fam4)]
        )
        assert s1 == s4 == 0
        assert out1 == out4
        assert fam1.read_bytes() == fam4.read_bytes()
