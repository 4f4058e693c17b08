import dataclasses
import json
import math
from fractions import Fraction

import pytest

from wreathcover import formulas as F


def test_alpha():
    assert F.alpha(1) == 0
    assert F.alpha(12) == 2
    assert F.alpha(30) == 3
    assert F.alpha(2**10) == 1


def test_prime_utilities():
    assert F.prime_factors(360) == [2, 3, 5]
    assert F.smallest_prime_factor(77) == 7
    assert F.is_prime(97) and not F.is_prime(91)
    assert F.euler_phi(6) == 2 and F.euler_phi(12) == 4


def test_divisors_match_sympy():
    import sympy

    for n in range(1, 201):
        assert F.divisors(n) == sympy.divisors(n), n
    with pytest.raises(ValueError):
        F.divisors(0)


def test_c1_values():
    assert F.c1_value(1) == 23
    assert F.c1_value(2) == 1 + 121 + 144 == 266
    assert F.c1_value(6) == 2 + 11**6 + 12**6


def test_c2_values():
    v, w = F.c2_value(11, 5)
    assert v == 1 + 12**5 + 55**5 and not w
    v, w = F.c2_value(11, 1)
    assert v == 67 and any("m=1" in x for x in w)
    v, w = F.c2_value(13, 5)
    assert v == 1 + 14**5 + 78**5 and not w
    v, w = F.c2_value(11, 6)
    assert w  # smallest prime factor 2 < 5


def test_main2_value_identity():
    for n in range(14, 63, 4):
        assert F.main2_value(n, 1) == 2 ** (n - 2)


def test_main2_value_n14():
    assert F.main2_value(14, 1) == 14 + 364 + 2002 + 3432 // 2 == 4096
    expect = 1 + 14**2 + 364**2 + 2002**2 + 3432**2 // 4
    assert F.main2_value(14, 2) == expect


def test_main2_value_second_binomial_route():
    # cross-check the binomials with an additive Pascal-row recurrence
    def pascal_row(n):
        row = [1]
        for _ in range(n):
            row = [a + b for a, b in zip([0] + row, row + [0])]
        return row

    for n in (14, 18, 26):
        row = pascal_row(n)
        expect = F.alpha(2)
        for i in range(1, n // 2 - 1, 2):
            expect += row[i] ** 2
        expect += row[n // 2] ** 2 // 4
        assert F.main2_value(n, 2) == expect


def test_main2_value_hypothesis():
    with pytest.raises(ValueError):
        F.main2_value(16, 2)
    with pytest.raises(ValueError):
        F.main2_value(15, 2)


def test_main2_lower_bound():
    # the half-sum of odd binomials is 2^(n-2) exactly at m=1
    for n in (13, 16, 20):
        assert F.main2_lower_bound(n, 1) == Fraction(2 ** (n - 2))
    v = F.main2_lower_bound(16, 2)
    half_sum = Fraction(sum(math.comb(16, i) ** 2 for i in range(1, 17, 2)), 2)
    assert v == F.alpha(2) + half_sum
    v13 = F.main2_lower_bound(13, 2)
    assert v13.denominator in (1, 2)


def test_f_ratio_cases():
    v = F.f_ratio(16, 2)
    assert v == Fraction(6435**2, sum(math.comb(16, i) ** 2 for i in (1, 3, 5, 7)))
    assert 0 < v < 1
    # odd case with p^3 <= n
    v27 = F.f_ratio(27, 2)
    q = Fraction(
        math.factorial(27), math.factorial(9) ** 3 * math.factorial(3)
    )
    assert v27 == Fraction(sum(math.comb(27, i) ** 2 for i in range(1, 10))) / q**2
    with pytest.raises(ValueError):
        F.f_ratio(14, 2)  # 2 mod 4: outside both cases
    with pytest.raises(ValueError):
        F.f_ratio(15, 2)  # odd but 3^3 > 15


def test_f_ratio_m_trend():
    vals = [F.f_ratio(16, m) for m in (2, 4, 8)]
    assert vals[0] > vals[1] > vals[2]


def test_stirling_brackets():
    for n in (1, 2, 10, 99, 1000, 5000):
        lo, hi = F.stirling_bounds(n)
        f = math.factorial(n)
        assert lo < f < hi, n
        # the bracket is tight: within a factor 1 + 1/(4n)
        assert hi / lo < 1 + Fraction(1, 4 * n) + Fraction(1, 10**6)


def test_inequality_small_block_example():
    rep = F.inequality_suite("small-block", [12])
    assert rep.passed and rep.cases_checked == 1
    assert rep.tightest.lhs_repr == "995328"
    assert rep.tightest.rhs_repr == "1036800"


def test_inequality_divisor_monotone_example():
    rep = F.inequality_suite("divisor-monotone", [16])
    assert rep.passed
    # includes n=16 (a,b)=(2,4): (8!)^2 2! >= (4!)^4 4!
    assert any(
        c["n"] == 16 for c in [rep.tightest.params]
    )


def test_inequality_aliases():
    for alias in ("l8", "10.2", "l1", "11.2", "12.1", "l2", "12.2", "l7", "12.3", "11.4", "12.4", "sec13-1", "13.1"):
        rep = F.inequality_suite(alias, range(12, 30))
        assert rep.lemma in {
            "min-member",
            "diagonal",
            "divisor-monotone",
            "small-block",
            "imprimitive-product",
            "primitive-bound",
            "power-vs-index",
        }


def test_counterexample_reported(monkeypatch, capsys):
    from wreathcover.cli import main

    def swap(key, checker):
        row = dataclasses.replace(F._BY_NAME[key], checker=checker)
        monkeypatch.setitem(F._BY_NAME, key, row)

    # a plain row that fails from n = 14 on
    swap("small-block", lambda n: (n, 13))
    rep = F.inequality_suite("small-block", range(11, 17)).to_dict()
    assert rep["passed"] is False and rep["cases_checked"] == 6
    assert rep["counterexample"] == {"params": {"n": 14}, "lhs": "14", "rhs": "13"}
    assert rep["tightest"] == {"params": {"n": 16}, "lhs": "16", "rhs": "13"}
    # a squared row: the sides keep their sq: prefix
    swap("diagonal", lambda n, m: (n * m, 20) if n > 5 else None)
    rep = F.inequality_suite("diagonal", range(5, 8), (2, 3, 4)).to_dict()
    assert rep["passed"] is False and rep["cases_checked"] == 6
    assert rep["counterexample"] == {
        "params": {"n": 6, "m": 4},
        "lhs": "sq:24",
        "rhs": "sq:20",
    }
    assert rep["tightest"]["params"] == {"n": 7, "m": 4}
    assert [s["n"] for s in rep["skipped"]] == [5, 5, 5]
    for argv in (
        ["--lemma", "small-block", "--n-range", "11..16"],
        ["--lemma", "diagonal", "--n-range", "5..7", "--m-range", "2..4"],
    ):
        assert main(["check-inequalities", *argv, "--json"]) == 1, argv
        report = json.loads(capsys.readouterr().out)
        assert report["passed"] is False and "counterexample" in report


def test_unknown_lemma():
    with pytest.raises(KeyError):
        F.inequality_suite("no-such-lemma", range(10, 20))


def test_all_sweeps_pass():
    assert F.inequality_suite("small-block", range(11, 61)).passed
    assert F.inequality_suite("divisor-monotone", range(8, 65)).passed
    assert F.inequality_suite("power-vs-index", range(15, 99)).passed
    for lemma in (
        "min-member",
        "diagonal",
        "imprimitive-product",
        "primitive-bound",
        "power-vs-primitive",
        "power-vs-diagonal",
    ):
        rep = F.inequality_suite(lemma, range(5, 61), (2, 3, 4, 5))
        assert rep.passed and rep.cases_checked > 0, lemma


def test_out_of_hypothesis_reported_not_clipped():
    rep = F.inequality_suite("power-vs-index", [9, 11, 13, 15])
    # 9 is odd non-prime but below 15; 11, 13 are prime: all skipped
    assert rep.cases_checked == 1
    assert {s["n"] for s in rep.skipped} == {9, 11, 13}


def test_binomial_routes_agree():
    import random

    rng = random.Random(5)
    for _ in range(50):
        n = rng.randrange(1, 80)
        k = rng.randrange(0, n + 1)
        assert F.binom(n, k) == math.factorial(n) // (
            math.factorial(k) * math.factorial(n - k)
        )
