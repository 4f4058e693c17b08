"""Exact big-integer evaluation of the closed-form covering-number
expressions and exhaustive range verification of the inequality lemmas.

Everything here is exact: integers, Fractions, or (for the Stirling
brackets only) outward-rounded interval endpoints converted to Fractions.
Each lemma checker returns its two sides as exact values; a sweep compares
them as numbers and renders decimal strings only for the cases it reports
(the first failure and the tightest case).  Half-integer exponents are
compared by squaring both sides; the primitive degree bound 2.6^n is handled
as the exact rational (13/5)^n.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Iterable, Optional


# -- number-theory helpers --------------------------------------------------


def prime_factors(n: int) -> list[int]:
    """Distinct prime divisors of n, ascending."""
    if n < 1:
        raise ValueError("n must be positive")
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out.append(n)
    return out


def alpha(m: int) -> int:
    """Number of distinct prime divisors of m."""
    return len(prime_factors(m))


def divisors(n: int) -> list[int]:
    """All positive divisors of n, ascending."""
    if n < 1:
        raise ValueError("n must be positive")
    small = [d for d in range(1, math.isqrt(n) + 1) if n % d == 0]
    return small + [n // d for d in reversed(small) if d * d != n]


def smallest_prime_factor(n: int) -> int:
    if n < 2:
        raise ValueError("n must be at least 2")
    return prime_factors(n)[0]


def is_prime(n: int) -> bool:
    return n >= 2 and prime_factors(n) == [n]


def euler_phi(n: int) -> int:
    result = n
    for p in prime_factors(n):
        result = result // p * (p - 1)
    return result


@lru_cache(maxsize=600)
def factorial(n: int) -> int:
    return math.factorial(n)


def binom(n: int, k: int) -> int:
    return math.comb(n, k)


# -- closed forms ------------------------------------------------------------


def c1_value(m: int) -> int:
    """Covering number of the Mathieu-group wreath product M11 wr C_m."""
    if m < 1:
        raise ValueError("m >= 1 required")
    return alpha(m) + 11**m + 12**m


def c2_value(p: int, m: int) -> tuple[int, list[str]]:
    """Covering number formula for PSL(2,p) wr C_m: alpha(m) + (p+1)^m +
    (p(p-1)/2)^m.  Returns the value and any outside-hypothesis warnings
    (p >= 11 prime, smallest prime factor of m >= 5)."""
    if m < 1:
        raise ValueError("m >= 1 required")
    warnings = []
    if not is_prime(p) or p < 11:
        warnings.append(f"p={p} outside hypothesis (prime >= 11 required)")
    if m == 1:
        warnings.append("m=1 is the plain-group case, covered by prior work")
    elif smallest_prime_factor(m) < 5:
        warnings.append(
            f"smallest prime factor of m={m} is {smallest_prime_factor(m)} < 5"
        )
    return alpha(m) + (p + 1) ** m + (p * (p - 1) // 2) ** m, warnings


def main2_value(n: int, m: int) -> int:
    """Exact covering number of A_n wr C_m for n = 2 mod 4 (n > 12):
    alpha(m) + sum over odd i <= n/2-2 of C(n,i)^m + C(n,n/2)^m / 2^m."""
    if n % 4 != 2:
        raise ValueError(f"n={n} is not congruent to 2 mod 4")
    if m < 1:
        raise ValueError("m >= 1 required")
    total = alpha(m)
    for i in range(1, n // 2 - 1, 2):
        total += binom(n, i) ** m
    central = binom(n, n // 2) ** m
    if central % 2**m != 0:
        raise AssertionError(
            f"C({n},{n//2})^{m} not divisible by 2^{m}; C(n,n/2) must be even"
        )
    return total + central // 2**m


def main2_lower_bound(n: int, m: int) -> Fraction:
    """Lower bound alpha(m) + (1/2) * sum over odd i of C(n,i)^m, exact
    rational (the half-sum need not be integral)."""
    if m < 1:
        raise ValueError("m >= 1 required")
    s = sum(binom(n, i) ** m for i in range(1, n + 1, 2))
    return Fraction(alpha(m)) + Fraction(s, 2)


def f_ratio(n: int, m: int) -> Fraction:
    """Ratio of the extra cover terms to the certified-family terms; the
    case formulas of the asymptotic argument, exact rational.

    For 4 | n the numerator is (C(n,n/2)/2)^m, the imprimitive
    S_{n/2} wr S_2 term that `main2_value` also counts, and the denominator
    is the half-sum of `main2_lower_bound`, (1/2) * sum over odd i of
    C(n,i)^m; as n/2 is even this equals sum over odd i < n/2 of C(n,i)^m,
    the intransitive family.  At m = 2 Vandermonde and
    sum_i (-1)^i C(n,i)^2 = C(n,n/2) give the closed form

        f(n,2) = C(n,n/2)^2 / (C(2n,n) - C(n,n/2)),

    and f(n,2) * sqrt(pi*n) / 2 = 1 - 3/(8n) + O(n^-2).  For general m,
    f(n,m) ~ 2^(2-m) * sqrt(2m/(pi*n)): f tends to 0 polynomially in n,
    like n^(-1/2), not geometrically.  The paper's own statement of f is not
    in PAPER.md, so this transcription rests on the formulas above."""
    if m < 1:
        raise ValueError("m >= 1 required")
    if n % 4 == 0:
        num = Fraction(binom(n, n // 2), 2) ** m
        den = Fraction(1, 2) * sum(binom(n, i) ** m for i in range(1, n + 1, 2))
        return num / den
    if n % 2 == 1:
        p = smallest_prime_factor(n) if n > 1 and not is_prime(n) else None
        if p is None or p**3 > n:
            raise ValueError(
                f"n={n} odd needs a prime divisor p with p^3 <= n"
            )
        num = sum(binom(n, i) ** m for i in range(1, n // 3 + 1))
        den = Fraction(factorial(n), factorial(n // p) ** p * factorial(p)) ** m
        return Fraction(num) / den
    raise ValueError(f"n={n} outside both cases (4 | n, or odd with p^3 <= n)")


# -- Stirling brackets -------------------------------------------------------


def stirling_bounds(n: int) -> tuple[Fraction, Fraction]:
    """Outward-rounded rational evaluations of the Stirling bracket
    sqrt(2 pi n) (n/e)^n e^(1/(12n+1)) < n! < sqrt(2 pi n) (n/e)^n e^(1/(12n)).

    The returned (lower, upper) are exact Fractions with lower <= the true
    lower expression and upper >= the true upper expression, so
    lower < n! < upper is implied by the theorem."""
    from mpmath import iv
    from mpmath.libmp import to_rational

    if n < 1:
        raise ValueError("n >= 1 required")
    old_prec = iv.prec
    try:
        iv.prec = max(80, int(n * 1.5) + 80)
        nn = iv.mpf(n)
        common = iv.sqrt(2 * iv.pi * nn) * (nn / iv.e) ** n
        low = common * iv.exp(1 / iv.mpf(12 * n + 1))
        high = common * iv.exp(1 / iv.mpf(12 * n))
        lower = Fraction(*to_rational(low._mpi_[0]))
        upper = Fraction(*to_rational(high._mpi_[1]))
    finally:
        iv.prec = old_prec
    return lower, upper


# -- inequality lemmas --------------------------------------------------------


@dataclass
class InequalityCase:
    """One reported instance of a lemma inequality, its sides rendered."""

    params: dict
    lhs_repr: str
    rhs_repr: str


@dataclass
class InequalityReport:
    lemma: str
    description: str
    cases_checked: int
    passed: bool
    counterexample: Optional[InequalityCase] = None
    tightest: Optional[InequalityCase] = None
    skipped: list[dict] = field(default_factory=list)

    def to_dict(self) -> dict:
        out = {
            "lemma": self.lemma,
            "description": self.description,
            "cases_checked": self.cases_checked,
            "passed": self.passed,
        }
        for key in ("counterexample", "tightest"):
            case = getattr(self, key)
            if case is not None:
                out[key] = {"params": case.params, "lhs": case.lhs_repr, "rhs": case.rhs_repr}
        if self.skipped:
            out["skipped"] = self.skipped
        return out


def _imprimitive_order(n: int, a: int) -> int:
    """|S_{n/a} wr S_a| = ((n/a)!)^a * a!."""
    return factorial(n // a) ** a * factorial(a)


def _smallest_divisor_above_2(n: int) -> Optional[int]:
    for d in range(3, n + 1):
        if n % d == 0:
            return d
    return None


def _an_order(n: int) -> int:
    return factorial(n) // 2


def _min_target(n: int, m: int) -> Fraction:
    """The case-dependent right-hand side: the smallest certified
    family-member intersection count."""
    if n % 2 == 1:
        p = smallest_prime_factor(n)
        return Fraction(_imprimitive_order(n, p) ** m, 2 ** (m - 1) * n)
    if n % 4 == 0:
        h = n // 2
        return Fraction(
            factorial(h - 2)
            * factorial(h)
            * (Fraction(factorial(h - 1) * factorial(h + 1), 2) ** (m - 1))
        )
    h = n // 2
    return Fraction(factorial(h - 1) ** 2 * factorial(h) ** (2 * m - 2), 2 ** (m - 1))


# Each checker returns its exact sides (lhs, rhs) on hypothesis-satisfying
# input, or None when the hypothesis fails (the sweep records a skip); the
# relation and whether the sides are squares live in the lemma's table row.
Sides = Optional[tuple[int | Fraction, int | Fraction]]


def _lemma_min_member(n: int, m: int) -> Sides:
    """Certified family members are never larger than the socle-layer count:
    the three case inequalities identifying the minimum."""
    if n < 5 or m < 1:
        return None
    an = Fraction(_an_order(n))
    if n % 2 == 1:
        if is_prime(n):
            return None
        lhs = _min_target(n, m)
        rhs = Fraction(2, n * (n - 2)) * an**m
    else:
        lhs = _min_target(n, m)
        rhs = Fraction(4, 3 * (n - 1) * (n - 3)) * an**m
    return lhs, rhs


def _lemma_diagonal(n: int, m: int) -> Sides:
    """Diagonal-type count bound (1+alpha(m)) (n!/2)^(m/2) <= min target;
    compared squared to clear the half exponent."""
    if m < 2 or n < 5:
        return None
    if n % 2 == 1:
        p = smallest_prime_factor(n)
        if is_prime(n) or p**3 > n:
            return None
    elif n % 4 == 0:
        if n <= 8:
            return None
    else:
        if n <= 10:
            return None
    lhs_sq = Fraction((1 + alpha(m)) ** 2) * Fraction(factorial(n), 2) ** m
    rhs_sq = _min_target(n, m) ** 2
    return lhs_sq, rhs_sq


def _lemma_divisor_monotone(n: int, a: int, b: int) -> Sides:
    """((n/a)!)^a a! >= ((n/b)!)^b b! for nontrivial proper divisors
    a <= b of odd n >= 8.

    For even n only the pairs with a the smallest prime factor are in
    hypothesis; that is the only shape of comparison this bound is ever
    applied to, and without the restriction the claim is false, e.g. n=12
    with (a,b)=(4,6) gives 31104 < 46080, or n=16 with (4,8).  The trivial
    divisors are excluded too: b=n gives ((1)!)^n n! = n!, dominating every
    block shape."""
    if n < 8 or a > b or n % a or n % b:
        return None
    if a <= 1 or b >= n:
        return None
    if n % 2 == 0 and a != smallest_prime_factor(n):
        return None
    lhs = _imprimitive_order(n, a)
    rhs = _imprimitive_order(n, b)
    return lhs, rhs


def _lemma_small_block(n: int) -> Sides:
    """n ((n/a)!)^a a! <= 2 ((n/2)!)^2 for even n > 10, a the smallest
    divisor above 2."""
    if n <= 10 or n % 2:
        return None
    a = _smallest_divisor_above_2(n)
    if a is None:
        return None
    lhs = n * _imprimitive_order(n, a)
    rhs = 2 * factorial(n // 2) ** 2
    return lhs, rhs


def _lemma_imprimitive_product(n: int, m: int) -> Sides:
    """(1+alpha(m)) (((n/a)!)^a a! / 2)^m <= min target, n even > 10."""
    if n <= 10 or n % 2 or m < 2:
        return None
    a = _smallest_divisor_above_2(n)
    if a is None:
        return None
    lhs = Fraction(1 + alpha(m)) * Fraction(_imprimitive_order(n, a), 2) ** m
    rhs = _min_target(n, m)
    return lhs, rhs


def _lemma_primitive_bound(n: int, m: int) -> Sides:
    """(1+alpha(m)) 2.6^(nm) <= min target, with 2.6 = 13/5 exact."""
    if n <= 12 or m < 2:
        return None
    if n % 2 == 1:
        p = smallest_prime_factor(n)
        if is_prime(n) or p**3 > n:
            return None
    lhs = Fraction(1 + alpha(m)) * Fraction(13, 5) ** (n * m)
    rhs = _min_target(n, m)
    return lhs, rhs


def _lemma_power_of_two_vs_index(n: int) -> Sides:
    """2^(n-1) <= n! / (((n/p)!)^p p!) for odd non-prime n >= 15 (the
    inspection form; the m-power version follows by raising both sides)."""
    if n < 15 or n % 2 == 0 or is_prime(n):
        return None
    p = smallest_prime_factor(n)
    lhs = 2 ** (n - 1)
    rhs = Fraction(factorial(n), _imprimitive_order(n, p))
    return lhs, rhs


def _lemma_power_of_two_vs_primitive(n: int, m: int) -> Sides:
    """2^(nm-2) <= (n-1)! (n!)^(m-1) / 2.6^(nm)."""
    if n <= 12 or n % 2 == 0 or m < 2:
        return None
    lhs = Fraction(2) ** (n * m - 2) * Fraction(13, 5) ** (n * m)
    rhs = Fraction(factorial(n - 1) * factorial(n) ** (m - 1))
    return lhs, rhs


def _lemma_power_of_two_vs_diagonal(n: int, m: int) -> Sides:
    """2^(nm - m/2 - 2) <= (n-1)! (n!)^(m/2-1), squared to clear halves."""
    if n <= 12 or n % 2 == 0 or m < 2:
        return None
    lhs_sq = 2 ** (2 * n * m - m - 4)
    rhs_sq = factorial(n - 1) ** 2 * factorial(n) ** (m - 2)
    return lhs_sq, rhs_sq


@dataclass(frozen=True)
class Lemma:
    """One inequality lemma: its checker over the parameters named by
    ``arity`` ("n", "nm", or "nab" for n and divisors a <= b of n), the
    relation its sides must satisfy, and whether they are squares."""

    key: str
    aliases: tuple[str, ...]
    arity: str
    checker: Callable[..., Sides]
    description: str
    relation: Callable[[object, object], bool] = operator.le
    squared: bool = False


LEMMAS = (
    Lemma("min-member", ("l8", "10.1", "10.2"), "nm", _lemma_min_member,
          "family minimum: case formulas bounded by the socle-layer count"),
    Lemma("diagonal", ("l1", "11.2"), "nm", _lemma_diagonal,
          "diagonal-type bound (1+alpha(m))(n!/2)^(m/2) below the family minimum",
          squared=True),
    Lemma("divisor-monotone", ("11.1", "12.1"), "nab", _lemma_divisor_monotone,
          "((n/a)!)^a a! decreases as the divisor a grows", relation=operator.ge),
    Lemma("small-block", ("l2", "12.2"), "n", _lemma_small_block,
          "n ((n/a)!)^a a! <= 2 ((n/2)!)^2 for the smallest divisor a > 2"),
    Lemma("imprimitive-product", ("l7", "12.3"), "nm", _lemma_imprimitive_product,
          "imprimitive product-type counts below the family minimum"),
    Lemma("primitive-bound", ("11.4", "12.4"), "nm", _lemma_primitive_bound,
          "primitive product-type counts (via |M| < 2.6^n) below the family minimum"),
    Lemma("power-vs-index", ("sec13-1", "13.1"), "n", _lemma_power_of_two_vs_index,
          "2^(n-1) below the imprimitive index (inspection range 15 <= n < 99)"),
    Lemma("power-vs-primitive", ("sec13-2", "13.2"), "nm", _lemma_power_of_two_vs_primitive,
          "2^(nm-2) below (n-1)!(n!)^(m-1)/2.6^(nm)"),
    Lemma("power-vs-diagonal", ("sec13-3", "13.3"), "nm", _lemma_power_of_two_vs_diagonal,
          "2^(nm-m/2-2) below (n-1)!(n!)^(m/2-1)", squared=True),
)
_BY_NAME = {name: row for row in LEMMAS for name in (row.key, *row.aliases)}

# the m values a sweep takes when none are given
M_RANGE = range(2, 6)


def lemma_ids() -> list[str]:
    return sorted(row.key for row in LEMMAS)


def lemma_row(name: str) -> Lemma:
    """The table row of a lemma key or alias; KeyError for an unknown name."""
    if name not in _BY_NAME:
        raise KeyError(f"unknown lemma {name!r}; known: {', '.join(lemma_ids())}")
    return _BY_NAME[name]


def inequality_suite(
    lemma: str,
    n_range: Iterable[int],
    m_range: Iterable[int] = M_RANGE,
) -> InequalityReport:
    """Evaluate one inequality lemma over parameter ranges with exact
    arithmetic; out-of-hypothesis points are recorded as skipped, not
    silently clipped.  The report keeps the first failing case and the case
    of largest lhs/rhs (the first of equals)."""
    row = lemma_row(lemma)
    n_list, m_list = list(n_range), list(m_range)
    if row.arity == "n":
        grid = [{"n": n} for n in n_list]
    elif row.arity == "nm":
        grid = [{"n": n, "m": m} for n in n_list for m in m_list]
    else:
        grid = [
            {"n": n, "a": a, "b": b}
            for n in n_list
            for a, b in itertools.combinations_with_replacement(divisors(n), 2)
        ]
    cases, skipped = 0, []
    failing = tightest = best = None  # best: the largest lhs/rhs so far
    for params in grid:
        sides = row.checker(*params.values())
        if sides is None:
            skipped.append(params)
            continue
        cases += 1
        lhs, rhs = sides
        if failing is None and not row.relation(lhs, rhs):
            failing = (params, lhs, rhs)
        if rhs:
            ratio = Fraction(lhs) / rhs
            if best is None or ratio > best:
                best, tightest = ratio, (params, lhs, rhs)

    def render(params, lhs, rhs) -> InequalityCase:
        prefix = "sq:" if row.squared else ""
        return InequalityCase(params, f"{prefix}{lhs}", f"{prefix}{rhs}")

    return InequalityReport(
        lemma=row.key,
        description=row.description,
        cases_checked=cases,
        passed=failing is None and cases > 0,
        counterexample=render(*failing) if failing else None,
        tightest=render(*tightest) if tightest else None,
        skipped=skipped,
    )
