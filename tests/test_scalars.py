"""Exact scalar layer: parsing, square roots, quadratics, projective ratios."""

import math
import random
from fractions import Fraction

import pytest

from quadriline import PrimeField, QQ, Ratio
from quadriline.errors import FieldError, ParseError, PreconditionError
from quadriline.scalars import ratio_parse, solve_quadratic
from quadriline.scalars import _is_odd_prime

PSI_11 = 3825123056546413051
PSI_12 = 318665857834031151167461  # = 399165290221 * 798330580441
PSI_13 = 3317044064679887385961981


def trial_division(n):
    return n > 2 and n % 2 == 1 and all(n % d for d in range(3, math.isqrt(n) + 1, 2))


ODD_PRIMES_BELOW_300 = [n for n in range(300) if trial_division(n)]


class TestParsing:
    def test_rational_reduces_to_lowest_terms(self):
        assert QQ.parse("6/4") == Fraction(3, 2)

    def test_zero(self):
        assert QQ.parse("0") == 0

    def test_prime_field_residue(self):
        f11 = PrimeField(11)
        assert f11.parse("14") == f11.from_int(3)

    def test_negative_literals(self):
        assert QQ.parse("-7/2") == Fraction(-7, 2)
        assert PrimeField(5).parse("-1").value == 4

    def test_zero_denominator_rejected(self):
        with pytest.raises(ParseError):
            QQ.parse("3/0")

    def test_malformed_rejected(self):
        for bad in ("1.5", "x", "1/2/3", ""):
            with pytest.raises(ParseError):
                QQ.parse(bad)
        with pytest.raises(ParseError):
            PrimeField(7).parse("1/2")

    def test_bad_moduli_rejected(self):
        with pytest.raises(FieldError):
            PrimeField(9)
        with pytest.raises(FieldError):
            PrimeField(2)

    def test_rational_roundtrip(self):
        rng = random.Random(7)
        for _ in range(200):
            x = Fraction(rng.randint(-999, 999), rng.randint(1, 999))
            assert QQ.parse(str(x)) == x

    def test_prime_roundtrip(self):
        f13 = PrimeField(13)
        for v in range(13):
            x = f13.from_int(v)
            assert f13.parse(str(x)) == x


class TestFieldArithmetic:
    def test_fp_operators(self):
        f7 = PrimeField(7)
        a, b = f7.from_int(3), f7.from_int(5)
        assert a + b == f7.from_int(1)
        assert a - b == f7.from_int(5)
        assert a * b == f7.from_int(1)
        assert a / b == f7.from_int(2)  # 3 * 5^{-1} = 3 * 3 = 2
        assert -a == f7.from_int(4)
        assert a ** 2 == f7.from_int(2)
        assert 2 * a == f7.from_int(6)
        assert 1 - a == f7.from_int(5)
        assert not f7.zero()
        assert f7.one()

    def test_fp_division_by_zero(self):
        f5 = PrimeField(5)
        with pytest.raises(ZeroDivisionError):
            f5.one() / f5.zero()

    @pytest.mark.parametrize("field", [QQ, PrimeField(3), PrimeField(1009), PrimeField(10**9 + 7)])
    def test_quotient_is_division(self, field):
        for n, d in [(0, 1), (1, 2), (-7, 8), (10, -4), (2**70 + 1, 17), (-5, 1012)]:
            assert field.quotient(n, d) == field.from_int(n) / d
        for d in (0, field.char, -2 * field.char):
            with pytest.raises(ZeroDivisionError):
                field.quotient(1, d)

    def test_quotient_of_fractions(self):
        assert QQ.quotient(Fraction(3, 4), Fraction(-9, 2)) == Fraction(-1, 6)

    def test_mixed_moduli_rejected(self):
        with pytest.raises(FieldError):
            PrimeField(5).one() + PrimeField(7).one()

    def test_sqrt_rational(self):
        assert QQ.sqrt(Fraction(9, 4)) == Fraction(3, 2)
        assert QQ.sqrt(Fraction(-1)) is None
        assert QQ.sqrt(Fraction(52)) is None
        assert QQ.sqrt(Fraction(2)) is None

    def test_is_square_fp_matches_brute_force(self):
        # Every odd prime below 300, including p = 1 mod 8 (17, 97, 193, 257)
        # where the Tonelli-Shanks loop runs more than once.
        for p in ODD_PRIMES_BELOW_300:
            field = PrimeField(p)
            least_root = {}
            for v in range(p // 2, -1, -1):
                least_root[v * v % p] = v
            for x in field.elements():
                assert field.is_square(x) == (x.value in least_root)
                r = field.sqrt(x)
                if x.value in least_root:
                    assert r is not None and r.value == least_root[x.value], (p, x)
                else:
                    assert r is None, (p, x)

    def test_non_residue_is_stored_per_field(self):
        for p in ODD_PRIMES_BELOW_300:
            n = PrimeField(p).non_residue
            squares = {v * v % p for v in range(p)}
            assert 1 < n < p and n not in squares, p
            assert all(k in squares for k in range(1, n)), p


class TestPrimality:
    def test_agrees_with_trial_division(self):
        for n in range(100_000):
            assert _is_odd_prime(n) == trial_division(n), n

    @pytest.mark.parametrize("n", [561, 41041, 825265])
    def test_rejects_carmichael_numbers(self, n):
        assert not _is_odd_prime(n)

    @pytest.mark.parametrize("n", [3215031751, PSI_11, PSI_12], ids=["3215031751", "psi11", "psi12"])
    def test_rejects_strong_pseudoprimes(self, n):
        assert not _is_odd_prime(n)

    @pytest.mark.parametrize("p", [10**9 + 7, 2**61 - 1, 10**18 + 3])
    def test_accepts_large_primes(self, p):
        assert _is_odd_prime(p)
        assert PrimeField(p).p == p

    def test_modulus_at_psi13_rejected(self):
        with pytest.raises(FieldError, match="too large"):
            PrimeField(PSI_13)


class TestSolveQuadratic:
    def test_perfect_square(self):
        roots = solve_quadratic(QQ, Fraction(1), Fraction(0), Fraction(-4))
        assert sorted(roots) == [-2, 2]

    def test_negative_discriminant(self):
        assert solve_quadratic(QQ, Fraction(1), Fraction(0), Fraction(2)) == []

    def test_cfg1_at_infinity_quadratic_has_no_rational_roots(self):
        # Discriminant 4^2 - 4*(-3)*3 = 52 is not a rational square.
        assert QQ.sqrt(Fraction(52)) is None
        assert solve_quadratic(QQ, Fraction(-3), Fraction(4), Fraction(3)) == []

    def test_double_root_flagged(self):
        roots = solve_quadratic(QQ, Fraction(1), Fraction(-2), Fraction(1))
        assert roots == [1]

    def test_linear_case(self):
        roots = solve_quadratic(QQ, Fraction(0), Fraction(2), Fraction(-5))
        assert roots == [Fraction(5, 2)]

    def test_all_zero_rejected(self):
        with pytest.raises(PreconditionError):
            solve_quadratic(QQ, Fraction(0), Fraction(0), Fraction(0))

    def test_roots_satisfy_equation_exactly(self):
        rng = random.Random(11)
        for _ in range(100):
            a = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
            b = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
            c = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
            if not a and not b and not c:
                continue
            for x in solve_quadratic(QQ, a, b, c):
                assert a * x * x + b * x + c == 0

    def test_fp_root_order(self):
        # (-b + r) / 2a comes first, with r the least square root.
        rng = random.Random(17)
        for p in (7, 17, 97, 257):
            field = PrimeField(p)
            for _ in range(60):
                a, b, c = (field.from_int(rng.randrange(p)) for _ in range(3))
                if not a:
                    continue
                disc = (b * b - 4 * a * c).value
                r = min((v for v in range(1, p // 2 + 1) if v * v % p == disc), default=None)
                if r is None:
                    continue
                roots = solve_quadratic(field, a, b, c)
                assert roots == [(-b + r) / (2 * a), (-b - r) / (2 * a)]

    def test_fp_agrees_with_brute_force(self):
        rng = random.Random(13)
        for p in (5, 7, 11, 13):
            field = PrimeField(p)
            for _ in range(60):
                a, b, c = (field.from_int(rng.randrange(p)) for _ in range(3))
                if not a and not b and not c:
                    continue
                expected = {
                    v for v in range(p) if (a.value * v * v + b.value * v + c.value) % p == 0
                }
                got = {r.value for r in solve_quadratic(field, a, b, c)}
                assert got == expected


class TestRatio:
    def test_canonical_affine(self):
        r = Ratio.of(Fraction(6), Fraction(4))
        assert (r.num, r.den) == (Fraction(3, 2), Fraction(1))

    def test_canonical_infinite(self):
        r = Ratio.of(Fraction(-5), Fraction(0))
        assert (r.num, r.den) == (1, 0)
        assert r.is_infinite

    def test_cross_multiplication_equality(self):
        assert Ratio.of(Fraction(2), Fraction(4)) == Ratio.of(Fraction(-1), Fraction(-2))
        assert Ratio.of(Fraction(1), Fraction(0)) == Ratio.of(Fraction(7), Fraction(0))

    def test_zero_zero_rejected(self):
        with pytest.raises(ParseError):
            Ratio.of(Fraction(0), Fraction(0))

    def test_parse_and_format(self):
        assert ratio_parse("1/0", QQ).is_infinite
        assert ratio_parse("-1/2", QQ) == Ratio.of(Fraction(-1), Fraction(2))
        assert ratio_parse("3/2", QQ) == Ratio.of(Fraction(3), Fraction(2))
        assert str(ratio_parse("3/2", QQ)) == "3/2"
        assert str(ratio_parse("1/0", QQ)) == "1/0"
        f11 = PrimeField(11)
        assert ratio_parse("7/2", f11) == Ratio.of(f11.from_int(7), f11.from_int(2))
        with pytest.raises(ParseError):
            ratio_parse("0/0", QQ)
