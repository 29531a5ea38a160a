"""Exact scalar layer: parsing, square roots, quadratics, projective ratios.

The field arithmetic tests exercise ``membership.FpElement`` and the reference
``quotient``: the field elements the tests compare the library's ints against."""

import math
import random
from fractions import Fraction

import pytest

from quadriline import PrimeField, QQ, Ratio
from quadriline.errors import FieldError, ParseError, PreconditionError
from quadriline.rectangles import ALL_RATIOS, projective_quadratic_roots
from quadriline.scalars import ratio_parse, ratio_text
from quadriline.scalars import _is_odd_prime
from membership import from_int, one_of, parse, quotient, ratio_of, zero_of

PSI_11 = 3825123056546413051
PSI_12 = 318665857834031151167461  # = 399165290221 * 798330580441
PSI_13 = 3317044064679887385961981


def trial_division(n):
    return n > 2 and n % 2 == 1 and all(n % d for d in range(3, math.isqrt(n) + 1, 2))


BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# psi_k (OEIS A014233), the least strong pseudoprime to the first k prime bases, by its factors.
PSI_FACTORS = [
    (23, 89),
    (829, 1657),
    (2251, 11251),
    (151, 751, 28351),
    (6763, 10627, 29947),
    (1303, 16927, 157543),
    (10670053, 32010157),
    (10670053, 32010157),
    (149491, 747451, 34233211),
    (149491, 747451, 34233211),
    (149491, 747451, 34233211),
    (399165290221, 798330580441),
    (1287836182261, 2575672364521),
]


def strong_probable_prime(n, a):
    """Whether the odd n > a passes the Miller-Rabin test to the base a."""
    e = ((n - 1) & (1 - n)).bit_length() - 1
    x = pow(a, (n - 1) >> e, n)
    if x in (1, n - 1):
        return True
    for _ in range(e - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def thirteen_bases(n):
    """Miller-Rabin to all 13 prime bases 2..41, after trial division by them."""
    if n < 3 or n % 2 == 0:
        return False
    if any(n % a == 0 for a in BASES):
        return n in BASES
    return all(strong_probable_prime(n, a) for a in BASES)


ODD_PRIMES_BELOW_300 = [n for n in range(300) if trial_division(n)]


class TestParsing:
    def test_rational_reduces_to_lowest_terms(self):
        assert QQ.parse("6/4") == (3, 2)

    def test_zero(self):
        assert QQ.parse("0") == QQ.parse("-0/7") == (0, 1)

    def test_prime_field_residue(self):
        f11 = PrimeField(11)
        assert f11.parse("14") == (3, 1)

    def test_negative_literals(self):
        assert QQ.parse("-7/2") == (-7, 2)
        assert PrimeField(5).parse("-1") == (4, 1)

    def test_zero_denominator_rejected(self):
        with pytest.raises(ParseError):
            QQ.parse("3/0")

    def test_malformed_rejected(self):
        for bad in ("1.5", "x", "1/2/3", ""):
            with pytest.raises(ParseError):
                QQ.parse(bad)
        with pytest.raises(ParseError):
            PrimeField(7).parse("1/2")

    # Arabic-Indic three, fullwidth 3/2, a superscript, an underscore, doubled or
    # inner signs, inner spaces, and other number syntaxes: none is a literal.
    NOT_LITERALS = ["\u0663", "\uff13/\uff12", "1/\uff12", "\u00b3", "1_000", "1/2_0", "++1", "+-1",
                    "1/-2", "1/+2", "- 1", "1 /2", "0x10", "1e3", "/2", "1/", "", " "]

    @pytest.mark.parametrize("text", NOT_LITERALS)
    def test_literal_digits_are_ascii(self, text):
        with pytest.raises(ParseError, match="^not a rational literal: "):
            QQ.parse(text)
        with pytest.raises(ParseError, match="^not an integer literal: "):
            PrimeField(7).parse(text)
        if text not in ("1/-2", "1/+2"):  # a ratio's denominator may carry a sign
            with pytest.raises(ParseError, match="^not a ratio literal: "):
                ratio_parse(text, QQ)

    def test_literal_signs_zeros_and_spaces(self):
        assert [QQ.parse(t) for t in ("+3", "007", "-0/5", " 2/4 ", "-0012/0008\n")] == [
            (3, 1), (7, 1), (0, 1), (1, 2), (-3, 2)
        ]
        f13 = PrimeField(13)
        assert [f13.parse(t) for t in ("-12", "+0007", " -0 ")] == [(1, 1), (7, 1), (0, 1)]
        assert ratio_parse(" +3/-6 ", QQ) == ratio_parse("-1/2", QQ)
        assert str(ratio_parse("-0/5", QQ)) == "0" and str(ratio_parse("+0007", f13)) == "7"
        with pytest.raises(ParseError, match="^zero denominator in literal '1/0'$"):
            QQ.parse(" 1/0 ")

    def test_bad_moduli_rejected(self):
        with pytest.raises(FieldError):
            PrimeField(9)
        with pytest.raises(FieldError):
            PrimeField(2)

    def test_rational_roundtrip(self):
        rng = random.Random(7)
        for _ in range(200):
            x = Fraction(rng.randint(-999, 999), rng.randint(1, 999))
            assert QQ.parse(str(x)) == (x.numerator, x.denominator)
            assert parse(QQ, str(x)) == x

    def test_prime_roundtrip(self):
        f13 = PrimeField(13)
        for v in range(13):
            x = from_int(f13, v)
            assert f13.parse(str(x)) == (v, 1)
            assert parse(f13, str(x)) == x


class TestFieldArithmetic:
    def test_fp_operators(self):
        f7 = PrimeField(7)
        a, b = from_int(f7, 3), from_int(f7, 5)
        assert a + b == from_int(f7, 1)
        assert a - b == from_int(f7, 5)
        assert a * b == from_int(f7, 1)
        assert a / b == from_int(f7, 2)  # 3 * 5^{-1} = 3 * 3 = 2
        assert -a == from_int(f7, 4)
        assert a ** 2 == from_int(f7, 2)
        assert 2 * a == from_int(f7, 6)
        assert 1 - a == from_int(f7, 5)
        assert not zero_of(f7)
        assert one_of(f7)

    def test_fp_division_by_zero(self):
        f5 = PrimeField(5)
        with pytest.raises(ZeroDivisionError):
            one_of(f5) / zero_of(f5)

    @pytest.mark.parametrize("field", [QQ, PrimeField(3), PrimeField(1009), PrimeField(10**9 + 7)])
    def test_quotient_is_division(self, field):
        for n, d in [(0, 1), (1, 2), (-7, 8), (10, -4), (2**70 + 1, 17), (-5, 1012)]:
            assert quotient(field, n, d) == from_int(field, n) / d
        for d in (0, field.char, -2 * field.char):
            with pytest.raises(ZeroDivisionError):
                quotient(field, 1, d)

    def test_quotient_of_fractions(self):
        assert quotient(QQ, Fraction(3, 4), Fraction(-9, 2)) == Fraction(-1, 6)

    def test_mixed_moduli_rejected(self):
        with pytest.raises(FieldError):
            one_of(PrimeField(5)) + one_of(PrimeField(7))

    def test_sqrt_rational(self):
        assert QQ.sqrt(9) == 3 and QQ.sqrt(0) == 0
        assert QQ.sqrt(10**40) == 10**20
        assert QQ.sqrt(-1) is None
        assert QQ.sqrt(52) is None
        assert QQ.sqrt(2) is None

    def test_is_square_fp_matches_brute_force(self):
        # Every odd prime below 300, including p = 1 mod 8 (17, 97, 193, 257)
        # where the Tonelli-Shanks loop runs more than once.  sqrt takes any
        # int and returns the least root, or None for a non-square.
        for p in ODD_PRIMES_BELOW_300:
            field = PrimeField(p)
            least_root = {}
            for v in range(p // 2, -1, -1):
                least_root[v * v % p] = v
            for x in range(p):
                assert field.sqrt(x) == least_root.get(x), (p, x)
                assert field.sqrt(x - 3 * p) == field.sqrt(x + p) == least_root.get(x), (p, x)

    def test_non_residue_is_stored_per_field(self):
        for p in ODD_PRIMES_BELOW_300:
            n = PrimeField(p).non_residue
            squares = {v * v % p for v in range(p)}
            assert 1 < n < p and n not in squares, p
            assert all(k in squares for k in range(1, n)), p


class TestPrimality:
    def test_agrees_with_trial_division(self):
        for n in range(200_000):
            assert _is_odd_prime(n) == trial_division(n), n

    @pytest.mark.parametrize("k", range(1, 13))
    def test_rejects_psi_k(self, k):
        """psi_k is composite and fools the first k bases, so the test runs more of them.
        It passes base k + 1 too exactly when it is also psi_{k+1}."""
        psi, following = (math.prod(f) for f in PSI_FACTORS[k - 1 : k + 1])
        assert all(strong_probable_prime(psi, a) for a in BASES[:k])
        assert strong_probable_prime(psi, BASES[k]) == (psi == following)
        assert not _is_odd_prime(psi)

    def test_agrees_with_thirteen_bases(self):
        """On random odd n below psi_13, and on n next to each psi_k, where the number
        of bases changes."""
        rng = random.Random(24)
        draws = [rng.randrange(3, PSI_13, 2) for _ in range(3000)]
        draws += [rng.randrange(3, 10 ** rng.randint(4, 24), 2) for _ in range(3000)]
        near = [math.prod(f) + d for f in PSI_FACTORS[:12] for d in range(-40, 41)]
        for n in draws + near:
            assert _is_odd_prime(n) == thirteen_bases(n), n

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
        assert math.prod(PSI_FACTORS[12]) == PSI_13
        with pytest.raises(FieldError, match="too large"):
            PrimeField(PSI_13)


def roots_of(field, c0, c1, c2):
    """rectangles.projective_quadratic_roots of the int form (c0, c1, c2)."""
    return projective_quadratic_roots(field, (c0, c1, c2))


def q_ratio(n, d=1):
    return ratio_of(Fraction(n, d), Fraction(1))


class TestSolveQuadratic:
    """The projective roots of an int form, read through the field's int sqrt."""

    def test_perfect_square(self):
        # (-c1 + r : 2 c0) first, with r the nonnegative root of the discriminant.
        assert roots_of(QQ, 1, 0, -4) == [q_ratio(2), q_ratio(-2)]
        assert roots_of(QQ, 2, 1, -1) == [q_ratio(1, 2), q_ratio(-1)]

    def test_negative_discriminant(self):
        assert roots_of(QQ, 1, 0, 2) == []

    def test_cfg1_at_infinity_quadratic_has_no_rational_roots(self):
        # Discriminant 4^2 - 4*(-3)*3 = 52 is not a rational square.
        assert QQ.sqrt(52) is None
        assert roots_of(QQ, -3, 4, 3) == []

    def test_double_root_flagged(self):
        assert roots_of(QQ, 1, -2, 1) == [q_ratio(1)]
        f5 = PrimeField(5)
        assert roots_of(f5, 1, 4, 4) == [Ratio(f5, 3, 1)]

    def test_linear_case(self):
        # c0 = 0: the root (1 : 0) first, then -c2 : c1.
        assert roots_of(QQ, 0, 2, -5) == [ratio_of(Fraction(1), Fraction(0)), q_ratio(5, 2)]
        assert roots_of(QQ, 0, 0, 3) == [ratio_of(Fraction(1), Fraction(0))]

    def test_all_zero_rejected(self):
        """The zero form has no finite root list: every ratio is a root."""
        assert roots_of(QQ, 0, 0, 0) is ALL_RATIOS
        assert roots_of(PrimeField(7), 7, -14, 21) is ALL_RATIOS

    def test_roots_satisfy_equation_exactly(self):
        rng = random.Random(11)
        for _ in range(100):
            c0, c1, c2 = (rng.randint(-12, 12) for _ in range(3))
            if not c0 and not c1 and not c2:
                continue
            for r in roots_of(QQ, c0, c1, c2):
                assert c0 * r.s * r.s + c1 * r.s * r.t + c2 * r.t * r.t == 0

    def test_fp_root_order(self):
        # (-c1 + r) / 2 c0 comes first, with r the least square root.
        rng = random.Random(17)
        for p in (7, 17, 97, 257):
            field = PrimeField(p)
            for _ in range(60):
                c0, c1, c2 = (rng.randrange(p) for _ in range(3))
                if not c0:
                    continue
                disc = (c1 * c1 - 4 * c0 * c2) % p
                r = min((v for v in range(1, p // 2 + 1) if v * v % p == disc), default=None)
                if r is None:
                    continue
                a, b = from_int(field, c0), from_int(field, c1)
                want = [(-b + r) / (2 * a), (-b - r) / (2 * a)]
                assert roots_of(field, c0, c1, c2) == [ratio_of(x, one_of(field)) for x in want]

    def test_fp_agrees_with_brute_force(self):
        """Every projective root, once, of forms whose ints are not reduced mod p."""
        rng = random.Random(13)
        for p in (5, 7, 11, 13):
            field = PrimeField(p)
            for _ in range(60):
                c0, c1, c2 = (rng.randrange(-2 * p, 2 * p) for _ in range(3))
                if not (c0 % p or c1 % p or c2 % p):
                    continue
                expected = {
                    Ratio(field, v, 1)
                    for v in range(p)
                    if (c0 * v * v + c1 * v + c2) % p == 0
                }
                if not c0 % p:
                    expected.add(Ratio(field, 1, 0))
                got = roots_of(field, c0, c1, c2)
                assert len(got) == len(set(got)) and set(got) == expected


class TestRatio:
    def test_canonical_affine(self):
        r = Ratio(QQ, 6, 4)
        assert (r.s, r.t) == (3, 2) and r == ratio_of(Fraction(6), Fraction(4))
        assert repr(r) == "Ratio(RationalField(), 3, 2)"
        assert repr(Ratio(PrimeField(7), 3, 2)) == "Ratio(PrimeField(7), 5, 1)"

    def test_canonical_infinite(self):
        r = Ratio(QQ, -5, 0)
        assert (r.s, r.t) == (1, 0) and r == ratio_of(Fraction(-5), Fraction(0))

    def test_cross_multiplication_equality(self):
        assert Ratio(QQ, 2, 4) == Ratio(QQ, -1, -2)
        assert Ratio(QQ, 1, 0) == Ratio(QQ, 7, 0)
        assert ratio_of(Fraction(2), Fraction(4)) == ratio_of(Fraction(-1), Fraction(-2))

    def test_zero_zero_rejected(self):
        with pytest.raises(ParseError):
            Ratio(QQ, 0, 0)
        with pytest.raises(ParseError):
            ratio_of(Fraction(0), Fraction(0))

    @pytest.mark.parametrize("num, den", [(1, 2), (3, 0), (Fraction(1), 2), (2, Fraction(1)), (True, 1)])
    def test_ints_are_rejected(self, num, den):
        """int / int is a float: ratio_of(1, 2) would be Ratio(0.5, 1.0) and print 0.5."""
        with pytest.raises(TypeError):
            ratio_of(num, den)

    @pytest.mark.parametrize("field", [QQ, PrimeField(7)], ids=["QQ", "F7"])
    def test_from_ints_is_of_on_field_elements(self, field):
        for s, t in [(1, 2), (-6, 4), (3, 0), (-5, 0), (0, 9), (9, 7), (14, 3), (3, 14)]:
            assert Ratio(field, s, t) == ratio_of(from_int(field, s), from_int(field, t))
        assert str(Ratio(QQ, 1, 2)) == "1/2" and str(Ratio(QQ, 3, 0)) == "1/0"
        for s, t in [(0, 0)] + ([(7, 14)] if field.char else []):
            with pytest.raises(ParseError):
                Ratio(field, s, t)

    def test_constructor_keeps_the_canonical_ints(self):
        """Ratio(field, s, t) always canonicalizes, and its str is the reduced quotient."""
        f7 = PrimeField(7)
        cases = [(QQ, 6, -4, -3, 2, "-3/2"), (QQ, -8, -4, 2, 1, "2"), (QQ, 0, -5, 0, 1, "0"),
                 (QQ, -3, 0, 1, 0, "1/0"), (f7, 3, 2, 5, 1, "5"), (f7, -1, 1, 6, 1, "6"),
                 (f7, 9, 14, 1, 0, "1/0")]
        for field, s, t, s0, t0, text in cases:
            r = Ratio(field, s, t)
            assert (r.s, r.t, str(r)) == (s0, t0, text)

    @pytest.mark.parametrize(
        "p, s, t", [(0, 10**4400, 3), (0, 1, -(10**4400)), (0, 10**4400, 1)],
        ids=["numerator", "denominator", "integer"],
    )
    def test_text_past_the_digit_limit(self, p, s, t):
        """A value past the int-to-str digit limit raises the report error, not ValueError."""
        with pytest.raises(PreconditionError, match="^a report value past 4300 digits cannot be written$"):
            ratio_text(p, s, t)

    def test_parse_and_format(self):
        assert (ratio_parse("1/0", QQ).s, ratio_parse("1/0", QQ).t) == (1, 0)
        assert ratio_parse("-1/2", QQ) == ratio_of(Fraction(-1), Fraction(2))
        assert ratio_parse("3/2", QQ) == ratio_of(Fraction(3), Fraction(2))
        assert str(ratio_parse("3/2", QQ)) == "3/2"
        assert str(ratio_parse("1/0", QQ)) == "1/0"
        f11 = PrimeField(11)
        assert ratio_parse("7/2", f11) == ratio_of(from_int(f11, 7), from_int(f11, 2))
        with pytest.raises(ParseError):
            ratio_parse("0/0", QQ)
