"""Field arithmetic: examples checked against independent oracles, plus
axiom property tests (exhaustive on GF(2)/GF(4), randomized elsewhere)."""

import functools
import itertools
import math

import pytest
from hypothesis import given, settings, strategies as st

import wallforms as wf
from wallforms.errors import (
    CapExceeded,
    DescriptorMismatch,
    DivisionByZero,
    NotASquare,
    ParseError,
)
from wallforms.fields import Galois2Field


# ---------------------------------------------------------------------------
# independent oracles
# ---------------------------------------------------------------------------

def _poly_mul_mod_oracle(a, b, modulus, k):
    """Carry-less multiply then long-divide; written independently of the
    library's reduction (schoolbook on bit lists)."""
    prod = 0
    for i in range(k):
        if b >> i & 1:
            prod ^= a << i
    md = modulus.bit_length() - 1
    for i in range(prod.bit_length() - 1, md - 1, -1):
        if prod >> i & 1:
            prod ^= modulus << (i - md)
    return prod


def _poly_gcd_oracle(a, b):
    while b:
        # remainder by repeated top-bit cancellation
        while a and a.bit_length() >= b.bit_length():
            a ^= b << (a.bit_length() - b.bit_length())
        a, b = b, a
    return a


def test_gf4_multiplication_table_matches_modulus_oracle(f4):
    for a in range(4):
        for b in range(4):
            expected = _poly_mul_mod_oracle(a, b, 0b111, 2)
            assert f4.mul(a, b) == expected


def test_gf4_generator_example(f4):
    w = f4.parse("w")
    assert w * f4.parse("w+1") == f4.one


def test_add_zero_identity(f4, f7, ft):
    for field, lit in [(f4, "w+1"), (f7, "5"), (ft, "(t^2+1)/t")]:
        a = field.parse(lit)
        assert a + field.zero == a


def test_ratfunc_normalization_against_gcd_oracle(ft):
    # (t^2 + t) / t reduces by the gcd t
    num, den = 0b110, 0b10
    g = _poly_gcd_oracle(num, den)
    assert g == 0b10
    a = ft.fraction(num, den)
    assert a == ft.parse("t+1")
    assert a.payload == (0b11, 1)


def test_ratfunc_random_fractions_are_reduced(ft):
    for num in range(1, 40):
        for den in range(1, 40):
            n, d = ft.fraction(num, den).payload
            assert _poly_gcd_oracle(n, d) == 1


def test_descriptor_mismatch(f4, f7):
    with pytest.raises(DescriptorMismatch):
        f4.one + f7.one


def test_division_by_zero(f7, ft):
    with pytest.raises(DivisionByZero):
        f7.one / f7.zero
    with pytest.raises(DivisionByZero):
        ft.one / ft.zero


# ---------------------------------------------------------------------------
# square classes
# ---------------------------------------------------------------------------

def test_galois2_everything_is_square(f4, f8):
    for field in (f4, f8):
        for a in field.elements():
            assert field.is_square(a)
            r = field.sqrt(a)
            assert r * r == a


def test_gf8_sqrt_is_fourth_power(f8):
    for a in f8.elements():
        assert f8.sqrt(a) == a ** 4


def test_gf7_squares_by_euler_criterion(f7):
    # Euler: a is a square iff a^3 = 1 (mod 7), for a != 0
    for a in range(1, 7):
        assert f7.is_square(f7.element(a)) == (pow(a, 3, 7) == 1)
    assert not f7.is_square(f7.parse("3"))
    assert f7.is_square(f7.zero)


def test_gf7_sqrt_of_two(f7):
    r = f7.sqrt(f7.parse("2"))
    assert r.payload in (3, 4)
    assert r * r == f7.parse("2")


def test_gf7_sqrt_raises_for_nonsquare(f7):
    with pytest.raises(NotASquare):
        f7.sqrt(f7.parse("3"))


def test_ratfunc_squares(ft):
    assert not ft.is_square(ft.parse("t"))
    assert ft.is_square(ft.parse("t^2+1"))
    assert ft.sqrt(ft.parse("t^2+1")) == ft.parse("t+1")
    assert ft.is_square(ft.parse("(t^2)/(t^4+t^2+1)"))
    assert not ft.is_square(ft.parse("(t^3)/(t^2+1)"))


# ---------------------------------------------------------------------------
# field axioms: exhaustive on the tiny fields
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("literal", ["gf(2)", "gf(4;x^2+x+1)"])
def test_axioms_exhaustive(literal):
    field = wf.parse_field(literal)
    elems = list(field.elements())
    for a, b in itertools.product(elems, repeat=2):
        assert a + b == b + a
        assert a * b == b * a
    for a, b, c in itertools.product(elems, repeat=3):
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
    for a in elems:
        if a:
            assert a * (field.one / a) == field.one


# ---------------------------------------------------------------------------
# field axioms: randomized on the larger fields
# ---------------------------------------------------------------------------

F7 = wf.parse_field("gf(7)")
F8 = wf.parse_field("gf(8)")
FT = wf.parse_field("gf2(t)")

gf7_elements = st.integers(0, 6).map(F7.element)
gf8_elements = st.integers(0, 7).map(F8.element)
ratfunc_elements = st.builds(
    FT.fraction, st.integers(0, 255), st.integers(1, 255)
)


@settings(max_examples=200)
@given(gf7_elements, gf7_elements, gf7_elements)
def test_gf7_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@settings(max_examples=200)
@given(ratfunc_elements, ratfunc_elements, ratfunc_elements)
def test_ratfunc_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@settings(max_examples=100)
@given(ratfunc_elements)
def test_ratfunc_division_roundtrip(a):
    if a:
        assert (FT.one / a) * a == FT.one


@settings(max_examples=100)
@given(gf8_elements, gf8_elements)
def test_gf8_frobenius_additive(a, b):
    assert (a + b) ** 2 == a ** 2 + b ** 2


@settings(max_examples=100)
@given(ratfunc_elements)
def test_ratfunc_square_roundtrip(a):
    sq = a * a
    assert FT.is_square(sq)
    assert FT.sqrt(sq) * FT.sqrt(sq) == sq


# ---------------------------------------------------------------------------
# literals
# ---------------------------------------------------------------------------

def test_field_literal_roundtrip():
    for lit in ["gf(2)", "gf(7)", "gf(97)", "gf(4;x^2+x+1)", "gf(8;x^3+x+1)", "gf2(t)"]:
        field = wf.parse_field(lit)
        assert wf.parse_field(field.literal()) == field


def test_field_literal_defaults():
    assert wf.parse_field("gf(8)") == wf.parse_field("gf(8;x^3+x+1)")


def test_bad_field_literals():
    # ASCII digits only: int() alone would read the last three as gf(7), gf(7), gf(4)
    for lit in ["gf(6)", "gf(99)", "qq", "gf(4;x^2+1)", "gf(-3)",
                "gf(0_7)", "gf(\u0667)", "gf(4;x^0_2+x+1)"]:
        with pytest.raises((ParseError, CapExceeded)):
            wf.parse_field(lit)


def test_element_literal_roundtrip(f4, f7, ft):
    for field, lits in [
        (f4, ["0", "1", "w", "w+1"]),
        (f7, ["0", "3", "6"]),
        (ft, ["0", "1", "t", "t+1", "(t^2+1)/t", "(t^2+t)/(t^3+1)"]),
    ]:
        for lit in lits:
            e = field.parse(lit)
            assert field.parse(str(e)) == e


def test_prime_field_caps():
    with pytest.raises((ParseError, CapExceeded)):
        wf.PrimeField(101)
    with pytest.raises(ParseError):
        wf.PrimeField(9)


def _refusal(n):
    """The class PrimeField(n) raises, or None if it builds the field."""
    try:
        wf.PrimeField(n)
    except (ParseError, CapExceeded) as exc:
        return type(exc)
    return None


def test_sizes_past_the_exact_primality_range_are_capped():
    """From 3 317 044 064 679 887 385 961 981 up, where the bases 2 .. 41
    stop deciding primality, every size is CapExceeded, composites too."""
    bound = 3_317_044_064_679_887_385_961_981
    assert _refusal(bound - 1) is ParseError  # even
    for n in (bound, bound + 2, 10 ** 30, 3 ** 200, 2 ** 11213 - 1):
        assert _refusal(n) is CapExceeded, n


def _odd_prime_by_trial_division(n):
    return n >= 3 and n % 2 == 1 and all(n % d for d in range(3, math.isqrt(n) + 1, 2))


def test_prime_field_refusals_match_trial_division():
    """Miller-Rabin decides what trial division did: composites, 0, 1,
    negatives and evens are ParseErrors, primes above the cap CapExceeded."""
    for n in range(-5, 10 ** 5 + 1):
        expected = (ParseError if not _odd_prime_by_trial_division(n)
                    else CapExceeded if n > 97 else None)
        assert _refusal(n) is expected, n
    # strong pseudoprimes to the first few bases; the last to every base up to 37
    for n in (2047, 3215031751, 3825123056546413051, 318665857834031151167461):
        assert _refusal(n) is ParseError, n
    for p in (10 ** 17 + 3, 1000000000039, 2 ** 61 - 1):
        assert _refusal(p) is CapExceeded, p


def test_ratfunc_degree_cap(ft):
    with pytest.raises(CapExceeded):
        ft.fraction(1 << 70, 1)


def test_gf32_raw_arithmetic_axioms():
    # k = 5 exceeds the table threshold, exercising the carry-less path
    field = wf.parse_field("gf(32)")
    elems = [field.element(p) for p in (0, 1, 7, 19, 30, 31)]
    for a in elems:
        for b in elems:
            assert a + b == b + a
            assert a * b == b * a
            if b:
                assert (a / b) * b == a
    for a in elems:
        for b in elems:
            for c in elems:
                assert (a * b) * c == a * (b * c)
                assert a * (b + c) == a * b + a * c
    for a in elems:
        r = field.sqrt(a)
        assert r * r == a


# integers in literals are ASCII digits (int() alone would read "1_0" as 10
# and an Arabic-Indic three as 3), and the generator of GF(2^k) is w only
@pytest.mark.parametrize("field_literal, literal", [
    ("gf(7)", "1_0"), ("gf(7)", "\u0663"), ("gf2(t)", "t^1_0"), ("gf2(t)", "t^\u0663"),
    ("gf(4;x^2+x+1)", "w+x"), ("gf(4;x^2+x+1)", "x"), ("gf(2)", "x"),
])
def test_literals_outside_the_grammar_are_parse_errors(field_literal, literal):
    with pytest.raises(ParseError):
        wf.parse_field(field_literal).parse(literal)


def test_signs_and_whitespace_around_digits_still_parse(f7, ft):
    assert f7.parse(" -3 ") == f7.parse("4") == f7.parse("+4")
    assert ft.parse("t^03") == ft.parse("t^3")
    assert wf.parse_field(" gf( 7 ) ") == f7


def test_ratfunc_parse_rejects_double_slash(ft):
    with pytest.raises(ParseError):
        ft.parse("t/t/t")
    with pytest.raises(ParseError):
        ft.parse("t^-2")


# ---------------------------------------------------------------------------
# polynomial literals: the exponent bound
# ---------------------------------------------------------------------------

def test_oversized_exponents_are_parse_errors(f4, ft):
    big = wf.fields.MAX_LITERAL_EXPONENT + 1
    for field, var in ((ft, "t"), (f4, "w")):
        for lit in (f"{var}^{big}", f"{var}^99999999999", f"1+{var}^{big}"):
            with pytest.raises(ParseError):
                field.parse(lit)
    with pytest.raises(ParseError):
        ft.parse(f"1/t^{big}")
    with pytest.raises(ParseError):
        wf.parse_field("gf(4;x^99999999999)")


def test_exponents_up_to_the_bound_still_parse(f4, ft):
    top = wf.fields.MAX_LITERAL_EXPONENT
    # far above the degree cap, and reduced to t before the cap is checked
    assert ft.parse("t^100/t^99") == ft.t
    assert ft.parse(f"t^{top}/t^{top - 1}") == ft.t
    # w^3 = 1 in GF(4)
    assert f4.parse(f"w^{top - 1}") == f4.one


# ---------------------------------------------------------------------------
# interned fields and their literal tables
# ---------------------------------------------------------------------------

def test_parse_field_hands_out_one_object_per_field():
    assert wf.parse_field("gf(7)") is wf.parse_field(" GF(7) ") is wf.parse_field("gf(07)")
    assert wf.parse_field("gf(4)") is wf.parse_field("gf(4;x^2+x+1)")
    assert wf.parse_field("gf(2)") is wf.parse_field("gf(2;x+1)")
    assert wf.parse_field("gf2(t)") is wf.parse_field("GF2(T)")
    # same order, other modulus: another field
    assert wf.parse_field("gf(8)") is not wf.parse_field("gf(8;x^3+x^2+1)")
    assert wf.parse_field("gf(8)") != wf.parse_field("gf(8;x^3+x^2+1)")
    # the constructors still build new, equal fields
    assert wf.PrimeField(7) is not wf.parse_field("gf(7)")
    assert wf.PrimeField(7) == wf.parse_field("gf(7)")


def test_bad_field_literals_raise_on_every_call():
    before = wf.fields._interned.cache_info().currsize
    for _ in range(2):
        for lit in ["gf(9)", "gf(101)", "gf(512)", "gf(4;x^2+1)", "gf(8;x^2+x+1)"]:
            with pytest.raises((ParseError, CapExceeded)):
                wf.parse_field(lit)
    assert wf.fields._interned.cache_info().currsize == before


FINITE_LITERALS = ["gf(2)", "gf(4;x^2+x+1)", "gf(8)", "gf(16)", "gf(256)", "gf(7)", "gf(97)"]


@pytest.mark.parametrize("literal", FINITE_LITERALS)
def test_canonical_literals_name_the_interned_elements(literal):
    field = wf.parse_field(literal)
    for p in field.payloads():
        text = field.format(p)
        assert text == str(field.wrap(p)) == field._format(p)
        assert field.parse(text) is field.wrap(p)


def _literal_texts(field):
    """Canonical literals, spellings of them the full parser also reads
    (padding, leading zeros, reordered terms, signs) and arbitrary text."""
    canonical = st.sampled_from(field._literals)
    spelled = st.tuples(canonical, st.sampled_from(["", " ", "0", "+", "-"]),
                        st.sampled_from(["", " ", "+0", "+1", "_0"])).map(
        lambda t: t[1] + "+".join(reversed(t[0].split("+"))) + t[2])
    return st.one_of(canonical, spelled, st.text(alphabet="0123456789wxt+-^ _()/", max_size=8),
                     st.integers(-300, 300))


@pytest.mark.parametrize("literal", FINITE_LITERALS)
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_literal_table_agrees_with_the_full_parser(literal, data):
    field = wf.parse_field(literal)
    text = data.draw(_literal_texts(field))

    def outcome(parse):
        try:
            return parse(text)
        except Exception as exc:  # the class is what must agree
            return type(exc)

    assert outcome(field.parse) is outcome(field._parse)


# ---------------------------------------------------------------------------
# GF(2)(t) payload ops against a reference that reduces every result
# ---------------------------------------------------------------------------

def _clmul_ref(a, b):
    out = 0
    for i in range(b.bit_length()):
        if b >> i & 1:
            out ^= a << i
    return out


def _divmod_ref(a, b):
    """Schoolbook long division, one quotient bit per degree from the top."""
    if b == 0:
        raise DivisionByZero("reference division by zero")
    db = b.bit_length() - 1
    q = 0
    for i in range(a.bit_length() - 1, db - 1, -1):
        if a >> i & 1:
            q |= 1 << (i - db)
            a ^= b << (i - db)
    return q, a


def _reduce_ref(num, den):
    """The reduced fraction num/den by a plain gcd, or CapExceeded."""
    if num == 0:
        return (0, 1)
    g = _poly_gcd_oracle(num, den)
    num, den = _divmod_ref(num, g)[0], _divmod_ref(den, g)[0]
    cap = wf.fields.MAX_POLY_DEGREE
    if num.bit_length() - 1 > cap or den.bit_length() - 1 > cap:
        raise CapExceeded("reference cap")
    return (num, den)


def _add_ref(a, b):
    (an, ad), (bn, bd) = a, b
    return _reduce_ref(_clmul_ref(an, bd) ^ _clmul_ref(bn, ad), _clmul_ref(ad, bd))


def _mul_ref(a, b):
    (an, ad), (bn, bd) = a, b
    return _reduce_ref(_clmul_ref(an, bn), _clmul_ref(ad, bd))


def _div_ref(a, b):
    if b[0] == 0:
        raise DivisionByZero("reference division by zero")
    return _mul_ref(a, (b[1], b[0]))


def _outcome(op, *args):
    try:
        return op(*args)
    except (CapExceeded, DivisionByZero) as exc:
        return type(exc)


# small irreducibles, so that random fractions share factors; degrees stay
# below 44, within the cap, while sums and products cross it
_FACTORS = (0b10, 0b11, 0b111, 0b1011, 0b1101, 0b10011)
_polys = st.builds(
    lambda factors, rest: functools.reduce(_clmul_ref, factors, rest),
    st.lists(st.sampled_from(_FACTORS), max_size=8),
    st.integers(1, (1 << 12) - 1),
)
_fractions = st.builds(_reduce_ref, _polys, _polys)
_zero = st.just((0, 1))
_den_one = st.builds(lambda n: (n, 1), _polys)


def _strip(n, d):
    """n with every factor it shares with d divided out."""
    g = _poly_gcd_oracle(n, d)
    while g != 1:
        n = _divmod_ref(n, g)[0]
        g = _poly_gcd_oracle(n, d)
    return n


_equal_dens = st.builds(lambda n1, n2, d: ((_strip(n1, d), d), (_strip(n2, d), d)),
                        _polys, _polys, _polys)
_operand = st.one_of(_zero, _den_one, _fractions)
_pairs = st.one_of(st.tuples(_operand, _operand), _equal_dens)

_RATFUNC_OPS = (
    (FT.add, _add_ref), (FT.sub, _add_ref), (FT.mul, _mul_ref), (FT.div, _div_ref),
)


def _check_ops_against_reference(a, b):
    assert FT.is_payload(a) and FT.is_payload(b)
    for op, ref in _RATFUNC_OPS:
        for x, y in ((a, b), (b, a)):
            got = _outcome(op, x, y)
            assert got == _outcome(ref, x, y), (op.__name__, x, y)
            if isinstance(got, tuple):
                assert FT.is_payload(got)
                assert _poly_gcd_oracle(*got) == 1


@settings(max_examples=300, deadline=None)
@given(_pairs)
def test_ratfunc_payload_ops_match_reduce_every_result_reference(pair):
    _check_ops_against_reference(*pair)


def _tpow(base, e):
    return functools.reduce(_clmul_ref, [base] * e, 1)


def test_ratfunc_ops_at_the_degree_cap():
    t, t1 = 0b10, 0b11
    # (t+1)^40/t^10 * t^30/(t+1)^35: unreduced numerator of degree 70,
    # reduced t^20 (t+1)^5 = t^25+t^24+t^21+t^20
    a = (_tpow(t1, 40), _tpow(t, 10))
    b = (_tpow(t, 30), _tpow(t1, 35))
    assert FT.mul(a, b) == FT.parse("t^25+t^24+t^21+t^20").payload
    with pytest.raises(CapExceeded):
        FT.mul((_tpow(t, 40), 1), (_tpow(t, 30), 1))
    cases = [
        (a, b),
        ((_tpow(t, 40), 1), (_tpow(t, 30), 1)),
        ((1, _tpow(t, 40)), (1, _clmul_ref(_tpow(t, 40), t1))),  # reduced den 41
        ((1, _tpow(t, 64)), (1, t1)),                              # den 65
        ((1, _tpow(t, 64)), (1, 1)),
        ((_tpow(t, 64), 1), (1, _tpow(t, 64))),
        ((_tpow(t1, 33), _tpow(t, 32)), (_tpow(t, 32), _tpow(t1, 32))),
    ]
    for x, y in cases:
        _check_ops_against_reference(x, y)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 1 << 80), st.integers(0, 1 << 40))
def test_poly_division_and_gcd_match_reference_loops(a, b):
    if b == 0:
        for op in (wf.fields.poly_divmod, wf.fields.poly_mod):
            with pytest.raises(DivisionByZero):
                op(a, b)
    else:
        q, r = _divmod_ref(a, b)
        assert wf.fields.poly_divmod(a, b) == (q, r)
        assert wf.fields.poly_mod(a, b) == r
    assert wf.fields.poly_gcd(a, b) == _poly_gcd_oracle(a, b)
    assert wf.fields.poly_mul(a, b) == _clmul_ref(a, b) == wf.fields.poly_mul(b, a)


@pytest.mark.parametrize("k", range(1, 9))
def test_galois2_field_default_modulus_is_parse_fields(k):
    """Without a modulus, GF(2^k) takes the one `parse_field` fills in."""
    field = Galois2Field(k)
    assert field == wf.parse_field(f"gf({1 << k})") and hash(field) == hash(wf.parse_field(f"gf({1 << k})"))
    assert field.literal() == wf.parse_field(f"gf({1 << k})").literal()
