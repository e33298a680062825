import math
import random
from unittest import mock

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from ffstats import field
from ffstats.errors import (
    ArityMismatchError,
    DegreeMismatchError,
    NotPrimeError,
    ReducibleModulusError,
)
from ffstats.field import FieldCtx, cyclotomic_magnitude, cyclotomic_rows, is_prime
from ffstats.cli import main
from ffstats.mpoly import MultiPoly


def test_is_prime_small():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 97, 101, 10007}
    for n in range(2, 120):
        assert is_prime(n) == all(n % d for d in range(2, n)), n
    for n in primes:
        assert is_prime(n)
    assert not is_prime(1)
    assert not is_prime(0)
    assert not is_prime(561)  # Carmichael
    assert is_prime(2**61 - 1)


# psi_12 and psi_13: the least strong pseudoprimes to the first 12 and 13
# prime bases, past which those bases alone accept composites
PSI_12 = 399165290221 * 798330580441
PSI_13 = 3317044064679887385961981


def test_strong_lucas_refuses_an_n_sharing_a_factor_with_d():
    # (5/205) = 0: D = 5 divides n before any D with (D/n) = -1 is found
    assert not field._strong_lucas(5 * 41)


def test_is_prime_refuses_the_pseudoprimes_past_the_deterministic_bases():
    assert PSI_12 == 318665857834031151167461
    assert not sympy.isprime(PSI_13)
    assert not is_prime(PSI_12) and not is_prime(PSI_13)
    assert is_prime(2**89 - 1) and is_prime(2**127 - 1)
    assert not is_prime((2**61 - 1) * (2**89 - 1)) and not is_prime((2**89 - 1) ** 2)
    with pytest.raises(NotPrimeError):
        FieldCtx(PSI_12)


def test_strong_lucas_pseudoprimes_are_the_known_ones():
    # the strong Lucas test alone, with Selfridge's parameters, accepts
    # every prime and exactly these composites below 10^5 (OEIS A217255)
    known = [5459, 5777, 10877, 16109, 18971, 22499, 24569, 25199, 40309, 58519, 75077, 97439]
    odd = [n for n in range(41, 10**5, 2) if all(n % b for b in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37))]
    passing = [n for n in odd if field._strong_lucas(n)]
    assert [n for n in passing if not sympy.isprime(n)] == known
    assert all(field._strong_lucas(n) for n in odd if sympy.isprime(n))


@settings(max_examples=300, deadline=None)
@given(st.integers(2**64, 2**200), st.sampled_from(["any", "prime", "product"]))
def test_is_prime_past_64_bits_matches_sympy(n, kind):
    if kind != "any":
        n = sympy.nextprime(n)
    if kind == "product":  # of two primes, one of them below 2^40
        n *= sympy.nextprime(n % 2**40)
    assert is_prime(n) == sympy.isprime(n)


def test_ctx_create_prime_field():
    ctx = FieldCtx(5)
    assert (ctx.p, ctx.k, ctx.q) == (5, 1, 5)
    assert ctx.modulus is None


def test_ctx_create_f9_with_modulus():
    # x^2 + 1 is irreducible mod 3: neither 0, 1 nor 2 squares to -1.
    assert all((r * r + 1) % 3 != 0 for r in range(3))
    ctx = FieldCtx(3, 2, modulus=[1, 0, 1])
    assert ctx.q == 9
    assert ctx.modulus == (1, 0, 1)


def test_ctx_create_rejects_composite():
    with pytest.raises(NotPrimeError):
        FieldCtx(4)


def test_ctx_create_rejects_reducible_modulus():
    # x^2 + 2 = (x-1)(x+1) mod 3
    with pytest.raises(ReducibleModulusError):
        FieldCtx(3, 2, modulus=[2, 0, 1])


def test_ctx_create_rejects_bad_degree():
    with pytest.raises(DegreeMismatchError):
        FieldCtx(3, 2, modulus=[1, 0, 0, 1])
    with pytest.raises(DegreeMismatchError):
        FieldCtx(5, 1, modulus=[1, 1])
    with pytest.raises(DegreeMismatchError):
        FieldCtx(5, 0)


def test_random_modulus_deterministic_from_seed():
    a = FieldCtx(3, 4, seed=11)
    b = FieldCtx(3, 4, seed=11)
    assert a.modulus == b.modulus
    ctx = FieldCtx(7, 3, seed=5)
    assert len(ctx.modulus) == 4 and ctx.modulus[-1] == 1


def test_prime_field_inverse_example():
    assert FieldCtx(5).inv(2) == 3  # 2*3 = 6 = 1


def test_f9_x_squared_is_two():
    ctx = FieldCtx(3, 2, modulus=[1, 0, 1])
    x = ctx.from_coords((0, 1))
    assert ctx.mul(x, x) == ctx.from_coords((2, 0)) == 2


def test_pow_refuses_a_negative_exponent():
    for ctx in (FieldCtx(7), FieldCtx(3, 2, modulus=[1, 0, 1])):
        with pytest.raises(ValueError, match="nonnegative"):
            ctx.pow(2, -1)


def test_pow_zero_is_one():
    for ctx in (FieldCtx(7), FieldCtx(3, 2, modulus=[1, 0, 1])):
        for a in ctx.elements():
            assert ctx.pow(a, 0) == 1


@pytest.mark.parametrize(
    "ctx",
    [FieldCtx(7), FieldCtx(2, 3, seed=0), FieldCtx(3, 2, modulus=[1, 0, 1])],
    ids=["F7", "F8", "F9"],
)
def test_field_axioms_exhaustive(ctx):
    els = list(ctx.elements())
    for a in els:
        assert ctx.add(a, 0) == a
        assert ctx.mul(a, 1) == a
        assert ctx.add(a, ctx.neg(a)) == 0
        if a:
            assert ctx.mul(a, ctx.inv(a)) == 1
    rng = random.Random(1)
    for _ in range(200):
        a, b, c = (rng.randrange(ctx.q) for _ in range(3))
        assert ctx.add(a, b) == ctx.add(b, a)
        assert ctx.mul(a, b) == ctx.mul(b, a)
        assert ctx.mul(a, ctx.add(b, c)) == ctx.add(ctx.mul(a, b), ctx.mul(a, c))
        assert ctx.mul(ctx.mul(a, b), c) == ctx.mul(a, ctx.mul(b, c))


def test_inv_zero_raises():
    with pytest.raises(ZeroDivisionError):
        FieldCtx(5).inv(0)
    with pytest.raises(ZeroDivisionError):
        FieldCtx(3, 2, modulus=[1, 0, 1]).inv(0)


INV_FIELDS = [FieldCtx(101), FieldCtx(2**61 - 1), FieldCtx(3, 5, seed=0), FieldCtx(2**89 - 1, 2, seed=1)]


@pytest.mark.parametrize("ctx", INV_FIELDS, ids=["GF101", "GF2^61-1", "GF3^5", "GF(2^89-1)^2"])
def test_inv_takes_two_products_a_bit_of_the_norm_exponent(ctx):
    # a^(r-1) by square and multiply, then N(a) = a^(r-1) a and the scaling
    # by 1/N(a) in GF(p): at most 2 bitlen(r - 1) + 2 products, r = (q-1)/(p-1)
    bound = 2 * ((ctx.q - 1) // (ctx.p - 1) - 1).bit_length() + 2
    rng = random.Random(ctx.p)
    with mock.patch.object(FieldCtx, "mul", autospec=True, side_effect=FieldCtx.mul) as spy:
        for a in [1, ctx.q - 1] + [rng.randrange(1, ctx.q) for _ in range(8)]:
            spy.reset_mock()
            ctx.inv(a)
            assert spy.call_count <= bound, a
        with pytest.raises(ZeroDivisionError):
            ctx.inv(0)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(INV_FIELDS), st.data())
def test_an_element_times_its_inverse_is_one(ctx, data):
    a = data.draw(st.integers(1, ctx.q - 1), label="a")
    assert ctx.mul(a, ctx.inv(a)) == 1


def test_scalar_operations_read_each_operand_through_coords():
    # on GF(7) every integer names its residue: 7 and -14 name zero
    ctx = FieldCtx(7)
    for zero in (0, 7, -14):
        with pytest.raises(ZeroDivisionError):
            ctx.inv(zero)
    assert ctx.mul(100, 3) == 6
    assert (ctx.add(100, 3), ctx.sub(3, 100), ctx.neg(100), ctx.pow(100, 3), ctx.inv(100)) == (5, 1, 5, 1, 4)
    # on GF(9) only an encoding in [0, 9) names an element
    gf9 = FieldCtx(3, 2, modulus=[1, 0, 1])
    for bad in (9, -1, 100):
        ops = [
            lambda: gf9.pow(bad, 0), lambda: gf9.pow(bad, 2), lambda: gf9.mul(bad, 1),
            lambda: gf9.mul(1, bad), lambda: gf9.add(bad, 0), lambda: gf9.add(0, bad),
            lambda: gf9.sub(bad, 0), lambda: gf9.sub(0, bad), lambda: gf9.neg(bad),
            lambda: gf9.inv(bad),
        ]
        for op in ops:
            with pytest.raises(ValueError, match=rf"{bad} does not encode an element of GF\(9\)"):
                op()


def test_coords_roundtrip():
    ctx = FieldCtx(3, 3, seed=2)
    for a in ctx.elements():
        cs = ctx.coords(a)
        assert len(cs) == 3 and all(0 <= c < 3 for c in cs)
        assert ctx.from_coords(cs) == a
    with pytest.raises(DegreeMismatchError):
        ctx.from_coords((1, 2))


def test_trace_prime_field_identity():
    ctx = FieldCtx(5)
    assert ctx.trace(3) == 3
    assert ctx.trace_form.tolist() == [[1]]


@pytest.mark.parametrize(
    "p,k", [(2, 2), (2, 3), (3, 2), (5, 2), (3, 3), (3, 5), (2**31 - 1, 2), (2**61 - 1, 2)]
)
def test_trace_form_matches_frobenius_sum(p, k):
    # trace() reads the form, so the Frobenius sum a + a^p + ... is the oracle;
    # at p = 2^61 - 1 the products of the tensor formula pass 2^63
    ctx = FieldCtx(p, k, seed=0)
    x = ctx.from_coords((0, 1) + (0,) * (k - 2))
    for i in range(k):
        for j in range(k):
            xij = ctx.mul(ctx.pow(x, i), ctx.pow(x, j))
            assert ctx.trace_form[i][j] == ctx._trace_raw(xij)
    assert not ctx.trace_form.flags.writeable
    rng = random.Random(1)
    elements = ctx.elements() if ctx.q < 1000 else [rng.randrange(ctx.q) for _ in range(50)]
    for a in elements:
        assert ctx.trace(a) == ctx._trace_raw(a)


@pytest.mark.parametrize("p,k", [(5, 1), (2, 2), (2, 3), (3, 2), (5, 2), (3, 3), (2, 8)])
def test_multiplication_tensor_matches_mul(p, k):
    # the batched kernels multiply through T[i, j] = coords(x^i * x^j); the
    # scalar mul on coordinates is the oracle, also on whole coordinate blocks
    ctx = FieldCtx(p, k, seed=0)
    vec = ctx.vec
    basis = [ctx.from_coords(tuple(int(i == j) for j in range(k))) for i in range(k)]
    for i in range(k):
        for j in range(k):
            assert vec.tensor[i, j].tolist() == list(ctx.coords(ctx.mul(basis[i], basis[j])))
    assert not vec.tensor.flags.writeable
    rng = random.Random(p * k)
    pairs = [(rng.randrange(ctx.q), rng.randrange(ctx.q)) for _ in range(50)]
    a, b = (np.array([ctx.coords(x[s]) for x in pairs], dtype=np.int64).T for s in (0, 1))
    assert vec.mul(a, b).T.tolist() == [list(ctx.coords(ctx.mul(x, y))) for x, y in pairs]
    assert vec.pow(a, ctx.q - 2).T.tolist() == [list(ctx.coords(ctx.pow(x, ctx.q - 2))) for x, _ in pairs]


def test_coordinates_read_leading_valid_points():
    # the reader returns the leading points that name elements, and the
    # error for the first that does not
    f9 = FieldCtx(3, 2, modulus=[1, 0, 1])
    pts = [(0, 8), (5, 3), (9, 1), (1, 1)]
    codes, error = f9.encodings(pts, 2)
    assert codes.tolist() == [[0, 8], [5, 3]]
    assert type(error) is ValueError and "outside" in str(error)
    assert f9.decode(codes).tolist() == [[[0, 0], [2, 2]], [[2, 1], [0, 1]]]
    codes, error = f9.encodings([(1,), (-1,)], 1)
    assert codes.tolist() == [[1]] and "outside" in str(error)
    codes, error = f9.encodings([(1, 1), (2,)], 2)
    assert f9.decode(codes).shape == (1, 2, 2) and isinstance(error, ArityMismatchError)
    f7 = FieldCtx(7)
    codes, error = f7.encodings([(-1, 10**30), (3,)], 2)
    assert codes.tolist() == [[6, 10**30 % 7]] and isinstance(error, ArityMismatchError)
    codes, error = f7.encodings([(-1, 10**30), (2**70, -(2**70))], 2)
    assert codes.tolist() == [[6, 10**30 % 7], [2**70 % 7, -(2**70) % 7]] and error is None
    codes, error = FieldCtx(2**89 - 1).encodings([(-1,)], 1)
    assert codes.dtype == object and codes.tolist() == [[2**89 - 2]] and error is None


def test_trace_f9_examples():
    ctx = FieldCtx(3, 2, modulus=[1, 0, 1])
    x = ctx.from_coords((0, 1))
    assert ctx.trace(x) == 0  # x + x^3 = x - x
    assert ctx.trace(1) == 2  # k copies of 1


def test_trace_additive():
    for ctx in (FieldCtx(3, 3, seed=1), FieldCtx(5, 2, seed=1)):
        rng = random.Random(3)
        for _ in range(200):
            u, v = rng.randrange(ctx.q), rng.randrange(ctx.q)
            assert ctx.trace(ctx.add(u, v)) == (ctx.trace(u) + ctx.trace(v)) % ctx.p


@pytest.mark.parametrize(
    "p,k", [(2, 10), (3, 6), (5, 4), (7, 3), (13, 2), (97, 2)]
)
def test_trace_fibers_uniform(p, k):
    # every trace value is hit by exactly q/p elements
    ctx = FieldCtx(p, k, seed=0)
    fibers = [0] * p
    for a in ctx.elements():
        fibers[ctx.trace(a)] += 1
    assert fibers == [ctx.q // p] * p


def test_psi_index_examples():
    # psi(a) = e^(2*pi*i*j/p) sits in slot j = tr(a)
    assert FieldCtx(7).trace(0) == 0
    assert FieldCtx(7).trace(3) == 3
    ctx = FieldCtx(3, 2, modulus=[1, 0, 1])
    assert ctx.trace(ctx.from_coords((0, 1))) == 0


def test_magnitude_real_mass():
    assert cyclotomic_magnitude([5, 0, 0, 0, 0, 0, 0], 7) == 5.0


def test_magnitude_golden_ratio():
    assert abs(cyclotomic_magnitude([0, 0, 1, 1, 0], 5) - (1 + math.sqrt(5)) / 2) < 1e-12


def test_magnitude_full_orbit_vanishes():
    assert cyclotomic_magnitude([1] * 11, 11) == 0.0


def test_magnitude_shift_invariant():
    rng = random.Random(5)
    for p in (2, 3, 7, 13):
        counts = [rng.randrange(-20, 20) for _ in range(p)]
        base = cyclotomic_magnitude(counts, p)
        shifted = cyclotomic_magnitude([c + 9 for c in counts], p)
        assert abs(base - shifted) < 1e-9


def test_magnitude_matches_direct_float_accumulation():
    rng = random.Random(9)
    p = 101
    n_terms = 200_000
    js = np.asarray([rng.randrange(p) for _ in range(n_terms)])
    magnitude = cyclotomic_magnitude(np.bincount(js, minlength=p).tolist(), p)
    direct = np.exp(2j * np.pi * js / p).sum()
    assert abs(magnitude - abs(direct)) < 1e-9


def test_cyclotomic_value_matches_magnitude():
    counts = [2, -1, 0, 3, 0, 0, 1]
    re, im, _ = cyclotomic_rows(np.asarray([counts], dtype=np.int64), 7)
    assert abs(abs(complex(re[0], im[0])) - cyclotomic_magnitude(counts, 7)) < 1e-12


# -- encodings against a schoolbook oracle ----------------------------------------

SMALL_EXTENSIONS = [FieldCtx(p, k, seed=3) for p, k in ((2, 2), (2, 3), (3, 2), (5, 2), (3, 3))]
LARGE_EXTENSIONS = [FieldCtx(p, k, seed=3) for p, k in ((3, 5), (7, 3), (65537, 2), (100003, 2))]


def _encode(cs, p):
    return sum(c * p**i for i, c in enumerate(cs))


def _decode(a, p, k):
    return tuple(a // p**i % p for i in range(k))


def _schoolbook_mul(a, b, modulus, p):
    """Coordinates of a*b: the product of the coordinate lists, reduced by
    the monic modulus, mod p."""
    prod = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] += x * y
    k = len(modulus) - 1
    for i in range(len(prod) - 1, k - 1, -1):
        c = prod[i]
        for j, m in enumerate(modulus):
            prod[i - k + j] -= c * m
    return tuple(c % p for c in prod[:k])


def _coords(ctx):
    return st.tuples(*[st.integers(0, ctx.p - 1)] * ctx.k)


@pytest.mark.parametrize("ctx", SMALL_EXTENSIONS, ids=repr)
def test_packed_roundtrip_every_element(ctx):
    # an encoding packs the coordinates as base-p digits, lowest first
    for a in ctx.elements():
        assert tuple(ctx.coords(a)) == _decode(a, ctx.p, ctx.k)
        assert ctx.from_coords(ctx.coords(a)) == a


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_mul_matches_schoolbook_oracle(data):
    ctx = data.draw(st.sampled_from(SMALL_EXTENSIONS + LARGE_EXTENSIONS), label="field")
    a, b = data.draw(_coords(ctx)), data.draw(_coords(ctx))
    got = ctx.mul(_encode(a, ctx.p), _encode(b, ctx.p))
    assert _decode(got, ctx.p, ctx.k) == _schoolbook_mul(a, b, ctx.modulus, ctx.p)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_packed_signed_sum_reduces_once(data):
    # add and sub act on each coordinate mod p, with no borrow between digits
    # of the encoding: a signed sum of products in the field equals the
    # oracle's integer sums of coordinates, reduced once at the end
    ctx = data.draw(st.sampled_from(SMALL_EXTENSIONS + LARGE_EXTENSIONS), label="field")
    p, k = ctx.p, ctx.k
    terms = data.draw(
        st.lists(st.tuples(st.sampled_from((1, -1)), _coords(ctx), _coords(ctx)), min_size=1, max_size=200)
    )
    total = 0
    expect = [0] * k
    for sign, a, b in terms:
        prod = ctx.mul(_encode(a, p), _encode(b, p))
        total = ctx.add(total, prod) if sign == 1 else ctx.sub(total, prod)
        for i, c in enumerate(_schoolbook_mul(a, b, ctx.modulus, p)):
            expect[i] += sign * c
    assert _decode(total, p, k) == tuple(c % p for c in expect)


# -- every operation against the oracle, prime fields included ---------------------

ORACLE_FIELDS = [FieldCtx(2), FieldCtx(101), FieldCtx(1000003)] + SMALL_EXTENSIONS + LARGE_EXTENSIONS


def _oracle_mul(ctx, a, b):
    # a prime field is the case k = 1 with modulus x
    return _schoolbook_mul(a, b, ctx.modulus or (0, 1), ctx.p)


def _oracle_add(a, b, p):
    return tuple((x + y) % p for x, y in zip(a, b))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_add_sub_neg_match_coordinatewise_oracle(data):
    ctx = data.draw(st.sampled_from(ORACLE_FIELDS), label="field")
    p, k = ctx.p, ctx.k
    a, b = data.draw(_coords(ctx)), data.draw(_coords(ctx))
    x, y = _encode(a, p), _encode(b, p)
    assert _decode(ctx.add(x, y), p, k) == _oracle_add(a, b, p)
    assert _decode(ctx.sub(x, y), p, k) == tuple((u - v) % p for u, v in zip(a, b))
    assert _decode(ctx.neg(x), p, k) == tuple(-u % p for u in a)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_pow_inv_match_oracle_products(data):
    ctx = data.draw(st.sampled_from(ORACLE_FIELDS), label="field")
    p, k = ctx.p, ctx.k
    a = data.draw(_coords(ctx))
    e = data.draw(st.integers(0, 20), label="e")
    x = _encode(a, p)
    one = (1,) + (0,) * (k - 1)
    expect = one
    for _ in range(e):
        expect = _oracle_mul(ctx, expect, a)
    assert _decode(ctx.pow(x, e), p, k) == expect
    assert ctx.pow(x, ctx.q) == x
    if any(a):
        assert _oracle_mul(ctx, a, _decode(ctx.inv(x), p, k)) == one


# prime fields, and fields past gf_batch_fits, whose points specialize on object arrays
SPECIALIZE_FIELDS = [FieldCtx(101), FieldCtx(2**61 - 1), FieldCtx(2**31 - 1, 2, seed=3)]


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_specialize_dense_matches_termwise_oracle(data):
    fields = SMALL_EXTENSIONS + LARGE_EXTENSIONS + SPECIALIZE_FIELDS
    ctx = data.draw(st.sampled_from(fields), label="field")
    p, k = ctx.p, ctx.k
    n = data.draw(st.integers(1, 3), label="n")
    exponents = st.tuples(st.integers(0, 4), *[st.integers(0, 3)] * n)
    terms = data.draw(st.dictionaries(exponents, _coords(ctx), max_size=8), label="terms")
    point = [data.draw(_coords(ctx)) for _ in range(n)]
    expect = [(0,) * k] * 5
    for e, c in terms.items():
        w = c
        for a, m in zip(point, e[1:]):
            for _ in range(m):
                w = _oracle_mul(ctx, w, a)
        expect[e[0]] = _oracle_add(expect[e[0]], w, p)
    while expect and not any(expect[-1]):
        expect.pop()
    F = MultiPoly(ctx, n, {e: _encode(c, p) for e, c in terms.items()})
    got = F.specialize_dense([_encode(a, p) for a in point])
    assert [_decode(c, p, k) for c in got] == expect


# Each check of a given modulus: the call that trips it, its error, and the
# options that reach it from the command line.
_FIELD_ERRORS = [
    (lambda: FieldCtx(3, 2, modulus=[2, 0, 1]), ReducibleModulusError, ("--k", "2", "--modulus", "2,0,1")),
    (lambda: FieldCtx(3, 2, modulus=[1, 0, 2]), DegreeMismatchError, ("--k", "2", "--modulus", "1,0,2")),
    (lambda: FieldCtx(3, 2, modulus=[1, 0, 0, 1]), DegreeMismatchError, ("--k", "2", "--modulus", "1,0,0,1")),
]


@pytest.mark.parametrize(
    "call, error, options", _FIELD_ERRORS, ids=["reducible", "not-monic", "wrong-degree"]
)
def test_field_input_errors_raise_their_type_and_exit_2(capsys, call, error, options):
    with pytest.raises(error):
        call()
    assert main(["dist", "--p", "3", *options, "--poly", "t^3 + A1*t + A2"]) == 2
    assert capsys.readouterr().out == ""


def test_coefficients_name_the_first_value_outside_the_field():
    ctx = FieldCtx(3, 2, modulus=[1, 0, 1])
    assert ctx.coefficients([0, 8, 3]) == [0, 8, 3]
    with pytest.raises(ValueError, match=r"^coefficient 100 is outside \[0, 9\)$"):
        ctx.coefficients([1, 100, 9])
    # a prime field takes the residue of any integer
    assert FieldCtx(7).coefficients([-1, 7, 2**70]) == [6, 0, 2**70 % 7]
