import itertools
import random
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from ffstats import _gfp
from ffstats.errors import (
    MorsePreconditionError,
    NotSquarefreeError,
    ZeroPolynomialError,
)
from ffstats.field import FieldCtx
from ffstats.stats import gamma_symmetric
from ffstats.unipoly import (
    UniPoly,
    discriminant,
    factorization_type,
    is_irreducible,
    is_morse,
    is_squarefree,
    poly_gcd,
)

# ---------------------------------------------------------------------------
# Test-local polynomial arithmetic (independent of the package kernels).
# Elements are encoded ints; ops come from a FieldCtx, whose elementary
# arithmetic is validated separately against the field axioms.
# ---------------------------------------------------------------------------


def otrim(f):
    while f and f[-1] == 0:
        f.pop()
    return f


def omul(ctx, f, g):
    if not f or not g:
        return []
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] = ctx.add(out[i + j], ctx.mul(a, b))
    return otrim(out)


def odivmod(ctx, f, g):
    r = otrim(list(f))
    dg = len(g) - 1
    q = []
    inv = ctx.inv(g[-1])
    while len(r) - 1 >= dg:
        shift = len(r) - 1 - dg
        c = ctx.mul(r[-1], inv)
        q = [0] * max(0, shift + 1 - len(q)) + q
        q[shift] = ctx.add(q[shift] if shift < len(q) else 0, c)
        sub = [0] * shift + [ctx.mul(c, gc) for gc in g]
        r = otrim([ctx.sub(a, b) for a, b in itertools.zip_longest(r, sub, fillvalue=0)])
        if len(r) - 1 < dg:
            break
    return q, r


def odivides(ctx, g, f):
    return not odivmod(ctx, f, g)[1]


def ogcd(ctx, f, g):
    a, b = otrim(list(f)), otrim(list(g))
    while b:
        a, b = b, odivmod(ctx, a, b)[1]
    if a and a[-1] != 1:
        inv = ctx.inv(a[-1])
        a = [ctx.mul(c, inv) for c in a]
    return a


def monic_polys(ctx, degree):
    for tail in itertools.product(range(ctx.q), repeat=degree):
        yield list(tail) + [1]


def irreducible_sieve(ctx, max_degree):
    """All monic irreducibles of degree <= max_degree, by trial division."""
    irr = {1: [list(t) + [1] for t in itertools.product(range(ctx.q), repeat=1)]}
    for d in range(2, max_degree + 1):
        found = []
        small = [p for dd in range(1, d // 2 + 1) for p in irr[dd]]
        for f in monic_polys(ctx, d):
            if not any(odivides(ctx, p, f) for p in small):
                found.append(f)
        irr[d] = found
    return irr


def oracle_type(ctx, f, irr):
    """Factor-degree multiset of a monic squarefree f by trial division.

    The sieve only has to reach deg(f)//2: once every factor of degree up to
    that is stripped off, whatever remains cannot split and is one
    irreducible of its own degree.
    """
    parts = []
    f = list(f)
    sieve_max = max(irr)
    assert len(f) - 1 <= 2 * sieve_max + 1
    for d in range(1, sieve_max + 1):
        for p in irr[d]:
            if len(f) - 1 >= d and odivides(ctx, p, f):
                parts.append(d)
                f, _ = odivmod(ctx, f, p)
    if len(f) - 1 > 0:
        parts.append(len(f) - 1)
    return tuple(sorted(parts, reverse=True))


def oderiv(ctx, f):
    return otrim([ctx.mul(ctx.from_int(i), c) for i, c in enumerate(f)][1:])


def sylvester_resultant(ctx, f, g):
    """det of the Sylvester matrix over ctx by Gaussian elimination."""
    m, n = len(f) - 1, len(g) - 1
    if m < 0 or n < 0:
        return 0
    if m == 0 and n == 0:
        return 1
    size = m + n
    rows = []
    for i in range(n):
        row = [0] * size
        for j, c in enumerate(reversed(f)):
            row[i + j] = c
        rows.append(row)
    for i in range(m):
        row = [0] * size
        for j, c in enumerate(reversed(g)):
            row[i + j] = c
        rows.append(row)
    det = 1
    for col in range(size):
        piv = next((r for r in range(col, size) if rows[r][col]), None)
        if piv is None:
            return 0
        if piv != col:
            rows[col], rows[piv] = rows[piv], rows[col]
            det = ctx.neg(det)
        det = ctx.mul(det, rows[col][col])
        inv = ctx.inv(rows[col][col])
        for r in range(col + 1, size):
            if rows[r][col]:
                factor = ctx.mul(rows[r][col], inv)
                rows[r] = [ctx.sub(a, ctx.mul(factor, b)) for a, b in zip(rows[r], rows[col])]
    return det


def olagrange(ctx, xs, ys):
    acc = [0]
    for i, xi in enumerate(xs):
        num = [1]
        den = 1
        for j, xj in enumerate(xs):
            if j != i:
                num = otrim(
                    [
                        ctx.sub(num[k - 1] if k else 0, ctx.mul(xj, num[k] if k < len(num) else 0))
                        for k in range(len(num) + 1)
                    ]
                )
                den = ctx.mul(den, ctx.sub(xi, xj))
        scale = ctx.mul(ys[i], ctx.inv(den))
        term = [ctx.mul(c, scale) for c in num]
        acc = otrim([ctx.add(a, b) for a, b in itertools.zip_longest(acc, term, fillvalue=0)])
    return acc


# ---------------------------------------------------------------------------
# gcd / squarefree / discriminant
# ---------------------------------------------------------------------------


def test_make_reduces_prime_field_coefficients_before_trimming():
    ctx = FieldCtx(7)
    f = UniPoly.make(ctx, [1, 7])  # 7 names zero: the constant 1
    assert (f.degree, f.coeffs) == (0, (1,))
    assert UniPoly.make(ctx, [-1, 15, -14]).coeffs == (6, 1)


def test_monic_of_a_made_polynomial_with_a_multiple_of_p():
    ctx = FieldCtx(7)
    assert UniPoly.make(ctx, [1, 7]).monic() == UniPoly.one(ctx)
    assert UniPoly.make(ctx, [3, 9]).monic().coeffs == (5, 1)


def test_make_refuses_an_extension_coefficient_outside_the_field():
    ctx = FieldCtx(3, 2, modulus=[1, 0, 1])
    for bad in (9, 100, -1):
        with pytest.raises(ValueError, match=rf"^coefficient {bad} is outside \[0, 9\)$"):
            UniPoly.make(ctx, [1, bad, 2])


def test_gcd_with_zero_is_monic():
    ctx = FieldCtx(5)
    f = UniPoly.from_ints(ctx, [1, 0, 3])  # 3t^2 + 1
    g = poly_gcd(f, UniPoly.zero(ctx))
    assert g == f.monic()
    assert g.lc == 1


def test_gcd_shared_root():
    ctx = FieldCtx(5)
    f = UniPoly.from_ints(ctx, [-1, 0, 1])
    g = UniPoly.from_ints(ctx, [-1, 1])
    assert poly_gcd(f, g).coeffs == (4, 1)


def test_gcd_char2_example():
    ctx = FieldCtx(2)
    f = UniPoly.from_ints(ctx, [0, 1, 1])  # t^2 + t
    g = UniPoly.from_ints(ctx, [1, 0, 1])  # t^2 + 1 = (t+1)^2
    assert poly_gcd(f, g).coeffs == (1, 1)


def test_gcd_both_zero_raises():
    ctx = FieldCtx(5)
    with pytest.raises(ZeroPolynomialError):
        poly_gcd(UniPoly.zero(ctx), UniPoly.zero(ctx))


def test_gcd_matches_oracle_random():
    rng = random.Random(2)
    for ctx in (FieldCtx(7), FieldCtx(3, 2, modulus=[1, 0, 1])):
        for _ in range(100):
            f = UniPoly.make(ctx, [rng.randrange(ctx.q) for _ in range(rng.randrange(1, 7))])
            g = UniPoly.make(ctx, [rng.randrange(ctx.q) for _ in range(rng.randrange(1, 7))])
            if f.is_zero and g.is_zero:
                continue
            assert list(poly_gcd(f, g).coeffs) == ogcd(
                ctx, list(f.coeffs), list(g.coeffs)
            )


def test_is_squarefree_examples():
    ctx = FieldCtx(5)
    assert not is_squarefree(UniPoly.from_ints(ctx, [0, 0, 1]))  # t^2
    assert is_squarefree(UniPoly.from_ints(ctx, [-1, 0, 1]))  # t^2 - 1
    ctx3 = FieldCtx(3)
    assert is_squarefree(UniPoly.from_ints(ctx3, [-1, -1, 0, 1]))  # t^3 - t - 1
    with pytest.raises(ZeroPolynomialError):
        is_squarefree(UniPoly.one(ctx))


def test_inseparable_is_not_squarefree():
    ctx = FieldCtx(3)
    assert not is_squarefree(UniPoly.from_ints(ctx, [1, 0, 0, 1]))  # t^3 + 1 = (t+1)^3


def test_discriminant_examples():
    ctx = FieldCtx(5)
    assert discriminant(UniPoly.from_ints(ctx, [-1, 0, 1])) == 4  # 4a at a=1
    assert discriminant(UniPoly.from_ints(ctx, [0, 0, 1])) == 0  # t^2
    ctx7 = FieldCtx(7)
    assert discriminant(UniPoly.from_ints(ctx7, [1, 1, 0, 1])) == 4  # -4-27 mod 7


def test_discriminant_quadratic_and_cubic_formulas():
    rng = random.Random(4)
    for p in (7, 11, 13):
        ctx = FieldCtx(p)
        for _ in range(50):
            a, b, c = rng.randrange(1, p), rng.randrange(p), rng.randrange(p)
            f = UniPoly.from_ints(ctx, [c, b, a])
            assert discriminant(f) == (b * b - 4 * a * c) % p
            u, v = rng.randrange(p), rng.randrange(p)
            g = UniPoly.from_ints(ctx, [v, u, 0, 1])  # t^3 + u t + v
            assert discriminant(g) == (-4 * u**3 - 27 * v**2) % p


def test_discriminant_matches_sylvester_oracle():
    rng = random.Random(8)
    for ctx in (FieldCtx(5), FieldCtx(13), FieldCtx(2, 3), FieldCtx(3, 2), FieldCtx(5, 2)):
        for _ in range(60):
            d = rng.randrange(2, 6)
            coeffs = [rng.randrange(ctx.q) for _ in range(d)] + [rng.randrange(1, ctx.q)]
            f = UniPoly.make(ctx, coeffs)
            res = sylvester_resultant(ctx, coeffs, oderiv(ctx, coeffs))
            want = res if (d * (d - 1) // 2) % 2 == 0 else ctx.neg(res)
            want = ctx.mul(want, ctx.inv(coeffs[-1]))
            assert discriminant(f) == want


def test_squarefree_iff_discriminant_nonzero():
    for p in (5, 7):
        ctx = FieldCtx(p)
        for d in (2, 3, 4):
            if p <= d:
                continue
            for tail in itertools.product(range(p), repeat=d):
                f = UniPoly.make(ctx, list(tail) + [1])
                assert is_squarefree(f) == (discriminant(f) != 0)


# ---------------------------------------------------------------------------
# factorization types
# ---------------------------------------------------------------------------


def test_factorization_type_examples():
    ctx = FieldCtx(5)
    assert factorization_type(UniPoly.from_ints(ctx, [-1, 0, 1])) == (1, 1)
    # 2 is not a square mod 5 (squares are 1 and 4)
    assert factorization_type(UniPoly.from_ints(ctx, [-2, 0, 1])) == (2,)
    ctx2 = FieldCtx(2)
    assert factorization_type(UniPoly.from_ints(ctx2, [1, 1, 0, 1])) == (3,)


def test_factorization_type_rejects_non_squarefree():
    ctx = FieldCtx(5)
    with pytest.raises(NotSquarefreeError):
        factorization_type(UniPoly.from_ints(ctx, [0, 0, 1]))


def test_type_parts_sum_to_degree():
    rng = random.Random(6)
    ctx = FieldCtx(11)
    done = 0
    while done < 150:
        d = rng.randrange(1, 7)
        f = UniPoly.make(ctx, [rng.randrange(11) for _ in range(d)] + [rng.randrange(1, 11)])
        if not is_squarefree(f):
            continue
        assert sum(factorization_type(f)) == f.degree
        done += 1


@pytest.mark.parametrize("p", [2, 3])
def test_type_exhaustive_small_primes(p):
    ctx = FieldCtx(p)
    irr = irreducible_sieve(ctx, 3)
    for d in range(1, 7):
        for f in monic_polys(ctx, d):
            poly = UniPoly.make(ctx, f)
            if not is_squarefree(poly):
                continue
            assert factorization_type(poly) == oracle_type(ctx, f, irr), f


@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_type_random_against_oracle(p):
    ctx = FieldCtx(p)
    irr = irreducible_sieve(ctx, 3)
    rng = random.Random(p)
    done = 0
    while done < 60:
        d = rng.randrange(1, 7)
        f = [rng.randrange(p) for _ in range(d)] + [1]
        poly = UniPoly.make(ctx, f)
        if not is_squarefree(poly):
            continue
        assert factorization_type(poly) == oracle_type(ctx, f, irr)
        done += 1


def test_type_extension_field_exhaustive():
    # generic-arithmetic path: all monic squarefree quadratics/cubics over F_9
    ctx = FieldCtx(3, 2, modulus=[1, 0, 1])
    irr = irreducible_sieve(ctx, 1)
    for d in (2, 3):
        for f in monic_polys(ctx, d):
            poly = UniPoly.make(ctx, f)
            if not is_squarefree(poly):
                continue
            assert factorization_type(poly) == oracle_type(ctx, f, irr)


def test_irreducible_count_over_f9():
    # number of monic irreducible quadratics over F_q is (q^2 - q)/2
    ctx = FieldCtx(3, 2, modulus=[1, 0, 1])
    count = sum(
        1 for f in monic_polys(ctx, 2) if is_irreducible(UniPoly.make(ctx, f))
    )
    assert count == (81 - 9) // 2


def test_is_irreducible_examples():
    assert is_irreducible(UniPoly.from_ints(FieldCtx(2), [1, 1, 0, 1]))
    assert not is_irreducible(UniPoly.from_ints(FieldCtx(5), [-1, 0, 1]))
    assert is_irreducible(UniPoly.from_ints(FieldCtx(3), [1, 0, 1]))
    assert not is_irreducible(UniPoly.one(FieldCtx(5)))


def test_is_irreducible_matches_type():
    rng = random.Random(12)
    ctx = FieldCtx(7)
    for _ in range(120):
        d = rng.randrange(1, 6)
        f = UniPoly.make(ctx, [rng.randrange(7) for _ in range(d)] + [rng.randrange(1, 7)])
        want = is_squarefree(f) and factorization_type(f) == (f.degree,)
        # a power of one irreducible is caught by squarefreeness except deg 1
        assert is_irreducible(f) == (want or (f.degree == 1))


# ---------------------------------------------------------------------------
# Morse criterion
# ---------------------------------------------------------------------------


def test_is_morse_examples():
    ctx7 = FieldCtx(7)
    assert is_morse(UniPoly.from_ints(ctx7, [0, 0, 1]))  # t^2
    assert is_morse(UniPoly.from_ints(ctx7, [0, -3, 0, 1]))  # t^3 - 3t
    ctx5 = FieldCtx(5)
    assert not is_morse(UniPoly.from_ints(ctx5, [0, 0, 0, 1]))  # t^3, f' = 3t^2


def test_is_morse_precondition():
    ctx3 = FieldCtx(3)
    with pytest.raises(MorsePreconditionError):
        is_morse(UniPoly.from_ints(ctx3, [0, 0, 0, 1]))
    with pytest.raises(ZeroPolynomialError):
        is_morse(UniPoly.from_ints(FieldCtx(7), [1, 1]))


def oracle_morse(ctx, coeffs):
    d = len(coeffs) - 1
    fp = oderiv(ctx, coeffs)
    fpp = oderiv(ctx, fp)
    if len(ogcd(ctx, fp, fpp)) != 1:
        return False
    xs = list(range(d))
    ys = [sylvester_resultant(ctx, fp, otrim([ctx.sub(x0, coeffs[0])] + [ctx.neg(c) for c in coeffs[1:]])) for x0 in xs]
    c = olagrange(ctx, xs, ys)
    cp = oderiv(ctx, c)
    if not cp:
        return len(c) - 1 == 0
    return len(ogcd(ctx, c, cp)) == 1


def test_is_morse_against_oracle():
    rng = random.Random(21)
    # p > d: GF(2^3) has no degree to test, and GF(3^2) only d = 2
    for ctx in (FieldCtx(7), FieldCtx(11), FieldCtx(13), FieldCtx(3, 2), FieldCtx(5, 2)):
        seen_true = seen_false = 0
        for _ in range(80):
            d = rng.randrange(2, min(5, ctx.p))
            coeffs = [rng.randrange(ctx.q) for _ in range(d)] + [rng.randrange(1, ctx.q)]
            got = is_morse(UniPoly.make(ctx, coeffs))
            assert got == oracle_morse(ctx, coeffs), coeffs
            seen_true += got
            seen_false += not got
        # both branches exercised; every quadratic is Morse, so GF(3^2) has no False
        assert seen_true and (seen_false or ctx.p == 3)


# ---------------------------------------------------------------------------
# cross-module: squarefree type frequencies approach the permutation law
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("p", [13, 31])
def test_type_frequencies_approach_gamma(p):
    # every monic cubic over GF(p), classified as one block
    ctx = FieldCtx(p)
    tails = list(itertools.product(range(p), repeat=3))
    block = np.array([list(tail) + [1] for tail in tails], dtype=np.int64)[..., None]
    types = [_gfp.gf_key_type(key, 3) for key in _gfp.gf_spec_types(block, ctx.vec).tolist()]
    tallies = Counter(t for t in types if t is not None)
    squarefree = sum(tallies.values())
    for parts in ((3,), (2, 1), (1, 1, 1)):
        freq = Fraction(tallies[parts], squarefree)
        assert abs(float(freq) - float(gamma_symmetric(3, parts))) <= 0.5 / p**0.5
    # the single-polynomial API agrees with the block on a sample
    for i in random.Random(p).sample(range(len(tails)), 200):
        f = UniPoly.make(ctx, list(tails[i]) + [1])
        assert is_squarefree(f) == (types[i] is not None)
        if types[i] is not None:
            assert factorization_type(f) == types[i]
