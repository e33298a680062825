"""The batched classifier (``_gfp.gf_spec_types`` behind
``mpoly.classify_points``) over prime and extension fields, on int64 and on
object arrays, against the scalar splitting of ``scalar_splitting`` and
independent oracles."""

import contextlib
import functools
import itertools
import math
import random
import signal
from collections import Counter
from unittest import mock

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from ffstats import _gfp, mpoly
from ffstats.errors import ArityMismatchError, BudgetExceededError, NotAdmissibleError, NotSquarefreeError
from ffstats.field import FieldCtx
from ffstats.mpoly import DEGREE_DROP, NON_SQUAREFREE, MultiPoly, classify_points, parse
from ffstats.sets import FullSpace
from ffstats.stats import empirical_distribution, partitions
from ffstats.unipoly import UniPoly, discriminant, factorization_type, is_irreducible
import parity_oracle
from scalar_splitting import classify_one as _scalar
from scalar_splitting import spec_type

# 759250111 is the largest prime with 8 p^2 < 2^62: every d <= 8 runs at the
# edge of the int64 bound.
PRIMES = [2, 3, 5, 7, 13, 101, 10007, 1000003, 759250111]


def _blocked(F, points, size):
    """classify_points with blocks of exactly `size` points on every dtype:
    the byte rule gives no points and the floor `size`; asserts that the
    batched kernel classified every point."""
    with mock.patch.object(mpoly, "_SPEC_BLOCK", 0), mock.patch.object(
        mpoly, "_SPEC_MIN", size
    ), mock.patch.object(_gfp, "gf_spec_types", wraps=_gfp.gf_spec_types) as spy:
        got = list(classify_points(F, points))
    assert sum(len(call.args[0]) for call in spy.call_args_list) == len(points)
    return got


def _dtypes(spy):
    """The dtypes of the blocks a spy on gf_spec_types saw."""
    return {call.args[0].dtype for call in spy.call_args_list}


def _rung(dtype):
    """Put every block that fits int32 on `dtype` instead: int32 as it is,
    int64 past a zero int32 limit, object past a zero int64 limit."""
    if dtype is np.int32:
        return contextlib.nullcontext()
    return mock.patch.object(_gfp, "_INT32_LIMIT" if dtype is np.int64 else "_INT64_LIMIT", 0)


@contextlib.contextmanager
def _deadline(seconds):
    """Fail a test that runs past `seconds` instead of letting it hang."""

    def expire(*args):
        raise TimeoutError(f"still running after {seconds} s")

    old = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


@st.composite
def _families(draw):
    # F of degree d in t, in 1 or 2 parameters; the t^d coefficient may carry
    # a parameter, so that some points drop the degree.
    p = draw(st.sampled_from(PRIMES), label="p")
    d = draw(st.integers(1, 8), label="d")
    n = draw(st.integers(1, 2), label="n")
    coeff = st.integers(0, p - 1)
    exps = st.tuples(st.integers(0, d - 1), *[st.integers(0, 3)] * n)
    terms = draw(st.dictionaries(exps, coeff, max_size=6), label="terms")
    lead = (d,) + tuple(draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)))
    terms[lead] = draw(st.integers(1, p - 1))
    F = MultiPoly(FieldCtx(p), n, terms)
    value = st.one_of(st.sampled_from([0, 1, p - 1]), coeff)
    points = draw(st.lists(st.tuples(*[value] * n), min_size=1, max_size=24), label="points")
    size = draw(st.integers(1, 7), label="block")
    return F, points, size


@settings(max_examples=300, deadline=None)
@given(_families())
def test_batched_matches_scalar_path(case):
    F, points, size = case
    assert _gfp.gf_batch_fits(F.deg_t, 1, F.ctx.p)
    assert _blocked(F, points, size) == [_scalar(F, pt) for pt in points]


INSEPARABLE = {
    "t^p - A1": lambda p: f"t^{p} - A1",
    "t^2p + A1*t^p + A2": lambda p: f"t^{2 * p} + A1*t^{p} + A2",
    "A1*t^p + A2*t + 1": lambda p: f"A1*t^{p} + A2*t + 1",
    "(t - A1)^2*(t^p - A2)": lambda p: f"(t - A1)^2*(t^{p} - A2)",
}


@pytest.mark.parametrize("p", [2, 3, 5, 7])
@pytest.mark.parametrize("name", list(INSEPARABLE))
def test_batched_matches_scalar_path_where_derivatives_vanish(p, name):
    # specializations that are polynomials in t^p have derivative 0
    text = INSEPARABLE[name](p)
    n = 2 if "A2" in text else 1
    F = parse(text, n, FieldCtx(p))
    points = list(itertools.product(range(p), repeat=n))
    got = _blocked(F, points, 3)
    assert got == [_scalar(F, pt) for pt in points]
    if name == "t^p - A1":
        assert set(got) == {NON_SQUAREFREE}


def test_patched_bound_takes_the_object_path():
    F = parse("t^4 + A1*t^2 + A2*t + 1", 2, FieldCtx(13))
    points = list(itertools.product(range(13), repeat=2))
    batched = _blocked(F, points, 5)
    with mock.patch.object(_gfp, "_INT64_LIMIT", 0), mock.patch.object(
        _gfp, "gf_spec_types", wraps=_gfp.gf_spec_types
    ) as spy:
        assert not _gfp.gf_batch_fits(4, 1, 13)
        assert list(classify_points(F, points)) == batched
    assert _dtypes(spy) == {np.dtype(object)}


def _sympy_outcome(coeffs, p):
    # the classify_points outcome of a monic polynomial over GF(p), highest
    # coefficient first, by sympy's factorization
    _, factors = sympy.Poly(coeffs, sympy.Symbol("t"), modulus=p).factor_list()
    if any(m > 1 for _, m in factors):
        return NON_SQUAREFREE
    return tuple(sorted((f.degree() for f, _ in factors), reverse=True))


def test_large_prime_takes_the_object_path_and_matches_sympy():
    p = 2**31 - 1
    assert not _gfp.gf_batch_fits(3, 1, p)
    F = parse("t^3 + A1*t + A2", 2, FieldCtx(p))
    points = [(0, 0), (p - 3, 2), (1, 1), (5, 7), (123456789, 987654321), (p - 1, 0)]
    with mock.patch.object(_gfp, "gf_spec_types", wraps=_gfp.gf_spec_types) as spy:
        got = list(classify_points(F, points))
    assert _dtypes(spy) == {np.dtype(object)}
    assert got == [_sympy_outcome([1, 0, a1, a2], p) for a1, a2 in points]
    assert got[0] == NON_SQUAREFREE  # t^3
    assert got[1] == NON_SQUAREFREE  # t^3 - 3t + 2 = (t - 1)^2 (t + 2)


@pytest.mark.parametrize("p", [2**31 - 1, 2**31 + 11, 2**61 - 1, 2**61 + 15, 2**89 - 1])
@pytest.mark.parametrize("d, e", [(3, 1), (4, 2), (5, 1)])
def test_object_path_matches_sympy_at_large_primes(p, d, e):
    # t^d + A1*t^e + A2 on the object path past the int64 bound: random
    # points, and points with repeated factors ((t - 1)^2 (t + 2) for the cubic)
    F = parse(f"t^{d} + A1*t^{e} + A2", 2, FieldCtx(p))
    rng = random.Random(p * d)
    points = [(rng.randrange(p), rng.randrange(p)) for _ in range(12)]
    points += [(0, 0), (p - 3, 2), (p - 1, 0), (1, p - 1)]
    with mock.patch.object(_gfp, "gf_spec_types", wraps=_gfp.gf_spec_types) as spy:
        got = list(classify_points(F, points))
    assert _dtypes(spy) == {np.dtype(object)}
    for (a1, a2), outcome in zip(points, got):
        coeffs = [1] + [0] * d  # highest degree first
        coeffs[d - e], coeffs[d] = a1, a2
        assert outcome == _sympy_outcome(coeffs, p), (a1, a2)


@pytest.mark.parametrize(
    "p,expr",
    [
        (7, "t^3 + A1*t + A2"),
        (5, "A1*t^4 + A2*t + 1"),
        (3, "t^4 + A1*t^2 + A2"),
        (11, "t^5 + A1*t^2 + A2"),
    ],
)
def test_rank_squarefreeness_matches_discriminant(p, expr):
    F = parse(expr, 2, FieldCtx(p))
    points = list(itertools.product(range(p), repeat=2))
    for pt, outcome in zip(points, _blocked(F, points, 7)):
        f = F.specialize(pt)
        if f.degree < F.deg_t:
            assert outcome == DEGREE_DROP
        else:
            assert (outcome == NON_SQUAREFREE) == (discriminant(f) == 0), pt


def _irreducible_count(q, e):
    return sum(sympy.mobius(e // j) * q**j for j in sympy.divisors(e)) // e


# Degree >= 4 composes x^(q^j) through the Frobenius matrix; the types with a
# part above d/2 come from the leftover degree.
@pytest.mark.parametrize("q,d", [(11, 3), (13, 3), (11, 4), (2, 8), (3, 6), (5, 5), (9, 4)])
def test_necklace_counts_across_blocks(q, d):
    # t^d + A1*t^(d-1) + ... + Ad lists every monic polynomial of degree d
    # once: a type with m_e parts e is counted by prod_e C(N_q(e), m_e)
    poly = " + ".join([f"t^{d}"] + [f"A{i}*t^{d - i}" for i in range(1, d)] + [f"A{d}"])
    F = parse(poly, d, FieldCtx(*(sympy.perfect_power(q) or (q, 1)), seed=1))
    outcomes = _blocked(F, list(itertools.product(range(q), repeat=d)), 97)
    expected = {}
    for parts in partitions(d):
        count = 1
        for e in set(parts):
            count *= math.comb(_irreducible_count(q, e), parts.count(e))
        if count:
            expected[parts] = count
    expected[NON_SQUAREFREE] = q ** (d - 1)
    got = {}
    for outcome in outcomes:
        got[outcome] = got.get(outcome, 0) + 1
    assert got == expected


@pytest.mark.parametrize("ctx", [FieldCtx(7), FieldCtx(2, 2, seed=1)], ids=lambda c: f"GF{c.q}")
@pytest.mark.parametrize("d", range(1, 9))
def test_a_block_takes_one_rank_and_one_more_per_degree_up_to_half(ctx, d):
    # a block takes one rank call, of a stack of 1 + d/2 matrices a point:
    # M_f' for squarefreeness and one M_g for each D_j = deg gcd(x^(q^j) - x,
    # f), j <= d/2
    F = parse(f"t^{d} + A1*t^{d - 1} + 1", 1, ctx)
    points = [(a,) for a in range(ctx.q)]
    with mock.patch.object(_gfp, "_vrank", wraps=_gfp._vrank) as ranks:
        got = _blocked(F, points, 3)
    assert ranks.call_count == -(-ctx.q // 3)
    sizes = [len(points[lo : lo + 3]) for lo in range(0, ctx.q, 3)]
    shapes = [call.args[0].shape for call in ranks.call_args_list]
    assert shapes == [(d, d, ctx.k, (1 + d // 2) * m) for m in sizes]
    assert got == [_scalar(F, pt) for pt in points]


@pytest.mark.parametrize(
    "ctx, size", [(FieldCtx(7), 10), (FieldCtx(7), 5000), (FieldCtx(5, 2, seed=0), 100)], ids=str
)
def test_dense_budget_counts_the_products_of_the_first_rank(ctx, size):
    # the budget counts k^2 coordinate products for every entry of the rank
    # stack of the first spec_keys block, the largest: no more, no less
    F = parse("t^5 + A1*t + 1", 1, ctx)
    codes = (np.arange(size) % ctx.q)[:, None]
    with mock.patch.object(_gfp, "_vrank", wraps=_gfp._vrank) as ranks:
        next(mpoly.spec_keys(F, codes))
    d, _, k, n = ranks.call_args.args[0].shape
    work = d * d * k * k * n
    mpoly.require_dense_budget(F, work, size)
    with pytest.raises(BudgetExceededError):
        mpoly.require_dense_budget(F, work - 1, size)


@pytest.mark.parametrize("d", [*range(1, 9), 27, 28, 30])
def test_every_type_round_trips_through_its_key(d):
    keys = set()
    for parts in partitions(d):
        key = _gfp.gf_type_key(parts, d)
        assert key >= 0 and _gfp.gf_key_type(key, d) == parts
        keys.add(key)
    assert len(keys) == len(partitions(d))
    assert (max(keys) < 1 << 63) == (_gfp.gf_key_dtype(d) is np.int64)
    for outcome, key in ((NON_SQUAREFREE, -1), (DEGREE_DROP, -2)):
        assert _gfp.gf_type_key(outcome, d) == key and _gfp.gf_key_type(key, d) == outcome


@pytest.mark.parametrize("batched", [True, False])
@pytest.mark.parametrize("d, p", [(28, 7), (30, 7)])
def test_keys_past_int64_classify_like_the_scalar_splitting(d, p, batched):
    # a factor of degree 14 at d = 28 (13 at d = 30) has a key past 2^63; the
    # points are classified on each fixed-width rung, int32 and int64, when
    # batched, else on object arrays
    ctx = FieldCtx(p)
    F = parse(f"t^{d} + A1*t^2 + A2*t + 1", 2, ctx)
    points = list(itertools.product(range(p), repeat=2))
    want = [_scalar(F, pt) for pt in points]
    assert any(_gfp.gf_type_key(w, d) >= 1 << 63 for w in want if isinstance(w, tuple))
    for rung in (np.int32, np.int64) if batched else (object,):
        spy = mock.patch.object(_gfp, "gf_spec_types", wraps=_gfp.gf_spec_types)
        with _rung(rung), spy as kernel:
            assert list(classify_points(F, points)) == want
            dist = empirical_distribution(F, FullSpace(2))
        assert _dtypes(kernel) == {np.dtype(rung)}
        assert dist.counts == Counter(w for w in want if isinstance(w, tuple))
        assert (dist.non_squarefree, dist.total) == (want.count(NON_SQUAREFREE), len(points))


def test_points_are_reduced_before_int64():
    F = parse("t^2 + A1*t + A2", 2, FieldCtx(101))
    points = [(-1, 10**30), (10**30, -1), (-5, -(10**40)), (202, 303)]
    got = _blocked(F, points, 3)
    assert got == [_scalar(F, pt) for pt in points]
    assert got == [_scalar(F, tuple(a % 101 for a in pt)) for pt in points]


@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from([2, 101, 2**31 - 1, 2**61 - 1, 2**89 - 1]),
    st.lists(st.integers(-(2**200), 2**200) | st.integers(-300, 300), max_size=40),
)
def test_reduce_takes_remainder_on_object_arrays_and_floor_division_on_int64(p, values):
    field = _gfp.VecField(p, ())
    x = np.array(values + [-p, -1, 0, p], object)
    got = field.reduce(x)
    assert got.dtype == object and got.tolist() == (x - x // p * p).tolist()
    assert got.tolist() == [v % p for v in x.tolist()]
    small = np.array([v for v in x.tolist() if abs(v) < 1 << 62], np.int64)
    if p < 1 << 62:  # p itself fits int64
        assert field.reduce(small).tolist() == (small % p).tolist()


@pytest.mark.parametrize("p, dtype", [(101, np.int32), (2**31 - 1, np.int64), (2**89 - 1, object)])
def test_vec_pow_squares_from_a_and_matches_python_pow(p, dtype):
    # square and multiply from a: a**1 makes no product, a**e makes
    # bit_length(e) - 1 squarings and popcount(e) - 1 multiplies
    field = _gfp.VecField(p, ())
    rng = random.Random(p)
    xs = [0, 1, p - 1] + [rng.randrange(p) for _ in range(20)]
    a = np.array([xs], dtype=dtype)
    for e in (0, 1, 2, 3, p - 2):
        with mock.patch.object(_gfp.VecField, "mul", autospec=True, side_effect=_gfp.VecField.mul) as spy:
            got = field.pow(a, e)
        assert spy.call_count == (e.bit_length() - 1 + bin(e).count("1") - 1 if e else 0)
        assert got.dtype == a.dtype and got.tolist() == [[pow(x, e, p) for x in xs]]


# -- extension fields -------------------------------------------------------------

# GF(4), GF(8), GF(9), GF(16), GF(25), GF(27), GF(49), GF(3^5), GF(2^8)
EXTENSIONS = [
    FieldCtx(p, k, seed=1) for p, k in ((2, 2), (2, 3), (3, 2), (2, 4), (5, 2), (3, 3), (7, 2), (3, 5), (2, 8))
]


@st.composite
def _extension_families(draw):
    # as _families, over GF(p^k) with d <= 6; coefficients are any elements
    ctx = draw(st.sampled_from(EXTENSIONS), label="field")
    q = ctx.q
    d = draw(st.integers(1, 6), label="d")
    n = draw(st.integers(1, 2), label="n")
    coeff = st.integers(0, q - 1)
    exps = st.tuples(st.integers(0, d - 1), *[st.integers(0, 3)] * n)
    terms = draw(st.dictionaries(exps, coeff, max_size=6), label="terms")
    lead = (d,) + tuple(draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)))
    terms[lead] = draw(st.integers(1, q - 1))
    F = MultiPoly(ctx, n, terms)
    value = st.one_of(st.sampled_from([0, 1, ctx.p, q - 1]), coeff)
    points = draw(st.lists(st.tuples(*[value] * n), min_size=1, max_size=16), label="points")
    size = draw(st.integers(1, 7), label="block")
    return F, points, size


@settings(max_examples=300, deadline=None)
@given(_extension_families())
def test_extension_batched_matches_scalar_path(case):
    F, points, size = case
    assert _gfp.gf_batch_fits(F.deg_t, F.ctx.k, F.ctx.p)
    assert _blocked(F, points, size) == [_scalar(F, pt) for pt in points]


@pytest.mark.parametrize("ctx", [c for c in EXTENSIONS if c.q <= 81], ids=lambda c: f"GF{c.q}")
def test_artin_schreier_family_splits_exactly_on_trace_zero(ctx):
    # t^p - t - a has degree p and derivative -1; it splits into p linear
    # factors over GF(q) when tr(a) = 0 and is irreducible otherwise
    p = ctx.p
    F = parse(f"t^{p} - t - A1", 1, ctx)
    points = [(a,) for a in range(ctx.q)]
    got = _blocked(F, points, 5)
    assert got == [(1,) * p if ctx.trace(a) == 0 else (p,) for (a,) in points]
    assert got.count((1,) * p) == ctx.q // p


@pytest.mark.parametrize("ctx", [c for c in EXTENSIONS if c.q <= 81], ids=lambda c: f"GF{c.q}")
def test_inseparable_family_is_never_squarefree(ctx):
    # every a is a p-th power b^p in GF(q), so t^p - a = (t - b)^p
    F = parse(f"t^{ctx.p} - A1", 1, ctx)
    points = [(a,) for a in range(ctx.q)]
    assert _blocked(F, points, 4) == [NON_SQUAREFREE] * ctx.q


ONE_ROW_FIELDS = EXTENSIONS + [FieldCtx(p) for p in (2, 13, 2**31 - 1, 2**89 - 1)] + [FieldCtx(2**61 - 1, 2, seed=1)]


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(ONE_ROW_FIELDS), st.data())
def test_one_row_reading_matches_the_scalar_splitting(ctx, data):
    # unipoly's factorization_type and is_irreducible classify one row
    d = data.draw(st.integers(1, 6), label="d")
    element = st.integers(0, ctx.q - 1)
    coeffs = data.draw(st.lists(element, min_size=d, max_size=d), label="tail")
    coeffs.append(data.draw(st.integers(1, ctx.q - 1), label="lead"))
    f, want = UniPoly.make(ctx, coeffs), spec_type(coeffs, ctx)
    if want == NON_SQUAREFREE:
        with pytest.raises(NotSquarefreeError):
            factorization_type(f)
    else:
        assert factorization_type(f) == want
    assert is_irreducible(f) == (want == (d,))


EDGE = FieldCtx(1073741789, 2, seed=1)  # the largest prime below 2^30: 4 p^2 < 2^62


@pytest.mark.parametrize(
    "expr", ["t^3 + A1*t + A2", "(t - A1)^2*(t - A2)", "A1*t^4 + A2*t + 1", "(t^2 - A1)*(t^2 - A2)"]
)
def test_extension_at_the_edge_of_the_int64_bound(expr):
    # every tensor contraction over GF(p^2) sums products near 2^60
    F = parse(expr, 2, EDGE)
    assert _gfp.gf_batch_fits(F.deg_t, 2, EDGE.p)
    rng = random.Random(expr)
    values = [0, 1, EDGE.p, EDGE.q - 1] + [rng.randrange(EDGE.q) for _ in range(3)]
    points = [(a, b) for a in values for b in values[::2]] + [(values[-1], values[-1])]
    assert _blocked(F, points, 5) == [_scalar(F, pt) for pt in points]


def test_extension_patched_bound_takes_the_object_path():
    F = parse("t^4 + A1*t^2 + A2*t + 1", 2, FieldCtx(3, 2, seed=1))
    points = list(itertools.product(range(9), repeat=2))
    batched = _blocked(F, points, 5)
    with mock.patch.object(_gfp, "_INT64_LIMIT", 0), mock.patch.object(
        _gfp, "gf_spec_types", wraps=_gfp.gf_spec_types
    ) as spy:
        assert not _gfp.gf_batch_fits(4, 2, 3)
        assert list(classify_points(F, points)) == batched
    assert _dtypes(spy) == {np.dtype(object)}


@pytest.mark.parametrize("ctx", [FieldCtx(7), FieldCtx(5, 2, seed=1), FieldCtx(2, 3, seed=1)], ids=repr)
@pytest.mark.parametrize("expr", ["t^3 + A1*t + A2", "A1*t^4 + A2*t^2 + 1", "t^6 + A1*t^3 + A2*t + A1"])
def test_a_block_gives_the_same_keys_on_both_dtypes(ctx, expr):
    F = parse(expr, 2, ctx)
    codes, _ = ctx.encodings(list(itertools.product(range(ctx.q), repeat=2)), 2)
    keys = {}
    for fits in (True, False):
        with mock.patch.object(_gfp, "gf_batch_fits", return_value=fits), mock.patch.object(
            mpoly, "_SPEC_BLOCK", 1 << 30
        ):
            (keys[fits],) = mpoly.spec_keys(F, codes)
    assert keys[True].dtype == np.int64 and keys[False].dtype == np.int64
    assert keys[True].tolist() == keys[False].tolist()


# GF(p^2) past the int64 bound: 2^31 - 1 at 4 p^2 >= 2^62, 2^61 - 1 with
# q >= 2^62, and 2^89 - 1 with a multiplication tensor past int64
@pytest.mark.parametrize("p", [2**31 - 1, 2**61 - 1, 2**89 - 1])
@pytest.mark.parametrize("expr", ["t^3 + A1*t + A2", "(t - A1)^2*(t - A2)", "A1*t^4 + A2*t + 1"])
def test_extension_object_path_matches_the_scalar_splitting(p, expr):
    ctx = FieldCtx(p, 2, seed=1)
    F = parse(expr, 2, ctx)
    rng = random.Random(expr)
    values = [0, 1, p, ctx.q - 1] + [rng.randrange(ctx.q) for _ in range(2)]
    points = [(a, b) for a in values for b in values[::2]]
    with mock.patch.object(_gfp, "gf_spec_types", wraps=_gfp.gf_spec_types) as spy:
        got = list(classify_points(F, points))
    assert _dtypes(spy) == {np.dtype(object)}
    assert got == [_scalar(F, pt) for pt in points]


def test_bound_counts_the_tensor_and_the_encodings():
    # max(d, k^2) p^2 < 2^62: 1073741789 and 1073741827 are the primes on
    # either side of 2^30, so 4 p^2 passes 2^62 between them
    below, above = 1073741789, 1073741827
    assert _gfp.gf_batch_fits(4, 2, below) and not _gfp.gf_batch_fits(4, 2, above)
    assert _gfp.gf_batch_fits(2, 1, above) and not _gfp.gf_batch_fits(2, 2, above)
    assert not _gfp.gf_batch_fits(5, 2, below)
    # q < 2^62, since points are read into int64 as encodings
    assert _gfp.gf_batch_fits(6, 61, 2) and not _gfp.gf_batch_fits(6, 62, 2)


@pytest.mark.parametrize("bad", [-1, 9, 10**30, -(10**30)])
def test_out_of_range_coordinate_on_an_extension_raises(bad):
    F = parse("t^2 + A1", 1, FieldCtx(3, 2, seed=1))
    with _deadline(5):
        with pytest.raises(ValueError):
            mpoly.classify_specialization(F, (bad,))
        for size in (1, 2, 8):
            with mock.patch.object(mpoly, "_SPEC_BLOCK", size * 16), mock.patch.object(
                mpoly, "_SPEC_MIN", 1
            ):
                it = classify_points(F, [(1,), (2,), (bad,), (0,)])
                assert next(it) == _scalar(F, (1,))
                assert next(it) == _scalar(F, (2,))
                with pytest.raises(ValueError):
                    next(it)
        with mock.patch.object(_gfp, "_INT64_LIMIT", 0):
            it = classify_points(F, [(1,), (bad,)])
            assert next(it) == _scalar(F, (1,))
            with pytest.raises(ValueError):
                next(it)


def test_wrong_length_point_raises_after_the_earlier_outcomes():
    F = parse("t^2 + A1", 1, FieldCtx(7))
    for size in (1, 3, 8):
        with mock.patch.object(mpoly, "_SPEC_BLOCK", size * 4), mock.patch.object(
            mpoly, "_SPEC_MIN", 1
        ):
            it = classify_points(F, [(1,), (3,), (0, 1), (2,)])
            assert next(it) == (2,)  # t^2 + 1: -1 is not a square mod 7
            assert next(it) == (1, 1)  # t^2 + 3: -3 = 4 is
            with pytest.raises(ArityMismatchError):
                next(it)


def test_constant_in_t_and_empty_input():
    with pytest.raises(NotAdmissibleError):
        next(classify_points(parse("A1 + 1", 1, FieldCtx(101)), iter([(1,)])))
    F = parse("t^3 + A1", 1, FieldCtx(101))
    assert list(classify_points(F, [])) == []
    assert list(classify_points(F, iter(()))) == []



def test_blocks_hold_at_least_spec_min_points():
    # d^2 k^2 = 1600 would leave _SPEC_BLOCK / 1600 = 5 points a block
    F = parse("t^5 + A1*t^2 + A1", 1, FieldCtx(2, 8, seed=3))
    points = [(a,) for a in range(F.ctx.q)]
    assert mpoly._SPEC_BLOCK // (25 * 64) < mpoly._SPEC_MIN == 32
    with mock.patch.object(_gfp, "gf_spec_types", wraps=_gfp.gf_spec_types) as spy:
        got = list(classify_points(F, points))
    sizes = [len(call.args[0]) for call in spy.call_args_list]
    assert sum(sizes) == len(points) and min(sizes) >= 32
    assert got == [_scalar(F, pt) for pt in points]


# -- the dtype ladder: int32, int64, object ---------------------------------------


def _edge_primes(d, k):
    """The last prime inside and the first outside the int32 bound
    max(d, k^2) p^2 < _INT32_LIMIT."""
    top = math.isqrt((_gfp._INT32_LIMIT - 1) // max(d, k * k))
    return sympy.prevprime(top + 1), sympy.nextprime(top)


@functools.lru_cache(maxsize=None)
def _field(p, k):
    return FieldCtx(p, k, seed=1)


def _keys_on_every_rung(rows, ctx):
    """{dtype: keys} of gf_spec_types over rows of encodings (one polynomial
    a row, ascending) on the rung gf_dtype picks and on every wider one."""
    d = len(rows[0]) - 1
    codes = np.array(rows, dtype=object)
    got = {}
    for rung in (np.int32, np.int64, object):
        with _rung(rung):
            dtype = np.dtype(_gfp.gf_dtype(d, ctx.k, ctx.p))
            got[dtype] = _gfp.gf_spec_types(ctx.decode(codes.astype(dtype)), ctx.vec).tolist()
    return got


def _scalar_key(row, ctx):
    return _gfp.gf_type_key(spec_type(row, ctx) if row[-1] else DEGREE_DROP, len(row) - 1)


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_every_rung_gives_the_keys_of_the_scalar_splitting(data):
    # the same blocks on int32 (where it fits), int64 and object, over GF(p)
    # and GF(p^2), at small primes and on either side of the int32 bound
    k = data.draw(st.sampled_from([1, 2]), label="k")
    d = data.draw(st.integers(1, 8), label="d")
    p = data.draw(st.sampled_from([2, 3, 7, 101, *_edge_primes(d, k)]), label="p")
    ctx = _field(p, k)
    element = st.sampled_from([0, 1, p - 1, ctx.q - 1]) | st.integers(0, ctx.q - 1)
    rows = data.draw(st.lists(st.lists(element, min_size=d + 1, max_size=d + 1), min_size=1, max_size=4))
    got = _keys_on_every_rung(rows, ctx)
    wide = {np.dtype(np.int64), np.dtype(object)}
    narrow = max(d, k * k) * p * p < _gfp._INT32_LIMIT
    assert set(got) == (wide | {np.dtype(np.int32)} if narrow else wide)
    want = [_scalar_key(row, ctx) for row in rows]
    assert all(keys == want for keys in got.values())


@pytest.mark.parametrize("side", ["inside", "outside"])
@pytest.mark.parametrize("d", [2, 3, 6])
def test_all_p_minus_1_rows_at_the_int32_bound(d, side):
    # coefficients p - 1 make every raw product (p - 1)^2, the largest a
    # block holds, at the last prime inside the int32 bound and the first
    # prime outside it
    p = _edge_primes(d, 1)[side == "outside"]
    assert _gfp.gf_dtype(d, 1, p) is (np.int32 if side == "inside" else np.int64)
    ctx = _field(p, 1)
    rng = random.Random(d * p)
    rows = [[p - 1] * (d + 1)]
    rows += [[p - 1] * i + [c] + [p - 1] * (d - i) for i in range(d + 1) for c in (0, 1)]
    rows += [[rng.choice([p - 1, rng.randrange(p)]) for _ in range(d + 1)] for _ in range(20)]
    got = _keys_on_every_rung(rows, ctx)
    want = [_scalar_key(row, ctx) for row in rows]
    assert len(got) == 3 - (side == "outside")
    assert all(keys == want for keys in got.values())


# leading coefficients in t that vanish mod no odd p: constants, and A1 and
# A1 + 1, which vanish at one value of A1 (a degree drop there)
_LEADS = [{(): 1}, {(): -1}, {(): 2}, {(1,): 1}, {(1,): 1, (): 1}]


@st.composite
def _integer_families(draw):
    """Random F(t, A1..An) of degree d = 2..6 in t with integer coefficients
    in [-4, 4], each lower coefficient a sum of up to two monomials in A of
    degree <= 2; the terms as {(e_t, e_1..e_n): c}, with n and d."""
    n, d = draw(st.integers(1, 2), label="n"), draw(st.integers(2, 6), label="d")
    exponent = st.tuples(*[st.integers(0, 2)] * n).filter(lambda e: sum(e) <= 2)
    terms = {}
    lead = draw(st.sampled_from(_LEADS))
    for e, c in lead.items():
        terms[(d, *e, *(0,) * (n - len(e)))] = c
    for i in range(d):
        for e in draw(st.lists(exponent, max_size=2, unique=True)):
            terms[(i, *e)] = terms.get((i, *e), 0) + draw(st.integers(-4, 4).filter(bool))
    return n, d, terms


@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from([(3, 1), (5, 1), (7, 1), (13, 1), (101, 1), (3, 2), (5, 2), (3, 3)]),
    _integer_families(),
    st.data(),
)
def test_keys_obey_stickelbergers_parity_law(field, family, data):
    # chi(disc F(t, a)) = (-1)^(d - r) for r irreducible factors, and
    # disc F(t, a) = 0 exactly at the non-squarefree points, on every rung
    ctx, (n, d, terms) = _field(*field), family
    F = MultiPoly(ctx, n, {e: c % ctx.p for e, c in terms.items()})
    assert F.deg_t == d
    D = parity_oracle.discriminant_terms(terms, n)
    element = st.integers(0, ctx.q - 1)
    points = data.draw(st.lists(st.tuples(*[element] * n), min_size=10, max_size=30), label="points")
    want = [parity_oracle.character(ctx, parity_oracle.evaluate(D, ctx, a)) for a in points]
    dtypes = set()
    for rung in (np.int32, np.int64, object):
        with _rung(rung):
            dtypes.add(_gfp.gf_dtype(d, ctx.k, ctx.p))
            outcomes = list(classify_points(F, points))
        for a, outcome, chi in zip(points, outcomes, want):
            if outcome != DEGREE_DROP:
                assert parity_oracle.predicted_character(outcome, d) == chi, (rung, a, outcome)
    assert dtypes == {np.int32, np.int64, object}


@pytest.mark.parametrize(
    "ctx, poly",
    [
        (FieldCtx(101), "t^3 + A1*t + A2"),
        (FieldCtx(5, 2, seed=3), "t^3 + A1*t + A2"),
        (FieldCtx(53), "t^5 + A1*t + A2"),
    ],
    ids=repr,
)
def test_the_compare_sweep_stays_on_int32(ctx, poly):
    # a dtype spy on every product, reduction and rank of the benchmark's
    # compare sweep (the cubic over GF(101)^2) and of its dist sweeps over
    # GF(25)^2 and, with a Frobenius matrix, GF(53)^2: no temporary widens
    seen = set()

    def spy(fn, result):
        def wrapped(*args):
            out = fn(*args)
            arrays = [*args, out] if result else args
            seen.update(a.dtype for a in arrays if isinstance(a, np.ndarray))
            return out

        return wrapped

    F = parse(poly, 2, ctx)
    with mock.patch.object(_gfp.VecField, "outer", spy(_gfp.VecField.outer, True)), mock.patch.object(
        _gfp.VecField, "reduce", spy(_gfp.VecField.reduce, True)
    ), mock.patch.object(_gfp, "_vrank", spy(_gfp._vrank, False)):
        dist = empirical_distribution(F, FullSpace(2))
    assert dist.total == ctx.q**2
    assert seen == {np.dtype(np.int32)}


def test_blocks_are_sized_in_bytes():
    # an int32 block holds twice the points of an int64 or object one
    ctx = FieldCtx(101)
    F = parse("t^3 + A1*t + A2", 2, ctx)
    codes, _ = ctx.encodings(list(itertools.product(range(101), repeat=2)), 2)
    sizes = {}
    for rung in (np.int32, np.int64, object):
        with _rung(rung), mock.patch.object(_gfp, "gf_spec_types", wraps=_gfp.gf_spec_types) as spy:
            keys = np.concatenate(list(mpoly.spec_keys(F, codes)))
        sizes[rung] = [len(call.args[0]) for call in spy.call_args_list]
        assert len(keys) == len(codes)
    entries = mpoly._SPEC_BLOCK // 9
    assert set(sizes[np.int32][:-1]) == {2 * entries} and sizes[np.int64] == sizes[object]
    assert set(sizes[np.int64][:-1]) == {entries}
