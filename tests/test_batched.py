"""The batched classifier (``_gfp.gf_spec_types`` behind
``mpoly.classify_points``) over prime and extension fields, against the
scalar path and independent oracles."""

import contextlib
import itertools
import math
import random
import signal
from unittest import mock

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from ffstats import _gfp, mpoly
from ffstats.errors import ArityMismatchError, NotAdmissibleError
from ffstats.field import FieldCtx
from ffstats.mpoly import DEGREE_DROP, NON_SQUAREFREE, MultiPoly, classify_points, parse
from ffstats.stats import partitions
from ffstats.unipoly import discriminant

# 759250111 is the largest prime with 8 p^2 < 2^62: every d <= 8 runs at the
# edge of the int64 bound.
PRIMES = [2, 3, 5, 7, 13, 101, 10007, 1000003, 759250111]


# The per-point path: specialize_dense and distinct-degree splitting.
_scalar = mpoly._classify_one


def _blocked(F, points, size):
    """classify_points with blocks of exactly `size` points; asserts that the
    batched kernel classified every point."""
    d, k = max(F.deg_t, 1), F.ctx.k
    with mock.patch.object(mpoly, "_SPEC_BLOCK", size * d * d * k * k), mock.patch.object(
        _gfp, "gf_spec_types", wraps=_gfp.gf_spec_types
    ) as spy:
        got = list(classify_points(F, points))
    assert sum(len(call.args[0]) for call in spy.call_args_list) == len(points)
    return got


def _refuse(*args):
    raise AssertionError("the batched kernel ran")


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


def test_patched_bound_takes_the_scalar_path():
    F = parse("t^4 + A1*t^2 + A2*t + 1", 2, FieldCtx(13))
    points = list(itertools.product(range(13), repeat=2))
    batched = _blocked(F, points, 5)
    with mock.patch.object(_gfp, "_INT64_LIMIT", 0), mock.patch.object(
        _gfp, "gf_spec_types", _refuse
    ):
        assert not _gfp.gf_batch_fits(4, 1, 13)
        assert list(classify_points(F, points)) == batched


def test_large_prime_takes_the_scalar_path_and_matches_sympy():
    p = 2**31 - 1
    assert not _gfp.gf_batch_fits(3, 1, p)
    F = parse("t^3 + A1*t + A2", 2, FieldCtx(p))
    points = [(0, 0), (p - 3, 2), (1, 1), (5, 7), (123456789, 987654321), (p - 1, 0)]
    with mock.patch.object(_gfp, "gf_spec_types", _refuse):
        got = list(classify_points(F, points))
    t = sympy.Symbol("t")
    for (a1, a2), outcome in zip(points, got):
        _, factors = sympy.Poly([1, 0, a1, a2], t, modulus=p).factor_list()
        if any(m > 1 for _, m in factors):
            assert outcome == NON_SQUAREFREE
        else:
            assert outcome == tuple(sorted((f.degree() for f, _ in factors), reverse=True))
    assert got[0] == NON_SQUAREFREE  # t^3
    assert got[1] == NON_SQUAREFREE  # t^3 - 3t + 2 = (t - 1)^2 (t + 2)


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


@pytest.mark.parametrize("p,d", [(11, 3), (13, 3), (11, 4)])
def test_necklace_counts_across_blocks(p, d):
    # t^d + A1*t^(d-1) + ... + Ad lists every monic polynomial of degree d
    # once: a type with m_e parts e is counted by prod_e C(N_q(e), m_e)
    poly = " + ".join([f"t^{d}"] + [f"A{i}*t^{d - i}" for i in range(1, d)] + [f"A{d}"])
    F = parse(poly, d, FieldCtx(p))
    outcomes = _blocked(F, list(itertools.product(range(p), repeat=d)), 97)
    expected = {}
    for parts in partitions(d):
        count = 1
        for e in set(parts):
            count *= math.comb(_irreducible_count(p, e), parts.count(e))
        if count:
            expected[parts] = count
    expected[NON_SQUAREFREE] = p ** (d - 1)
    got = {}
    for outcome in outcomes:
        got[outcome] = got.get(outcome, 0) + 1
    assert got == expected


def test_points_are_reduced_before_int64():
    F = parse("t^2 + A1*t + A2", 2, FieldCtx(101))
    points = [(-1, 10**30), (10**30, -1), (-5, -(10**40)), (202, 303)]
    got = _blocked(F, points, 3)
    assert got == [_scalar(F, pt) for pt in points]
    assert got == [_scalar(F, tuple(a % 101 for a in pt)) for pt in points]


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


def test_extension_patched_bound_takes_the_scalar_path():
    F = parse("t^4 + A1*t^2 + A2*t + 1", 2, FieldCtx(3, 2, seed=1))
    points = list(itertools.product(range(9), repeat=2))
    batched = _blocked(F, points, 5)
    with mock.patch.object(_gfp, "_INT64_LIMIT", 0), mock.patch.object(
        _gfp, "gf_spec_types", _refuse
    ):
        assert not _gfp.gf_batch_fits(4, 2, 3)
        assert list(classify_points(F, points)) == batched


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
            with mock.patch.object(mpoly, "_SPEC_BLOCK", size * 16):
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
        with mock.patch.object(mpoly, "_SPEC_BLOCK", size * 4):
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

