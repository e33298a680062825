"""The batched prime-field classifier (``_gfp.gf_spec_types`` behind
``mpoly.classify_points``) against the scalar path and independent oracles."""

import itertools
import math
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
    """classify_points with blocks of exactly `size` points."""
    d = max(F.deg_t, 1)
    with mock.patch.object(mpoly, "_SPEC_BLOCK", size * d * d):
        return list(classify_points(F, points))


def _refuse(*args):
    raise AssertionError("the batched kernel ran")


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
    assert _gfp.gf_batch_fits(F.deg_t, F.ctx.p)
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
        assert not _gfp.gf_batch_fits(4, 13)
        assert list(classify_points(F, points)) == batched


def test_large_prime_takes_the_scalar_path_and_matches_sympy():
    p = 2**31 - 1
    assert not _gfp.gf_batch_fits(3, p)
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

