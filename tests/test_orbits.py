"""The full-space law from one point per torus orbit: ``mpoly.torus_weights``,
``sets.TorusOrbits`` and the orbit path of ``stats.empirical_distribution``
and ``stats.weil_sweep``, against ``mpoly.spec_keys`` on every point of
``point_codes(FullSpace(n))``, tallied directly."""

import contextlib
import math
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ffstats import _gfp, mpoly, sets
from ffstats.field import FieldCtx
from ffstats.mpoly import DEGREE_DROP, NON_SQUAREFREE, MultiPoly, parse, torus_weights
from ffstats.sets import FullSpace, TorusOrbits, point_codes
from ffstats.stats import empirical_distribution, partitions, weil_sweep

FIELDS = [FieldCtx(p) for p in (2, 3, 5, 7, 11, 13)] + [FieldCtx(2, 2), FieldCtx(3, 2)]
GF8 = FieldCtx(2, 3)


def _direct(F):
    """The reference: spec_keys on every point of the full space, tallied."""
    keys = np.concatenate(list(mpoly.spec_keys(F, point_codes(FullSpace(F.n), F.ctx))))
    return Counter(_gfp.gf_key_type(key, F.deg_t) for key in keys.tolist())


def _orbit_tally(F):
    """empirical_distribution's counts (admissibility aside: only the counts
    are compared), with a spy on the rows spec_keys classifies."""
    rows = []

    def spy(F, codes):
        rows.append(len(codes))
        return spec_keys(F, codes)

    spec_keys = mpoly.spec_keys
    with mock.patch.object(mpoly, "require_classifiable"), mock.patch.object(mpoly, "spec_keys", spy):
        dist = empirical_distribution(F, FullSpace(F.n))
    assert dist.total == F.ctx.q**F.n
    tally = Counter(dist.counts)
    tally[NON_SQUAREFREE] = dist.non_squarefree
    tally[DEGREE_DROP] = dist.degree_drop
    return +tally, sum(rows)


def _check_against_the_direct_sweep(F):
    weights = torus_weights(F)
    q = F.ctx.q
    single = weights is None or not any(w % (q - 1) for w in weights[1])  # every orbit one point
    # then the points are swept, and no orbit is listed
    unlisted = mock.patch.object(sets, "TorusOrbits", side_effect=AssertionError)
    with unlisted if single else contextlib.nullcontext():
        tally, rows = _orbit_tally(F)
    assert tally == _direct(F)
    assert rows == (q**F.n if single else TorusOrbits(weights[1], F.ctx).count)
    assert single or rows < q**F.n
    return weights


@st.composite
def _homogeneous(draw):
    """A family with every monomial t^e A^m on L e + w.m = L d: the weights
    are drawn first (zero, negative, sharing a factor with q - 1), then
    monomials of that weight with m_i <= 3, one of them of degree d in t."""
    ctx = draw(st.sampled_from(FIELDS + [GF8]), label="field")
    n = 2 if ctx is GF8 else draw(st.integers(1, 2), label="n")
    d = draw(st.integers(1, 4), label="d")
    L = draw(st.integers(0, 3), label="L")
    w = draw(st.lists(st.integers(-2, 4), min_size=n, max_size=n), label="w")
    L += not any([L, *w])  # a nonzero solution, so torus_weights finds one
    boxes = [range(d + 1)] + [range(4)] * n
    cells = np.indices([len(r) for r in boxes]).reshape(n + 1, -1).T.tolist()
    same = [tuple(e) for e in cells if L * e[0] + sum(m * x for m, x in zip(e[1:], w)) == L * d]
    top = [e for e in same if e[0] == d]  # (d, 0, ..., 0) is one
    chosen = {draw(st.sampled_from(top), label="lead")}
    chosen |= set(draw(st.lists(st.sampled_from(same), max_size=4), label="terms"))
    coeff = st.integers(1, ctx.q - 1)
    return MultiPoly(ctx, n, {e: draw(coeff) for e in sorted(chosen)})


@settings(max_examples=150, deadline=None)
@given(_homogeneous())
def test_the_orbit_path_equals_the_direct_sweep(F):
    assert torus_weights(F) is not None
    _check_against_the_direct_sweep(F)


@pytest.mark.parametrize(
    "poly, ctx, check",
    [
        # A2 weighs 0: F(t, c^2 a1, a2) = c^2 F(c^-1 t, a1, a2)
        ("t^2 + A1*A2 + A1", FieldCtx(7), lambda L, w, D: w[1] == 0),
        # 2 and 3 share a factor with q - 1 = 12 and 6, 8
        ("t^3 + A1*t + A2", FieldCtx(13), lambda L, w, D: w == (2, 3)),
        ("t^3 + A1*t + A2", FieldCtx(7), lambda L, w, D: w == (2, 3)),
        ("t^3 + A1*t + A2", FieldCtx(3, 2), lambda L, w, D: w == (2, 3)),
        # A2 unused: its weight is free, and set to 1
        ("t^3 + A1*t + A3", FieldCtx(5), lambda L, w, D: w == (2, 1, 3)),
        # L = 3: F(c^3 t, c^2 a) = c^6 F(t, a)
        ("t^2 + A1^3", FieldCtx(13), lambda L, w, D: (L, w, D) == (3, (2,), 6)),
        ("t^2 + A1^3", FieldCtx(2, 2), lambda L, w, D: L == 3),
        # negative weights, with L = 1 and with L = 0
        ("A1*t^3 + t^2 + A2", FieldCtx(11), lambda L, w, D: w == (-1, 2)),
        ("t^3 + A1*A2*t + 1", FieldCtx(7), lambda L, w, D: L == 0 and w == (-1, 1)),
        ("t^3 + A1*A2*t + 1", FieldCtx(3, 2), lambda L, w, D: L == 0 and w == (-1, 1)),
        # GF(2): q - 1 = 1, every orbit a single point
        ("t^3 + A1*t + A2", FieldCtx(2), lambda L, w, D: True),
        ("t^2 + A1*t + A2", FieldCtx(2), lambda L, w, D: True),
        ("t^4 + A1*t^2 + A2*t + A3", FieldCtx(2, 3), lambda L, w, D: w == (2, 3, 4)),
        # every weight 0 mod q - 1 = 2: single points again
        ("t^2 + A1 + A2", FieldCtx(3), lambda L, w, D: w == (2, 2)),
        # weights past int64, read mod q - 1 before any array holds them
        ("t^2 - A1^" + str(10**23), FieldCtx(7), lambda L, w, D: (L, w, D) == (5 * 10**22, (1,), 10**23)),
    ],
    ids=[
        "zero-weight",
        "gcd-13",
        "gcd-7",
        "gcd-9",
        "unused-parameter",
        "L3-13",
        "L3-4",
        "negative-L1",
        "negative-L0-7",
        "negative-L0-9",
        "gf2-cubic",
        "gf2-quadratic",
        "gf8-quartic",
        "zero-mod-q-minus-1",
        "huge-weights",
    ],
)
def test_each_kind_of_weight_against_the_direct_sweep(poly, ctx, check):
    F = parse(poly, mpoly.infer_parameter_count(poly), ctx)
    weights = _check_against_the_direct_sweep(F)
    assert weights is not None and check(*weights)


def test_gf2_orbits_are_single_points():
    orbits = TorusOrbits((2, 3), FieldCtx(2))
    codes, sizes = orbits.representatives()
    assert orbits.count == 4 and (sizes == 1).all()
    assert sorted(map(tuple, codes.tolist())) == [(0, 0), (0, 1), (1, 0), (1, 1)]


@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from(FIELDS + [GF8, FieldCtx(101), FieldCtx(5, 2)]),
    st.lists(st.integers(-30, 30), min_size=1, max_size=3),
)
def test_orbit_sizes_sum_to_the_space_and_expand_to_it(ctx, weights):
    n = len(weights)
    orbits = TorusOrbits(weights, ctx)
    codes, sizes = orbits.representatives()
    assert len(codes) == len(sizes) == orbits.count
    assert int(sizes.sum()) == ctx.q**n
    # each size is (q - 1)/gcd(q - 1, w_T) of the representative's support T
    for row, size in zip(codes.tolist(), sizes.tolist()):
        support = [w for w, a in zip(weights, row) if a]
        assert size == (ctx.q - 1) // math.gcd(ctx.q - 1, *support)
    # the orbits of the representatives cover the space once, in point_codes order
    points = point_codes(FullSpace(n), ctx)
    assert np.array_equal(points[(sizes > 0)[orbits.labels(codes, sizes)]], points)


def _expand(orbits, codes, sizes):
    """The reference expansion: every point of the orbits of codes, a scatter
    into a mask of GF(q)^n, read back in point_codes order."""
    q, n = orbits.ctx.q, len(orbits.weights)
    power, log = sets._log_table(orbits.ctx.p, orbits.ctx.tail)
    reps = np.repeat(codes, sizes, axis=0)
    moved = np.where(reps != 0, power[(log[reps] + sets._ranks(sizes)[:, None] * orbits.weights) % (q - 1)], 0)
    place = q ** np.arange(n - 1, -1, -1)
    seen = np.zeros(q**n, bool)
    seen[moved @ place] = True
    return np.flatnonzero(seen)[:, None] // place % q


@st.composite
def _orbits_and_a_choice(draw):
    """Orbits over GF(p), GF(4), GF(9) or GF(8)^2, for weights with zeros and
    weights sharing factors with q - 1, and a subset of the representatives."""
    ctx = draw(st.sampled_from([FieldCtx(p) for p in (3, 5, 7, 13)] + [FieldCtx(2, 2), FieldCtx(3, 2), GF8]))
    n = 2 if ctx is GF8 else draw(st.integers(1, 3))
    weight = st.sampled_from([0, 0, 2, 3, 4, 6, 8, 12, -2, -3]) | st.integers(-30, 30)
    orbits = TorusOrbits(draw(st.lists(weight, min_size=n, max_size=n)), ctx)
    hit = np.array(draw(st.lists(st.booleans(), min_size=orbits.count, max_size=orbits.count)))
    return orbits, hit


@settings(max_examples=100, deadline=None)
@given(_orbits_and_a_choice())
def test_labels_name_the_orbit_of_each_point(case):
    orbits, hit = case
    ctx, weights = orbits.ctx, orbits.weights.tolist()
    codes, sizes = orbits.representatives()
    labels = orbits.labels(codes, sizes)
    assert len(labels) == ctx.q ** len(weights)
    assert np.array_equal(np.bincount(labels, minlength=orbits.count), sizes)
    # each point is c.rep for some c != 0, by scalar field arithmetic
    orbit = [
        {tuple(ctx.mul(ctx.pow(c, w), a) for w, a in zip(weights, rep)) for c in range(1, ctx.q)}
        for rep in codes.tolist()
    ]
    points = point_codes(FullSpace(len(weights)), ctx)
    assert all(tuple(x) in orbit[r] for x, r in zip(points.tolist(), labels.tolist()))
    # the points that the labels give the chosen orbits are their reference expansion
    assert np.array_equal(points[hit[labels]], _expand(orbits, codes[hit], sizes[hit]))


def test_torus_weights():
    ctx = FieldCtx(101)
    assert torus_weights(parse("t^3 + A1*t + A2", 2, ctx)) == (1, (2, 3), 3)
    assert torus_weights(parse("t^5 + A1*t + A2", 2, ctx)) == (1, (4, 5), 5)
    assert torus_weights(parse("t^2 + A1^3", 1, ctx)) == (3, (2,), 6)
    # the constant forces D = 0, then L = 0 and w = 0
    assert torus_weights(parse("t^3 + A1*t + 1", 1, ctx)) is None
    # 2 w1 = 3 = 1 + w1 has no solution but zero
    assert torus_weights(parse("t^3 + A1*t + A2 + A1^2", 2, ctx)) is None


@pytest.mark.parametrize(
    "poly",
    ["t^3 + A1*t + 1", "t^3 + A1*t + A2 + A1^2"],
)
def test_a_family_that_is_not_weighted_homogeneous_classifies_every_point(poly):
    F = parse(poly, mpoly.infer_parameter_count(poly), FieldCtx(13))
    assert torus_weights(F) is None
    _, rows = _orbit_tally(F)
    assert rows == 13**F.n


def test_the_cubic_classifies_one_row_per_orbit():
    F = parse("t^3 + A1*t + A2", 2, FieldCtx(101))
    tally, rows = _orbit_tally(F)
    assert rows == TorusOrbits((2, 3), F.ctx).count == 104
    assert tally == _direct(F)


def _bits(sweep):
    return [(q, b, mag.hex(), ratio.hex()) for q, b, mag, ratio in sweep.rows], sweep.max_ratio.hex(), sweep.terms


@pytest.mark.parametrize(
    "poly, ctx",
    [
        ("t^3 + A1*t + A2", FieldCtx(13)),
        ("t^3 + A1*t + A2", FieldCtx(5, 2)),
        ("t^2 + A1^3", FieldCtx(3, 2)),
        ("t^3 + A1*A2*t + 1", FieldCtx(7)),
        ("A1*t^3 + t^2 + A2", FieldCtx(11)),
        ("t^2 - A1", FieldCtx(31)),
        # a class of at least p points takes the spectrum at one frequency per
        # orbit; [1,1,1,1] over GF(7) has 5 points and sweeps every frequency
        ("t^3 + A1*t + A2", FieldCtx(53)),
        ("t^4 + A1*t^2 + A2*t + A3", FieldCtx(7)),
        ("t^3 + A1*t + A2", GF8),
    ],
)
def test_weil_sweep_rows_are_bit_equal_to_the_direct_sweep(poly, ctx):
    F = parse(poly, mpoly.infer_parameter_count(poly), ctx)
    assert torus_weights(F) is not None
    for parts in partitions(F.deg_t):
        sweeps = [weil_sweep(F, parts)]
        with mock.patch.object(mpoly, "torus_weights", lambda F: None):
            sweeps.append(weil_sweep(F, parts))
        assert _bits(sweeps[0]) == _bits(sweeps[1])


@pytest.mark.parametrize(
    "poly, ctx, parts, dual",
    [
        ("t^3 + A1*t + A2", FieldCtx(53), (3,), True),
        ("t^3 + A1*t + A2", FieldCtx(53), (2, 1), True),
        ("t^4 + A1*t^2 + A2*t + A3", FieldCtx(7), (4,), True),
        ("t^3 + A1*t + A2", GF8, (3,), True),
        # 15 squares, 15 non-squares: fewer than p points, the sparse path
        ("t^2 - A1", FieldCtx(31), (2,), False),
        ("t^2 + A1^3", FieldCtx(13), (1, 1), False),
    ],
)
def test_the_spectrum_is_taken_once_per_orbit_on_the_histogram_path(poly, ctx, parts, dual):
    F = parse(poly, mpoly.infer_parameter_count(poly), ctx)
    calls = []

    def spy(points, freqs, *args, **kwargs):
        calls.append((len(points), len(freqs)))
        return phase_sums(points, freqs, *args, **kwargs)

    phase_sums = sets.phase_sums
    with mock.patch.object(sets, "phase_sums", spy):
        sweep = weil_sweep(F, parts)
    [(terms, freqs)] = calls
    qn = ctx.q**F.n
    assert terms == sweep.terms and (terms >= ctx.p) == dual
    assert freqs == (TorusOrbits(torus_weights(F)[1], ctx).count - 1 if dual else qn - 1)
    assert len(sweep.rows) == len(sweep.magnitudes) == len(sweep.ratios) == qn - 1
