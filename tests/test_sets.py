import cmath
import itertools
import math
import random
import time
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ffstats import mpoly, sets
from ffstats.cli import main
from ffstats.errors import ArityMismatchError, BudgetExceededError, DegreeMismatchError
from ffstats.field import FieldCtx, cyclotomic_rows
from ffstats.mpoly import parse
from ffstats.stats import empirical_distribution, weil_sweep
from ffstats.sets import (
    APSpec,
    ExplicitSet,
    FullSpace,
    GridProduct,
    TraceZero,
    cardinality,
    enumerate_points,
    indicator_fourier,
    interval_irreg_bound,
    irregularity,
    load_points_file,
    parse_point,
    parse_set,
    phase_counts,
    phase_sums,
    point_codes,
    split_top_level,
    verify_plancherel_decomposition,
)
from scalar_splitting import classify_one

# ---------------------------------------------------------------------------
# brute-force spectral oracle: literal complex DFT from the definition
# ---------------------------------------------------------------------------


def brute_spectrum(points, ctx, n):
    q, p = ctx.q, ctx.p
    values = {}
    for b in itertools.product(range(q), repeat=n):
        acc = 0j
        for a in points:
            dot = 0
            for ai, bi in zip(a, b):
                dot = ctx.add(dot, ctx.mul(ai, bi))
            acc += cmath.exp(-2j * cmath.pi * ctx._trace_raw(dot) / p)
        values[b] = acc / q**n
    return values


def brute_irreg(points, ctx, n):
    spec = brute_spectrum(points, ctx, n)
    return q_pow(ctx, n) / len(points) * sum(abs(v) for v in spec.values())


def q_pow(ctx, n):
    return ctx.q**n


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------


def test_enumerate_full_space():
    assert enumerate_points(FullSpace(1), FieldCtx(3)) == [(0,), (1,), (2,)]
    pts = enumerate_points(FullSpace(2), FieldCtx(3))
    assert len(pts) == 9 and pts[0] == (0, 0) and pts == sorted(pts)


def test_enumerate_interval():
    pts = enumerate_points(GridProduct([APSpec(1, 2, 3)]), FieldCtx(7))
    assert pts == [(2,), (3,), (4,)]


def test_enumerate_progression_wraps():
    pts = enumerate_points(GridProduct([APSpec(3, 1, 4)]), FieldCtx(7))
    assert pts == [(1,), (4,), (0,), (3,)]


def test_enumerate_tracezero_f9():
    ctx = FieldCtx(3, 2, modulus=[1, 0, 1])
    pts = enumerate_points(TraceZero(), ctx)
    assert pts == [(0,), (3,), (6,)]  # 0, x, 2x
    assert cardinality(TraceZero(), ctx) == 3


@pytest.mark.parametrize("p,k", [(2, 2), (2, 3), (3, 2), (3, 3), (7, 3), (2, 12)])
def test_enumerate_tracezero_matches_scalar_trace(p, k):
    # the set is read from the trace form over decoded coordinates; the
    # scalar trace, element by element, is the reference
    ctx = FieldCtx(p, k, seed=0)
    expect = [(a,) for a in range(ctx.q) if ctx.trace(a) == 0]
    assert enumerate_points(TraceZero(), ctx) == expect


def test_explicit_set_validation():
    ctx = FieldCtx(5)
    with pytest.raises(ValueError):
        cardinality(ExplicitSet([(1,), (1,)]), ctx)  # duplicate point
    with pytest.raises(ArityMismatchError):
        cardinality(ExplicitSet([(1, 2), (1,)]), ctx)
    with pytest.raises(ValueError):
        cardinality(ExplicitSet([(7,)]), ctx)  # out of range
    # a set lists encodings, strictly in [0, q) on every field, past int64 too
    for bad in (-1, 5, 2**64, -(2**64)):
        with pytest.raises(ValueError, match="out of range"):
            cardinality(ExplicitSet([(1, 2), (3, bad)]), ctx)
    # lengths are checked before ranges, ranges before duplicates
    with pytest.raises(ArityMismatchError):
        cardinality(ExplicitSet([(1, 2), (1, 2), (9, 9), (1,)]), ctx)
    with pytest.raises(ValueError, match="out of range"):
        cardinality(ExplicitSet([(1, 2), (1, 2), (9, 9)]), ctx)
    big = FieldCtx(2**89 - 1)
    assert cardinality(ExplicitSet([(2**88, 1), (2**88, 2)]), big) == 2
    with pytest.raises(ValueError, match="duplicate point \\(309485009821345068724781056, 1\\)"):
        cardinality(ExplicitSet([(0, 0), (2**88, 1), (2**88, 1)]), big)


def test_grid_requires_prime_field():
    ctx = FieldCtx(3, 2, modulus=[1, 0, 1])
    with pytest.raises(ValueError):
        cardinality(GridProduct([APSpec(1, 0, 2)]), ctx)


def test_tracezero_requires_extension():
    with pytest.raises(ValueError):
        cardinality(TraceZero(), FieldCtx(5))


def test_enumerate_budget():
    with pytest.raises(BudgetExceededError):
        enumerate_points(FullSpace(2), FieldCtx(13), budget=100)


# -- point codes ---------------------------------------------------------------

CODE_FIELDS = [FieldCtx(p) for p in (2, 3, 5, 7, 13, 31)] + [
    FieldCtx(p, k, seed=1) for p, k in ((2, 2), (3, 2), (2, 3))
]


def _listed(s, ctx):
    # the points of s by itertools and scalar traces, apart from point_codes
    if isinstance(s, FullSpace):
        return list(itertools.product(range(ctx.q), repeat=s.n))
    if isinstance(s, GridProduct):
        axes = [[(f.alpha * j + f.beta) % ctx.p for j in range(f.length)] for f in s.factors]
        return list(itertools.product(*axes))
    if isinstance(s, ExplicitSet):
        return list(s.points)
    return [(a,) for a in range(ctx.q) if ctx.trace(a) == 0]


@st.composite
def _descriptors(draw):
    ctx = draw(st.sampled_from(CODE_FIELDS), label="field")
    kinds = ["full", "explicit"] + (["grid"] if ctx.k == 1 else ["tracezero"])
    kind = draw(st.sampled_from(kinds), label="kind")
    if kind == "full":
        return ctx, FullSpace(draw(st.integers(1, 3 if ctx.q <= 5 else 2)))
    if kind == "tracezero":
        return ctx, TraceZero()
    n = draw(st.integers(1, 2), label="n")
    if kind == "explicit":
        point = st.tuples(*[st.integers(0, ctx.q - 1)] * n)
        return ctx, ExplicitSet(draw(st.lists(point, min_size=1, max_size=40, unique=True)))
    p = ctx.p
    # steps and offsets negative or past p, lengths 1 and p among the rest
    alpha = st.integers(-3 * p, 3 * p).filter(lambda a: a % p)
    length = st.one_of(st.sampled_from([1, p]), st.integers(1, p))
    factors = [
        APSpec(draw(alpha), draw(st.integers(-3 * p, 3 * p)), draw(length)) for _ in range(n)
    ]
    return ctx, GridProduct(factors)


@settings(max_examples=150, deadline=None)
@given(_descriptors(), st.data())
def test_point_codes_are_the_enumerated_points_in_order(case, data):
    ctx, s = case
    codes = point_codes(s, ctx)
    assert codes.dtype == np.int64 and codes.shape == (cardinality(s, ctx), sets.dimension(s))
    assert list(map(tuple, codes.tolist())) == _listed(s, ctx) == enumerate_points(s, ctx)
    # a sweep over the codes, with block boundaries inside the set, counts
    # what the scalar splitting counts point by point
    n = sets.dimension(s)
    F = parse("t^2 + A1*t + " + (" + ".join(f"A{i}" for i in range(2, n + 1)) or "1"), n, ctx)
    size = data.draw(st.integers(1, len(codes)), label="block")
    with mock.patch.object(mpoly, "_SPEC_BLOCK", 4 * ctx.k * ctx.k * size), mock.patch.object(
        mpoly, "_SPEC_MIN", 1
    ):
        dist = empirical_distribution(F, s)
    counts = {}
    for pt in enumerate_points(s, ctx):
        outcome = classify_one(F, pt)
        counts[outcome] = counts.get(outcome, 0) + 1
    assert dist.non_squarefree == counts.pop(mpoly.NON_SQUAREFREE, 0)
    assert dist.degree_drop == counts.pop(mpoly.DEGREE_DROP, 0)
    assert dist.counts == counts and dist.total == len(codes)


@pytest.mark.parametrize("p", [2**61 - 1, 2**89 - 1])
def test_point_codes_of_a_grid_past_int64_products(p):
    # alpha*j passes int64 once p^2 does; encodings pass it once q >= 2^62,
    # where the codes are Python ints; the sweep classifies on object arrays
    s = GridProduct([APSpec(-(10**30), p + 5, 4), APSpec(3, -1, 3)])
    ctx = FieldCtx(p)
    codes = point_codes(s, ctx)
    assert codes.dtype == (np.int64 if p < 2**62 else object)
    assert list(map(tuple, codes.tolist())) == _listed(s, ctx)
    F = parse("t^2 - A1 - A2", 2, ctx)
    dist = empirical_distribution(F, s)
    assert dist.total == 12
    assert sum(dist.counts.values()) + dist.non_squarefree == 12


def test_point_codes_refuse_past_the_budget_before_building_an_array():
    gf = FieldCtx(1009)
    big = FieldCtx(2, 40, seed=1)
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceededError, match="set has"):
            point_codes(FullSpace(4), gf, budget=10**12)  # 1009^4 > 10^12 points
        with pytest.raises(BudgetExceededError, match="set has"):
            point_codes(GridProduct([APSpec(1, 0, 1009)] * 4), gf, budget=10**12)
        # 2^39 trace-zero points fit this budget, the 2^40 traces do not
        with pytest.raises(BudgetExceededError, match="field has"):
            point_codes(TraceZero(), big, budget=2**39)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


# ---------------------------------------------------------------------------
# spectra
# ---------------------------------------------------------------------------


def test_fourier_full_space_is_delta():
    ctx = FieldCtx(5)
    spec = indicator_fourier(FullSpace(1), ctx)
    assert abs(spec[(0,)] - 1) < 1e-12
    for b in range(1, 5):
        assert abs(spec[(b,)]) < 1e-12


def test_fourier_singleton_is_flat():
    ctx = FieldCtx(7)
    spec = indicator_fourier(ExplicitSet([(3,)]), ctx)
    for b in range(7):
        assert abs(abs(spec[(b,)]) - 1 / 7) < 1e-12


def test_fourier_zero_frequency_is_density():
    ctx = FieldCtx(5)
    rng = random.Random(1)
    pts = [(a, b) for a in range(5) for b in range(5) if rng.random() < 0.5]
    spec = indicator_fourier(ExplicitSet(pts), ctx)
    assert abs(spec[(0, 0)] - len(pts) / 25) < 1e-12


def test_fourier_parseval():
    rng = random.Random(2)
    for ctx, n in ((FieldCtx(7), 1), (FieldCtx(5), 2), (FieldCtx(3, 2, modulus=[1, 0, 1]), 1)):
        pts = [
            a
            for a in itertools.product(range(ctx.q), repeat=n)
            if rng.random() < 0.4
        ] or [(0,) * n]
        spec = indicator_fourier(ExplicitSet(pts), ctx)
        total = sum(abs(v) ** 2 for v in spec.values.values())
        assert abs(total - len(pts) / ctx.q**n) < 1e-9


def test_fourier_tracezero_f9():
    ctx = FieldCtx(3, 2, modulus=[1, 0, 1])
    spec = indicator_fourier(TraceZero(), ctx)
    live = {b for b, v in spec.values.items() if abs(v) > 1e-12}
    assert live == {(0,), (1,), (2,)}  # the prime subfield annihilates tr-zero
    for b in live:
        assert abs(spec[b] - 1 / 3) < 1e-12


def test_fourier_matches_brute_oracle():
    rng = random.Random(3)
    cases = (
        (FieldCtx(11), 1),
        (FieldCtx(5), 2),
        (FieldCtx(2, 3, seed=1), 1),
        (FieldCtx(5, 2, seed=0), 1),
        (FieldCtx(3, 3, seed=0), 1),
        (FieldCtx(2, 2, seed=0), 2),
        (FieldCtx(3, 2, seed=0), 2),
    )
    for ctx, n in cases:
        pts = [
            a
            for a in itertools.product(range(ctx.q), repeat=n)
            if rng.random() < 0.5
        ] or [(0,) * n]
        spec = indicator_fourier(ExplicitSet(pts), ctx)
        oracle = brute_spectrum(pts, ctx, n)
        for b, v in oracle.items():
            assert abs(spec[b] - v) < 1e-9


_KERNEL_FIELDS = (
    FieldCtx(2),
    FieldCtx(7),
    FieldCtx(13),
    FieldCtx(2, 3, seed=0),
    FieldCtx(3, 2, seed=1),
    FieldCtx(5, 2, seed=0),
    FieldCtx(3, 3, seed=2),
)


@st.composite
def kernel_cases(draw):
    ctx = draw(st.sampled_from(_KERNEL_FIELDS))
    n = draw(st.integers(1, 3))
    point = st.tuples(*[st.integers(0, ctx.q - 1)] * n)
    points = draw(st.lists(point, max_size=12))
    freqs = draw(st.lists(point, max_size=8))
    sign = draw(st.sampled_from((-1, 1)))
    block = draw(st.integers(1, 64))
    return ctx, n, points, freqs, sign, block


@settings(max_examples=200, deadline=None)
@example((FieldCtx(3, 2, seed=1), 1, [], [(0,), (4,)], -1, 8))
@given(kernel_cases())
def test_phase_counts_matches_scalar_loop(case):
    ctx, n, points, freqs, sign, block = case
    # small blocks put block boundaries inside the frequency list
    with mock.patch.object(sets, "_PHASE_BLOCK", block):
        got = [row.tolist() for blk in phase_counts(points, freqs, ctx, n, sign) for row in blk]
    assert got == _scalar_counts(points, freqs, ctx, sign)


def _scalar_counts(points, freqs, ctx, sign):
    """Slot counts binned directly, one frequency at a time, from field
    arithmetic and the trace as a sum of Frobenius powers."""
    want = []
    for b in freqs:
        counts = [0] * ctx.p
        for a in points:
            dot = 0
            for ai, bi in zip(a, b):
                dot = ctx.add(dot, ctx.mul(ai, bi))
            counts[sign * ctx._trace_raw(dot) % ctx.p] += 1
        want.append(counts)
    return want


def _sample(ctx, n, size, seed):
    rng = random.Random(seed)
    return rng.sample(list(itertools.product(range(ctx.q), repeat=n)), size)


@pytest.mark.parametrize(
    "ctx, n, size",
    [
        (FieldCtx(13), 1, 13),
        (FieldCtx(13), 2, 20),
        (FieldCtx(7), 2, 3),
        (FieldCtx(3, 2, seed=1), 1, 4),
        (FieldCtx(3, 2, seed=1), 2, 10),
        (FieldCtx(5, 2, seed=0), 2, 30),
        (FieldCtx(2, 3, seed=0), 2, 9),
    ],
)
def test_line_reused_counts_match_direct_binning(ctx, n, size):
    points = _sample(ctx, n, size, seed=size)
    freqs = list(itertools.product(range(ctx.q), repeat=n))
    with mock.patch.object(sets, "_bin", wraps=sets._bin) as spy:
        got = [row.tolist() for blk in phase_counts(points, freqs, ctx, n, -1) for row in blk]
    assert got == _scalar_counts(points, freqs, ctx, -1)
    # one histogram per F_p-line: the zero frequency, and (q^n - 1)/(p - 1)
    binned = sum(len(call.args[0]) for call in spy.call_args_list)
    assert binned == 1 + (len(freqs) - 1) // (ctx.p - 1)


def _histogram_sums(points, freqs, ctx, n, sign):
    """The histogram path of phase_sums, forced whatever the set's size."""
    return [cyclotomic_rows(c, ctx.p) for c in phase_counts(points, freqs, ctx, n, sign)]


def _joined(blocks):
    return [np.concatenate(part) for part in zip(*blocks)]


@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from((FieldCtx(13), FieldCtx(101), FieldCtx(5, 2, seed=0), FieldCtx(7, 2, seed=1))),
    st.integers(1, 2),
    st.data(),
)
def test_sparse_path_matches_forced_histogram_path(ctx, n, data):
    point = st.tuples(*[st.integers(0, ctx.q - 1)] * n)
    points = data.draw(st.lists(point, max_size=ctx.p - 1))
    freqs = data.draw(st.lists(point, min_size=1, max_size=30)) + [(0,) * n]
    sign = data.draw(st.sampled_from((-1, 1)))
    assert len(points) < ctx.p  # so phase_sums takes the sparse path
    sparse = _joined(phase_sums(points, freqs, ctx, n, sign))
    dense = _joined(_histogram_sums(points, freqs, ctx, n, sign))
    one = np.count_nonzero(np.concatenate(list(phase_counts(points, freqs, ctx, n, sign))), axis=1) <= 1
    assert one[-1]  # the zero frequency sits on one root
    for got, want in zip(sparse, dense):
        assert np.all(np.abs(got - want) <= 1e-12 * max(len(points), 1))
        assert got[one].tobytes() == want[one].tobytes()
    assert sparse[2][-1] == len(points) and sparse[1][-1] == 0.0


_HISTOGRAM_FIELDS = (
    (FieldCtx(7), 2),
    (FieldCtx(13), 1),
    (FieldCtx(2, 2, seed=0), 2),
    (FieldCtx(3, 2, seed=1), 2),
    (FieldCtx(2, 3, seed=0), 2),
)


@st.composite
def histogram_cases(draw):
    """A set of at least p points (so phase_sums bins it), among them the
    landmarks whose rows sit on one root or are constant: the full space,
    the trace-zero subgroup of an extension, and a coset of an F_p-line (on
    this path what a singleton is on the sparse one)."""
    ctx, n = draw(st.sampled_from(_HISTOGRAM_FIELDS))
    space = list(itertools.product(range(ctx.q), repeat=n))
    kind = draw(st.sampled_from(("random", "full", "line", "tracezero")))
    if kind == "full":
        points = space
    elif kind == "line":  # {a*e : a in F_p} + c for a random c and direction e
        c, e = draw(st.sampled_from(space)), draw(st.sampled_from(space[1:]))
        points = sorted({tuple(ctx.add(ci, ctx.mul(a, ei)) for ci, ei in zip(c, e)) for a in range(ctx.p)})
    elif kind == "tracezero" and ctx.k > 1:
        points = [(a,) + (0,) * (n - 1) for a in range(ctx.q) if ctx.trace(a) == 0]
    else:
        points = draw(st.lists(st.sampled_from(space), min_size=ctx.p, max_size=40, unique=True))
    freqs = draw(st.one_of(st.just(space), st.lists(st.sampled_from(space), min_size=1, max_size=60)))
    return ctx, n, points, freqs, draw(st.sampled_from((-1, 1))), draw(st.integers(1, 40))


@settings(max_examples=150, deadline=None)
@given(histogram_cases())
def test_histogram_path_gives_cyclotomic_rows_of_phase_counts_bits(case):
    ctx, n, points, freqs, sign, block = case
    assert len(points) >= ctx.p  # so phase_sums takes the histogram path
    with mock.patch.object(sets, "_PHASE_BLOCK", block):
        got = _joined(phase_sums(points, freqs, ctx, n, sign))
        counts = np.concatenate(list(phase_counts(points, freqs, ctx, n, sign)))
    want = cyclotomic_rows(counts, ctx.p)
    assert [a.tobytes() for a in got] == [a.tobytes() for a in want]


def _leads(points, freqs, ctx, n, sign):
    """The first nonzero entry of each frequency's functional (1 for zero)."""
    _, w = sets._functionals(points, freqs, ctx, n, sign)
    return [next((c for c in row if c), 1) for row in w.tolist()]


@pytest.mark.parametrize(
    "ctx, n",
    [
        (FieldCtx(7), 1),
        (FieldCtx(7), 2),
        (FieldCtx(13), 2),  # rows past 8 slots, which np.add.reduce sums pairwise
        (FieldCtx(5), 3),
        (FieldCtx(3, 2, seed=1), 1),
        (FieldCtx(3, 2, seed=1), 2),
    ],
)
@pytest.mark.parametrize("sign", (-1, 1))
def test_gathered_rows_match_rows_built_per_frequency(ctx, n, sign):
    # frequencies in runs of equal leading entry, the runs and the frequencies
    # within each in shuffled order, cut by blocks of 3 that end inside runs;
    # every row against table[line, (inv*m) % p] built from Python ints
    p, rng = ctx.p, random.Random(ctx.q**n * sign)
    space = list(itertools.product(range(ctx.q), repeat=n))
    points = rng.sample(space, max(p, len(space) // 3))
    rank = rng.sample(range(1, p), p - 1)
    keyed = sorted((rank.index(lead), rng.random(), b) for lead, b in zip(_leads(points, space, ctx, n, sign), space))
    freqs = [b for _, _, b in keyed]
    leads = _leads(points, freqs, ctx, n, sign)
    if ctx.q**n > p:  # runs longer than one frequency: some block edge cuts one
        assert any(leads[i - 1] == leads[i] for i in range(3, len(freqs), 3))
    table, line, _ = sets._line_table(points, freqs, ctx, n, sign)
    want = np.array(
        [[table[line[i], pow(lead, p - 2, p) * m % p] for m in range(p)] for i, lead in enumerate(leads)], np.int64
    )
    assert want.tolist() == _scalar_counts(points, freqs, ctx, sign)
    with mock.patch.object(sets, "_PHASE_BLOCK", 3 * p):
        blocks = list(phase_counts(points, freqs, ctx, n, sign))
        sums = _joined(phase_sums(points, freqs, ctx, n, sign))
    assert {len(b) for b in blocks[:-1]} == {3}
    assert np.concatenate(blocks).tobytes() == want.tobytes()
    assert [a.tobytes() for a in sums] == [a.tobytes() for a in cyclotomic_rows(want, p)]


def test_spectra_on_the_full_space_never_build_frequency_tuples():
    ctx = FieldCtx(13)
    F = parse("t^3 + A1*t + A2", 2, ctx)
    # frequencies are the rows of point_codes(FullSpace(n)), never its tuples
    with mock.patch.object(sets, "enumerate_points", side_effect=AssertionError("tuple frequencies")):
        irregularity(ExplicitSet(_sample(ctx, 2, 30, seed=1)), ctx)
        irregularity(TraceZero(), FieldCtx(3, 2, seed=1))
        assert len(weil_sweep(F, (3,), None).rows) == 168


@pytest.mark.parametrize("blk", range(1, 8))
@pytest.mark.parametrize(
    "ctx, n, size", [(FieldCtx(101), 2, 40), (FieldCtx(13), 2, 60), (FieldCtx(5, 2, seed=0), 2, 80)]
)
def test_phase_sums_bytes_do_not_depend_on_blocks(ctx, n, size, blk):
    points = _sample(ctx, n, size, seed=blk)
    freqs = list(itertools.product(range(ctx.q), repeat=n))
    want = [a.tobytes() for a in _joined(phase_sums(points, freqs, ctx, n, -1))]
    # blocks of blk frequencies on either path
    with mock.patch.object(sets, "_PHASE_BLOCK", blk * min(size, ctx.p)):
        blocks = list(phase_sums(points, freqs, ctx, n, -1))
        rep = irregularity(ExplicitSet(points), ctx).irreg
    assert max(len(b[0]) for b in blocks) <= blk
    assert [a.tobytes() for a in _joined(blocks)] == want
    assert rep.hex() == irregularity(ExplicitSet(points), ctx).irreg.hex()


@pytest.mark.parametrize(
    "ctx, points, work",
    [
        # 3 points of GF(13) take the sparse path: 13 frequencies x 3 points
        (FieldCtx(13), [(1,), (4,), (9,)], 13 * 3),
        # all of GF(5)^2 takes the histogram path: 6 F_5-lines and the zero
        # frequency binned over 25 points, plus 5 count slots per frequency
        (FieldCtx(5), list(itertools.product(range(5), repeat=2)), 7 * 25 + 25 * 5),
    ],
    ids=["sparse", "histogram"],
)
def test_phase_sums_budget_counts_the_work(ctx, points, work, monkeypatch):
    n = len(points[0])
    freqs = list(itertools.product(range(ctx.q), repeat=n))
    assert len(list(phase_sums(points, freqs, ctx, n, -1, budget=work))) >= 1

    def refuse(*args):
        raise AssertionError("phases built before the budget check")

    monkeypatch.setattr(sets, "_functionals", refuse)
    with pytest.raises(BudgetExceededError):
        next(phase_sums(points, freqs, ctx, n, -1, budget=work - 1))


_LINE = ExplicitSet([(a,) for a in range(5)])


@pytest.mark.parametrize(
    "spectrum",
    [
        lambda budget: irregularity(_LINE, FieldCtx(5), budget),
        lambda budget: indicator_fourier(_LINE, FieldCtx(5), budget),
        # the singleton's spectrum fits; the plus-sign sums over D do not
        lambda budget: verify_plancherel_decomposition(
            ExplicitSet([(0,)]), _LINE.points, FieldCtx(5), budget
        ),
    ],
    ids=["irregularity", "indicator_fourier", "plancherel"],
)
def test_spectra_pass_their_budget_to_the_kernel(spectrum):
    # 5 points and 5 frequencies fit a budget of 5; their spectrum does not
    with pytest.raises(BudgetExceededError, match="spectrum"):
        spectrum(5)
    spectrum(35)


def test_exact_irregularity_names_the_frequencies_past_the_budget():
    with pytest.raises(BudgetExceededError, match="25 frequencies exceed the budget 24"):
        irregularity(ExplicitSet([(0, 0), (1, 3)]), FieldCtx(5), budget=24)


def test_full_space_of_gf256_squared_fails_the_budget_at_once():
    # 2^16 points x 2^16 frequencies: it used to pass the default budget and
    # run for minutes
    start = time.perf_counter()
    with pytest.raises(BudgetExceededError):
        irregularity(FullSpace(2), FieldCtx(2, 8))
    assert time.perf_counter() - start < 1.0


# ---------------------------------------------------------------------------
# irregularity
# ---------------------------------------------------------------------------


def test_irreg_full_space_exact():
    assert irregularity(FullSpace(1), FieldCtx(101)).irreg == 1.0
    assert irregularity(FullSpace(2), FieldCtx(13)).irreg == 1.0
    rep = irregularity(FullSpace(1), FieldCtx(3, 3, seed=0))
    assert rep.irreg == 1.0 and rep.method == "exact_dft"


def test_irreg_singleton_exact():
    ctx = FieldCtx(13)
    rep = irregularity(ExplicitSet([(5,)]), ctx)
    assert rep.irreg == 13.0 and rep.method == "exact_dft"
    rep2 = irregularity(ExplicitSet([(3, 7)]), ctx)
    assert rep2.irreg == 169.0


def test_irreg_tracezero_is_p():
    for p, k in ((3, 3), (5, 2), (7, 2)):
        ctx = FieldCtx(p, k, seed=0)
        rep = irregularity(TraceZero(), ctx)
        assert rep.irreg == float(p), (p, k)


def test_irreg_interval_closed_form_vs_brute():
    for p in (2, 3, 5, 7, 11, 13, 31, 97):
        ctx = FieldCtx(p)
        for H in sorted({1, 2, 3, p // 2, p - 1, p}):
            if not 1 <= H <= p:
                continue
            rep = irregularity(GridProduct([APSpec(1, 0, H)]), ctx)
            brute = brute_irreg([(a,) for a in range(H)], ctx, 1)
            assert abs(rep.irreg - brute) < 1e-9, (p, H)
            assert rep.method == "closed_form_interval"


def test_irreg_interval_respects_envelope():
    ctx = FieldCtx(101)
    rep = irregularity(GridProduct([APSpec(1, 0, 10)]), ctx)
    assert rep.bound_9plogp == pytest.approx(9 * 101 * math.log(101) / 10)
    assert rep.irreg <= rep.bound_9plogp
    assert rep.irreg > 1.0


def test_interval_irreg_counts_p_minus_1_terms_against_the_budget():
    ctx = FieldCtx(101)
    with pytest.raises(BudgetExceededError, match="100 terms"):
        irregularity(GridProduct([APSpec(1, 0, 10)]), ctx, budget=99)
    # one sum per distinct length; H = 1 and H = p cost nothing
    grid = GridProduct([APSpec(1, 0, 10), APSpec(3, 5, 10), APSpec(1, 0, 1), APSpec(1, 0, 101)])
    assert irregularity(grid, ctx, budget=100).method == "product_1d"
    assert irregularity(FullSpace(2), ctx, budget=0).irreg == 1.0


def test_interval_irreg_memory_is_bounded():
    # p - 1 magnitudes summed in blocks: one pass over all of them peaks
    # at about 305 MiB for this p
    ctx = FieldCtx(10_000_019)
    sets._interval_irreg.cache_clear()
    tracemalloc.start()
    try:
        rep = irregularity(GridProduct([APSpec(1, 0, 1000)]), ctx)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 << 20
    assert 1.0 < rep.irreg <= rep.bound_9plogp


def test_interval_irreg_of_several_lengths_in_one_call_has_the_bits_of_one_call_each():
    for p in (101, 10007, 100003):
        lengths = (1, 2, 10, p // 3, p - 1, p)
        sets._interval_irreg.cache_clear()
        together = sets._interval_irreg(p, lengths)
        sets._interval_irreg.cache_clear()
        alone = {H: sets._interval_irreg(p, (H,))[H] for H in lengths}
        assert {H: v.hex() for H, v in together.items()} == {H: v.hex() for H, v in alone.items()}
        assert together[1] == p and together[p] == 1.0


def test_interval_irreg_in_blocks_without_the_table(monkeypatch):
    # blocks of 8 frequencies: every p from 17 on computes its own sines,
    # from 19 on in several blocks
    primes = [p for p in range(17, 98) if all(p % d for d in range(2, p))]
    lengths = {p: tuple(sorted({2, 3, p // 2, p - 1})) for p in primes}
    sets._interval_irreg.cache_clear()
    table = {p: sets._interval_irreg(p, lengths[p]) for p in primes}
    monkeypatch.setattr(sets, "_INTERVAL_BLOCK", 8)
    sets._interval_irreg.cache_clear()
    try:
        for p in primes:
            ctx = FieldCtx(p)
            blocks = sets._interval_irreg(p, lengths[p])
            for H in lengths[p]:
                assert blocks[H] == pytest.approx(table[p][H], rel=1e-15, abs=0), (p, H)
                brute = brute_irreg([(a,) for a in range(H)], ctx, 1)
                assert abs(blocks[H] - brute) < 1e-9, (p, H)
    finally:
        sets._interval_irreg.cache_clear()


def test_interval_irreg_past_exact_arguments_is_refused_at_once():
    ctx = FieldCtx(2**46 + 15)  # the least prime above 2^46
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceededError, match="2\\^46"):
            irregularity(GridProduct([APSpec(1, 0, 1000)]), ctx, budget=2**62)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_irregularity_validates_an_explicit_set_once(monkeypatch):
    calls = []
    validate = sets.validate_set

    def spy(s, ctx):
        calls.append(s)
        validate(s, ctx)

    monkeypatch.setattr(sets, "validate_set", spy)
    points = ExplicitSet([(a, (3 * a + 1) % 13) for a in range(9)])
    rep = irregularity(points, FieldCtx(13))
    assert len(calls) == 1
    assert rep.irreg == pytest.approx(brute_irreg(points.points, FieldCtx(13), 2))


def test_interval_irreg_bound_values():
    assert interval_irreg_bound(101, 101) == pytest.approx(9 * math.log(101))
    assert interval_irreg_bound(101, 10) == pytest.approx(419.514, abs=0.001)
    # singleton: bound is crude but valid (exact irregularity is p)
    assert interval_irreg_bound(3, 1) == pytest.approx(27 * math.log(3))
    assert interval_irreg_bound(3, 1) >= 3
    with pytest.raises(ValueError):
        interval_irreg_bound(5, 6)


def test_irreg_grid_product_method_tag():
    ctx = FieldCtx(13)
    rep = irregularity(GridProduct([APSpec(1, 0, 4), APSpec(2, 1, 5)]), ctx)
    assert rep.method == "product_1d"
    assert rep.cardinality == 20


def test_irreg_product_multiplicativity_random():
    rng = random.Random(5)
    for _ in range(25):
        p = rng.choice([3, 5, 7, 11, 13])
        ctx = FieldCtx(p)
        s1 = sorted(rng.sample(range(p), rng.randrange(1, p)))
        s2 = sorted(rng.sample(range(p), rng.randrange(1, p)))
        r1 = irregularity(ExplicitSet([(a,) for a in s1]), ctx).irreg
        r2 = irregularity(ExplicitSet([(a,) for a in s2]), ctx).irreg
        both = irregularity(
            ExplicitSet([(a, b) for a in s1 for b in s2]), ctx
        ).irreg
        assert abs(both - r1 * r2) < 1e-9


def test_irreg_affine_invariance_random():
    rng = random.Random(6)
    for _ in range(25):
        p = rng.choice([5, 7, 11, 13, 17])
        ctx = FieldCtx(p)
        base = sorted(rng.sample(range(p), rng.randrange(1, p)))
        alpha = rng.randrange(1, p)
        beta = rng.randrange(p)
        image = [((alpha * a + beta) % p,) for a in base]
        r0 = irregularity(ExplicitSet([(a,) for a in base]), ctx).irreg
        r1 = irregularity(ExplicitSet(image), ctx).irreg
        assert abs(r0 - r1) < 1e-9


def test_irreg_ap_equals_interval():
    ctx = FieldCtx(31)
    interval = irregularity(GridProduct([APSpec(1, 0, 7)]), ctx).irreg
    ap = irregularity(GridProduct([APSpec(5, 11, 7)]), ctx).irreg
    assert abs(interval - ap) < 1e-12


def test_irreg_at_least_one_with_equality_iff_full():
    rng = random.Random(7)
    cases = [
        (FieldCtx(3), 2),
        (FieldCtx(5), 2),
        (FieldCtx(13), 1),
        (FieldCtx(2, 3, seed=0), 1),
        (FieldCtx(3, 2, modulus=[1, 0, 1]), 1),
    ]
    for ctx, n in cases:
        qn = ctx.q**n
        full = list(itertools.product(range(ctx.q), repeat=n))
        assert irregularity(ExplicitSet(full), ctx).irreg == pytest.approx(1.0, abs=1e-12)
        for _ in range(20):
            size = rng.randrange(1, qn)
            pts = rng.sample(full, size)
            rep = irregularity(ExplicitSet(pts), ctx)
            assert rep.irreg > 1.0 + 1e-9


def test_interval_pointwise_sine_envelope():
    # |1^_I(b)| <= 2 / (p |sin(pi b / p)|) for every nonzero frequency
    for p in (3, 5, 17, 97):
        ctx = FieldCtx(p)
        for H in range(1, p + 1):
            spec = indicator_fourier(
                ExplicitSet([(a,) for a in range(H)]), ctx
            )
            for b in range(1, p):
                bound = 2 / (p * abs(math.sin(math.pi * b / p)))
                assert abs(spec[(b,)]) <= bound + 1e-12


# ---------------------------------------------------------------------------
# intersection identity
# ---------------------------------------------------------------------------


def test_plancherel_full_space_trivial():
    ctx = FieldCtx(5)
    d = list(itertools.product(range(5), repeat=1))
    assert verify_plancherel_decomposition(FullSpace(1), d, ctx) < 1e-9


def test_plancherel_quadratic_family_example():
    ctx = FieldCtx(13)
    F = parse("t^2 - A1", 1, ctx)
    from ffstats.mpoly import classify_specialization

    d = [
        (a,)
        for a in range(13)
        if classify_specialization(F, (a,)).parts == (2,)
    ]
    s = GridProduct([APSpec(1, 0, 6)])
    assert verify_plancherel_decomposition(s, d, ctx) < 1e-6


def test_plancherel_random_sets():
    rng = random.Random(11)
    for _ in range(20):
        p = rng.choice([3, 5, 7, 11, 13])
        n = rng.choice([1, 2])
        ctx = FieldCtx(p)
        space = list(itertools.product(range(p), repeat=n))
        s_pts = rng.sample(space, rng.randrange(1, len(space)))
        d_pts = rng.sample(space, rng.randrange(1, len(space)))
        res = verify_plancherel_decomposition(ExplicitSet(s_pts), d_pts, ctx)
        assert res < 1e-6


def test_plancherel_extension_field():
    ctx = FieldCtx(3, 2, modulus=[1, 0, 1])
    rng = random.Random(13)
    space = [(a,) for a in range(9)]
    for _ in range(5):
        s_pts = rng.sample(space, rng.randrange(1, 9))
        d_pts = rng.sample(space, rng.randrange(1, 9))
        assert verify_plancherel_decomposition(ExplicitSet(s_pts), d_pts, ctx) < 1e-6


# both sides read D through one reader, ctx.encodings


def test_plancherel_reads_a_prime_field_d_mod_p():
    assert verify_plancherel_decomposition(ExplicitSet([(1,)]), [(12,)], FieldCtx(11)) < 1e-9
    # both sides count a point of D once per listing, 12 and 1 alike
    assert verify_plancherel_decomposition(ExplicitSet([(1,)]), [(1,), (12,)], FieldCtx(11)) < 1e-9
    assert verify_plancherel_decomposition(ExplicitSet([(1,)]), [(1,), (1,)], FieldCtx(11)) < 1e-9


def test_plancherel_reads_a_prime_field_d_past_int64_mod_p():
    d = [(11 * 2**70 + 1,), (-(2**64),)]
    assert verify_plancherel_decomposition(ExplicitSet([(1,)]), d, FieldCtx(11)) < 1e-9


def test_plancherel_refuses_an_extension_d_outside_the_field():
    gf9 = FieldCtx(3, 2, modulus=[1, 0, 1])
    with pytest.raises(ValueError, match="outside"):
        verify_plancherel_decomposition(ExplicitSet([(1,)]), [(10,)], gf9)
    with pytest.raises(ArityMismatchError):
        verify_plancherel_decomposition(ExplicitSet([(1,)]), [(1,), (1, 2)], gf9)


# ---------------------------------------------------------------------------
# text formats
# ---------------------------------------------------------------------------


def test_split_top_level():
    assert split_top_level("3,[1,2],0") == ["3", "[1,2]", "0"]
    assert split_top_level("int(0,10),ap(2,1,5)") == ["int(0,10)", "ap(2,1,5)"]


def _scan_split(text, sep=","):
    """Split on separators at bracket depth 0, one character at a time."""
    out, depth, cur = [], 0, []
    for ch in text:
        depth += (ch in "([") - (ch in ")]")
        if ch == sep and depth == 0:
            out.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    return out + ["".join(cur)]


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.text("0123456789, -#"), st.text("0123456789,()[] "), st.text()))
def test_split_top_level_matches_the_character_scan(text):
    # an unmatched closer, as in "1),2", leaves the scan below depth 0
    assert split_top_level(text) == _scan_split(text)


def test_parse_set_variants():
    ctx = FieldCtx(7)
    assert parse_set("full", ctx, n=2) == FullSpace(2)
    grid = parse_set("grid:int(0,10),ap(2,1,5)", ctx)
    assert grid == GridProduct([APSpec(1, 0, 10), APSpec(2, 1, 5)])
    assert parse_set("tracezero", FieldCtx(3, 2, modulus=[1, 0, 1])) == TraceZero()
    with pytest.raises(ValueError):
        parse_set("full", ctx)
    with pytest.raises(ValueError):
        parse_set("grid:box(1,2)", ctx)


def test_points_file_reads_each_line_as_parse_point(tmp_path):
    # plain and bracketed literals mixed over GF(3^2), with comments, blank
    # lines, surrounding spaces, negatives and a literal past 2^63
    ctx = FieldCtx(3, 2, modulus=[1, 0, 1])
    lines = [
        "# a comment",
        "",
        "  1, 2 ",
        "-4,[2,1]",
        "   ",
        f"{2**64 + 5},  [ 0 , 2 ]",
        "  # indented comment",
        "[1,1],-9223372036854775809",
        "\t8,0\t",
    ]
    path = tmp_path / "points.txt"
    path.write_text("\n".join(lines) + "\n")
    want = [parse_point(line.strip(), ctx) for line in lines if line.strip() and not line.strip().startswith("#")]
    assert load_points_file(str(path), ctx).points == tuple(want)
    assert want[2] == (ctx.from_int(2**64 + 5), ctx.from_coords((0, 2)))
    # a malformed literal fails with the element parser's own error
    for bad in ("1, 2x", "1,,2", "[1,2", "[1],3", "(1),2"):
        path.write_text(f"0,0\n {bad} \n")
        with pytest.raises(ValueError) as parsed:
            parse_point(bad, ctx)
        with pytest.raises(ValueError) as loaded:
            load_points_file(str(path), ctx)
        assert (type(loaded.value), str(loaded.value)) == (type(parsed.value), str(parsed.value))


def test_points_file_roundtrip(tmp_path):
    ctx = FieldCtx(3, 2, modulus=[1, 0, 1])
    path = tmp_path / "points.txt"
    path.write_text("# sample points\n[0,1],[2,0]\n[1,1],[0,0]\n")
    loaded = load_points_file(str(path), ctx)
    assert loaded.points == (
        (ctx.from_coords((0, 1)), ctx.from_coords((2, 0))),
        (ctx.from_coords((1, 1)), 0),
    )
    via_parse = parse_set(f"file:{path}", ctx)
    assert via_parse == loaded


# Each input check of the set layer: the call that trips it, its error, and a
# run that reaches it from the command line ({empty} is an empty points file),
# or None where no option can spell the input.
_SET_ERRORS = [
    (lambda ctx: parse_set("grid:int(3)", ctx), ValueError, ("irreg", "--set", "grid:int(3)")),
    (lambda ctx: parse_set("grid:ap(1,2)", ctx), ValueError, ("irreg", "--set", "grid:ap(1,2)")),
    (
        lambda ctx: parse_set("grid:int(0,3)", ctx, n=2),
        DegreeMismatchError,
        ("dist", "--poly", "t^2 - A1 - A2", "--set", "grid:int(0,3)"),
    ),
    (lambda ctx: parse_set("box(1,2)", ctx), ValueError, ("irreg", "--set", "box(1,2)")),
    (lambda ctx: sets.validate_set(GridProduct([APSpec(7, 1, 3)]), ctx), ValueError, ("irreg", "--set", "grid:ap(7,1,3)")),
    (lambda ctx: sets.validate_set(GridProduct([APSpec(1, 0, 0)]), ctx), ValueError, ("irreg", "--set", "grid:int(0,0)")),
    (lambda ctx: sets.validate_set(GridProduct([APSpec(1, 0, 8)]), ctx), ValueError, ("irreg", "--set", "grid:int(0,8)")),
    (lambda ctx: sets.validate_set(GridProduct([]), ctx), ValueError, None),
    (lambda ctx: sets.validate_set(ExplicitSet([]), ctx), ValueError, ("irreg", "--set", "file:{empty}")),
    (lambda ctx: sets.validate_set(ExplicitSet([()]), ctx), ValueError, None),
    (lambda ctx: sets.validate_set(FullSpace(0), ctx), ValueError, ("irreg", "--set", "full", "--n", "0")),
    (lambda ctx: sets.validate_set("full", ctx), TypeError, None),
    (lambda ctx: sets.dimension("full"), TypeError, None),
]


@pytest.mark.parametrize(
    "call, error, argv",
    _SET_ERRORS,
    ids=["int-arity", "ap-arity", "factors-vs-n", "unknown", "zero-step", "length-0", "length-past-p",
         "empty-grid", "empty-file", "no-coordinates", "full-0", "validate-non-descriptor",
         "dimension-of-non-descriptor"],
)
def test_set_input_errors_raise_their_type_and_exit_2(capsys, tmp_path, call, error, argv):
    ctx = FieldCtx(7)
    with pytest.raises(error):
        call(ctx)
    empty = tmp_path / "empty.txt"
    empty.write_text("# no points\n")
    if argv is not None:
        argv = [a.format(empty=empty) for a in argv]
        assert main([*argv, "--p", "7"]) == 2
        assert capsys.readouterr().out == ""
