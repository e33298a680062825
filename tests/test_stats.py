import itertools
import math
import os
import re
import tempfile
import time
import tracemalloc
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ffstats import _gfp, mpoly, sets
from ffstats.cli import main
from ffstats.errors import (
    ArityMismatchError,
    BudgetExceededError,
    DegreeMismatchError,
    InvalidGroupError,
    NotAdmissibleError,
    PartitionMismatchError,
    ZeroFrequencyError,
)
from ffstats.field import FieldCtx
from ffstats.mpoly import parse, torus_weights
from ffstats.sets import APSpec, ExplicitSet, FullSpace, GridProduct, TorusOrbits, TraceZero
from ffstats.stats import (
    ClassDistribution,
    GroupSpec,
    compare,
    cycle_type,
    cyclic_shift_group,
    empirical_distribution,
    format_type,
    gamma_symmetric,
    parse_type,
    partitions,
    prediction_from_group,
    restricted_charsum,
    weil_sweep,
)

# ---------------------------------------------------------------------------
# partitions, cycle types, gamma
# ---------------------------------------------------------------------------


def test_partition_counts():
    assert len(partitions(5)) == 7
    assert len(partitions(7)) == 15
    assert len(partitions(12)) == 77
    assert partitions(3) == [(3,), (2, 1), (1, 1, 1)]
    assert partitions(0) == [()]


def test_cycle_type_examples():
    assert cycle_type((0, 1, 2)) == (1, 1, 1)
    assert cycle_type((1, 2, 0)) == (3,)
    assert cycle_type((1, 0, 3, 2)) == (2, 2)


def test_format_parse_type():
    assert format_type((2, 1, 1)) == "[2,1,1]"
    assert parse_type("[2,1,1]") == (2, 1, 1)
    assert parse_type("1,2,1") == (2, 1, 1)
    with pytest.raises(ValueError):
        parse_type("0,2")
    # a part that is no integer names itself, not Python's int() literal
    for text in ("x", "2.5", "[2,y]", "0,2"):
        with pytest.raises(ValueError, match=re.escape(f"parts must be positive integers: {text!r}")):
            parse_type(text)


def test_gamma_small_cases():
    assert gamma_symmetric(2, (1, 1)) == Fraction(1, 2)
    assert gamma_symmetric(2, (2,)) == Fraction(1, 2)
    assert gamma_symmetric(3, (3,)) == Fraction(1, 3)
    assert gamma_symmetric(4, (2, 1, 1)) == Fraction(1, 4)


def test_gamma_partition_mismatch():
    with pytest.raises(PartitionMismatchError):
        gamma_symmetric(4, (2, 1))


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_gamma_matches_enumeration(d):
    tallies = {}
    for perm in itertools.permutations(range(d)):
        t = cycle_type(perm)
        tallies[t] = tallies.get(t, 0) + 1
    for parts in partitions(d):
        assert gamma_symmetric(d, parts) == Fraction(
            tallies.get(parts, 0), math.factorial(d)
        )


@pytest.mark.parametrize("d", list(range(1, 13)))
def test_gamma_sums_to_one(d):
    assert sum(gamma_symmetric(d, parts) for parts in partitions(d)) == 1


# ---------------------------------------------------------------------------
# group specifications and predictions
# ---------------------------------------------------------------------------


def test_prediction_symmetric_equals_gamma():
    pred = prediction_from_group(GroupSpec.symmetric(4))
    for parts in partitions(4):
        assert pred[parts] == gamma_symmetric(4, parts)
    assert sum(pred.values()) == 1


def test_prediction_cyclic_group_of_order_three():
    pred = prediction_from_group(cyclic_shift_group(3))
    assert pred[(1, 1, 1)] == Fraction(1, 3)
    assert pred[(3,)] == Fraction(2, 3)


def test_prediction_sign_labelled_s3():
    elems = []
    for perm in itertools.permutations(range(3)):
        parity = sum(
            1
            for i in range(3)
            for j in range(i + 1, 3)
            if perm[i] > perm[j]
        ) % 2
        elems.append((perm, parity))
    group = GroupSpec.explicit(3, 2, elems)
    pred = prediction_from_group(group)
    # label 1 = the three transpositions, so all mass on (2, 1)
    assert pred[(2, 1)] == 1
    assert sum(pred.values()) == 1


def test_group_validation_rejects_non_closed():
    with pytest.raises(InvalidGroupError):
        GroupSpec.explicit(3, 1, [((0, 1, 2), 0), ((1, 2, 0), 0)])  # no inverse cycle


def test_group_validation_rejects_bad_labels():
    elems = [((0, 1, 2), 0), ((1, 2, 0), 1), ((2, 0, 1), 1)]  # not additive
    with pytest.raises(InvalidGroupError):
        GroupSpec.explicit(3, 2, elems)
    with pytest.raises(InvalidGroupError):
        GroupSpec.explicit(3, 2, [((0, 1, 2), 0)])  # labels miss 1 mod 2


def test_group_validation_requires_identity_label_zero():
    with pytest.raises(InvalidGroupError):
        GroupSpec.explicit(2, 1, [((1, 0), 0)])


def test_group_file_roundtrip(tmp_path):
    group = cyclic_shift_group(3)
    path = tmp_path / "group.txt"
    group.to_file(str(path))
    loaded = GroupSpec.from_file(str(path))
    assert loaded == group
    text = path.read_text()
    assert text.splitlines()[0] == "d=3 nu=1"


def test_group_file_rejects_garbage(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("d=2 nu=1\n2 2 | 0\n")
    with pytest.raises(InvalidGroupError):
        GroupSpec.from_file(str(path))


def test_group_file_comments_may_be_indented(capsys, tmp_path):
    path = tmp_path / "group.txt"
    path.write_text("# the cyclic group of order 2\nd=2 nu=1\n  # identity\n1 2 | 0\n\t# the swap\n2 1 | 0\n")
    assert GroupSpec.from_file(str(path)) == cyclic_shift_group(2)
    assert main(["compare", "--p", "7", "--poly", "t^2 - A1", "--group", str(path)]) == 0
    capsys.readouterr()


# Each input check of GroupSpec: a group file that trips it (read by
# from_file, and by compare --group, which exits 2) or, where no file spells
# the input, the call that does.
_GROUP_ERRORS = [
    "",
    "d=x nu=1\n",
    "d=0 nu=1\n",
    "d=2 nu=0\n1 2 | 0\n",
    "d=2 nu=1\n",
    "d=2 nu=1\n1 2 0\n",
    "d=2 nu=2\n1 2 | 0\n1 2 | 1\n",
    "d=2 nu=1\n1 2 | 0\n1 2 | 0\n",
    "d=2 nu=1\n1 2 | 0\n2 1 | 0 # x\n",
    "d=2 nu=1\n1 2 | 0\n2 one | 0\n",
    lambda: GroupSpec.symmetric(0),
    lambda: GroupSpec.explicit(2, 1, [((0, 0), 0)]),
    lambda: GroupSpec.symmetric(3).to_file("unused"),
]


@pytest.mark.parametrize(
    "case",
    _GROUP_ERRORS,
    ids=["empty-file", "bad-header", "degree-0", "nu-0", "no-elements", "no-bar", "conflicting-labels",
         "duplicates", "label-not-an-integer", "image-not-an-integer", "symmetric-0", "not-a-permutation", "symmetric-to-file"],
)
def test_group_input_errors_raise_their_type_and_exit_2(capsys, tmp_path, case):
    if callable(case):
        with pytest.raises(InvalidGroupError):
            case()
        return
    path = tmp_path / "group.txt"
    path.write_text(case)
    with pytest.raises(InvalidGroupError) as err:
        GroupSpec.from_file(str(path))
    if "x" in case or "one" in case:  # the message names the line, not int()'s literal
        assert repr(case.splitlines()[-1]) in str(err.value)
    assert main(["compare", "--p", "7", "--poly", "t^2 - A1", "--group", str(path)]) == 2
    assert capsys.readouterr().out == ""


# ---------------------------------------------------------------------------
# empirical distributions
# ---------------------------------------------------------------------------


def test_distribution_quadratic_full_f13():
    ctx = FieldCtx(13)
    F = parse("t^2 - A1", 1, ctx)
    dist = empirical_distribution(F, FullSpace(1))
    assert dist.counts == {(1, 1): 6, (2,): 6}
    assert dist.non_squarefree == 1 and dist.degree_drop == 0 and dist.total == 13


def test_distribution_quadratic_interval_f17():
    ctx = FieldCtx(17)
    F = parse("t^2 - A1", 1, ctx)
    dist = empirical_distribution(F, GridProduct([APSpec(1, 0, 8)]))
    # squares mod 17 are {1,2,4,8,9,13,15,16}; of 0..7 only 1, 2, 4 qualify
    assert dist.counts[(1, 1)] == 3
    assert dist.total == 8


def test_distribution_artin_schreier_tracezero():
    ctx = FieldCtx(3, 3, seed=0)
    F = parse("t^3 - t - A1", 1, ctx)
    dist = empirical_distribution(F, TraceZero())
    assert dist.counts == {(1, 1, 1): 9}
    assert dist.total == 9 and dist.non_squarefree == 0


def test_distribution_rejects_vanishing_discriminant():
    ctx = FieldCtx(5)
    with pytest.raises(NotAdmissibleError):
        empirical_distribution(parse("(t - A1)^2", 1, ctx), FullSpace(1))


def _mobius(n):
    out = 1
    f = 2
    while f * f <= n:
        if n % f == 0:
            n //= f
            if n % f == 0:
                return 0
            out = -out
        f += 1
    return -out if n > 1 else out


def _irreducible_count(q, e):
    # N_q(e) = (1/e) * sum_{j | e} mu(e/j) q^j, the number of monic
    # irreducibles of degree e over GF(q)
    return sum(_mobius(e // j) * q**j for j in range(1, e + 1) if e % j == 0) // e


@pytest.mark.parametrize(
    "p,k,d",
    [(5, 1, 3), (7, 1, 4), (2, 2, 4), (2, 3, 3), (3, 2, 3)],
    ids=["GF5-d3", "GF7-d4", "GF4-d4", "GF8-d3", "GF9-d3"],
)
def test_distribution_of_all_monic_polynomials_is_necklace_counts(p, k, d):
    # t^d + A1*t^(d-1) + ... + Ad over the full space lists every monic
    # polynomial of degree d once; a squarefree one of type lambda is a
    # choice of m_e distinct monic irreducibles of each degree e
    ctx = FieldCtx(p, k)
    q = ctx.q
    poly = " + ".join([f"t^{d}"] + [f"A{i}*t^{d - i}" for i in range(1, d)] + [f"A{d}"])
    F = parse(poly, d, ctx)
    with mock.patch.object(_gfp, "gf_spec_types", wraps=_gfp.gf_spec_types) as batched:
        dist = empirical_distribution(F, FullSpace(d))
    # the sweep's blocks, one row per orbit of the weights (1, 2, ..., d); the
    # modulus search of the admissibility field calls the kernel too
    assert torus_weights(F) == (1, tuple(range(1, d + 1)), d)
    orbits = TorusOrbits(torus_weights(F)[1], ctx).count
    assert sum(len(call.args[0]) for call in batched.call_args_list if call.args[1] is ctx.vec) == orbits < q**d
    expected = {}
    for parts in partitions(d):
        count = 1
        for e in set(parts):
            count *= math.comb(_irreducible_count(q, e), parts.count(e))
        if count:
            expected[parts] = count
    assert dist.counts == expected
    assert dist.non_squarefree == q ** (d - 1)
    assert dist.degree_drop == 0
    assert dist.total == q**d


def test_distribution_peak_memory_is_below_the_tuple_list():
    # the 259,081 points of GF(509)^2 took 16.8 MB under tracemalloc as a list
    # of 2-tuples; as int64 codes they take 4.1 MB, and the sweep peaked at
    # 6.2 MB with 2^14-entry blocks
    F = parse("t^2 + A1*t + A2", 2, FieldCtx(509))
    tracemalloc.start()
    try:
        dist = empirical_distribution(F, FullSpace(2))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert dist.total == 509**2 and dist.non_squarefree == 509
    assert peak < 8 << 20


def test_distribution_variable_relabelling_invariance():
    ctx = FieldCtx(11)
    F = parse("t^2 + A1*t + A2^2", 2, ctx)
    G = parse("t^2 + A2*t + A1^2", 2, ctx)
    s_f = GridProduct([APSpec(1, 0, 4), APSpec(1, 3, 7)])
    s_g = GridProduct([APSpec(1, 3, 7), APSpec(1, 0, 4)])
    df = empirical_distribution(F, s_f)
    dg = empirical_distribution(G, s_g)
    assert df.counts == dg.counts and df.non_squarefree == dg.non_squarefree


def test_distribution_json_keys():
    d = ClassDistribution({(2, 1): 4, (3,): 2}, 1, 0, 7)
    js = d.to_json_dict()
    assert js["counts"] == {"[3]": 2, "[2,1]": 4}
    assert js["total"] == 7


# ---------------------------------------------------------------------------
# comparisons
# ---------------------------------------------------------------------------


def test_compare_quadratic_tv_is_one_over_p():
    ctx = FieldCtx(13)
    F = parse("t^2 - A1", 1, ctx)
    report = compare(F, FullSpace(1), GroupSpec.symmetric(2))
    assert report.tv_distance == pytest.approx(1 / 13, abs=1e-15)
    assert report.irreg == 1.0
    assert report.normalized_error == pytest.approx(math.sqrt(13) / 13, abs=1e-12)
    assert report.p_gt_d


def test_compare_trinomial_f53():
    ctx = FieldCtx(53)
    F = parse("t^3 + A1*t + A2", 2, ctx)
    report = compare(F, FullSpace(2), GroupSpec.symmetric(3))
    assert report.tv_distance <= 0.05
    assert report.q == 53 and report.n == 2


def test_compare_trinomial_tv_scales_like_inverse_sqrt_p():
    ctx = FieldCtx(13)
    F = parse("t^3 + A1*t + A2", 2, ctx)
    report = compare(F, FullSpace(2), GroupSpec.symmetric(3))
    assert report.tv_distance * math.sqrt(13) <= 5


def test_compare_artin_schreier_counterexample():
    ctx = FieldCtx(3, 3, seed=0)
    F = parse("t^3 - t - A1", 1, ctx)
    report = compare(F, TraceZero(), cyclic_shift_group(3))
    assert report.per_type[(1, 1, 1)][0] == 1.0  # all empirical mass
    assert report.per_type[(1, 1, 1)][1] == pytest.approx(1 / 3)
    assert report.irreg == 3.0
    assert not report.p_gt_d
    # the gap stays macroscopic: the small-irregularity set defeats the law
    assert report.tv_distance == pytest.approx(2 / 3, abs=1e-12)
    sym = compare(F, TraceZero(), GroupSpec.symmetric(3))
    assert sym.normalized_error > 1


def test_compare_rejects_group_of_wrong_degree():
    ctx = FieldCtx(11)
    F = parse("t^3 + A1*t + A2", 2, ctx)
    with pytest.raises(DegreeMismatchError):
        compare(F, FullSpace(2), GroupSpec.symmetric(2))
    with pytest.raises(DegreeMismatchError):
        compare(F, FullSpace(2), cyclic_shift_group(2))


@st.composite
def _mismatched(draw):
    """A family F in n parameters, a set S of another dimension (an explicit
    set, a grid over GF(7), or the trace-zero set of GF(9)), and the --set
    text that names S (for an explicit set, the lines of its points file)."""
    kind = draw(st.sampled_from(["explicit", "grid", "tracezero"]))
    ctx, dim = (FieldCtx(3, 2), 1) if kind == "tracezero" else (FieldCtx(7), draw(st.integers(1, 3)))
    n = draw(st.sampled_from([m for m in (1, 2, 3) if m != dim]))
    F = parse("t^2 - " + " - ".join(f"A{i}" for i in range(1, n + 1)), n, ctx)
    if kind == "tracezero":
        return F, TraceZero(), "tracezero"
    if kind == "grid":
        factors = draw(st.lists(st.builds(APSpec, st.integers(1, 6), st.integers(0, 6), st.integers(1, 7)),
                                min_size=dim, max_size=dim))
        text = ",".join(f"ap({f.alpha},{f.beta},{f.length})" for f in factors)
        return F, GridProduct(factors), f"grid:{text}"
    points = draw(st.lists(st.tuples(*[st.integers(0, 6)] * dim), min_size=1, max_size=5, unique=True))
    return F, ExplicitSet(points), "\n".join(",".join(map(str, a)) for a in points)


@settings(max_examples=40, deadline=None)
@given(_mismatched())
def test_every_statistic_refuses_a_set_of_another_dimension_before_any_work(case):
    F, S, text = case
    ctx = F.ctx
    argv = ["--p", str(ctx.p), "--k", str(ctx.k), "--poly", str(F), "--n", str(F.n)]
    refuse = mock.Mock(side_effect=AssertionError("ran before the set was paired with F"))
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(mpoly, "spec_keys", refuse), \
            mock.patch.object(sets, "_irregularity", refuse), mock.patch.object(sets, "TorusOrbits", refuse):
        if isinstance(S, ExplicitSet):
            path = os.path.join(tmp, "points.txt")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
            text = f"file:{path}"
        for statistic in (empirical_distribution, lambda F, S: compare(F, S, GroupSpec.symmetric(2))):
            with pytest.raises(ArityMismatchError, match=f"dimension {sets.dimension(S)} but F has n={F.n}"):
                statistic(F, S)
        for command in ("dist", "compare"):
            assert main([command, *argv, "--set", text, "--out", os.path.join(tmp, "out.json")]) == 2
            assert not os.path.exists(os.path.join(tmp, "out.json"))
    refuse.assert_not_called()


def test_every_statistic_validates_its_set_once(monkeypatch):
    calls = []
    validate = sets.validate_set

    def spy(s, ctx):
        calls.append(s)
        validate(s, ctx)

    monkeypatch.setattr(sets, "validate_set", spy)
    F = parse("t^3 + A1*t + A2", 2, FieldCtx(13))
    S = ExplicitSet([(a, (3 * a + 1) % 13) for a in range(9)])
    statistics = {
        "empirical_distribution": lambda **kw: empirical_distribution(F, S, **kw),
        "compare": lambda **kw: compare(F, S, GroupSpec.symmetric(3), **kw),
        "weil_sweep": lambda **kw: weil_sweep(F, (3,), **kw),  # the orbit path
        "restricted_charsum": lambda **kw: restricted_charsum(F, (3,), (1, 2), **kw),
    }
    for name, statistic in statistics.items():
        calls.clear()
        statistic()
        assert len(calls) == 1, name
    # that one check refuses a bad set, before any budget is charged
    S = ExplicitSet([(1, 2), (1, 2)])
    for name in ("empirical_distribution", "compare"):
        with pytest.raises(ValueError, match="duplicate point"):
            statistics[name](budget=1)


def test_compare_json_shape():
    ctx = FieldCtx(13)
    F = parse("t^2 - A1", 1, ctx)
    js = compare(F, FullSpace(1), GroupSpec.symmetric(2)).to_json_dict()
    assert set(js["per_type"]) == {"[2]", "[1,1]"}
    cell = js["per_type"]["[2]"]
    assert {"frequency", "prediction", "deviation"} <= set(cell)
    assert js["distribution"]["total"] == 13


# ---------------------------------------------------------------------------
# restricted character sums
# ---------------------------------------------------------------------------


def test_charsum_golden_ratio_magnitude():
    ctx = FieldCtx(5)
    F = parse("t^2 - A1", 1, ctx)
    res = restricted_charsum(F, (2,), (1,))
    assert res.terms == 2  # the two non-residues 2 and 3
    assert res.magnitude == pytest.approx((1 + math.sqrt(5)) / 2, abs=1e-9)
    assert res.weil_ratio == pytest.approx(res.magnitude / math.sqrt(5), abs=1e-12)


SWEEPS = {
    "restricted_charsum": lambda F, b: restricted_charsum(F, (1, 1), b),
    "weil_sweep": lambda F, b: weil_sweep(F, (1, 1), [b]),
}


def test_charsum_zero_frequency_rejected():
    ctx = FieldCtx(5)
    F = parse("t^2 - A1", 1, ctx)
    for sweep in SWEEPS.values():
        # on a prime field the zero test runs after reduction mod p
        for b in ((0,), (0, 0), (5,), (-10,)):
            with pytest.raises(ZeroFrequencyError):
                sweep(F, b)
        with pytest.raises(ZeroFrequencyError, match="coordinates"):
            sweep(F, (1, 1))
    assert restricted_charsum(F, (2,), (7,)) == restricted_charsum(F, (2,), (2,))


MAGNITUDES = {
    "restricted_charsum": lambda F, b: restricted_charsum(F, (3,), b).magnitude,
    "weil_sweep": lambda F, b: weil_sweep(F, (3,), [b]).rows[0][2],
}


@pytest.mark.parametrize("magnitude", MAGNITUDES.values(), ids=MAGNITUDES.keys())
def test_prime_field_frequency_past_int64_is_read_mod_p(magnitude):
    # on a prime field any integers name a frequency, taken mod p
    F = parse("t^3 + A1*t + A2", 2, FieldCtx(11))
    assert magnitude(F, (11 * 10**30 + 1, 2)) == magnitude(F, (1, 2))


@pytest.mark.parametrize("sweep", SWEEPS.values(), ids=SWEEPS.keys())
@pytest.mark.parametrize("b", [(100,), (-8,), (9,)], ids=str)
def test_extension_frequency_outside_the_field_is_rejected(sweep, b):
    # over GF(9) a frequency is an element encoding in [0, 9)
    F = parse("t^2 - A1", 1, FieldCtx(3, 2, modulus=[1, 0, 1]))
    with pytest.raises(ValueError, match="outside"):
        sweep(F, b)


def test_charsum_split_class_gauss_bound():
    ctx = FieldCtx(11)
    F = parse("t^2 - A1", 1, ctx)
    for b in range(1, 11):
        res = restricted_charsum(F, (1, 1), (b,))
        assert res.magnitude <= (math.sqrt(11) + 1) / 2 + 1e-9


def test_weil_sweep_quadratic_f101():
    ctx = FieldCtx(101)
    F = parse("t^2 - A1", 1, ctx)
    sweep = weil_sweep(F, (2,), None)
    assert len(sweep.rows) == 100
    assert sweep.max_ratio <= 1.0
    assert sweep.max_ratio == pytest.approx((math.sqrt(101) + 1) / 2 / math.sqrt(101), abs=1e-9)


def test_weil_sweep_trinomial_bounded():
    ctx = FieldCtx(13)
    F = parse("t^3 + A1*t + A2", 2, ctx)
    sweep = weil_sweep(F, (3,), None)
    assert len(sweep.rows) == 168
    assert sweep.max_ratio <= 3.0


def test_weil_sweep_empty_frequency_list():
    ctx = FieldCtx(7)
    F = parse("t^2 - A1", 1, ctx)
    sweep = weil_sweep(F, (2,), [])
    assert sweep.rows == [] and sweep.max_ratio == 0.0


def test_weil_sweep_checks_budget_before_building_frequencies():
    ctx = FieldCtx(101)
    F = parse("t^3 + A1*t + A2", 2, ctx)
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceededError):
            weil_sweep(F, (3,), None, budget=1000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the 10,200 nonzero frequency tuples alone would take about 650 kB
    assert peak < 100_000


def test_huge_degree_in_t_fails_the_budget_before_specializing():
    # a dense specialization of t^(10^9) would allocate 10^9 coefficients
    ctx = FieldCtx(5)
    F = parse("t^1000000000 + A1*t + A2", 2, ctx)
    start = time.perf_counter()
    with pytest.raises(BudgetExceededError):
        empirical_distribution(F, GridProduct([APSpec(1, 0, 3), APSpec(1, 0, 3)]))
    with pytest.raises(BudgetExceededError):
        restricted_charsum(F, (1, 1), (1, 0))
    with pytest.raises(BudgetExceededError):
        weil_sweep(F, (1, 1), [(1, 0)])
    assert time.perf_counter() - start < 1.0


def test_set_budget_is_checked_before_admissibility(monkeypatch):
    import ffstats.mpoly

    def refuse(*args, **kwargs):
        raise AssertionError("admissibility sampled before the budget check")

    monkeypatch.setattr(ffstats.mpoly, "require_classifiable", refuse)
    F = parse("t^3 + A1*t + A2", 2, FieldCtx(13))
    with pytest.raises(BudgetExceededError):
        empirical_distribution(F, FullSpace(2), budget=100)
    with pytest.raises(BudgetExceededError):
        restricted_charsum(F, (3,), (1, 0), budget=100)


def test_the_orbit_path_charges_its_own_work_before_building_it(monkeypatch):
    import ffstats.mpoly
    import ffstats.sets

    def refuse(*args, **kwargs):
        raise AssertionError("built or sampled before the budget check")

    # the cubic over GF(13)^2: 2 * 2^2 support-table entries, 13 powers, 18
    # representatives, and one block of them stacks 18 * (1 + 3 // 2) * 3^2 =
    # 324 rank entries; below 13 the tables do not fit, nor do the 169 points
    F = parse("t^3 + A1*t + A2", 2, FieldCtx(13))
    full = empirical_distribution(F, FullSpace(2))
    with monkeypatch.context() as m:
        m.setattr(ffstats.mpoly, "require_classifiable", refuse)
        m.setattr(ffstats.sets, "_log_table", refuse)
        m.setattr(ffstats.mpoly, "torus_weights", refuse)
        for budget in (7, 12):  # the weights are not solved either
            with pytest.raises(BudgetExceededError, match="169 points"):
                empirical_distribution(F, FullSpace(2), budget=budget)
        m.undo()
        m.setattr(ffstats.mpoly, "require_classifiable", refuse)
        m.setattr(ffstats.sets, "_log_table", refuse)
        for budget, what in ((17, "representatives"), (323, "rank entries")):
            with pytest.raises(BudgetExceededError, match=what):
                empirical_distribution(F, FullSpace(2), budget=budget)
    for budget, what in ((7, "support-table entries"), (12, "powers")):
        with pytest.raises(BudgetExceededError, match=what):
            TorusOrbits((2, 3), FieldCtx(13), budget)
    # the 169 points would stack 169 * 18 rank entries: past this budget
    assert empirical_distribution(F, FullSpace(2), budget=324) == full


@pytest.mark.parametrize(
    "poly, n, p",
    [
        # not weighted-homogeneous: 4099^2 > 2^24 points, as before
        ("t^3 + A1*t + A2 + A1^2", 2, 4099),
        # weighted-homogeneous, but its power table has 2^31 - 1 entries
        ("t^2 - A1", 1, 2**31 - 1),
        # 20 * 2^20 support-table entries; and every weight is 0 mod 2
        (" + ".join(["t^2", *(f"A{i}" for i in range(1, 21))]), 20, 3),
        # 18 * 2^18 entries fit, but not the (5^18 - 1)/2 + 1 representatives
        (" + ".join(["t^2", *(f"A{i}" for i in range(1, 19))]), 18, 5),
    ],
)
def test_a_full_space_past_the_budget_fails_before_any_allocation(monkeypatch, poly, n, p):
    import ffstats.mpoly
    import ffstats.sets

    def refuse(*args, **kwargs):
        raise AssertionError("built or classified past the budget")

    monkeypatch.setattr(ffstats.mpoly, "spec_keys", refuse)
    monkeypatch.setattr(ffstats.sets, "_log_table", refuse)
    F = parse(poly, n, FieldCtx(p))
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceededError):
            empirical_distribution(F, FullSpace(n))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 100_000


@pytest.mark.parametrize(
    "poly, n, parts, p",
    # 15 squares in GF(31) take the sparse path, the [2,1] cubics over GF(13)^2
    # the histogram path
    [("t^2 - A1", 1, (1, 1), 31), ("t^3 + A1*t + A2", 2, (2, 1), 13)],
)
def test_restricted_charsum_gives_weil_sweep_bits(poly, n, parts, p):
    F = parse(poly, n, FieldCtx(p))
    sweep = weil_sweep(F, parts, None)
    # restricted_charsum takes the same path for one frequency: the same bits
    for _, b, mag, _ in sweep.rows[:: len(sweep.rows) // 5]:
        assert restricted_charsum(F, parts, b).magnitude.hex() == mag.hex()


@pytest.mark.parametrize(
    "poly, sweep, work",
    [
        # all 5 points of GF(5) have type [1], so the sums take the histogram
        # path; the frequencies of GF(5) lie on 2 lines (zero's included), so
        # 4 frequencies cost 2*5 phases and 4*5 count slots, one costs 5 + 5
        ("t + A1 + 1", lambda F, budget: weil_sweep(F, (1,), None, budget=budget), 30),
        ("t + A1", lambda F, budget: restricted_charsum(F, (1,), (1,), budget=budget), 10),
        # t + A1 has weight 1: GF(5)^* is one orbit, and its representative
        # is the one frequency charged
        ("t + A1", lambda F, budget: weil_sweep(F, (1,), None, budget=budget), 10),
    ],
    ids=["weil_sweep", "restricted_charsum", "weil_sweep-orbits"],
)
def test_character_sums_pass_their_budget_to_the_kernel(poly, sweep, work):
    F = parse(poly, 1, FieldCtx(5))
    with pytest.raises(BudgetExceededError, match="spectrum"):
        sweep(F, work - 1)
    sweep(F, work)


def test_charsum_extension_field_path():
    ctx = FieldCtx(3, 2, modulus=[1, 0, 1])
    F = parse("t^2 - A1", 1, ctx)
    res = restricted_charsum(F, (1, 1), (1,))
    # brute recount: quadratic residues a = s^2 with s != 0
    squares = {ctx.mul(s, s) for s in range(1, 9)}
    assert res.terms == len(squares)
    assert res.magnitude <= (math.sqrt(9) + 1) / 2 + 1e-9


def test_charsum_of_a_type_that_is_not_a_partition_of_deg_t_is_refused():
    F = parse("t^2 - A1", 1, FieldCtx(11))
    with pytest.raises(PartitionMismatchError):
        restricted_charsum(F, (3,), (1,))
    with pytest.raises(PartitionMismatchError):
        weil_sweep(F, (1,))


def test_charsum_of_a_type_with_a_zero_part_is_refused():
    # (2, 0) sums to deg_t, but a zero part names no class: it would read as
    # the key of (2,)
    F = parse("t^2 - A1", 1, FieldCtx(11))
    with pytest.raises(PartitionMismatchError):
        weil_sweep(F, (2, 0))


def test_prediction_from_group_takes_only_the_group():
    group = cyclic_shift_group(3)
    assert set(prediction_from_group(group)) == {(1, 1, 1), (3,)}
    with pytest.raises(TypeError):
        prediction_from_group(group, partitions(3))
