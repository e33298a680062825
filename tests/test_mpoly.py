import itertools
import json
import math
import random
import time
import tracemalloc
from unittest import mock

import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ffstats import _gfp, mpoly
from ffstats.cli import main
from ffstats.errors import (
    ArityMismatchError,
    BudgetExceededError,
    NegativeExponentError,
    NotAdmissibleError,
    NotSquarefreeError,
    PolynomialSyntaxError,
    UnknownVariableError,
)
from ffstats.field import FieldCtx
from ffstats.mpoly import (
    DEGREE_DROP,
    NON_SQUAREFREE,
    TYPE,
    MultiPoly,
    admissibility,
    classify_points,
    classify_specialization,
    infer_parameter_count,
    parse,
    require_classifiable,
)
from ffstats.unipoly import UniPoly, discriminant, factorization_type, is_irreducible, is_squarefree


def test_parse_quadratic_family():
    ctx = FieldCtx(5)
    F = parse("t^2 - A1", 1, ctx)
    assert F.terms == {(2, 0): 1, (0, 1): 4}
    assert F.deg_t == 2 and F.total_degree == 2 and F.n == 1


def test_parse_trinomial_family():
    ctx = FieldCtx(7)
    F = parse("t^3 + A1*t + A2", 2, ctx)
    assert F.terms == {(3, 0, 0): 1, (1, 1, 0): 1, (0, 0, 1): 1}


def test_parse_double_plus_position():
    with pytest.raises(PolynomialSyntaxError) as err:
        parse("t^2 + + A1", 1, FieldCtx(5))
    assert err.value.position == 6


def test_parse_unknown_variable():
    with pytest.raises(UnknownVariableError):
        parse("t + A2", 1, FieldCtx(5))
    with pytest.raises(UnknownVariableError):
        parse("t + B1", 1, FieldCtx(5))


def test_parse_negative_exponent():
    with pytest.raises(NegativeExponentError):
        parse("t^-2 + A1", 1, FieldCtx(5))


def test_parse_requires_explicit_multiplication():
    with pytest.raises(PolynomialSyntaxError):
        parse("2 t", 0, FieldCtx(5))


def test_parse_parentheses_and_powers():
    ctx = FieldCtx(5)
    F = parse("(t - A1)^2", 1, ctx)
    G = parse("t^2 - 2*A1*t + A1^2", 1, ctx)
    assert F == G


def test_parse_extension_coefficients():
    ctx = FieldCtx(3, 2, modulus=[1, 0, 1])
    F = parse("[1,2]*t + [0,1]", 1, ctx)
    assert F.terms == {(1, 0): ctx.from_coords((1, 2)), (0, 0): ctx.from_coords((0, 1))}
    with pytest.raises(PolynomialSyntaxError):
        parse("[1,2,0]*t", 1, ctx)


def test_parse_zero():
    ctx = FieldCtx(5)
    assert parse("0", 1, ctx).terms == {}
    assert str(parse("0", 1, ctx)) == "0"


def test_print_uses_minus_for_large_residues():
    ctx = FieldCtx(5)
    assert str(parse("t^2 - A1", 1, ctx)) == "t^2 - A1"
    assert str(parse("-t^2 + 2", 1, ctx)) == "-t^2 + 2"
    # the prime subfield of an extension prints by the same rule
    assert str(parse("t^3 - t - A1", 1, FieldCtx(3, 5, seed=0))) == "t^3 - t - A1"


def _random_poly(ctx, n, rng, max_terms=6, max_exp=4):
    terms = {}
    for _ in range(rng.randrange(1, max_terms)):
        e = tuple(rng.randrange(max_exp) for _ in range(n + 1))
        c = rng.randrange(1, ctx.q)
        terms[e] = c
    return MultiPoly(ctx, n, terms)


@pytest.mark.parametrize(
    "ctx", [FieldCtx(5), FieldCtx(2), FieldCtx(3, 2, modulus=[1, 0, 1])],
    ids=["F5", "F2", "F9"],
)
def test_print_parse_roundtrip(ctx):
    rng = random.Random(17)
    for _ in range(120):
        n = rng.randrange(1, 4)
        F = _random_poly(ctx, n, rng)
        assert parse(str(F), n, ctx) == F, str(F)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([FieldCtx(7), FieldCtx(3, 2, modulus=[1, 0, 1]), FieldCtx(5, 2, seed=1)]), st.data())
def test_print_parse_roundtrip_with_prime_subfield_coefficients(ctx, data):
    # coefficients drawn from the prime subfield as often as from the field
    n = data.draw(st.integers(1, 3), label="n")
    exponents = st.tuples(*[st.integers(0, 3)] * (n + 1))
    coeffs = st.integers(1, ctx.p - 1) | st.integers(1, ctx.q - 1)
    F = MultiPoly(ctx, n, data.draw(st.dictionaries(exponents, coeffs, min_size=1, max_size=5)))
    assert parse(str(F), n, ctx) == F, str(F)


def test_specialize_examples():
    ctx = FieldCtx(5)
    F = parse("t^2 - A1", 1, ctx)
    assert F.specialize((4,)).coeffs == (1, 0, 1)  # t^2 + 1
    G = parse("A1*t^2 + t", 1, ctx)
    assert G.specialize((0,)).coeffs == (0, 1)  # degree drop to t
    H = parse("t^3 + A1*t + A2", 2, FieldCtx(7))
    assert H.specialize((1, 1)).coeffs == (1, 1, 0, 1)


def test_specialize_arity_check():
    F = parse("t^2 - A1", 1, FieldCtx(5))
    with pytest.raises(ArityMismatchError):
        F.specialize((1, 2))


@pytest.mark.parametrize(
    "ctx", [FieldCtx(7), FieldCtx(3, 2, modulus=[1, 0, 1])], ids=["F7", "F9"]
)
def test_specialize_is_ring_homomorphism(ctx):
    rng = random.Random(23)
    for _ in range(60):
        n = rng.randrange(1, 3)
        F = _random_poly(ctx, n, rng, max_terms=4, max_exp=3)
        G = _random_poly(ctx, n, rng, max_terms=4, max_exp=3)
        a = tuple(rng.randrange(ctx.q) for _ in range(n))
        fs, gs = F.specialize(a), G.specialize(a)
        assert (F * G).specialize(a) == fs * gs
        assert (F + G).specialize(a) == fs + gs


def test_classify_examples():
    ctx = FieldCtx(5)
    F = parse("t^2 - A1", 1, ctx)
    assert classify_specialization(F, (0,)).kind == NON_SQUAREFREE
    out2 = classify_specialization(F, (2,))
    assert out2.kind == TYPE and out2.parts == (2,)
    out4 = classify_specialization(F, (4,))
    assert out4.kind == TYPE and out4.parts == (1, 1)
    G = parse("A1*t^2 + t", 1, ctx)
    assert classify_specialization(G, (0,)).kind == DEGREE_DROP


def test_classify_matches_discriminant_vanishing():
    # outcome NonSquarefree exactly when the full-degree specialization has
    # zero discriminant; exhaustive over small parameter spaces
    rng = random.Random(31)
    cases = [
        (FieldCtx(7), 1),
        (FieldCtx(7), 2),
        (FieldCtx(3, 2, modulus=[1, 0, 1]), 1),
    ]
    for ctx, n in cases:
        for _ in range(8):
            F = _random_poly(ctx, n, rng, max_terms=5, max_exp=4)
            if F.deg_t < 1:
                continue
            for a in itertools.product(range(ctx.q), repeat=n):
                out = classify_specialization(F, a)
                f = F.specialize(a)
                if f.degree < F.deg_t:
                    assert out.kind == DEGREE_DROP
                elif out.kind == NON_SQUAREFREE:
                    assert discriminant(f) == 0
                else:
                    assert discriminant(f) != 0
                    assert sum(out.parts) == F.deg_t


@pytest.mark.parametrize(
    "ctx", [FieldCtx(7), FieldCtx(3, 2, modulus=[1, 0, 1])], ids=["F7", "F9"]
)
def test_classify_points_yields_one_outcome_per_point_in_order(ctx):
    F = parse("A1*t^2 + A2", 2, ctx)
    pts = list(itertools.product(range(ctx.q), repeat=2))
    outcomes = list(classify_points(F, pts))
    assert len(outcomes) == len(pts)
    for pt, out in zip(pts, outcomes):
        one = classify_specialization(F, pt)
        if one.kind == TYPE:
            assert out == one.parts
        else:
            assert out == one.kind
    assert outcomes[0] == DEGREE_DROP  # A1 = 0
    assert outcomes[ctx.q] == NON_SQUAREFREE  # A1 = 1, A2 = 0: t^2
    assert list(classify_points(F, [])) == []


def test_classify_points_rejects_constant_in_t():
    F = parse("A1 + 1", 1, FieldCtx(5))
    with pytest.raises(NotAdmissibleError):
        next(classify_points(F, [(1,)]))
    with pytest.raises(NotAdmissibleError):
        classify_specialization(F, (1,))


@st.composite
def _leading_parameter_cases(draw):
    # F = A1*t^d + g(t) with deg g < d, and a nonzero value a for A1
    p = draw(st.sampled_from([2, 3, 5, 7, 13, 101]))
    d = draw(st.integers(1, 7))
    g = draw(st.lists(st.integers(0, p - 1), min_size=d, max_size=d))
    a = draw(st.integers(1, p - 1))
    return p, d, g, a


@settings(max_examples=300, deadline=None)
@given(_leading_parameter_cases())
def test_classify_points_matches_sympy(case):
    p, d, g, a = case
    ctx = FieldCtx(p)
    terms = {(d, 1): 1}
    terms.update({(i, 0): c for i, c in enumerate(g) if c})
    F = MultiPoly(ctx, 1, terms)
    at_zero, at_a = classify_points(F, [(0,), (a,)])
    assert at_zero == DEGREE_DROP
    t = sympy.Symbol("t")
    descending = [a] + g[::-1]
    _, factors = sympy.Poly(descending, t, modulus=p).factor_list()
    if any(m > 1 for _, m in factors):
        assert at_a == NON_SQUAREFREE
    else:
        assert at_a == tuple(sorted((f.degree() for f, _ in factors), reverse=True))


# Extension fields for the splitting-rule oracle: GF(4), GF(8), GF(9), GF(25),
# GF(27), GF(49), GF(101^2).
SPLITTING_FIELDS = [FieldCtx(p, k, seed=1) for p, k in ((2, 2), (2, 3), (3, 2), (5, 2), (3, 3), (7, 2), (101, 2))]


def _compose_linear(ctx, f, c1, c2):
    """Coefficients of f(c1*t + c2) over ctx, by Horner's rule on scalars."""
    out = []
    for c in reversed(f):
        nxt = [0] * (len(out) + 1)
        for i, a in enumerate(out):
            nxt[i] = ctx.add(nxt[i], ctx.mul(a, c2))
            nxt[i + 1] = ctx.add(nxt[i + 1], ctx.mul(a, c1))
        nxt[0] = ctx.add(nxt[0], c)
        out = nxt
    return out


@st.composite
def _prime_subfield_cases(draw):
    # monic f over GF(p), d <= 6, and an affine substitution t -> c1*t + c2
    # over GF(q) that moves the coefficients out of GF(p) but keeps the type
    ctx = draw(st.sampled_from(SPLITTING_FIELDS))
    d = draw(st.integers(1, 6))
    f = draw(st.lists(st.integers(0, ctx.p - 1), min_size=d, max_size=d)) + [1]
    c1 = draw(st.integers(1, ctx.q - 1))
    c2 = draw(st.integers(0, ctx.q - 1))
    return ctx, f, c1, c2


@settings(max_examples=420, deadline=None)
@given(_prime_subfield_cases())
def test_extension_classification_matches_splitting_rule(case):
    # sympy factors over GF(p) only; an irreducible factor of degree e over
    # GF(p) splits over GF(p^k) into gcd(e, k) factors of degree e/gcd(e, k).
    ctx, f, c1, c2 = case
    _, factors = sympy.Poly(f[::-1], sympy.Symbol("t"), modulus=ctx.p).factor_list()
    g = UniPoly.make(ctx, _compose_linear(ctx, f, c1, c2))
    F = MultiPoly(ctx, 1, {(i, 0): c for i, c in enumerate(g.coeffs) if c})
    with mock.patch.object(_gfp, "gf_spec_types", wraps=_gfp.gf_spec_types) as batched:
        outcome = next(classify_points(F, [(0,)]))
    batched.assert_called_once()
    if any(m > 1 for _, m in factors):
        assert outcome == NON_SQUAREFREE
        with pytest.raises(NotSquarefreeError):
            factorization_type(g)
        assert not is_irreducible(g)
        return
    parts = []
    for h, _ in factors:
        e = h.degree()
        s = math.gcd(e, ctx.k)
        parts += [e // s] * s
    expect = tuple(sorted(parts, reverse=True))
    assert outcome == expect
    assert factorization_type(g) == expect
    assert is_irreducible(g) == (expect == (g.degree,))


def test_exceptional_points_are_rare():
    # for admissible F the non-generic a form at most deg(disc) * q^(n-1)
    # many points, with deg(disc) <= (2 deg_t - 1) * (the degree in A)
    rng = random.Random(37)
    ctx = FieldCtx(11)
    tested = 0
    while tested < 12:
        n = rng.randrange(1, 3)
        F = _random_poly(ctx, n, rng, max_terms=4, max_exp=3)
        if not admissibility(F).classifiable:
            continue
        tested += 1
        bad = sum(
            1
            for a in itertools.product(range(ctx.q), repeat=n)
            if classify_specialization(F, a).kind != TYPE
        )
        bound = (2 * F.deg_t - 1) * max(sum(e[1:]) for e in F.terms) * ctx.q ** (n - 1)
        assert bad <= bound, (str(F), bad, bound)


def test_disc_nonzero_examples():
    ctx = FieldCtx(5)
    rep = admissibility(parse("t^2 - A1", 1, ctx))
    assert rep.disc_nonzero and rep.trials_used >= 1
    # the grid 0..4 of B_1 = 1 * deg_A1 F + 2 * deg_A1 F_t = 2 + 2, each point once
    rep = admissibility(parse("(t - A1)^2", 1, ctx))
    assert not rep.disc_nonzero and rep.trials_used == 5


def test_disc_nonzero_artin_schreier_small_p():
    # t^3 - t - A1 over F_3: separable for every a, decided in an extension
    # since the base field is smaller than the degree bound
    ctx = FieldCtx(3)
    assert admissibility(parse("t^3 - t - A1", 1, ctx)).disc_nonzero


def test_disc_nonzero_extension_tower():
    # base field already an extension and too small: lifts through a bigger one
    ctx = FieldCtx(3, 2, modulus=[1, 0, 1])
    assert admissibility(parse("t^2 - A1^5", 1, ctx)).disc_nonzero
    assert not admissibility(parse("(t - A1^3)^2", 1, ctx)).disc_nonzero


DISC_FAMILIES = [
    "t^2 - A1",
    "t^3 + A1*t + A2",
    "A1*t^2 + t + A2",  # degree drops at A1 = 0
    "t^p - t - A1",  # squarefree everywhere though p <= deg_t
    "(t - A1)^2",
    "t^p - A1",  # inseparable
    "(t - A1)^2*(t - A2)",
    "(t^2 + A1)*(t^2 + A1*A2)",  # the factors meet where A1 = 0 or A2 = 1
    "t^2 - A1^3 + A1",  # over GF(3) not squarefree at any point of GF(3)
]


@st.composite
def _families(draw, ctx):
    """F in t, A1, A2 of degree 1..4 in t: a named family, or a product of
    one or two random factors, each squared at will, so that squares, shared
    factors and degree drops come often."""
    if draw(st.booleans()):
        return parse(draw(st.sampled_from(DISC_FAMILIES)).replace("p", str(ctx.p)), 2, ctx)
    exponents = st.tuples(st.integers(0, 2), st.integers(0, 1), st.integers(0, 1))
    F = MultiPoly.constant(ctx, 2, 1)
    for _ in range(draw(st.integers(1, 2))):
        f = MultiPoly(ctx, 2, draw(st.dictionaries(exponents, st.integers(1, ctx.q - 1), min_size=1, max_size=3)))
        F = F * f * f if draw(st.booleans()) else F * f
    assume(1 <= F.deg_t <= 4)
    return F


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([FieldCtx(p) for p in (2, 3, 5, 13)]).flatmap(_families))
def test_disc_nonzero_matches_the_resultant_over_prime_fields(F):
    t, *params = sympy.symbols("t A1 A2")
    P = sympy.sympify(str(F).replace("^", "**"))
    res = sympy.resultant(P, P.diff(t), t, *params, modulus=F.ctx.p)
    assert admissibility(F).disc_nonzero == (res != 0), str(F)


def _brute_force_disc_nonzero(F):
    """Whether F(t, a) has full degree and a nonzero scalar discriminant at
    some a in K^n, K = GF(q^m) for the first m with q^m > max B_i: then and
    only then is the discriminant of F not identically zero.  K has its own
    modulus, and GF(q) goes in through a root of the modulus of F's field."""
    base, d = F.ctx, F.deg_t
    bound = max((2 * d - 1) * max(e[i] for e in F.terms) for i in range(1, F.n + 1))
    m = next(m for m in itertools.count(1) if base.q**m > bound)
    K = FieldCtx(base.p, base.k * m, seed=2)
    modulus = UniPoly.from_ints(K, base.modulus)
    root = next(z for z in K.elements() if modulus.evaluate(z) == 0)
    terms = [(e, UniPoly.from_ints(K, base.coords(c)).evaluate(root)) for e, c in F.terms.items()]
    powers = [[K.pow(x, k) for k in range(max(map(max, F.terms)) + 1)] for x in K.elements()]
    for a in itertools.product(K.elements(), repeat=F.n):
        coeffs = [0] * (d + 1)
        for e, c in terms:
            for x, k in zip(a, e[1:]):
                c = K.mul(c, powers[x][k])
            coeffs[e[0]] = K.add(coeffs[e[0]], c)
        if coeffs[d] and discriminant(UniPoly(K, tuple(coeffs))) != 0:
            return True
    return False


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([FieldCtx(2, 2, seed=1), FieldCtx(3, 2, seed=1)]).flatmap(_families), st.integers(1, 2))
def test_disc_nonzero_matches_a_brute_force_over_gf4_and_gf9(F, n):
    if n == 1:  # A2 := A1
        F = sum((MultiPoly(F.ctx, 1, {(e, a + b): c}) for (e, a, b), c in F.terms.items()), MultiPoly(F.ctx, 1, {}))
        assume(F.deg_t >= 1)
    assert admissibility(F).disc_nonzero == _brute_force_disc_nonzero(F), str(F)


def test_a_family_vanishing_on_its_own_field_is_decided_in_the_lift(capsys):
    # a^3 = a on GF(3), so t^2 - A1^3 + A1 is t^2 at every point of GF(3)
    F = parse("t^2 - A1^3 + A1", 1, FieldCtx(3))
    assert all(not is_squarefree(F.specialize((a,))) for a in range(3))
    assert admissibility(F).classifiable
    assert main(["dist", "--p", "3", "--poly", "t^2 - A1^3 + A1", "--set", "full"]) == 0
    assert json.loads(capsys.readouterr().out)["result"]["non_squarefree"] == 3


@pytest.mark.parametrize(
    "poly",
    [
        # B_1 = 1 * 3 + 2 * 0: the grid 0..3 lies in GF(9)
        "t^2 - A1^3 + A1",
        # F_t = t^3 + 1, as 3 kills 3 A1^2 t^2: B_1 = 3 * 2 + 4 * 0 = 6, not 3 * 2 + 4 * 2
        "t^4 + A1^2*t^3 + t + A1",
    ],
)
def test_the_grid_is_bounded_by_the_rows_of_the_sylvester_matrix(poly):
    with mock.patch.object(mpoly, "FieldCtx", wraps=FieldCtx) as lift:
        admissibility(parse(poly, 1, FieldCtx(3)))
    assert [call.args for call in lift.call_args_list] == [(3, 2)]


def test_the_point_off_the_diagonal_finds_a_witness_the_first_point_misses():
    F = parse("t^2 - (A1 - A2)^2", 2, FieldCtx(7))
    assert not is_squarefree(F.specialize((6, 6)))
    rep = admissibility(F)
    assert (rep.disc_nonzero, rep.trials_used) == (True, 2)  # (6, 6), then (5, 4)


def test_the_grid_finds_a_witness_both_fixed_points_miss():
    # B_i = 1 * 4 + 2 * 0: A1 - A2 is 0 at (4, 4) and 1 at (3, 2), so both give t^2
    F = parse("t^2 - (A1 - A2)^2*(A1 - A2 - 1)^2", 2, FieldCtx(13))
    assert not any(is_squarefree(F.specialize(a)) for a in [(4, 4), (3, 2)])
    rep = admissibility(F)
    assert (rep.disc_nonzero, rep.trials_used) == (True, 4)  # then (0, 0) and (0, 1)


def test_an_admissible_family_whose_fixed_points_miss_is_refused_past_the_budget(capsys):
    # its grid has 5^2 = 25 points: admissible, but deciding it needs the grid
    poly = "t^2 - (A1 - A2)^2*(A1 - A2 - 1)^2"
    with pytest.raises(BudgetExceededError, match="grid of 25 points, budget is 24"):
        admissibility(parse(poly, 2, FieldCtx(13)), budget=24)
    # then the rank budget of a block of 25 points: 25 * 2 * 2^2
    assert admissibility(parse(poly, 2, FieldCtx(13)), budget=25 * 8).disc_nonzero
    # one point, whose rank stack (8 entries) fits the budget: the grid does not
    assert main(["dist", "--p", "13", "--poly", poly, "--set", "grid:int(0,1),int(0,1)", "--budget", "24"]) == 3
    assert capsys.readouterr().out == ""


def test_the_grid_walk_holds_one_block_at_a_time():
    # 5^8 grid points, 8 coordinates each: 25 MB of int64 codes at once
    poly = "(t + " + " + ".join(f"A{i}" for i in range(1, 9)) + ")^2"
    F = parse(poly, 8, FieldCtx(10007))
    size = mpoly._spec_block(F.deg_t, F.ctx)[1]
    rows, spec_keys = [], mpoly.spec_keys  # lengths only: a mock would keep every block alive

    def spy(G, codes):
        rows.append(len(codes))
        return spec_keys(G, codes)

    with mock.patch.object(mpoly, "spec_keys", spy):
        tracemalloc.start()
        try:
            rep = admissibility(F)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert (rep.disc_nonzero, rep.trials_used) == (False, 5**8)
    assert sum(rows) == 5**8 - 2 and max(rows) <= size < 5**8
    assert peak < 5**8 * 8 * 8 // 2


def test_an_unused_parameter_takes_a_side_of_one_point(capsys):
    rep = admissibility(parse("(t - A1)^2", 12, FieldCtx(5)))
    assert (rep.disc_nonzero, rep.trials_used) == (False, 5)
    cube = "grid:" + ",".join(["int(0,2)"] * 12)
    assert main(["dist", "--p", "5", "--poly", "(t - A1)^2", "--n", "12", "--set", cube]) == 2
    assert capsys.readouterr().out == ""


def test_a_family_without_parameters_has_one_grid_point():
    ctx = FieldCtx(5)
    rep = admissibility(parse("t^2 + 1", 0, ctx))
    assert (rep.disc_nonzero, rep.trials_used) == (True, 1)
    rep = admissibility(parse("(t + 1)^2", 0, ctx))
    assert (rep.disc_nonzero, rep.trials_used) == (False, 1)


def test_a_grid_past_the_budget_is_refused_before_any_block_is_classified(capsys):
    # 5^11 grid points for the square of a linear form in eleven parameters
    poly = "(t + " + " + ".join(f"A{i}" for i in range(1, 12)) + ")^2"
    cube = "grid:" + ",".join(["int(0,2)"] * 11)
    with mock.patch.object(mpoly, "spec_keys", wraps=mpoly.spec_keys) as blocks:
        assert main(["dist", "--p", "10007", "--poly", poly, "--set", cube]) == 3
    blocks.assert_not_called()
    assert capsys.readouterr().out == ""
    with pytest.raises(BudgetExceededError, match="grid of 48828125 points"):
        admissibility(parse(poly, 11, FieldCtx(10007)))


def test_admissibility_reports():
    rep = admissibility(parse("t^2 - A1", 1, FieldCtx(5)))
    assert rep.admissible and rep.classifiable and rep.p_gt_d

    rep3 = admissibility(parse("t^3 - A1", 1, FieldCtx(3)))
    assert not rep3.p_gt_d and not rep3.admissible
    # t^3 - a is a cube in characteristic 3, so its discriminant vanishes too
    assert not rep3.disc_nonzero

    repas = admissibility(parse("t^3 - t - A1", 1, FieldCtx(3)))
    assert not repas.p_gt_d and repas.disc_nonzero and repas.classifiable
    assert not repas.admissible

    repsq = admissibility(parse("(t - A1)^2", 1, FieldCtx(5)))
    assert not repsq.disc_nonzero and not repsq.admissible

    repconst = admissibility(parse("A1 + 3", 1, FieldCtx(5)))
    assert repconst.deg_t < 1 and not repconst.classifiable


def test_an_unreduced_prime_field_coefficient_names_its_residue():
    # 7 names zero in GF(7): the term 7*t^2 is no term at all
    ctx = FieldCtx(7)
    F = MultiPoly(ctx, 1, {(2, 0): 7, (1, 0): 1, (0, 1): 1})
    assert F == parse("t + A1", 1, ctx)
    assert (F.deg_t, str(F)) == (1, "t + A1")
    assert classify_specialization(F, (3,)) == classify_specialization(parse("t + A1", 1, ctx), (3,))
    assert admissibility(F).admissible
    G = MultiPoly(ctx, 1, {(1, 0): -6, (0, 1): 15})
    assert G.terms == {(1, 0): 1, (0, 1): 1}


def test_an_extension_coefficient_outside_the_field_is_refused():
    ctx = FieldCtx(3, 2, modulus=[1, 0, 1])
    for bad in (9, 100, -1):
        with pytest.raises(ValueError, match=rf"^coefficient {bad} is outside \[0, 9\)$"):
            MultiPoly(ctx, 1, {(1, 0): bad, (0, 1): 1})


def test_require_classifiable():
    require_classifiable(parse("t^3 - t - A1", 1, FieldCtx(3)))  # p = d is fine
    with pytest.raises(NotAdmissibleError):
        require_classifiable(parse("(t - A1)^2", 1, FieldCtx(5)))
    with pytest.raises(NotAdmissibleError):
        require_classifiable(parse("A1", 1, FieldCtx(5)))


def test_infer_parameter_count():
    assert infer_parameter_count("t^2 - A1") == 1
    assert infer_parameter_count("t^3 + A1*t + A2") == 2
    assert infer_parameter_count("t^5 + 2") == 0
    assert infer_parameter_count("A7*t + A2") == 7


def test_from_unipoly_lift():
    ctx = FieldCtx(7)
    f = UniPoly.from_ints(ctx, [0, -3, 0, 1])
    F = MultiPoly.from_unipoly(f, 1)
    assert F.n == 1 and F.deg_t == 3
    assert F.specialize((0,)) == f


def test_parentheses_nested_past_the_limit_are_a_syntax_error():
    ctx = FieldCtx(11)
    depth = mpoly._MAX_NESTING
    assert parse("(" * depth + "t" + ")" * depth, 0, ctx) == parse("t", 0, ctx)
    with pytest.raises(PolynomialSyntaxError) as info:
        parse("(" * 3000 + "t" + ")" * 3000, 0, ctx)
    assert info.value.position == depth


def test_parse_counts_each_product_against_the_budget():
    ctx = FieldCtx(101)
    # (t + A1)^2 multiplies 2 terms by 2, (t + A1)*(t - A1) likewise
    assert parse("(t + A1)^2", 1, ctx, budget=4) == parse("t^2 + 2*t*A1 + A1^2", 1, ctx)
    for expr in ("(t + A1)^2", "(t + A1)*(t - A1)"):
        with pytest.raises(BudgetExceededError):
            parse(expr, 1, ctx, budget=3)
    with pytest.raises(BudgetExceededError):
        parse("(t + A1 + A2 + A3)^30 + A1", 3, ctx, budget=100_000)


def test_parse_counts_the_whole_expansion_against_the_budget():
    ctx = FieldCtx(101)
    # two products of 2 by 2 terms: each within 4, together 8
    expr = "(t + A1)*(t - A1) + (t + A2)*(t - A2)"
    assert parse(expr, 2, ctx, budget=8) == parse("2*t^2 - A1^2 - A2^2", 2, ctx)
    with pytest.raises(BudgetExceededError, match="8 term products"):
        parse(expr, 2, ctx, budget=7)


def test_parse_refuses_a_power_below_p_before_expanding_it():
    ctx = FieldCtx(1000003)
    start = time.perf_counter()
    with pytest.raises(BudgetExceededError):
        parse("(t + 1)^100000 + A1", 1, ctx)
    assert time.perf_counter() - start < 1.0
    # at or past p, Frobenius collapses terms: (t + 1)^1024 = t^1024 + 1
    # over GF(2) costs ten squarings of two terms
    gf2 = FieldCtx(2)
    assert parse("(t + 1)^1024", 0, gf2, budget=40) == parse("t^1024 + 1", 0, gf2)


@pytest.mark.parametrize("expr, e", [("t + 1", 37), ("t + A1 + 1", 21), ("t^2 + 5", 13), ("t", 9), ("t - t", 5)])
def test_power_cost_before_expanding_is_the_cost_charged_when_nothing_cancels(expr, e):
    ctx = FieldCtx(1000003)
    charged = []
    terms = parse(expr, 1, ctx).terms
    mpoly._tpow(ctx, terms, e, 1, charged.append)
    assert mpoly._tpow_cost(terms, e) == sum(charged)


@pytest.mark.parametrize("p, k, m", [(2, 3, 2), (2, 9, 2), (3, 2, 3), (5, 2, 2), (7, 3, 2)])
def test_subfield_root_is_a_root_of_the_base_modulus(p, k, m):
    base = FieldCtx(p, k)
    ext = FieldCtx(p, k * m, seed=1)
    root = mpoly._find_subfield_root(base, ext)
    assert UniPoly.from_ints(ext, base.modulus).evaluate(root) == 0
    assert mpoly._find_subfield_root(base, ext) == root


_F7 = FieldCtx(7)

# Each input check of the polynomial layer: the call that trips it, its error,
# and a --poly that reaches it from the command line (None: no text spells it).
_POLY_ERRORS = [
    (lambda: mpoly._tokenize("t^2 $ A1"), PolynomialSyntaxError, "t^2 $ A1"),
    (lambda: MultiPoly(_F7, -1, {}), ValueError, None),
    (lambda: MultiPoly(_F7, 1, {(1,): 1}), ArityMismatchError, None),
    (lambda: MultiPoly(_F7, 1, {(1, -1): 1}), ValueError, None),
    (lambda: MultiPoly.parameter(_F7, 1, 2), ValueError, None),
    (lambda: MultiPoly.variable_t(_F7, 1) + MultiPoly.variable_t(_F7, 2), ValueError, None),
    (lambda: MultiPoly.variable_t(_F7, 1) * MultiPoly.variable_t(FieldCtx(5), 1), ValueError, None),
    (lambda: parse("[1,2", 1, FieldCtx(3, 2, modulus=[1, 0, 1])), PolynomialSyntaxError, "[1,2"),
    (lambda: parse("t^A1", 1, _F7), PolynomialSyntaxError, "t^A1"),
    (lambda: parse("t +", 1, _F7), PolynomialSyntaxError, "t +"),
]


@pytest.mark.parametrize(
    "call, error, poly",
    _POLY_ERRORS,
    ids=["character", "negative-arity", "exponent-length", "exponent-sign", "parameter-index",
         "arity-mismatch", "field-mismatch", "unclosed-bracket", "exponent-not-literal",
         "end-of-expression"],
)
def test_poly_input_errors_raise_their_type_and_exit_2(capsys, call, error, poly):
    with pytest.raises(error):
        call()
    if poly is not None:
        assert main(["dist", "--p", "7", "--poly", poly]) == 2
        assert capsys.readouterr().out == ""



def test_a_polynomial_without_t_needs_no_classification_budget_and_has_no_discriminant():
    F = parse("A1 + 1", 1, _F7)
    mpoly.require_dense_budget(F, 0)  # nothing to classify
    rep = admissibility(F)
    assert not rep.classifiable and rep.trials_used == 0
