import itertools
import math
import random
import time
from unittest import mock

import pytest
import sympy
from hypothesis import given, settings
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
    disc_nonzero_probabilistic,
    infer_parameter_count,
    parse,
    require_classifiable,
)
from ffstats.unipoly import UniPoly, discriminant, factorization_type, is_irreducible


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
    # many points, with deg(disc) <= (2 deg_t - 1) * deg_params
    rng = random.Random(37)
    ctx = FieldCtx(11)
    tested = 0
    while tested < 12:
        n = rng.randrange(1, 3)
        F = _random_poly(ctx, n, rng, max_terms=4, max_exp=3)
        if F.deg_t < 1 or not disc_nonzero_probabilistic(F)[0]:
            continue
        tested += 1
        bad = sum(
            1
            for a in itertools.product(range(ctx.q), repeat=n)
            if classify_specialization(F, a).kind != TYPE
        )
        bound = (2 * F.deg_t - 1) * F.deg_params * ctx.q ** (n - 1)
        assert bad <= bound, (str(F), bad, bound)


def test_disc_nonzero_examples():
    ctx = FieldCtx(5)
    ok, used = disc_nonzero_probabilistic(parse("t^2 - A1", 1, ctx))
    assert ok and used >= 1
    bad, used = disc_nonzero_probabilistic(parse("(t - A1)^2", 1, ctx), trials=16)
    assert not bad and used == 16


def test_disc_nonzero_artin_schreier_small_p():
    # t^3 - t - A1 over F_3: separable for every a, needs an extension to
    # sample from since the base field is smaller than the degree bound
    ctx = FieldCtx(3)
    ok, _ = disc_nonzero_probabilistic(parse("t^3 - t - A1", 1, ctx))
    assert ok


def test_disc_nonzero_extension_tower():
    # base field already an extension and too small: lifts through a bigger one
    ctx = FieldCtx(3, 2, modulus=[1, 0, 1])
    F = parse("t^2 - A1^5", 1, ctx)
    ok, _ = disc_nonzero_probabilistic(F)
    assert ok
    bad, _ = disc_nonzero_probabilistic(parse("(t - A1^3)^2", 1, ctx), trials=12)
    assert not bad


DISC_FIELDS = [FieldCtx(p) for p in (2, 3, 5, 13)] + [FieldCtx(2, 2, seed=1), FieldCtx(3, 2, seed=1)]
DISC_FAMILIES = [
    "t^2 - A1",
    "t^3 + A1*t + A2",
    "A1*t^2 + t + A2",  # degree drops at A1 = 0
    "t^p - t - A1",  # squarefree everywhere though p <= deg_t
    "(t - A1)^2",
    "t^p - A1",  # inseparable
    "(t - A1)^2*(t - A2)",
]


def _discriminant_trials(F, trials, seed):
    """The draws of disc_nonzero_probabilistic, each decided by discriminant."""
    bound = (2 * F.deg_t - 1) * F.deg_params
    m = 1
    while F.ctx.q**m <= 2 * bound:
        m += 1
    sample = F
    if m > 1:
        sctx = FieldCtx(F.ctx.p, F.ctx.k * m, seed=seed + 1)
        sample = MultiPoly(sctx, F.n, mpoly._lift_terms(F, sctx))
    rng = random.Random(seed)
    for trial in range(trials):
        f = sample.specialize([sample.ctx.random_element(rng) for _ in range(F.n)])
        if f.degree == F.deg_t and discriminant(f) != 0:
            return True, trial + 1
    return False, trials


@settings(max_examples=120, deadline=None)
@given(
    st.sampled_from(DISC_FIELDS),
    st.sampled_from(DISC_FAMILIES),
    st.integers(1, 6),
    st.integers(0, 10**6),
)
def test_disc_nonzero_matches_discriminant_on_the_same_draws(ctx, family, trials, seed):
    expr = family.replace("p", str(ctx.p))
    F = parse(expr, infer_parameter_count(expr), ctx)
    want = _discriminant_trials(F, trials, seed)
    assert disc_nonzero_probabilistic(F, trials=trials, seed=seed) == want


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
    with pytest.raises(ValueError, match="positive degree in t"):
        mpoly.disc_nonzero_probabilistic(F)
