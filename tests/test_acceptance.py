"""Acceptance suite.

Each criterion below runs at its stated tolerance and prints one PASS/FAIL
line (run with ``pytest tests/test_acceptance.py -v -s`` to see them).  The
final criterion builds every report a second time, from cleared caches, and
demands byte-identical serialized results.
"""

import functools
import itertools
import json
import math
import random
from collections import Counter
from fractions import Fraction

import numpy as np

from ffstats.cli import main
from ffstats.field import FieldCtx, is_prime
from ffstats.mpoly import classify_specialization, parse
from ffstats.sets import (
    APSpec,
    ExplicitSet,
    FullSpace,
    GridProduct,
    TraceZero,
    irregularity,
    verify_plancherel_decomposition,
)
from ffstats.stats import (
    GroupSpec,
    compare,
    cycle_type,
    cyclic_shift_group,
    empirical_distribution,
    format_type,
    gamma_symmetric,
    partitions,
    restricted_charsum,
    weil_sweep,
)


def _line(num, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {detail}")


def _primes(lo, hi):
    return [p for p in range(lo, hi + 1) if is_prime(p)]


# -- criterion 1: quadratic residues in short intervals ---------------------------


@functools.lru_cache(maxsize=None)
def criterion1_report():
    rows = []
    for p in (101, 1009, 10007):
        ctx = FieldCtx(p)
        F = parse("t^2 - A1", 1, ctx)
        H = math.ceil(p**0.75)
        dist = empirical_distribution(F, GridProduct([APSpec(1, 0, H)]))
        split = dist.counts.get((1, 1), 0)
        oracle = sum(1 for a in range(1, H) if pow(a, (p - 1) // 2, p) == 1)
        rows.append(
            {
                "p": p,
                "H": H,
                "split_count": split,
                "legendre_oracle": oracle,
                "deviation": split - H / 2,
                "tolerance": 5 * math.sqrt(p) * math.log(p),
            }
        )
    return {"rows": rows}


def test_criterion_1_polya_vinogradov():
    rep = criterion1_report()
    ok = all(
        r["split_count"] == r["legendre_oracle"]
        and abs(r["deviation"]) <= r["tolerance"]
        for r in rep["rows"]
    )
    worst = max(abs(r["deviation"]) / r["tolerance"] for r in rep["rows"])
    _line(1, ok, f"split counts within 5*sqrt(p)*log(p) of H/2 (worst ratio {worst:.3f})")
    assert ok


def test_criterion_1_dist_of_a_quadratic_on_an_interval_is_the_legendre_count(capsys):
    # the Polya-Vinogradov case the paper generalizes: t^2 - a splits, stays
    # irreducible or is a square as chi(a) = 1, -1 or 0, by Euler's criterion;
    # the second interval wraps past p and so holds a = 0
    rows = []
    for p, beta, H in ((1009, 17, 179), (10007, 9507, 1001)):
        assert main(["dist", "--p", str(p), "--poly", "t^2 - A1", "--set", f"grid:int({beta},{H})"]) == 0
        result = json.loads(capsys.readouterr().out)["result"]
        chi = Counter(pow(a % p, (p - 1) // 2, p) for a in range(beta, beta + H))
        expected = {"counts": {"[2]": chi[p - 1], "[1,1]": chi[1]}, "non_squarefree": chi[0],
                    "degree_drop": 0, "total": H}
        rows.append((p, beta, H, result == expected))
    ok = all(row[-1] for row in rows)
    _line(1, ok, f"dist of t^2 - A1 on intervals (p, beta, H) = {[row[:3] for row in rows]} "
                 "equals the Legendre counts bucket by bucket")
    assert ok


# -- criterion 2: k-th power residues ----------------------------------------------


@functools.lru_cache(maxsize=None)
def criterion2_report():
    p = 1009
    ctx = FieldCtx(p)
    H = math.ceil(p**0.75)
    rows = []
    for k in (2, 3, 4, 6):
        F = parse(f"t^{k} - A1", 1, ctx)
        with_root = 0
        for a in range(H):
            outcome = classify_specialization(F, (a,))
            if outcome.is_type:
                has_root = 1 in outcome.parts
            else:
                f = F.specialize((a,))
                has_root = any(f.evaluate(x) == 0 for x in range(p))
            with_root += 1 if has_root else 0
        g = math.gcd(p - 1, k)
        oracle = sum(
            1 for a in range(H) if a == 0 or pow(a, (p - 1) // g, p) == 1
        )
        rows.append(
            {
                "k": k,
                "H": H,
                "count_with_root": with_root,
                "power_residue_oracle": oracle,
                "deviation": with_root - H / g,
                "tolerance": 5 * math.sqrt(p) * math.log(p),
            }
        )
    return {"p": p, "rows": rows}


def test_criterion_2_power_residues():
    rep = criterion2_report()
    ok = all(
        r["count_with_root"] == r["power_residue_oracle"]
        and abs(r["deviation"]) <= r["tolerance"]
        for r in rep["rows"]
    )
    _line(2, ok, f"root counts track H/gcd(p-1,k) for k in (2,3,4,6) at p={rep['p']}")
    assert ok


# -- criterion 3: exact full-space law for the quadratic family ----------------------


@functools.lru_cache(maxsize=None)
def criterion3_report():
    rows = []
    for p in _primes(5, 499):
        F = parse("t^2 - A1", 1, FieldCtx(p))
        dist = empirical_distribution(F, FullSpace(1))
        rows.append(
            {
                "p": p,
                "split": dist.counts.get((1, 1), 0),
                "inert": dist.counts.get((2,), 0),
                "non_squarefree": dist.non_squarefree,
                "degree_drop": dist.degree_drop,
            }
        )
    return {"rows": rows}


def test_criterion_3_exact_full_space_law():
    rep = criterion3_report()
    ok = all(
        r["split"] == (r["p"] - 1) // 2
        and r["inert"] == (r["p"] - 1) // 2
        and r["non_squarefree"] == 1
        and r["degree_drop"] == 0
        for r in rep["rows"]
    )
    _line(3, ok, f"exact ((p-1)/2, (p-1)/2, 1) counts for all {len(rep['rows'])} primes in [5, 499]")
    assert ok


def test_criterion_3_cubic_law_past_the_point_budget():
    # 10^10 points, past the default budget of 2^24; the cubic is
    # weighted-homogeneous, so its 100,008 torus orbits are classified
    q = 100003
    dist = empirical_distribution(parse("t^3 + A1*t + A2", 2, FieldCtx(q)), FullSpace(2))
    law = {(3,): (q * q - 1) // 3, (2, 1): (q * q - q) // 2, (1, 1, 1): (q - 1) * (q - 2) // 6}
    ok = (dist.counts, dist.non_squarefree, dist.degree_drop, dist.total) == (law, q, 0, q * q)
    _line(3, ok, f"exact depressed-cubic counts over GF({q})^2, {q * q} points")
    assert ok


# -- criterion 4: permutation cycle-type law vs. enumeration --------------------------


@functools.lru_cache(maxsize=None)
def criterion4_report():
    mismatches = []
    checked = 0
    for d in range(1, 8):
        tallies = {}
        for perm in itertools.permutations(range(d)):
            t = cycle_type(perm)
            tallies[t] = tallies.get(t, 0) + 1
        for parts in partitions(d):
            checked += 1
            want = Fraction(tallies.get(parts, 0), math.factorial(d))
            if gamma_symmetric(d, parts) != want:
                mismatches.append(f"d={d} {format_type(parts)}")
    return {"checked": checked, "mismatches": mismatches}


def test_criterion_4_gamma_oracle():
    rep = criterion4_report()
    ok = not rep["mismatches"]
    _line(4, ok, f"gamma equals brute-force S_d enumeration for all {rep['checked']} types, d <= 7")
    assert ok


# -- criterion 5: trinomial statistics, full and restricted ---------------------------


@functools.lru_cache(maxsize=None)
def criterion5_report():
    rows = []
    for p in (53, 101, 211):
        ctx = FieldCtx(p)
        F = parse("t^3 + A1*t + A2", 2, ctx)
        full = compare(F, FullSpace(2), GroupSpec.symmetric(3))
        H = math.ceil(p**0.8)
        grid = GridProduct([APSpec(1, 0, H), APSpec(1, 0, H)])
        restricted = compare(F, grid, GroupSpec.symmetric(3))
        rows.append(
            {
                "p": p,
                "full_tv": full.tv_distance,
                "full_tolerance": 5 / math.sqrt(p),
                "restricted_H": H,
                "restricted_tv": restricted.tv_distance,
                "restricted_irreg": restricted.irreg,
                "restricted_normalized_error": restricted.normalized_error,
            }
        )
    return {"rows": rows}


def test_criterion_5_trinomial_statistics():
    rep = criterion5_report()
    ok = all(r["full_tv"] <= r["full_tolerance"] for r in rep["rows"])
    ok = ok and all(
        math.isfinite(r["restricted_normalized_error"])
        and r["restricted_normalized_error"] >= 0
        for r in rep["rows"]
    )
    worst = max(r["full_tv"] * math.sqrt(r["p"]) for r in rep["rows"])
    restr = ", ".join(
        f"p={r['p']}: {r['restricted_normalized_error']:.4f}" for r in rep["rows"]
    )
    _line(5, ok, f"full-space tv*sqrt(p) <= {worst:.3f} (limit 5); restricted normalized errors {restr}")
    assert ok


# -- criterion 6: the irregularity suite ------------------------------------------------


def _interval_irreg_fft(p, H):
    ind = np.zeros(p)
    ind[:H] = 1.0
    mags = np.abs(np.fft.fft(ind)) / p
    return p / H * float(mags.sum()), mags


@functools.lru_cache(maxsize=None)
def criterion6_report():
    report = {}
    # exact landmark values
    report["full_space"] = [
        irregularity(FullSpace(1), FieldCtx(10007)).irreg,
        irregularity(FullSpace(2), FieldCtx(13)).irreg,
        irregularity(FullSpace(1), FieldCtx(3, 3, seed=0)).irreg,
    ]
    report["singleton"] = [
        irregularity(ExplicitSet([(5,)]), FieldCtx(13)).irreg,
        irregularity(ExplicitSet([(3, 7)]), FieldCtx(13)).irreg,
        irregularity(ExplicitSet([(5,)]), FieldCtx(3, 3, seed=0)).irreg,
    ]
    # product multiplicativity on 100 random pairs
    rng = random.Random(606)
    prod_dev = 0.0
    for _ in range(100):
        p = rng.choice([3, 5, 7, 11, 13, 17, 23, 31])
        ctx = FieldCtx(p)
        s1 = rng.sample(range(p), rng.randrange(1, p))
        s2 = rng.sample(range(p), rng.randrange(1, p))
        r1 = irregularity(ExplicitSet([(a,) for a in s1]), ctx).irreg
        r2 = irregularity(ExplicitSet([(a,) for a in s2]), ctx).irreg
        r12 = irregularity(ExplicitSet([(a, b) for a in s1 for b in s2]), ctx).irreg
        prod_dev = max(prod_dev, abs(r12 - r1 * r2))
    report["product_max_deviation"] = prod_dev
    # affine invariance on 100 random cases
    aff_dev = 0.0
    for _ in range(100):
        p = rng.choice([5, 7, 11, 13, 17, 23, 31])
        ctx = FieldCtx(p)
        base = rng.sample(range(p), rng.randrange(1, p))
        alpha, beta = rng.randrange(1, p), rng.randrange(p)
        image = [((alpha * a + beta) % p,) for a in base]
        r0 = irregularity(ExplicitSet([(a,) for a in base]), ctx).irreg
        r1 = irregularity(ExplicitSet(image), ctx).irreg
        aff_dev = max(aff_dev, abs(r0 - r1))
    report["affine_max_deviation"] = aff_dev
    # interval envelope for every p <= 200, 1 <= H <= p: exact DFT vs closed
    # form vs 9 p log p / H
    env_ok = True
    closed_vs_fft = 0.0
    for p in _primes(2, 200):
        ctx = FieldCtx(p)
        for H in range(1, p + 1):
            fft_val, _ = _interval_irreg_fft(p, H)
            lib_val = irregularity(GridProduct([APSpec(1, 0, H)]), ctx).irreg
            closed_vs_fft = max(closed_vs_fft, abs(fft_val - lib_val))
            if fft_val > 9 * p * math.log(p) / H + 1e-9:
                env_ok = False
            if lib_val > 9 * p * math.log(p) / H + 1e-9:
                env_ok = False
    report["interval_envelope_holds"] = env_ok
    report["closed_form_vs_fft_max"] = closed_vs_fft
    # pointwise geometric-series estimate for p <= 97
    e1_ok = True
    for p in _primes(2, 97):
        if p == 2:
            continue  # b has no nonzero residues below p/2 symmetry; trivial
        for H in range(1, p + 1):
            _, mags = _interval_irreg_fft(p, H)
            for b in range(1, p):
                if mags[b] > 2 / (p * abs(math.sin(math.pi * b / p))) + 1e-12:
                    e1_ok = False
    report["pointwise_sine_bound_holds"] = e1_ok
    return report


def test_criterion_6_irregularity_suite():
    rep = criterion6_report()
    ok = rep["full_space"] == [1.0, 1.0, 1.0]
    ok = ok and rep["singleton"] == [13.0, 169.0, 27.0]
    ok = ok and rep["product_max_deviation"] <= 1e-9
    ok = ok and rep["affine_max_deviation"] <= 1e-9
    ok = ok and rep["interval_envelope_holds"]
    ok = ok and rep["pointwise_sine_bound_holds"]
    ok = ok and rep["closed_form_vs_fft_max"] <= 1e-8
    _line(
        6,
        ok,
        "full space 1, singleton q^n exact; product dev "
        f"{rep['product_max_deviation']:.2e}, affine dev {rep['affine_max_deviation']:.2e}; "
        "interval and pointwise envelopes hold",
    )
    assert ok


# -- criterion 7: the trace-zero counterexample ---------------------------------------


@functools.lru_cache(maxsize=None)
def criterion7_report():
    ctx = FieldCtx(3, 3, seed=0)
    F = parse("t^3 - t - A1", 1, ctx)
    dist = empirical_distribution(F, TraceZero())
    rep = irregularity(TraceZero(), ctx)
    cyclic = compare(F, TraceZero(), cyclic_shift_group(3))
    return {
        "set_size": dist.total,
        "split_completely": dist.counts.get((1, 1, 1), 0),
        "other_classes": sum(c for t, c in dist.counts.items() if t != (1, 1, 1)),
        "non_squarefree": dist.non_squarefree,
        "irreg": rep.irreg,
        "cyclic_frequency_split": cyclic.per_type[(1, 1, 1)][0],
        "cyclic_prediction_split": cyclic.per_type[(1, 1, 1)][1],
        "cyclic_tv": cyclic.tv_distance,
    }


def test_criterion_7_trace_zero_counterexample():
    rep = criterion7_report()
    ok = (
        rep["set_size"] == 9
        and rep["split_completely"] == 9
        and rep["other_classes"] == 0
        and rep["non_squarefree"] == 0
        and rep["irreg"] == 3.0
        and rep["cyclic_frequency_split"] == 1.0
    )
    _line(
        7,
        ok,
        "all 9 trace-zero points split completely, irreg = 3 exactly, "
        f"empirical mass 1.0 on [1,1,1] vs cyclic prediction {rep['cyclic_prediction_split']:.4f}",
    )
    assert ok


# -- criterion 8: character-sum bounds --------------------------------------------------


@functools.lru_cache(maxsize=None)
def criterion8_report():
    quad_rows = []
    for p in _primes(3, 499):
        ctx = FieldCtx(p)
        F = parse("t^2 - A1", 1, ctx)
        row = {"p": p}
        for parts, tag in (((1, 1), "split"), ((2,), "inert")):
            sweep = weil_sweep(F, parts, None)
            row[f"max_magnitude_{tag}"] = max(r[2] for r in sweep.rows)
        row["bound"] = (math.sqrt(p) + 1) / 2
        quad_rows.append(row)
    tri = weil_sweep(parse("t^3 + A1*t + A2", 2, FieldCtx(13)), (3,), None)
    gauss = restricted_charsum(parse("t^2 - A1", 1, FieldCtx(5)), (2,), (1,))
    return {
        "quadratic": quad_rows,
        "trinomial_max_ratio": tri.max_ratio,
        "trinomial_rows": len(tri.rows),
        "gauss_magnitude": gauss.magnitude,
    }


def test_criterion_8_character_sum_bounds():
    rep = criterion8_report()
    ok = all(
        r["max_magnitude_split"] <= r["bound"] + 1e-9
        and r["max_magnitude_inert"] <= r["bound"] + 1e-9
        for r in rep["quadratic"]
    )
    ok = ok and rep["trinomial_max_ratio"] <= 3.0
    ok = ok and abs(rep["gauss_magnitude"] - (1 + math.sqrt(5)) / 2) <= 1e-9
    _line(
        8,
        ok,
        f"quadratic sums <= (sqrt(p)+1)/2 for {len(rep['quadratic'])} primes; "
        f"trinomial ratio {rep['trinomial_max_ratio']:.3f} <= 3; Gauss magnitude exact",
    )
    assert ok


# -- criterion 9: the intersection identity ----------------------------------------------


@functools.lru_cache(maxsize=None)
def criterion9_report():
    rng = random.Random(909)
    residuals = []
    for i in range(50):
        p = rng.choice([3, 5, 7, 11, 13])
        n = rng.choice([1, 2])
        ctx = FieldCtx(p)
        space = list(itertools.product(range(p), repeat=n))
        s_pts = rng.sample(space, rng.randrange(1, len(space)))
        if i % 2 == 0 and p > 3:
            F = (
                parse("t^2 - A1", 1, ctx)
                if n == 1
                else parse("t^3 + A1*t + A2", 2, ctx)
            )
            lam = (2,) if n == 1 else (3,)
            d_pts = [
                a for a in space if classify_specialization(F, a).parts == lam
            ] or [space[0]]
        else:
            d_pts = rng.sample(space, rng.randrange(1, len(space)))
        residuals.append(
            verify_plancherel_decomposition(ExplicitSet(s_pts), d_pts, ctx)
        )
    return {"instances": len(residuals), "max_residual": max(residuals)}


def test_criterion_9_plancherel_identity():
    rep = criterion9_report()
    ok = rep["max_residual"] < 1e-6
    _line(
        9,
        ok,
        f"{rep['instances']} randomized instances, max residual {rep['max_residual']:.2e} < 1e-6",
    )
    assert ok


# -- criterion 10: determinism from run to run ---------------------------------------------


def test_criterion_10_thread_determinism():
    makers = [
        criterion1_report,
        criterion2_report,
        criterion3_report,
        criterion4_report,
        criterion5_report,
        criterion6_report,
        criterion7_report,
        criterion8_report,
        criterion9_report,
    ]
    first = [json.dumps(fn(), sort_keys=True) for fn in makers]
    for fn in makers:
        fn.cache_clear()
    again = [json.dumps(fn(), sort_keys=True) for fn in makers]
    unstable = [i for i, (a, b) in enumerate(zip(first, again), start=1) if a != b]
    ok = not unstable
    _line(
        10,
        ok,
        "criteria 1-9 reports byte-identical when built twice"
        + ("" if ok else f" (unstable: {unstable})"),
    )
    assert ok
