import argparse
import contextlib
import csv
import io
import json
import logging
import math
import os
import re
import subprocess
import sys
import threading
import time
import types
from pathlib import Path

import pytest

from ffstats import _gfp, cli, mpoly, sets, stats
from ffstats.cli import main
from ffstats.field import FieldCtx, is_prime
from ffstats.mpoly import NON_SQUAREFREE, parse
from ffstats.stats import cyclic_shift_group
from oracles import write_group_file
from scalar_splitting import classify_one, spec_type


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run_cli(capsys, *argv)
    assert code == 0, out
    return json.loads(out)


def test_dist_quadratic_f13(capsys):
    report = run_json(
        capsys, "dist", "--p", "13", "--poly", "t^2 - A1", "--set", "full"
    )
    assert report["result"]["counts"] == {"[2]": 6, "[1,1]": 6}
    assert report["result"]["non_squarefree"] == 1
    assert report["config"]["p"] == 13
    assert report["version"]
    assert "elapsed_s" in report["timings"]


def test_composite_past_the_deterministic_bases_is_an_input_error(capsys):
    # 399165290221 * 798330580441 passes Miller-Rabin to the 12 prime bases
    code, _ = run_cli(capsys, "dist", "--p", "318665857834031151167461", "--poly", "t^2 - A1", "--set", "grid:int(0,5)")
    assert code == 2


def test_sweep_over_gf_p2_past_int64(capsys, tmp_path):
    # p = 2^89 - 1: the multiplication tensor of GF(p^2) holds entries past 2^63
    p = 2**89 - 1
    coords = [(1, 0), (2, 0), (5, 0), (0, 1), (p - 1, 7), (12345, p - 2)]
    path = tmp_path / "points"
    path.write_text("".join(f"[{a},{b}]\n" for a, b in coords))
    report = run_json(capsys, "dist", "--p", str(p), "--k", "2", "--poly", "t^3 - A1*t + 1", "--set", f"file:{path}")
    ctx = FieldCtx(p, 2, seed=0)
    F = parse("t^3 - A1*t + 1", 1, ctx)
    outcomes = [classify_one(F, (ctx.from_coords(c),)) for c in coords]
    counts = {",".join(map(str, o)).join("[]"): outcomes.count(o) for o in outcomes if isinstance(o, tuple)}
    assert report["result"]["counts"] == counts
    assert report["result"]["non_squarefree"] == outcomes.count(NON_SQUAREFREE)
    assert report["result"]["total"] == 6


def test_irreg_interval_f101(capsys):
    report = run_json(
        capsys, "irreg", "--p", "101", "--set", "grid:int(0,10)"
    )
    res = report["result"]
    assert res["bound_9plogp"] == pytest.approx(9 * 101 * math.log(101) / 10)
    assert 1.0 < res["irreg"] <= res["bound_9plogp"]
    assert res["method"] == "closed_form_interval"


def test_factor_type_with_point(capsys):
    report = run_json(
        capsys,
        "factor-type",
        "--p", "5",
        "--poly", "t^2 - A1",
        "--point", "2",
    )
    assert report["result"]["outcome"] == "type"
    assert report["result"]["type"] == "[2]"


def test_factor_type_constant_polynomial(capsys):
    report = run_json(
        capsys, "factor-type", "--p", "2", "--poly", "t^3 + t + 1"
    )
    assert report["result"]["type"] == "[3]"


def test_compare_symmetric(capsys):
    report = run_json(
        capsys,
        "compare",
        "--p", "13",
        "--poly", "t^2 - A1",
        "--set", "full",
        "--group", "symmetric",
    )
    assert report["result"]["tv_distance"] == pytest.approx(1 / 13)
    assert report["result"]["irreg"] == 1.0


def test_compare_with_group_file(capsys, tmp_path):
    path = tmp_path / "z3.txt"
    write_group_file(cyclic_shift_group(3), path)
    report = run_json(
        capsys,
        "compare",
        "--p", "3",
        "--k", "3",
        "--poly", "t^3 - t - A1",
        "--set", "tracezero",
        "--group", str(path),
    )
    assert report["result"]["per_type"]["[1,1,1]"]["frequency"] == 1.0
    assert report["result"]["irreg"] == 3.0


def test_compare_group_file_of_wrong_degree_is_input_error(capsys, tmp_path):
    path = tmp_path / "g2.txt"
    write_group_file(cyclic_shift_group(2), path)
    code, out = run_cli(
        capsys,
        "compare",
        "--p", "11",
        "--poly", "t^3 + A1*t + A2",
        "--set", "full",
        "--group", str(path),
    )
    assert code == 2
    assert out == ""


def test_group_file_past_the_budget_exits_3_before_validation(capsys, tmp_path):
    # two elements of degree 3, not closed under composition: the check
    # composes 2^2 pairs of 3 letters, charged before it runs
    path = tmp_path / "open.txt"
    path.write_text("d=3 nu=1\n1 2 3 | 0\n2 3 1 | 0\n")
    argv = ["compare", "--p", "7", "--poly", "t^3 + A1*t + A2", "--set", "full", "--group", str(path)]
    assert main([*argv, "--budget", "11"]) == 3
    assert capsys.readouterr().err == "budget error: group check composes 12 entries (2 elements of degree 3), budget is 11\n"
    assert main([*argv, "--budget", "12"]) == 2
    assert capsys.readouterr().err == "input error: element list is not closed under composition\n"


def test_charsum_golden(capsys):
    report = run_json(
        capsys,
        "charsum",
        "--p", "5",
        "--poly", "t^2 - A1",
        "--type", "2",
        "--b", "1",
    )
    assert report["result"]["magnitude"] == pytest.approx((1 + math.sqrt(5)) / 2)
    assert report["result"]["terms"] == 2


def test_charsum_sweep(capsys):
    report = run_json(
        capsys,
        "charsum",
        "--p", "13",
        "--poly", "t^2 - A1",
        "--type", "2",
        "--all-b",
    )
    assert len(report["result"]["rows"]) == 12
    assert report["result"]["max_ratio"] <= 1.0
    assert report["config"]["b"] is None  # --b has no default


@pytest.mark.parametrize("text", ["x", "2.5"])
def test_charsum_type_with_a_part_that_is_no_integer_is_an_input_error(text):
    # in a process of its own, whose stderr carries the error line
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    argv = ["charsum", "--p", "11", "--poly", "t^3 + A1*t + A2", "--type", text, "--all-b"]
    run = subprocess.run(
        [sys.executable, "-m", "ffstats.cli", *argv], env=env, capture_output=True, text=True, timeout=60
    )
    assert run.returncode == 2 and run.stdout == ""
    assert f"cycle-type parts must be positive integers: {text!r}" in run.stderr


def test_demo_artin_schreier(capsys):
    report = run_json(capsys, "demo", "artin-schreier", "--p", "3", "--k", "3")
    res = report["result"]
    assert res["split_fraction"] == 1.0
    assert res["split_completely"] == 9
    assert res["irreg"]["irreg"] == 3.0
    assert res["comparison_vs_cyclic"]["per_type"]["[1,1,1]"]["frequency"] == 1.0


@pytest.mark.parametrize("p", [1009, 10007])
def test_artin_schreier_demo_past_the_budget_exits_at_once(capsys, p):
    # the cyclic group's p^2 entries are charged before they are listed, and
    # the group is built without composing its p^2 pairs
    start = time.perf_counter()
    code = main(["demo", "artin-schreier", "--p", str(p), "--k", "2"])
    elapsed = time.perf_counter() - start
    assert code == 3 and capsys.readouterr().err.startswith("budget error: ")
    assert elapsed < 2


def test_demo_pv(capsys):
    report = run_json(capsys, "demo", "pv", "--p", "101")
    res = report["result"]
    assert res["H"] == math.ceil(101**0.75)
    assert abs(res["deviation"]) <= 5 * math.sqrt(101) * math.log(101)


def test_demo_power_residues(capsys):
    report = run_json(
        capsys, "demo", "power-residues", "--p", "13", "--power", "3", "--H", "13"
    )
    res = report["result"]
    # over the whole line: #(cubes mod 13) = (13-1)/gcd(12,3) + 1 = 5
    assert res["count_with_root"] == 5
    assert res["gcd"] == 3


@pytest.mark.parametrize("demo", ["pv", "power-residues", "morse"])
def test_interval_demos_run_over_gf25(capsys, demo):
    # the interval is a progression in the prime subfield F_5 of GF(25)
    res = run_json(capsys, "demo", demo, "--p", "5", "--k", "2")["result"]
    assert res["H"] == math.ceil(5**0.75)


def test_power_residues_over_gf25_take_the_index_of_the_cubes_in_gf25(capsys):
    # the interval lies in F_5, every element of which is a cube in GF(25):
    # the index of those cubes in F_5^* is 1, not gcd(24, 3) = 3
    res = run_json(capsys, "demo", "power-residues", "--p", "5", "--k", "2", "--power", "3", "--H", "4")["result"]
    assert (res["gcd"], res["target"], res["count_with_root"]) == (1, 4.0, 4)


@pytest.mark.parametrize("p, k", [(5, 2), (5, 3), (7, 2)], ids=["GF25", "GF125", "GF49"])
def test_interval_demo_targets_count_the_whole_prime_subfield(capsys, p, k):
    # across all of F_p the a with a root of t^m - a are 0 and the m-th
    # powers of GF(p^k) in F_p^*, which have index gcd there
    field = ("--p", str(p), "--k", str(k), "--beta", "0", "--H", str(p))
    for m in (2, 3, p):
        res = run_json(capsys, "demo", "power-residues", *field, "--power", str(m))["result"]
        assert res["count_with_root"] == 1 + (p - 1) // res["gcd"], m
    # the split count of t^2 - a over F_p^* is its target exactly
    pv = ("--p", str(p), "--k", str(k), "--beta", "1", "--H", str(p - 1))
    res = run_json(capsys, "demo", "pv", *pv)["result"]
    assert res["split_count"] == res["target"] and res["deviation"] == 0.0


def test_interval_demo_index_on_a_prime_field_is_the_gcd_with_p_minus_1():
    for p in filter(is_prime, range(2, 200)):
        for m in range(1, 31):
            assert cli._subfield_index(FieldCtx(p), m) == math.gcd(p - 1, m), (p, m)


def test_demo_morse(capsys):
    report = run_json(capsys, "demo", "morse", "--p", "31", "--f", "t^3 - 3*t")
    res = report["result"]
    assert res["is_morse"] and res["degree"] == 3
    assert res["all_irreducible_count"] >= 0


def test_demo_morse_rejects_non_morse(capsys):
    code, _ = run_cli(capsys, "demo", "morse", "--p", "31", "--f", "t^3")
    assert code == 2


def test_morse_family_is_expanded_under_the_budget(capsys):
    # the expansion of the product of 40 shifted cubics is charged term
    # product by term product, so it is refused while it is parsed
    shifts = ",".join(map(str, range(40)))
    code = main(["demo", "morse", "--p", "101", "--shifts", shifts, "--budget", "100000"])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert captured.err.startswith("budget error: expansion costs ") and captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "p, f, shifts", [(31, "t^3 - 3*t", "0,-1,5"), (101, "t^5 + 2*t^2 + t", "0,3,-7")], ids=["negative-shift", "quintic"]
)
def test_morse_family_counts_the_products_of_its_shifted_factors(capsys, p, f, shifts):
    # each point's product of the factors f + A1 + h, specialized one by one
    # and multiplied as polynomials in t, classified by the scalar oracle
    res = run_json(capsys, "demo", "morse", "--p", str(p), "--f", f, "--shifts", shifts)["result"]
    ctx = FieldCtx(p)
    factors = [parse(f"{f} + A1 + {int(h) % p}", 1, ctx) for h in shifts.split(",")]
    outcomes = []
    for a in range(res["H"]):
        g = list(factors[0].specialize((a,)).coeffs)
        for factor in factors[1:]:
            g = _gfp.gf_mul(g, list(factor.specialize((a,)).coeffs), ctx)
        outcomes.append(spec_type(g, ctx))
    counts = {",".join(map(str, o)).join("[]"): outcomes.count(o) for o in set(outcomes) if isinstance(o, tuple)}
    assert res["distribution"]["counts"] == counts
    assert res["distribution"]["non_squarefree"] == outcomes.count(NON_SQUAREFREE)


@pytest.mark.parametrize(
    "argv, counts",
    [(("--p", "7", "--k", "3"), {"[2,1]": 3, "[1,1,1]": 1}), (("--p", "5", "--k", "2", "--f", "t^2"), {"[1,1]": 3})],
    ids=["cubic-GF343", "square-GF25"],
)
def test_morse_target_is_0_when_irreducibles_over_f_p_split(capsys, argv, counts):
    # each f + a + h lies over F_p, where an irreducible of degree d splits
    # into gcd(d, k) > 1 factors over GF(p^k): none stays irreducible
    res = run_json(capsys, "demo", "morse", *argv)["result"]
    assert res["distribution"]["counts"] == counts
    assert (res["all_irreducible_count"], res["target"], res["deviation"]) == (0, 0.0, 0.0)


@pytest.mark.parametrize(
    "argv, target",
    [(("--p", "7", "--k", "2"), 5 / 3), (("--p", "5", "--k", "2", "--f", "t^2 + [0,1]*t"), 2.0)],
    ids=["gcd-1", "f-off-F_p"],
)
def test_morse_target_is_h_over_d_to_the_m_otherwise(capsys, argv, target):
    res = run_json(capsys, "demo", "morse", *argv)["result"]
    assert res["target"] == target == res["H"] / res["degree"] ** len(res["shifts"])


def test_demo_trinomial_small(capsys):
    report = run_json(capsys, "demo", "trinomial", "--p", "13", "--H", "7")
    assert report["result"]["q"] == 13


def test_bad_poly_is_input_error(capsys):
    code, _ = run_cli(capsys, "dist", "--p", "13", "--poly", "t^2 + + A1")
    assert code == 2


def test_budget_exceeded_exit_code(capsys):
    code, _ = run_cli(
        capsys,
        "dist",
        "--p", "13",
        "--poly", "t^3 + A1*t + A2",
        "--set", "full",
        "--budget", "10",
    )
    assert code == 3


def test_each_call_writes_its_error_line_to_its_own_stderr():
    # two calls in one process, each under its own stderr; the root logger
    # is left as it was found
    root = logging.getLogger()
    before = (list(root.handlers), root.level)
    runs = [
        (("irreg", "--p", "7", "--set", "tracezero"), 2),
        (("dist", "--p", "13", "--poly", "t^3 + A1*t + A2 + A1^2", "--budget", "100"), 3),
    ]
    errs = []
    for argv, code in runs:
        with contextlib.redirect_stderr(io.StringIO()) as err:
            assert main(list(argv)) == code
        errs.append(err.getvalue())
    assert (list(root.handlers), root.level) == before
    assert errs[0].startswith("input error: ") and errs[0].endswith("\n") and errs[0].count("\n") == 1
    assert errs[1] == "budget error: set has 169 points, budget is 100\n"


def test_huge_degree_in_t_is_budget_error(capsys):
    start = time.perf_counter()
    code, _ = run_cli(
        capsys,
        "dist",
        "--p", "5",
        "--poly", "t^1000000000 + A1*t + A2",
        "--set", "grid:int(0,3),int(0,3)",
    )
    assert code == 3
    assert time.perf_counter() - start < 1.0


def test_factor_type_huge_degree_is_budget_error(capsys):
    start = time.perf_counter()
    code, out = run_cli(
        capsys, "factor-type", "--p", "7", "--poly", "t^1000000000 + A1", "--point", "1"
    )
    assert code == 3 and out == ""
    assert time.perf_counter() - start < 1.0


def test_power_residues_huge_power_is_budget_error(capsys):
    start = time.perf_counter()
    code, out = run_cli(capsys, "demo", "power-residues", "--p", "7", "--power", "1000000000")
    assert code == 3 and out == ""
    assert time.perf_counter() - start < 1.0


def test_power_residues_power_of_p_classifies_degree_one(capsys):
    # 7^12 strips to m = 1: every a is a 7^12-th power, and no dense budget
    # for degree 7^12 is ever asked for
    res = run_json(capsys, "demo", "power-residues", "--p", "7", "--power", str(7**12))["result"]
    assert res["count_with_root"] == res["H"] == 5


@pytest.mark.parametrize("p", [2, 5, 7, 13])
def test_power_residues_count_matches_brute_force(capsys, p):
    # p | power takes the stripping of factors p; an interval from a nonzero
    # start leaves out a = 0 (or wraps past it)
    H = p - 1
    for power in (2, 3, p, 2 * p, p * p, 3 * p * p):
        for beta in (0, 3):
            argv = ("--p", str(p), "--power", str(power), "--H", str(H), "--beta", str(beta))
            res = run_json(capsys, "demo", "power-residues", *argv)["result"]
            powers = {pow(x, power, p) for x in range(p)}
            want = sum((beta + j) % p in powers for j in range(H))
            assert res["count_with_root"] == want, (power, beta)


@pytest.fixture
def distribution_calls(monkeypatch):
    """The positional arguments of every classification pass: each call of
    stats._distribution, which empirical_distribution and compare make."""
    calls = []
    classify = stats._distribution

    def counted(*args, **kwargs):
        calls.append(args)
        return classify(*args, **kwargs)

    monkeypatch.setattr(stats, "_distribution", counted)
    return calls


def test_power_residues_demo_classifies_its_interval_once(capsys, distribution_calls):
    argv = ("--p", "7", "--power", "14", "--H", "6")
    report = run_json(capsys, "demo", "power-residues", *argv)
    assert len(distribution_calls) == 1
    # 14 = 2 * 7 classifies t^2 - a; the squares among 0..5 are 0, 1, 2, 4
    assert distribution_calls[0][0].deg_t == 2
    assert report["result"]["count_with_root"] == 4


def test_artin_schreier_demo_classifies_its_set_once(capsys, distribution_calls):
    report = run_json(capsys, "demo", "artin-schreier", "--p", "3", "--k", "2")
    assert len(distribution_calls) == 1
    result = report["result"]
    assert result["split_completely"] == result["set_size"] == 3


def test_artin_schreier_demo_computes_its_irregularity_once(capsys, monkeypatch):
    # sets.irregularity and stats.compare both compute it in sets._irregularity
    calls = []
    irregularity = sets._irregularity

    def counted(*args, **kwargs):
        calls.append(args)
        return irregularity(*args, **kwargs)

    monkeypatch.setattr(sets, "_irregularity", counted)
    report = run_json(capsys, "demo", "artin-schreier", "--p", "3", "--k", "5")
    assert len(calls) == 1
    result = report["result"]
    assert result["irreg"]["irreg"] == result["comparison_vs_cyclic"]["irreg"] == 3.0


@pytest.mark.parametrize("threads", ["0", "-3"])
def test_threads_below_one_is_input_error(capsys, threads):
    code, out = run_cli(
        capsys, "dist", "--p", "13", "--poly", "t^2 - A1", "--threads", threads
    )
    assert code == 2 and out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ("dist", "--p", "53", "--poly", "t^3 + A1*t + A2"),
        ("compare", "--p", "53", "--poly", "t^3 + A1*t + A2"),
        ("charsum", "--p", "13", "--poly", "t^3 + A1*t + A2", "--type", "3", "--all-b"),
    ],
)
def test_sweeps_start_no_thread(capsys, monkeypatch, argv):
    def refuse(self):
        raise AssertionError(f"started thread {self.name}")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    code, out = run_cli(capsys, *argv, "--threads", "4")
    assert code == 0 and json.loads(out)["config"]["threads"] == 4


def test_irreg_of_gf256_squared_is_exact_and_a_dense_set_past_the_budget_exits_3_at_once(capsys, tmp_path):
    # the full space is a box of coordinate axes; two points of GF(2^13)^2
    # take the dense transform, whose 2^26 frequencies pass the budget
    path = tmp_path / "P"
    path.write_text("0,1\n1,1\n")  # plain integers are read mod p
    start = time.perf_counter()
    res = run_json(capsys, "irreg", "--p", "2", "--k", "8", "--set", "full", "--n", "2")["result"]
    assert (res["irreg"], res["method"]) == (1.0, "product_1d")
    code, out = run_cli(capsys, "irreg", "--p", "2", "--k", "13", "--set", f"file:{path}")
    assert code == 3 and out == ""
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize(
    "argv",
    [
        ("irreg", "--p", "100000007", "--set", "grid:int(0,1000)"),
        # the demos check the closed form before classifying 10^6 points
        ("demo", "pv", "--p", "100000007"),
        ("demo", "morse", "--p", "100000007", "--shifts", "0,1"),
    ],
)
def test_interval_irreg_past_the_budget_exits_at_once(capsys, argv):
    # p - 1 = 100,000,006 closed-form terms exceed the default budget, 2^24
    start = time.perf_counter()
    code, out = run_cli(capsys, *argv)
    assert code == 3 and out == ""
    assert time.perf_counter() - start < 1.0


def test_missing_subcommand_is_input_error(capsys):
    code = main([])
    capsys.readouterr()
    assert code == 2


def test_result_identical_across_thread_counts(capsys):
    blobs = []
    for threads in ("1", "4", "8"):
        report = run_json(
            capsys,
            "compare",
            "--p", "53",
            "--poly", "t^3 + A1*t + A2",
            "--set", "grid:int(0,24),int(0,24)",
            "--threads", threads,
        )
        blobs.append(json.dumps(report["result"], sort_keys=True))
    assert blobs[0] == blobs[1] == blobs[2]


def test_csv_output(capsys):
    code, out = run_cli(
        capsys,
        "dist",
        "--p", "13",
        "--poly", "t^2 - A1",
        "--set", "full",
        "--format", "csv",
    )
    assert code == 0
    rows = list(csv.reader(out.splitlines()))
    assert rows[0] == ["type", "count", "frequency", "prediction", "deviation"]
    assert ["[1,1]", "6", str(6 / 13), "", ""] in rows


CUBIC_F7 = ("--p", "7", "--poly", "t^3+A1*t+A2")


@pytest.mark.parametrize(
    "argv",
    [
        ("charsum", *CUBIC_F7, "--type", "3", "--b", "1,2"),
        ("charsum", *CUBIC_F7, "--type", "3", "--all-b"),
        ("dist", *CUBIC_F7),
        ("compare", *CUBIC_F7),
        ("demo", "morse", "--p", "101", "--shifts", "0,1"),
        ("factor-type", *CUBIC_F7, "--point", "0,0"),
    ],
)
def test_csv_rows_have_as_many_fields_as_the_header(capsys, argv):
    code, out = run_cli(capsys, *argv, "--format", "csv")
    assert code == 0
    header, *rows = csv.reader(out.splitlines())
    assert rows and all(len(row) == len(header) for row in rows)


@pytest.mark.parametrize("argv", [("dist", *CUBIC_F7), ("compare", *CUBIC_F7), ("demo", "trinomial", "--p", "7")])
def test_csv_type_counts_sum_to_the_total(capsys, argv):
    # both table shapes end in the exception buckets: 7 of the 49 points of
    # the cubic over GF(7)^2 are not squarefree
    result = run_json(capsys, *argv)["result"]
    total = result.get("distribution", result)["total"]
    code, out = run_cli(capsys, *argv, "--format", "csv")
    assert code == 0
    header, *rows = csv.reader(out.splitlines())
    assert header[:2] == ["type", "count"]
    assert sum(int(row[1]) for row in rows) == total == 49
    assert rows[-2:] == [["non_squarefree", "7", "", "", ""], ["degree_drop", "0", "", "", ""]]


def test_csv_charsum_quotes_the_frequency(capsys):
    argv = ("charsum", *CUBIC_F7, "--type", "3", "--b", "1,2", "--format", "csv")
    code, out = run_cli(capsys, *argv)
    assert code == 0
    assert out.startswith('key,value\nb,"1,2"\nmagnitude,')
    # fields without commas print as before, None included
    code, out = run_cli(capsys, "factor-type", *CUBIC_F7, "--point", "0,0", "--format", "csv")
    assert out.startswith("key,value\noutcome,non_squarefree\ntype,None\n")


# charsum --all-b runs: the orbit path, a family without torus weights, an
# extension field, n = 1 and 3, and a class with no point (every magnitude 0.0)
SWEEP_ARGV = {
    "orbit": ("--p", "53", "--poly", "t^3 + A1*t + A2", "--type", "3"),
    "no-torus-weights": ("--p", "13", "--poly", "t^3 + A1*t + A2 + A1^2", "--type", "2,1"),
    "extension": ("--p", "3", "--k", "2", "--poly", "t^3 + A1*t + A2", "--type", "3"),
    "n=1": ("--p", "13", "--poly", "t^2 - A1", "--type", "2"),
    "n=3": ("--p", "5", "--poly", "t^3 + A1*t + A2", "--n", "3", "--type", "1,1,1"),
    "empty-class": ("--p", "13", "--poly", "t^2 - A1^2", "--type", "2"),
}


def _sweep_result(argv):
    """The result of a charsum --all-b argv as a plain JSON tree, built from
    the rows of stats.weil_sweep."""
    args = cli.build_parser("charsum").parse_args(list(argv))
    ctx = FieldCtx(args.p, args.k, seed=args.seed)
    F = parse(args.poly, args.n or mpoly.infer_parameter_count(args.poly), ctx)
    sweep = stats.weil_sweep(F, stats.parse_type(args.type), None)
    rows = [{"q": q, "b": ",".join(map(str, b)), "magnitude": m, "ratio": r} for q, b, m, r in sweep.rows]
    return {"max_ratio": sweep.max_ratio, "rows": rows}


def test_csv_charsum_sweep_has_one_row_per_frequency(capsys):
    for options, count in [
        ((*CUBIC_F7, "--type", "3"), 48),
        (SWEEP_ARGV["no-torus-weights"], 168),
        (SWEEP_ARGV["extension"], 80),
    ]:
        argv = ("charsum", *options, "--all-b")
        expected = run_json(capsys, *argv)["result"]["rows"]
        code, out = run_cli(capsys, *argv, "--format", "csv")
        assert code == 0
        header, *rows = csv.reader(out.splitlines())
        assert header == ["q", "b", "magnitude", "ratio"]
        assert len(rows) == count == len(expected)
        for (q, b, magnitude, ratio), want in zip(rows, expected):
            assert (int(q), b, float(magnitude), float(ratio)) == (
                want["q"], want["b"], want["magnitude"], want["ratio"],
            )


def test_json_report_is_one_line_from_the_c_encoder(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("pure-Python json encoder")

    argv = ("charsum", "--p", "11", "--poly", "t^3 + A1*t + A2", "--type", "3", "--all-b")
    with monkeypatch.context() as m:
        m.setattr(json.encoder, "_make_iterencode", refuse)
        code, out = run_cli(capsys, *argv)
    assert code == 0
    assert out.endswith("\n") and out.count("\n") == 1
    assert json.loads(out)["result"] == _sweep_result(argv)


def test_out_file(capsys, tmp_path):
    path = tmp_path / "report.json"
    code, out = run_cli(
        capsys,
        "dist",
        "--p", "13",
        "--poly", "t^2 - A1",
        "--set", "full",
        "--out", str(path),
    )
    assert code == 0 and out == ""
    report = json.loads(path.read_text())
    assert report["result"]["total"] == 13


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_out_file_holds_the_bytes_of_stdout(capsys, monkeypatch, tmp_path, fmt):
    # a frozen clock makes timings equal, so the whole report must match
    monkeypatch.setattr(cli, "time", types.SimpleNamespace(perf_counter=lambda: 0.0))
    argv = ("charsum", *CUBIC_F7, "--type", "3", "--b", "1,2", "--format", fmt)
    path = tmp_path / f"report.{fmt}"
    code, out = run_cli(capsys, *argv)
    assert code == 0
    code, nothing = run_cli(capsys, *argv, "--out", str(path))
    assert code == 0 and nothing == ""
    assert path.read_bytes() == out.encode("utf-8")


@pytest.mark.parametrize(
    "field, spec, n",
    [
        ("7", "grid:int(0,5),ap(2,1,4)", 2),
        ("7", "grid:int(0,3),int(1,2),int(0,2)", 3),
        ("7", "file", 2),
        ("7,2", "tracezero", 1),
        ("7", "full", 1),
    ],
)
def test_irreg_echoes_the_dimension_of_the_set(capsys, tmp_path, field, spec, n):
    # --n sizes only 'full'; every other set carries its own dimension
    p, k = (field.split(",") + ["1"])[:2]
    if spec == "file":
        path = tmp_path / "dense.txt"
        path.write_text("1,2\n3,4\n5,0\n")
        spec = f"file:{path}"
    report = run_json(capsys, "irreg", "--p", p, "--k", k, "--set", spec)
    assert report["config"]["n"] == n
    assert run_json(capsys, "irreg", "--p", "7", "--set", "full", "--n", "2")["config"]["n"] == 2


@pytest.mark.parametrize("text", ["1,2\n3\n", "1,2\n# note\n3, 4x\n", "[1,2],0\n3,4\n"])
def test_points_file_with_a_ragged_line_or_a_malformed_literal_exits_2(capsys, tmp_path, text):
    path = tmp_path / "P"
    path.write_text(text)
    code, out = run_cli(capsys, "irreg", "--p", "7", "--set", f"file:{path}")
    assert code == 2 and out == ""


# -- config is derived from the parsed options --------------------------------------

COMMAND_ARGV = {
    "factor-type": ("--p", "5", "--poly", "t^2 - A1", "--point", "2"),
    "irreg": ("--p", "11", "--set", "grid:int(0,5)"),
    "dist": ("--p", "5", "--poly", "t^2 - A1"),
    "compare": ("--p", "5", "--poly", "t^2 - A1"),
    "charsum": ("--p", "5", "--poly", "t^2 - A1", "--type", "2", "--b", "1"),
}
DEMO_ARGV = {
    "pv": ("--p", "11"),
    "power-residues": ("--p", "11", "--power", "3"),
    "trinomial": ("--p", "11", "--H", "5"),
    "morse": ("--p", "31", "--shifts", "0,1"),
    "artin-schreier": ("--p", "3", "--k", "2"),
}


def _subparsers(parser):
    """{name: subparser} of a parser built by ``cli.build_parser``."""
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


def _every_run():
    """One argv per subcommand and per demo of the parser, with the
    subparser that parses it."""
    for name, sp in _subparsers(cli.build_parser()).items():
        if name == "demo":
            demos = next(a for a in sp._actions if not a.option_strings).choices
            yield from ((sp, ("demo", d, *DEMO_ARGV[d])) for d in demos)
        else:
            yield sp, (name, *COMMAND_ARGV[name])


EVERY_RUN = [argv for _, argv in _every_run()]


def test_every_subcommand_and_demo_has_a_run():
    assert {argv[0] for argv in EVERY_RUN} == set(COMMAND_ARGV) | {"demo"}
    assert {argv[1] for argv in EVERY_RUN if argv[0] == "demo"} == set(DEMO_ARGV)


@pytest.mark.parametrize("argv", EVERY_RUN, ids=" ".join)
def test_config_holds_every_parsed_option(capsys, argv):
    sp = next(sp for sp, a in _every_run() if a == argv)
    dests = {a.dest for a in sp._actions if a.dest != "help"} | {"command"}
    args = cli.build_parser().parse_args(list(argv))
    config = run_json(capsys, *argv)["config"]
    # in the full parser's order, the field's q last
    assert list(config) == ["command", *(a.dest for a in sp._actions if a.dest not in ("help", "out")), "q"]
    assert "out" not in config and "handler" not in config
    # the field and polynomial as built stand in for modulus, poly and n
    built = {"modulus", "poly", "n"}
    assert {k: config[k] for k in dests - built - {"out"}} == {
        k: v for k, v in vars(args).items() if k in dests - built - {"out"}
    }
    assert config["q"] == config["p"] ** config["k"]


@pytest.mark.parametrize(
    "argv",
    [
        *EVERY_RUN,
        *(("charsum", *options, "--all-b") for options in SWEEP_ARGV.values()),
        ("charsum", *SWEEP_ARGV["orbit"], "--all-b", "--out"),
    ],
    ids=" ".join,
)
def test_report_is_laid_out_as_json_dumps_lays_it_out(capsys, tmp_path, argv):
    # a charsum --all-b table is written by cli itself: its rows must be the
    # bytes json.dumps writes for the rows of stats.weil_sweep
    path = tmp_path / "report.json"
    if argv[-1] == "--out":
        argv = (*argv, str(path))
    code, out = run_cli(capsys, *argv)
    assert code == 0
    text = path.read_text() if "--out" in argv else out
    report = json.loads(text)
    assert text == json.dumps(report) + "\n"
    if "--all-b" in argv:
        report["result"] = _sweep_result(argv)
        assert text == json.dumps(report) + "\n"


@pytest.mark.parametrize("name", [*COMMAND_ARGV, "demo"])
def test_a_run_builds_its_subcommand_parser_as_the_full_parser_does(name):
    full, one = cli.build_parser(), cli.build_parser(name)
    assert list(_subparsers(one)) == [name]
    assert _subparsers(one)[name].format_help() == _subparsers(full)[name].format_help()
    # an unrecognized argument after the command prints this usage line
    assert one.format_usage() == full.format_usage()


def test_console_script_builds_one_subparser(capsys, monkeypatch):
    built = []
    add_parser = argparse._SubParsersAction.add_parser

    def spy(self, name, **kwargs):
        built.append(name)
        return add_parser(self, name, **kwargs)

    monkeypatch.setattr(argparse._SubParsersAction, "add_parser", spy)
    monkeypatch.setattr(sys, "argv", ["ffstats", "dist", "--p", "5", "--poly", "t^2 - A1"])
    assert main() == 0
    assert json.loads(capsys.readouterr().out)["result"]["total"] == 5
    assert built == ["dist"]


def test_help_lists_every_subcommand(capsys):
    assert main(["--help"]) == 0
    out = capsys.readouterr().out
    assert re.findall(r"^    (\S+)", out, re.M) == [*COMMAND_ARGV, "demo"]


@pytest.mark.parametrize(
    "argv",
    [(), ("nosuch",), ("--p", "5", "dist", "--poly", "t^2 - A1")],
    ids=["missing", "unknown", "option-before-command"],
)
def test_a_run_without_a_subcommand_first_is_input_error(capsys, argv):
    assert main(list(argv)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: ffstats [-h] {factor-type,irreg,dist,compare,charsum,demo} ...\n")


@pytest.mark.parametrize(
    "argv, option, values",
    [
        (("demo", "trinomial", "--p", "11"), "--H", ("5", "7")),
        (("demo", "morse", "--p", "31"), "--beta", ("0", "3")),
    ],
)
def test_demo_options_reach_the_config(capsys, argv, option, values):
    configs = [run_json(capsys, *argv, option, v)["config"] for v in values]
    assert configs[0] != configs[1]
    assert [c[option.lstrip("-")] for c in configs] == [int(v) for v in values]


def _at(tree, path):
    for key in path.split("."):
        tree = tree[key]
    return tree


@pytest.mark.parametrize("demo", sorted(DEMO_ARGV))
def test_csv_of_every_demo_flattens_nested_results(capsys, demo):
    argv = ("demo", demo, *DEMO_ARGV[demo])
    result = run_json(capsys, *argv)["result"]
    code, out = run_cli(capsys, *argv, "--format", "csv")
    assert code == 0
    header, *rows = csv.reader(out.splitlines())
    assert rows and all(len(row) == len(header) for row in rows)
    assert not any(cell.startswith("{") for row in rows for cell in row)
    if header != ["key", "value"]:  # the trinomial demo is a comparison table
        return
    for key, value in rows:
        want = _at(result, key)
        assert value == (json.dumps(want) if isinstance(want, list) else str(want))


def test_csv_flattens_into_dotted_keys(capsys):
    code, out = run_cli(capsys, "demo", "pv", "--p", "11", "--format", "csv")
    assert code == 0
    assert "\ndistribution.counts.[2],2\n" in out
    assert "\nirreg.method,closed_form_interval\n" in out


# -- inputs that cost too much or mean nothing --------------------------------------


def test_two_point_sweep_over_gf512_answers_at_once(capsys, tmp_path):
    path = tmp_path / "points"
    path.write_text("1\n2\n")
    start = time.perf_counter()
    report = run_json(
        capsys, "dist", "--p", "2", "--k", "9", "--poly", "t^5 + A1^29*t + 1", "--set", f"file:{path}"
    )
    assert time.perf_counter() - start < 1.0
    assert report["result"]["total"] == 2


def test_poly_nested_in_3000_parentheses_is_input_error(capsys):
    poly = "(" * 3000 + "t + A1" + ")" * 3000
    code, out = run_cli(capsys, "dist", "--p", "11", "--poly", poly)
    assert code == 2 and out == ""


def test_poly_expansion_past_the_budget_is_budget_error(capsys):
    start = time.perf_counter()
    code, out = run_cli(
        capsys,
        "dist",
        "--p", "101",
        "--poly", "(t + A1 + A2 + A3)^30 + A1",
        "--set", "grid:int(0,2),int(0,2),int(0,2)",
        "--budget", "100000",
    )
    assert code == 3 and out == ""
    assert time.perf_counter() - start < 1.0


def test_power_expanding_past_the_budget_exits_at_once(capsys):
    start = time.perf_counter()
    code, out = run_cli(
        capsys, "dist", "--p", "1000003", "--poly", "(t + 1)^100000 + A1", "--set", "grid:int(0,3)"
    )
    assert code == 3 and out == ""
    assert time.perf_counter() - start < 1.0


def test_trinomial_demo_counts_over_the_box_from_beta(capsys):
    demo = run_json(capsys, "demo", "trinomial", "--p", "11", "--H", "3", "--beta", "4")["result"]
    grid = run_json(
        capsys, "compare", "--p", "11", "--poly", "t^3 + A1*t + A2", "--set", "grid:int(4,3),int(4,3)"
    )["result"]
    assert demo["distribution"] == grid["distribution"]
    at_zero = run_json(capsys, "demo", "trinomial", "--p", "11", "--H", "3")["result"]
    assert at_zero["distribution"] != demo["distribution"]
    code, out = run_cli(capsys, "demo", "trinomial", "--p", "11", "--beta", "4")
    assert code == 2 and out == ""


def test_charsum_type_of_another_degree_is_input_error(capsys):
    code, out = run_cli(capsys, "charsum", "--p", "11", "--poly", "t^2 - A1", "--type", "3", "--b", "1")
    assert code == 2 and out == ""


def test_charsum_of_an_empty_b_names_the_arity(capsys):
    # blank text is the empty point, refused as a frequency of the wrong length
    code = main(["charsum", "--p", "5", "--poly", "t^2 - A1 - A2", "--type", "2", "--b", ""])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "input error: frequency needs 2 coordinates, got 0\n"


def test_an_empty_coordinate_vector_names_the_coordinate_count(capsys):
    code = main(["factor-type", "--p", "7", "--k", "2", "--poly", "t^2 + A1", "--point", "[]"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "input error: expected 2 coordinates, got 0\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("dist", "--p", "13", "--poly", "t^2 - A1", "--budget", "-5"),
        ("irreg", "--p", "13", "--set", "full", "--budget", "0"),
        ("demo", "pv", "--p", "11", "--H", "0"),
        ("demo", "trinomial", "--p", "11", "--H", "-1"),
    ],
)
def test_budget_and_interval_length_below_one_are_input_errors(capsys, argv):
    code, out = run_cli(capsys, *argv)
    assert code == 2 and out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ("charsum", "--p", "11", "--poly", "t^3 + A1*t + A2", "--type", "3"),
        ("charsum", "--p", "11", "--poly", "t^3 + A1*t + A2", "--type", "3", "--b", "1,2", "--all-b"),
        ("charsum", "--p", "5", "--poly", "t^2 - A1", "--type", "2", "--b", "", "--all-b"),
        ("charsum", "--p", "5", "--poly", "t^2 - A1", "--type", "2", "--b", ""),
        ("demo", "morse", "--p", "31", "--shifts", "2,33"),
        ("compare", "--p", "7", "--poly", "A1 + 1"),
    ],
    ids=[
        "charsum-without-b",
        "charsum-b-with-all-b",
        "charsum-empty-b-with-all-b",
        "charsum-empty-b",
        "morse-shifts-equal-mod-p",
        "symmetric-group-on-no-letters",
    ],
)
def test_option_input_errors_exit_2(capsys, argv):
    code, out = run_cli(capsys, *argv)
    assert code == 2 and out == ""


def test_dist_over_a_given_modulus(capsys):
    report = run_json(capsys, "dist", "--p", "3", "--k", "2", "--modulus", "1,0,1", "--poly", "t^3 + A1*t + A2", "--set", "full")
    assert report["result"]["total"] == 81
    assert report["config"]["modulus"] == "1,0,1"


def test_compare_refuses_a_spectrum_past_the_budget_before_classifying(capsys, monkeypatch):
    # the 3^8 points of the trace-zero set of GF(3^9) against its 3^9
    # frequencies pass the default budget: nothing is classified first
    def refuse(*args, **kwargs):
        raise AssertionError("classified before the spectrum budget was checked")

    monkeypatch.setattr(mpoly, "spec_keys", refuse)
    start = time.perf_counter()
    code, out = run_cli(capsys, "compare", "--p", "3", "--k", "9", "--poly", "t^3 + A1*t + 1", "--set", "tracezero")
    assert code == 3 and out == ""
    assert time.perf_counter() - start < 1.0


def test_classification_budget_counts_the_rank_stack(capsys, monkeypatch):
    # three points of degree 40 stack 3 * (1 + 40 // 2) * 40^2 = 100,800
    # rank entries: past a budget of 20,000 though each has 41 coefficients
    def refuse(*args, **kwargs):
        raise AssertionError("ranks taken past the budget")

    monkeypatch.setattr(_gfp, "_vrank", refuse)
    argv = ("--p", "101", "--poly", "t^40 + A1*t + 1", "--budget", "20000")
    code, out = run_cli(capsys, "dist", *argv, "--set", "grid:int(0,3)")
    assert code == 3 and out == ""
    code, out = run_cli(capsys, "factor-type", "--p", "10007", "--poly", "t^3000 + A1", "--point", "1")
    assert code == 3 and out == ""
