import json
import math
import time

import pytest

from ffstats import stats
from ffstats.cli import main
from ffstats.stats import cyclic_shift_group


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
    cyclic_shift_group(3).to_file(str(path))
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
    cyclic_shift_group(2).to_file(str(path))
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


def test_demo_artin_schreier(capsys):
    report = run_json(capsys, "demo", "artin-schreier", "--p", "3", "--k", "3")
    res = report["result"]
    assert res["split_fraction"] == 1.0
    assert res["split_completely"] == 9
    assert res["irreg"]["irreg"] == 3.0
    assert res["comparison_vs_cyclic"]["per_type"]["[1,1,1]"]["frequency"] == 1.0


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


def test_demo_morse(capsys):
    report = run_json(capsys, "demo", "morse", "--p", "31", "--f", "t^3 - 3*t")
    res = report["result"]
    assert res["is_morse"] and res["degree"] == 3
    assert res["all_irreducible_count"] >= 0


def test_demo_morse_rejects_non_morse(capsys):
    code, _ = run_cli(capsys, "demo", "morse", "--p", "31", "--f", "t^3")
    assert code == 2


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


def test_artin_schreier_demo_classifies_its_set_once(capsys, monkeypatch):
    calls = []
    classify = stats.empirical_distribution

    def counted(*args, **kwargs):
        calls.append(args)
        return classify(*args, **kwargs)

    monkeypatch.setattr(stats, "empirical_distribution", counted)
    report = run_json(capsys, "demo", "artin-schreier", "--p", "3", "--k", "2")
    assert len(calls) == 1
    result = report["result"]
    assert result["split_completely"] == result["set_size"] == 3


@pytest.mark.parametrize("threads", ["0", "-3"])
def test_threads_below_one_is_input_error(capsys, threads):
    code, out = run_cli(
        capsys, "dist", "--p", "13", "--poly", "t^2 - A1", "--threads", threads
    )
    assert code == 2 and out == ""


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
    lines = out.strip().splitlines()
    assert lines[0] == "type,count,frequency,prediction,deviation"
    assert any(line.startswith("[1,1],6") for line in lines)


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
