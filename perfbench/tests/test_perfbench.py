"""Tests of the benchmark itself, on tiny versions of its workloads.

Run with: python -m pytest perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_workload_passes_every_check(workload, tmp_path):
    jobs = workloads.build(workload, 5, tmp_path, size="tiny")
    assert any(j.points for j in jobs) and any(j.freqs for j in jobs)
    assert any(j.twin_of for j in jobs)
    tally = run.Tally()
    medians, passes, reading = run.measure(jobs, 0, tally)
    assert reading > 0
    assert passes == 1
    assert (tally.attempted, tally.failed) == (len(jobs), 0), tally.messages
    assert set(medians) == {"wall_s", "points_per_s", "freqs_per_s", "speedup_2t"}
    assert all(v > 0 for v in medians.values())


def test_wrong_expected_value_counts_as_failure(tmp_path, monkeypatch, capsys):
    jobs = workloads.build("prime-dist", 5, tmp_path, size="tiny")
    quintic = next(j for j in jobs if j.label == "dist-quintic")
    wrong = workloads.Job(quintic.label, quintic.argv, check=checks.distribution_total(11 * 11 + 1))
    jobs = [wrong if j is quintic else j for j in jobs]
    tally = run.Tally()
    run.run_jobs(jobs, tally)
    assert (tally.attempted, tally.failed) == (len(jobs), 1)
    assert tally.messages[0].startswith("dist-quintic: distribution total 121")

    # A whole run with that wrong value reports it and exits non-zero.
    monkeypatch.setattr(run, "OUT", tmp_path)
    monkeypatch.setattr(workloads, "build", lambda *args, **kwargs: jobs)
    monkeypatch.setattr(run, "measure_setup", lambda: 1.0)
    code = run.main(["--workload", "prime-dist", "--seed", "5", "--seconds", "0", "--trace", "0"])
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert code == 1
    assert (result["correct"], result["failed"]) == (False, 1)


def test_fresh_state_empties_the_program_caches(tmp_path):
    run.run_jobs(workloads.build("prime-spectrum", 5, tmp_path, size="tiny"), run.Tally())
    caches = [
        value
        for name, mod in list(sys.modules.items())
        if name.startswith("ffstats")
        for value in vars(mod).values()
        if hasattr(value, "cache_info")
    ]
    if not caches:
        pytest.skip("the program keeps no module-level caches")
    run.fresh_state()
    assert all(c.cache_info().currsize == 0 for c in caches)


def test_twin_mismatch_and_exit_code_count_as_failures():
    base = workloads.Job("a", ())
    twin = workloads.Job("a@2t", (), twin_of="a")
    broken = workloads.Job("b", ())
    outputs = {
        "a": (0, json.dumps({"result": {"x": 1}})),
        "a@2t": (0, json.dumps({"result": {"x": 2}})),
        "b": (2, ""),
    }
    tally = run.Tally()
    run.judge([base, twin, broken], outputs, tally)
    assert (tally.attempted, tally.failed) == (3, 2)
    assert "differs from a" in tally.messages[0] and "exit code 2" in tally.messages[1]


def test_traced_run_reports_every_layer_metric(tmp_path):
    jobs = workloads.build("prime-spectrum", 5, tmp_path, size="tiny")
    tally = run.Tally()
    metrics, missing, passes = run.measure_layers(jobs, 0, tally, 5, tmp_path / "trace.json")
    assert tally.failed == 0 and not missing and passes == 1
    assert set(run.declared("per_layer")) <= set(metrics)
    for name in ("cli.self_s", "stats.sweep_us_per_freq", "sets.irreg_exact_us_per_freq",
                 "sets.irreg_closed_form_us", "field.cyclotomic_magnitude_us"):
        assert metrics[name] > 0, name
    assert metrics["stats.freqs"] == 2 * (11 * 11 - 1)
    spans = json.loads((tmp_path / "trace.json").read_text())["iterations"][0]["spans"]
    roots = [s for s in spans if s["parent"] is None]
    assert {s["name"] for s in roots} == {"cli.main"}
    assert all(s["start"] <= s["end"] and s["self_s"] <= s["end"] - s["start"] + 1e-9 for s in spans)


def test_missing_traced_name_is_reported_not_fatal(tmp_path, monkeypatch):
    monkeypatch.setitem(layers.SPANS, "stats.no_such_function", None)
    monkeypatch.setattr(layers, "HOT", layers.HOT + ("nosuchmodule.kernel",))
    jobs = workloads.build("prime-spectrum", 5, tmp_path, size="tiny")
    tally = run.Tally()
    metrics, missing, _ = run.measure_layers(jobs, 0, tally, 5, tmp_path / "trace.json")
    assert tally.failed == 0
    assert {"stats.no_such_function", "nosuchmodule.kernel"} <= set(missing)
    assert metrics["cli.self_s"] > 0


def test_cubic_oracles_agree():
    for p in (5, 7, 11, 13):
        masks = checks.cubic_classes(p)
        want = checks.depressed_cubic_counts(p)
        got = {"[3]": masks[(3,)].sum(), "[2,1]": masks[(2, 1)].sum(), "[1,1,1]": masks[(1, 1, 1)].sum()}
        assert got == {k: want[k] for k in got}
        assert p * p - sum(got.values()) == want["non_squarefree"]


def test_jacobi_matches_euler_criterion():
    for p in (3, 5, 7, 101, 10007):
        for a in range(1, min(p, 300)):
            euler = pow(a, (p - 1) // 2, p)
            assert checks.jacobi(a, p) == (1 if euler == 1 else -1)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "prime-dist", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
