"""Golden bytes: float.hex() of spectrum results, pinned so that a change to
how the phase histograms are computed cannot move a single bit of a value the
reports print, and the sha256 of the ``result`` subtree of small CLI runs,
pinned so that no change of kernels can move a byte of what a report states.

The pinned floats are checked against 50-digit mpmath values, the landmark
values (full space, singletons, trace-zero) are pinned exactly, and the whole
file is rerun in a subprocess under another BLAS kernel, whose different
summation order must not move a bit."""

import contextlib
import hashlib
import io
import itertools
import json
import os
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

import mpmath
import pytest

from ffstats.cli import main
from ffstats.field import FieldCtx
from ffstats.mpoly import parse
from ffstats.sets import (
    APSpec,
    ExplicitSet,
    FullSpace,
    GridProduct,
    TraceZero,
    irregularity,
)
from ffstats.stats import weil_sweep
from oracles import indicator_spectrum, trace_raw

GF9 = FieldCtx(3, 2, modulus=[2, 2, 1])
GF9_POINTS = [(0, 0), (1, 4), (2, 7), (5, 3), (8, 8), (4, 6)]


def test_irregularity_golden_bytes():
    assert irregularity(ExplicitSet(GF9_POINTS), GF9).irreg.hex() == "0x1.c60249abab500p+4"
    gf27 = FieldCtx(3, 3, modulus=[1, 2, 0, 1])
    assert irregularity(TraceZero(), gf27).irreg.hex() == "0x1.8000000000000p+1"
    rng = random.Random(5)
    points = rng.sample(list(itertools.product(range(101), repeat=2)), 40)
    rep = irregularity(ExplicitSet(points), FieldCtx(101))
    assert rep.irreg.hex() == "0x1.6538c583ebcfdp+10"


# (p, H, float.hex() of the closed-form irregularity of {0..H-1} in F_p)
INTERVALS = [
    (101, 10, "0x1.369ea0fa08620p+4"),
    (10007, 1001, "0x1.2e27a332742aep+5"),
    (100003, 5624, "0x1.3f4df068ffb5dp+6"),
]


def _interval(p, H):
    return irregularity(GridProduct([APSpec(1, 0, H)]), FieldCtx(p)).irreg


def test_interval_closed_form_golden_bytes():
    for p, H, golden in INTERVALS:
        assert _interval(p, H).hex() == golden, (p, H)


def test_indicator_fourier_golden_bytes():
    spec = indicator_spectrum(ExplicitSet(GF9_POINTS), GF9)
    golden = {
        (0, 0): ("0x1.2f684bda12f68p-4", "0x0.0p+0"),
        (1, 0): ("0x1.2f684bda12f69p-6", "0x1.5e583e0aae73ep-7"),
        (3, 5): ("-0x1.2f684bda12f68p-6", "0x1.5e583e0aae741p-7"),
        (8, 2): ("0x1.2f684bda12f67p-6", "-0x1.5e583e0aae73cp-7"),
    }
    for b, (re, im) in golden.items():
        assert (spec[b].real.hex(), spec[b].imag.hex()) == (re, im), b


def test_weil_sweep_golden_bytes():
    sweep = weil_sweep(parse("t^2 - A1", 1, GF9), (2,), None)
    q, b, mag, ratio = sweep.rows[0]
    assert (q, b) == (9, (1,))
    assert mag.hex() == "0x1.0000000000001p+1"
    assert ratio.hex() == "0x1.5555555555557p-1"
    assert sweep.max_ratio.hex() == "0x1.5555555555557p-1"


# ((p, k), poly, n, type, points in the class, sha256 of the rows as
# float.hex(), then max_ratio.hex() and the point count): every nonzero
# frequency of GF(4)^2, GF(9)^2, GF(9) and GF(13)^2
WEIL_SWEEPS = [
    ((2, 2), "t^3 + A1*t + A2", 2, (2, 1), 6, "ec5a343df94cecb3bbb608fba15e1c64c315f2a42bc4bbbc7aef40030c1acd15"),
    ((3, 2), "t^3 + A1*t + A2", 2, (3,), 24, "2fc86619c32ac61e1e6e6cf891decb3887313f42dc7b993b6ef6c8ab2919a8a3"),
    ((3, 2), "t^2 - A1", 1, (1, 1), 4, "c928460a21d7fd39cb9c6adc8eed29c91b2067eea157514fdd2be65d1e2c1874"),
    ((13, 1), "t^3 + A1*t + A2", 2, (3,), 56, "f814daa2cc0c00b2ba860eb1f539e6276845212382e541588b28c656db208c30"),
    ((13, 1), "t^3 + A1*t + A2", 2, (1, 1, 1), 22, "7486434c10258ac5f96f75f31369b742b5780fd22e4e3717420cec4add999a03"),
]


@pytest.mark.parametrize("field, poly, n, parts, terms, digest", WEIL_SWEEPS)
def test_weil_sweep_golden_digests(field, poly, n, parts, terms, digest):
    sweep = weil_sweep(parse(poly, n, FieldCtx(*field, seed=1)), parts, None)
    rows = [(q, b, mag.hex(), ratio.hex()) for q, b, mag, ratio in sweep.rows]
    text = repr(rows) + sweep.max_ratio.hex() + str(sweep.terms)
    assert sweep.terms == terms
    assert hashlib.sha256(text.encode()).hexdigest() == digest


CUBIC = "t^3 + A1*t + A2"

# (argv, sha256 of json.dumps(result, sort_keys=True))
CLI_RUNS = [
    (("dist", "--p", "13", "--poly", CUBIC, "--set", "full"), "f303ef01d959b941d98b1535ed83871bd4ea7de6118bfe2134726e38e17693b3"),
    (("compare", "--p", "13", "--poly", CUBIC, "--set", "full"), "14238dad298fd7dffbc4a99b42745bca5fa9e942b93941957099b951d5b38ec9"),
    (("dist", "--p", "3", "--k", "2", "--poly", CUBIC, "--set", "full"), "b7546fdb9774107c1f134bb03b140479e4a9fa8bf524b7f9a1d66c5a712b60b8"),
    (("compare", "--p", "3", "--k", "2", "--poly", CUBIC, "--set", "full"), "9a47e188df84bbd6e6c3cdc50743d7311b7780337add1bf7446cf57880c69a12"),
    (("charsum", "--p", "11", "--poly", CUBIC, "--type", "2,1", "--all-b"), "be6cff5a471708ebd25171b44fe616a26da94162afa2e118ebf976635b9dd256"),
    (("irreg", "--p", "101", "--set", "grid:int(0,10),ap(3,5,20)"), "7e0d24c23269828442ca03bb749053385fbe8eadeeb5b93511248d111d927fdf"),
    (("irreg", "--p", "3", "--k", "3", "--set", "tracezero"), "3f38610bd45feb4985b81ef42bc5b6eac7290acc46c167e82e153bcc53f4a5d5"),
    (
        ("factor-type", "--p", "5", "--k", "2", "--poly", "t^4 + [1,2]*A1*t + A2",
         "--point", "[3,1],[0,4]"),
        "9f79d23d8f1628d06ef83eebdcb33a284a05a2ed9717d9ed2fb478335d9d3bef",
    ),
    (("demo", "pv", "--p", "101"), "94d543740b3a021f631177c1b6aee14f4a8795c696d0493d9b4d5a32d54fd1ff"),
    (("demo", "power-residues", "--p", "31", "--power", "3"), "3fc4cc610b73b3cc75bd4d5e09c2b42eb7cb2d69e158df9191ab19617fd1fcf9"),
    (("demo", "trinomial", "--p", "31"), "ed12eeca97b172f9a19e4c130446fd10b8bde2f8e32fad1b0b3a8053be693c6b"),
    (("demo", "morse", "--p", "31", "--shifts", "0,1"), "d537ddefa44e96da2dee41a614b74a89a6048d0a2cd8e8bc625c90658a5356b2"),
    (("demo", "artin-schreier", "--p", "3", "--k", "2"), "86a58f77059e7c818cbf73afd332e4c0f79461e5475c90c814e24cf92ba4ec46"),
    (("dist", "--p", "2", "--k", "3", "--poly", CUBIC, "--set", "full"), "a010f4321f681f855d84fce9e03175b4285ee041021183cb68a08b9c58afbbc4"),
    # parameter powers above 1 run VecField.pow inside the specialization loop
    (
        ("factor-type", "--p", "3", "--k", "2", "--poly", "t^2 + A1^3*t + A2^2",
         "--point", "[1,2],[2,2]"),
        "e079e5e5be26d693f7b95a0c93b8ecf127980cd93836dc1c457224b32d5ae25d",
    ),
    # t^5 - a is inseparable over GF(5): every point is not squarefree
    (("demo", "power-residues", "--p", "5", "--power", "5", "--H", "5"), "cfa736abe64525d8587e1aa2b5e950a693b8fae8fb063332d76977874981edaf"),
]


@pytest.mark.parametrize("argv, digest", CLI_RUNS, ids=[" ".join(a) for a, _ in CLI_RUNS])
def test_cli_result_golden_sha256(argv, digest):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main(list(argv)) == 0
    result = json.loads(buf.getvalue())["result"]
    assert hashlib.sha256(json.dumps(result, sort_keys=True).encode()).hexdigest() == digest


# -- the pinned floats against 50-digit values --------------------------------------


def _trace_dot(ctx, a, b):
    dot = 0
    for ai, bi in zip(a, b):
        dot = ctx.add(dot, ctx.mul(ai, bi))
    return trace_raw(ctx, dot)


def _mp_roots(p):
    return [mpmath.expjpi(mpmath.mpf(2 * j) / p) for j in range(p)]


def _mp_sum(points, b, ctx, roots=None):
    """sum_{a in points} psi(-a.b) at 50 digits; call inside mpmath.workdps(50)."""
    roots = roots or _mp_roots(ctx.p)
    counts = Counter(-_trace_dot(ctx, a, b) % ctx.p for a in points)
    return mpmath.fsum(c * roots[j] for j, c in counts.items())


def _assert_close(got, want):
    """Relative error at most 1e-13; a value that is exactly zero is exact."""
    if abs(want) < mpmath.mpf(10) ** -40:
        assert got == 0
    else:
        assert abs(mpmath.mpmathify(got) - want) <= mpmath.mpf("1e-13") * abs(want), (got, want)


def _mp_irreg(points, ctx, n):
    roots = _mp_roots(ctx.p)
    freqs = itertools.product(range(ctx.q), repeat=n)
    return mpmath.fsum(abs(_mp_sum(points, b, ctx, roots)) for b in freqs) / len(points)


def test_irregularity_golden_bytes_against_mpmath():
    rng = random.Random(5)
    points = rng.sample(list(itertools.product(range(101), repeat=2)), 40)
    with mpmath.workdps(50):
        for pts, ctx in ((GF9_POINTS, GF9), (points, FieldCtx(101))):
            _assert_close(irregularity(ExplicitSet(pts), ctx).irreg, _mp_irreg(pts, ctx, 2))


def test_interval_closed_form_golden_bytes_against_mpmath():
    # 1 + (1/H) sum_{b=1}^{p-1} |sin(pi*H*b/p) / sin(pi*b/p)|, every b summed
    for p, H, golden in INTERVALS:
        with mpmath.workdps(50):
            ratios = (
                abs(mpmath.sinpi(mpmath.mpf(H * b) / p) / mpmath.sinpi(mpmath.mpf(b) / p))
                for b in range(1, p)
            )
            want = 1 + mpmath.fsum(ratios) / H
            got = float.fromhex(golden)
            assert abs(mpmath.mpmathify(got) - want) <= mpmath.mpf("1e-15") * want, (p, H)


def test_indicator_fourier_golden_bytes_against_mpmath():
    spec = indicator_spectrum(ExplicitSet(GF9_POINTS), GF9)
    with mpmath.workdps(50):
        for b in ((0, 0), (1, 0), (3, 5), (8, 2)):
            _assert_close(spec[b], _mp_sum(GF9_POINTS, b, GF9) / 81)


def test_charsum_golden_run_against_mpmath():
    # t^3 + a t + b splits as [2,1] iff it has exactly one root in GF(11),
    # except t^3 itself, the only depressed cube (t - r)^3
    p = 11
    matches = [
        (a, b)
        for a, b in itertools.product(range(p), repeat=2)
        if (a, b) != (0, 0) and sum((t**3 + a * t + b) % p == 0 for t in range(p)) == 1
    ]
    argv = next(argv for argv, _ in CLI_RUNS if argv[0] == "charsum")
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main(list(argv)) == 0
    result = json.loads(buf.getvalue())["result"]
    ctx = FieldCtx(p)
    with mpmath.workdps(50):
        scale = mpmath.mpf(p) ** 2 / mpmath.sqrt(p)
        ratios = []
        for row in result["rows"]:
            b = tuple(int(x) for x in row["b"].split(","))
            want = abs(_mp_sum(matches, b, ctx))
            _assert_close(row["magnitude"], want)
            _assert_close(row["ratio"], want / scale)
            ratios.append(want / scale)
        _assert_close(result["max_ratio"], max(ratios))


def test_landmarks_are_exact():
    gf27 = FieldCtx(3, 3, modulus=[1, 2, 0, 1])
    assert irregularity(FullSpace(2), GF9).irreg.hex() == "0x1.0000000000000p+0"
    assert irregularity(FullSpace(1), gf27).irreg.hex() == "0x1.0000000000000p+0"
    assert irregularity(ExplicitSet([(4, 7)]), GF9).irreg.hex() == "0x1.4400000000000p+6"  # 81
    assert irregularity(ExplicitSet([(17,)]), FieldCtx(101)).irreg.hex() == "0x1.9400000000000p+6"  # 101
    assert irregularity(TraceZero(), gf27).irreg.hex() == "0x1.8000000000000p+1"  # 3
    spec = indicator_spectrum(FullSpace(1), gf27)
    assert spec[(0,)] == 1.0 and all(spec[(b,)] == 0 for b in range(1, 27))


# -- the same bits under another BLAS kernel ---------------------------------------


def test_golden_bytes_under_another_blas_kernel():
    # OpenBLAS picks its kernels per CPU; Prescott sums dot products in
    # another order than the kernels of current CPUs, which moved these
    # values while spectra were reduced through BLAS.
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, OPENBLAS_CORETYPE="Prescott")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", __file__,
         "-k", "not another_blas_kernel and not mpmath"],
        cwd=root, env=env, capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 0, run.stdout[-3000:] + run.stderr[-2000:]
