"""Golden bytes: float.hex() of spectrum results, pinned so that a change to
how the phase histograms are computed cannot move a single bit of a value the
reports print, and the sha256 of the ``result`` subtree of small CLI runs,
pinned so that no change of kernels can move a byte of what a report states."""

import contextlib
import hashlib
import io
import itertools
import json
import random

import pytest

from ffstats.cli import main
from ffstats.field import FieldCtx
from ffstats.mpoly import parse
from ffstats.sets import ExplicitSet, TraceZero, indicator_fourier, irregularity
from ffstats.stats import weil_sweep

GF9 = FieldCtx(3, 2, modulus=[2, 2, 1])
GF9_POINTS = [(0, 0), (1, 4), (2, 7), (5, 3), (8, 8), (4, 6)]


def test_irregularity_golden_bytes():
    assert irregularity(ExplicitSet(GF9_POINTS), GF9).irreg.hex() == "0x1.c60249abab4ffp+4"
    gf27 = FieldCtx(3, 3, modulus=[1, 2, 0, 1])
    assert irregularity(TraceZero(), gf27).irreg.hex() == "0x1.8000000000000p+1"
    rng = random.Random(5)
    points = rng.sample(list(itertools.product(range(101), repeat=2)), 40)
    rep = irregularity(ExplicitSet(points), FieldCtx(101))
    assert rep.irreg.hex() == "0x1.6538c583ebcedp+10"


def test_indicator_fourier_golden_bytes():
    spec = indicator_fourier(ExplicitSet(GF9_POINTS), GF9)
    golden = {
        (0, 0): ("0x1.2f684bda12f68p-4", "0x0.0p+0"),
        (1, 0): ("0x1.2f684bda12f68p-6", "0x1.5e583e0aae741p-7"),
        (3, 5): ("-0x1.2f684bda12f69p-6", "0x1.5e583e0aae742p-7"),
        (8, 2): ("0x1.2f684bda12f65p-6", "-0x1.5e583e0aae73ap-7"),
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


CUBIC = "t^3 + A1*t + A2"

# (argv, sha256 of json.dumps(result, sort_keys=True))
CLI_RUNS = [
    (("dist", "--p", "13", "--poly", CUBIC, "--set", "full"), "f303ef01d959b941d98b1535ed83871bd4ea7de6118bfe2134726e38e17693b3"),
    (("compare", "--p", "13", "--poly", CUBIC, "--set", "full"), "14238dad298fd7dffbc4a99b42745bca5fa9e942b93941957099b951d5b38ec9"),
    (("dist", "--p", "3", "--k", "2", "--poly", CUBIC, "--set", "full"), "b7546fdb9774107c1f134bb03b140479e4a9fa8bf524b7f9a1d66c5a712b60b8"),
    (("compare", "--p", "3", "--k", "2", "--poly", CUBIC, "--set", "full"), "0b613c31399eba385323107b75b69202e17aa5f9b4f4d1ee4113b42dff0a6123"),
    (("charsum", "--p", "11", "--poly", CUBIC, "--type", "2,1", "--all-b"), "28bc80f0a840536dfe77b956f20122a62f2e4628f81057f53c393991a46aeede"),
    (("irreg", "--p", "101", "--set", "grid:int(0,10),ap(3,5,20)"), "9c688f9d868be16fab144213f879cdc94dfd4e2c905ef1c883552d180ace283a"),
    (("irreg", "--p", "3", "--k", "3", "--set", "tracezero"), "3f38610bd45feb4985b81ef42bc5b6eac7290acc46c167e82e153bcc53f4a5d5"),
    (
        ("factor-type", "--p", "5", "--k", "2", "--poly", "t^4 + [1,2]*A1*t + A2",
         "--point", "[3,1],[0,4]"),
        "9f79d23d8f1628d06ef83eebdcb33a284a05a2ed9717d9ed2fb478335d9d3bef",
    ),
    (("demo", "pv", "--p", "101"), "e2df9178e07790154c72d89b472f9bf710c570c719321f15a01438b695da0b7d"),
    (("demo", "power-residues", "--p", "31", "--power", "3"), "3fc4cc610b73b3cc75bd4d5e09c2b42eb7cb2d69e158df9191ab19617fd1fcf9"),
    (("demo", "trinomial", "--p", "31"), "ed12eeca97b172f9a19e4c130446fd10b8bde2f8e32fad1b0b3a8053be693c6b"),
    (("demo", "morse", "--p", "31", "--shifts", "0,1"), "7258177fa9a219c1d315cc842125561264ee97c3953f70e93c049e0c67fe5522"),
    (("demo", "artin-schreier", "--p", "3", "--k", "2"), "86a58f77059e7c818cbf73afd332e4c0f79461e5475c90c814e24cf92ba4ec46"),
    (("dist", "--p", "2", "--k", "3", "--poly", CUBIC, "--set", "full"), "a010f4321f681f855d84fce9e03175b4285ee041021183cb68a08b9c58afbbc4"),
    # parameter powers above 1 run gf_pow inside the specialization loop
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
