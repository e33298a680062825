"""Golden bytes: float.hex() of spectrum results, pinned so that a change to
how the phase histograms are computed cannot move a single bit of a value the
reports print."""

import itertools
import random

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
