"""Oracles for the benchmark's job reports.

Each factory returns a check: a function from a report's ``result`` to a list
of failure messages, empty when the result is right.  The expected values
are computed here without calling ``ffstats``: Jacobi symbols, Euler's
criterion, necklace counts for depressed cubics, root counts, and numpy FFTs
of indicator arrays.  Expensive oracles are evaluated once, when the check
is built, not once per report.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent

REL_TOL = 1e-9


def nothing(result):
    return []


def all_of(*checks):
    def check(result):
        return [msg for c in checks for msg in c(result)]

    return check


def _at(result, key):
    return result if key is None else result[key]


def _close(got, want, scale=None):
    return abs(got - want) <= REL_TOL * (abs(want) if scale is None else scale)


# -- distributions -----------------------------------------------------------------


def distribution_total(size, key=None):
    """The distribution accounts for every point of the set exactly once."""

    def check(result):
        total = _at(result, key)["total"]
        return [] if total == size else [f"distribution total {total} != |S| = {size}"]

    return check


def depressed_cubic_counts(q):
    """Class counts of t^3 + a*t + b over all (a, b) in GF(q)^2, q prime to 6.

    Translating t removes the t^2 term of a monic cubic without changing its
    factorization, so each depressed cubic stands for q monic cubics, and
    the counts are the classical monic counts divided by q.
    """
    return {
        "[3]": (q * q - 1) // 3,
        "[2,1]": (q * q - q) // 2,
        "[1,1,1]": (q - 1) * (q - 2) // 6,
        "non_squarefree": q,
    }


def depressed_cubic_law(q, key=None):
    want = depressed_cubic_counts(q)

    def check(result):
        dist = _at(result, key)
        got = dict(dist["counts"], non_squarefree=dist["non_squarefree"])
        return [] if got == want else [f"cubic class counts {got} != {want}"]

    return check


def jacobi(a, n):
    """Jacobi symbol (a/n) for odd n > 0, by quadratic reciprocity."""
    a %= n
    sign = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                sign = -sign
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            sign = -sign
        a %= n
    return sign if n == 1 else 0


def quadratic_split_count(p, H):
    """t^2 - a splits into distinct linear factors iff a is a nonzero square."""
    want = sum(1 for a in range(1, H) if jacobi(a, p) == 1)

    def check(result):
        got = result["split_count"]
        return [] if got == want else [f"split_count {got} != Legendre count {want}"]

    return check


def power_residue_count(p, k, H):
    """t^k - a has a root iff a = 0 or a^((p-1)/g) = 1, g = gcd(p-1, k)."""
    e = (p - 1) // math.gcd(p - 1, k)
    want = sum(1 for a in range(H) if a == 0 or pow(a, e, p) == 1)

    def check(result):
        got = result["count_with_root"]
        return [] if got == want else [f"count_with_root {got} != Euler count {want}"]

    return check


# -- irregularity ---------------------------------------------------------------------


def fft_irregularity(points, p):
    """(1/|S|) * sum_b |sum_{a in S} e(-a.b/p)| for S inside GF(p)^n, by FFT."""
    n = len(points[0])
    ind = np.zeros((p,) * n)
    ind[tuple(np.asarray(points).T)] = 1.0
    return float(np.abs(np.fft.fftn(ind)).sum()) / len(points)


def fft_irregularities(sets):
    """fft_irregularity of each (points, p) in sets, computed in a child
    process: a transform of large prime length keeps tens of MB of buffers
    and plans, which would otherwise set the peak memory of the process
    that runs the program."""
    code = (
        "import json, sys, checks; "
        "print(json.dumps([checks.fft_irregularity(pts, p) for pts, p in json.load(sys.stdin)]))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        input=json.dumps(sets),
        env=dict(os.environ, PYTHONPATH=str(HERE)),
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    )
    return json.loads(out.stdout)


def _irreg_check(want, size, key):
    def check(result):
        rep = _at(result, key)
        out = []
        if not _close(rep["irreg"], want):
            out.append(f"irreg {rep['irreg']!r} != oracle {want!r}")
        if size is not None and rep["cardinality"] != size:
            out.append(f"cardinality {rep['cardinality']} != {size}")
        return out

    return check


def explicit_irreg(p, points, key=None):
    return _irreg_check(fft_irregularities([(points, p)])[0], len(points), key)


def grid_irreg(p, factors, key=None):
    """Irregularity of a product of progressions (alpha, beta, H): the
    transform factorizes, so it is the product of the 1-D values."""
    sets = [([((alpha * j + beta) % p,) for j in range(H)], p) for alpha, beta, H in factors]
    return _irreg_check(math.prod(fft_irregularities(sets)), math.prod(H for _, _, H in factors), key)


def irreg_value(want, key=None):
    """An irregularity the paper fixes exactly, compared for equality."""

    def check(result):
        got = _at(result, key)
        got = got["irreg"] if isinstance(got, dict) else got
        return [] if got == want else [f"irreg {got!r} != exact {want!r}"]

    return check


def trace_zero_irreg(p, k):
    """The trace-zero subgroup of GF(p^k) has irregularity exactly p."""
    return all_of(irreg_value(float(p)), _irreg_check(float(p), p ** (k - 1), None))


def artin_schreier(p, k):
    """t^p - t - a splits completely for every trace-zero a."""
    size = p ** (k - 1)

    def check(result):
        out = []
        if result["set_size"] != size:
            out.append(f"set_size {result['set_size']} != {size}")
        if result["split_completely"] != size:
            out.append(f"split_completely {result['split_completely']} != {size}")
        return out

    return all_of(check, irreg_value(float(p), "irreg"))


# -- character-sum sweeps ------------------------------------------------------------


def cubic_classes(p):
    """Boolean masks over (a, b) in GF(p)^2 of the factorization classes of
    t^3 + a*t + b, p > 3, from root counts and the discriminant."""
    x = np.arange(p).reshape(1, 1, p)
    a = np.arange(p).reshape(p, 1, 1)
    b = np.arange(p).reshape(1, p, 1)
    roots = ((x**3 + a * x + b) % p == 0).sum(axis=2)
    a2 = a[:, :, 0]
    b2 = b[:, :, 0]
    squarefree = (-4 * a2**3 - 27 * b2**2) % p != 0
    return {
        (3,): squarefree & (roots == 0),
        (2, 1): squarefree & (roots == 1),
        (1, 1, 1): squarefree & (roots == 3),
    }


def cubic_charsum_sweep(p, parts_text):
    """Every |sum over {a : class = parts} of psi(-a.b)| against an FFT of the
    class indicator."""
    parts = tuple(sorted((int(x) for x in parts_text.split(",")), reverse=True))
    mask = cubic_classes(p)[parts]
    mags = np.abs(np.fft.fft2(mask.astype(float)))
    scale = float(mask.sum()) or 1.0

    def check(result):
        rows = result["rows"]
        out = []
        if len(rows) != p * p - 1:
            out.append(f"{len(rows)} sweep rows != {p * p - 1} nonzero frequencies")
        bad = 0
        for row in rows:
            b1, b2 = (int(c) for c in row["b"].split(","))
            if not _close(row["magnitude"], float(mags[b1, b2]), scale):
                bad += 1
        if bad:
            out.append(f"{bad} sweep magnitudes differ from the FFT oracle")
        if rows and result["max_ratio"] != max(r["ratio"] for r in rows):
            out.append("max_ratio is not the largest row ratio")
        return out

    return check
