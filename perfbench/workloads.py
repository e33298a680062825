"""The benchmark's workloads: fixed lists of ``ffstats`` CLI jobs.

Each workload is chosen so that one layer a later optimisation is likely to
touch does most of its work, while the other workloads do little of it:

* ``prime-dist``: prime-field classification sweeps, where distinct-degree
  splitting in ``_gfp`` dominates and ``field`` does almost nothing;
* ``ext-field``: extension-field classification and trace-based phases,
  where ``FieldCtx`` arithmetic dominates;
* ``prime-spectrum``: prime-field spectra and character-sum sweeps, with a
  dense set (many points, few frequencies per point) and sparse sets (three
  points in a large field, where the per-frequency phase histogram of length
  ``p`` dominates).

Every job gets the workload seed as ``--seed`` (extension modulus and
admissibility sampling), and the explicit point files are generated from the
same seed, so one seed fixes every input.  Each job carries the number of
points it classifies and of frequencies at which it evaluates a spectrum,
both derived from its parameters rather than read from its report, plus a
check of its ``result`` against an oracle from :mod:`checks`.  The demos'
closed-form irregularities are not counted as frequencies: they are a small
step of jobs whose time goes to classification.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import checks

WORKLOADS = ("prime-dist", "ext-field", "prime-spectrum")

WHY = {
    "prime-dist": "prime-field classification sweeps; _gfp distinct-degree splitting dominates, field arithmetic idles",
    "ext-field": "extension-field classification and trace-zero spectra; FieldCtx.mul dominates",
    "prime-spectrum": "prime-field spectra: a dense set, sparse sets in large p, and two character-sum sweeps",
}

CUBIC = "t^3 + A1*t + A2"
QUINTIC = "t^5 + A1*t + A2"


@dataclass(frozen=True)
class Job:
    """One CLI invocation and what the benchmark knows about it in advance."""

    label: str
    argv: tuple
    points: int = 0  # points the job classifies
    freqs: int = 0  # frequencies at which the job evaluates a spectrum
    twin_of: str | None = None  # label of the 1-thread job this must match
    check: Callable[[dict], list] = checks.nothing


def _interval(p):
    # Matches the demos' default interval length, passed explicitly so the
    # benchmark does not depend on that default.
    return math.ceil(p**0.75)


def _closed_form_freqs(p, lengths):
    # The sine closed form evaluates every nonzero frequency of each factor,
    # except for the trivial lengths 1 and p, which return at once.
    return sum(p - 1 for H in lengths if 1 < H < p)


def _twin(job, threads=2):
    return Job(
        job.label + f"@{threads}t",
        job.argv + ("--threads", str(threads)),
        job.points,
        job.freqs,
        job.label,
        job.check,
    )


def _grid_job(p, factors):
    """irreg of a product of progressions, (alpha, beta, H) each."""
    spec = ",".join(f"ap({a},{b},{h})" if a != 1 else f"int({b},{h})" for a, b, h in factors)
    return Job(
        "irreg-grid",
        ("irreg", "--p", str(p), "--set", f"grid:{spec}"),
        freqs=_closed_form_freqs(p, [h for _, _, h in factors]),
        check=checks.grid_irreg(p, factors),
    )


# Parameters per size.  "full" is what the benchmark measures; "tiny" keeps the
# same job shapes at sizes that run in well under a second, for the tests.
SIZES = {
    "full": {
        "prime-dist": {
            "p_cmp": 101, "p_quint": 53, "p_pv": 100003, "p_pr": 10007, "p_morse": 10007,
            "grid": (100003, ((1, 0, 1000), (3, 5, 2000), (1, 7, 3000), (11, 2, 5000), (1, 1, 7000), (2, 9, 11000))),
        },
        "ext-field": {"fields": ((3, 3), (5, 2)), "as": (3, 5), "tz": ((3, 5), (7, 3))},
        "prime-spectrum": {
            "dense": (101, 1500),
            "sparse": (2003, 4001, 8009),
            "grid": (10007, ((1, 0, 1000), (3, 5, 2000))),
            "p_sweep": 53,
        },
    },
    "tiny": {
        "prime-dist": {
            "p_cmp": 13, "p_quint": 11, "p_pv": 101, "p_pr": 31, "p_morse": 31,
            "grid": (1009, ((1, 0, 10), (3, 5, 200))),
        },
        "ext-field": {"fields": ((5, 2), (2, 2)), "as": (3, 2), "tz": ((3, 3), (5, 2))},
        "prime-spectrum": {
            "dense": (13, 40),
            "sparse": (101, 103, 107),
            "grid": (101, ((1, 0, 10), (3, 5, 20))),
            "p_sweep": 11,
        },
    },
}


def _prime_dist(cfg, seed, workdir):
    p, p5, p_pv, p_pr, p_m = (cfg[k] for k in ("p_cmp", "p_quint", "p_pv", "p_pr", "p_morse"))
    h_pv, h_pr, h_m = _interval(p_pv), _interval(p_pr), _interval(p_m)
    compare = Job(
        "compare",
        ("compare", "--p", str(p), "--poly", CUBIC, "--set", "full"),
        points=p * p,
        check=checks.all_of(
            checks.distribution_total(p * p, "distribution"),
            checks.depressed_cubic_law(p, "distribution"),
            checks.irreg_value(1.0, "irreg"),
        ),
    )
    return [
        compare,
        _twin(compare),
        Job(
            "dist-quintic",
            ("dist", "--p", str(p5), "--poly", QUINTIC, "--set", "full"),
            points=p5 * p5,
            check=checks.distribution_total(p5 * p5),
        ),
        Job(
            "pv",
            ("demo", "pv", "--p", str(p_pv), "--H", str(h_pv)),
            points=h_pv,
            check=checks.all_of(
                checks.distribution_total(h_pv, "distribution"),
                checks.quadratic_split_count(p_pv, h_pv),
                checks.grid_irreg(p_pv, [(1, 0, h_pv)], "irreg"),
            ),
        ),
        Job(
            "power-residues",
            ("demo", "power-residues", "--p", str(p_pr), "--power", "3", "--H", str(h_pr)),
            points=h_pr,
            check=checks.power_residue_count(p_pr, 3, h_pr),
        ),
        Job(
            "morse",
            ("demo", "morse", "--p", str(p_m), "--shifts", "0,1", "--H", str(h_m)),
            points=h_m,
            check=checks.all_of(
                checks.distribution_total(h_m, "distribution"),
                checks.grid_irreg(p_m, [(1, 0, h_m)], "irreg"),
            ),
        ),
        # The only frequencies counted here: a closed form with no
        # classification around it, so that freqs_per_s guards the closed
        # form instead of restating the classification rate.
        _grid_job(*cfg["grid"]),
    ]


def _ext_field(cfg, seed, workdir):
    jobs = []
    for p, k in cfg["fields"]:
        q = p**k
        law = [checks.depressed_cubic_law(q)] if p > 3 else []
        jobs.append(
            Job(
                f"dist-gf{q}",
                ("dist", "--p", str(p), "--k", str(k), "--poly", CUBIC, "--set", "full"),
                points=q * q,
                check=checks.all_of(checks.distribution_total(q * q), *law),
            )
        )
    # The second field's sweep also runs at 2 threads, so that speedup_2t and
    # the determinism check cover extension-field classification.
    jobs.append(_twin(jobs[-1]))
    p, k = cfg["as"]
    size = p ** (k - 1)
    jobs.append(
        Job(
            "artin-schreier",
            ("demo", "artin-schreier", "--p", str(p), "--k", str(k)),
            points=2 * size,  # the distribution and the comparison each classify the set
            freqs=2 * p**k,  # and each takes one dense transform of it
            check=checks.artin_schreier(p, k),
        )
    )
    for p, k in cfg["tz"]:
        jobs.append(
            Job(
                f"irreg-tracezero-gf{p**k}",
                ("irreg", "--p", str(p), "--k", str(k), "--set", "tracezero"),
                freqs=p**k,
                check=checks.trace_zero_irreg(p, k),
            )
        )
    return jobs


def write_points(path: Path, points) -> None:
    path.write_text("".join(",".join(map(str, pt)) + "\n" for pt in points), encoding="utf-8")


def seeded_points(rng: random.Random, p: int, n: int, count: int):
    """count distinct points of GF(p)^n, in a seed-determined order."""
    return [
        tuple((i // p**j) % p for j in reversed(range(n)))
        for i in rng.sample(range(p**n), count)
    ]


def _prime_spectrum(cfg, seed, workdir):
    rng = random.Random(seed)
    jobs = []
    p, count = cfg["dense"]
    dense = seeded_points(rng, p, 2, count)
    path = workdir / "dense.txt"
    write_points(path, dense)
    jobs.append(
        Job(
            "irreg-dense",
            ("irreg", "--p", str(p), "--set", f"file:{path}"),
            freqs=p * p,
            check=checks.explicit_irreg(p, dense),
        )
    )
    for p in cfg["sparse"]:
        sparse = seeded_points(rng, p, 1, 3)
        path = workdir / f"sparse-{p}.txt"
        write_points(path, sparse)
        jobs.append(
            Job(
                f"irreg-sparse-{p}",
                ("irreg", "--p", str(p), "--set", f"file:{path}"),
                freqs=p,
                check=checks.explicit_irreg(p, sparse),
            )
        )
    jobs.append(_grid_job(*cfg["grid"]))
    p = cfg["p_sweep"]
    irreducible, split_once = (
        Job(
            f"charsum-{parts.replace(',', '')}",
            ("charsum", "--p", str(p), "--poly", CUBIC, "--type", parts, "--all-b"),
            points=p * p,
            freqs=p * p - 1,
            check=checks.cubic_charsum_sweep(p, parts),
        )
        for parts in ("3", "2,1")
    )
    # The first sweep also runs at 2 threads: weil_sweep shards frequencies.
    return jobs + [irreducible, _twin(irreducible), split_once]


_BUILDERS = {
    "prime-dist": _prime_dist,
    "ext-field": _ext_field,
    "prime-spectrum": _prime_spectrum,
}


def build(workload: str, seed: int, workdir: Path, size: str = "full") -> list:
    """The workload's job list for this seed; writes its input files to workdir."""
    workdir.mkdir(parents=True, exist_ok=True)
    jobs = _BUILDERS[workload](SIZES[size][workload], seed, workdir)
    return [
        Job(j.label, j.argv + ("--seed", str(seed)), j.points, j.freqs, j.twin_of, j.check)
        for j in jobs
    ]
