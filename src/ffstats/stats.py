"""Factorization-class statistics over a specialization set.

Empirical side: classify F(t, a) for every a in S (``mpoly.classify_points``)
and tally the factor-degree multisets, with separate buckets for degree drops
and repeated factors.
Predicted side: either the random-permutation cycle-type law gamma, or the
density nu*|C n pi^-1(target)|/|G| read off an explicitly listed permutation
group whose elements carry labels in Z/nu (label 1 marks the coset the
statistics concentrate on; nu = 1 admits every element).

The comparison report normalizes the total-variation gap by sqrt(q)/irreg(S),
the scale on which a well-distributed set keeps the gap bounded.  Restricted
character sums over {a : class(F(t,a)) = lambda} are accumulated exactly over
roots of unity and reported with their magnitude / q^(n - 1/2) ratio.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from . import mpoly as _mp
from . import sets as _sets
from .errors import (
    DegreeMismatchError,
    InvalidGroupError,
    PartitionMismatchError,
    ZeroFrequencyError,
)
from .field import CyclotomicSum, cyclotomic_magnitude
from .mpoly import MultiPoly
from .parallel import map_merge
from .sets import DEFAULT_BUDGET, dimension, enumerate_points

# -- partitions and cycle types ---------------------------------------------------


def partitions(d: int):
    """All partitions of d as descending tuples, lexicographically descending."""
    if d == 0:
        return [()]
    out = []

    def rec(remaining, cap, prefix):
        if remaining == 0:
            out.append(tuple(prefix))
            return
        for part in range(min(cap, remaining), 0, -1):
            rec(remaining - part, part, prefix + [part])

    rec(d, d, [])
    return out


def cycle_type(perm) -> tuple:
    """Descending cycle lengths of a permutation given as 0-based images."""
    seen = [False] * len(perm)
    parts = []
    for start in range(len(perm)):
        if seen[start]:
            continue
        length = 0
        i = start
        while not seen[i]:
            seen[i] = True
            i = perm[i]
            length += 1
        parts.append(length)
    return tuple(sorted(parts, reverse=True))


def format_type(parts) -> str:
    return "[" + ",".join(str(x) for x in parts) + "]"


def parse_type(text: str) -> tuple:
    body = text.strip()
    if body.startswith("[") and body.endswith("]"):
        body = body[1:-1]
    parts = tuple(sorted((int(x) for x in body.split(",") if x.strip()), reverse=True))
    if any(x < 1 for x in parts):
        raise ValueError(f"cycle-type parts must be positive: {text!r}")
    return parts


def gamma_symmetric(d: int, parts) -> Fraction:
    """Probability that a uniform permutation of d letters has the given
    cycle type: 1 / prod_j j^(m_j) * m_j! with m_j the multiplicity of j."""
    parts = tuple(sorted(parts, reverse=True))
    if sum(parts) != d:
        raise PartitionMismatchError(f"{parts} is not a partition of {d}")
    denom = 1
    for j in set(parts):
        m = parts.count(j)
        denom *= j**m * math.factorial(m)
    return Fraction(1, denom)


# -- group specifications ------------------------------------------------------------


@dataclass(frozen=True)
class GroupSpec:
    """Either the full symmetric group on d letters, or an explicit list of
    permutations each carrying a residue label modulo nu.

    Explicit lists are validated to be subgroups with the labelling a
    surjective homomorphism onto Z/nu and the identity labelled 0.
    """

    d: int
    mode: str  # "symmetric" | "explicit"
    nu: int = 1
    elements: tuple = ()  # ((perm images 0-based, label), ...)

    @classmethod
    def symmetric(cls, d: int) -> "GroupSpec":
        if d < 1:
            raise InvalidGroupError("degree must be >= 1")
        return cls(d, "symmetric")

    @classmethod
    def explicit(cls, d: int, nu: int, elements) -> "GroupSpec":
        if d < 1 or nu < 1:
            raise InvalidGroupError("degree and nu must be >= 1")
        elems = tuple((tuple(perm), int(label) % nu) for perm, label in elements)
        cls._validate(d, nu, elems)
        return cls(d, "explicit", nu, elems)

    @staticmethod
    def _validate(d, nu, elems):
        if not elems:
            raise InvalidGroupError("explicit group needs at least one element")
        label_of = {}
        for perm, label in elems:
            if sorted(perm) != list(range(d)):
                raise InvalidGroupError(f"not a permutation of 0..{d - 1}: {perm}")
            if perm in label_of and label_of[perm] != label:
                raise InvalidGroupError(f"conflicting labels for {perm}")
            label_of[perm] = label
        if len(label_of) != len(elems):
            raise InvalidGroupError("duplicate elements listed")
        identity = tuple(range(d))
        if label_of.get(identity) != 0:
            raise InvalidGroupError("identity must be present with label 0")
        for g, lg in label_of.items():
            for h, lh in label_of.items():
                gh = tuple(g[h[i]] for i in range(d))
                if gh not in label_of:
                    raise InvalidGroupError("element list is not closed under composition")
                if label_of[gh] != (lg + lh) % nu:
                    raise InvalidGroupError("labels are not a homomorphism to Z/nu")
        if set(label_of.values()) != set(range(nu)):
            raise InvalidGroupError("labels do not cover Z/nu")

    @classmethod
    def from_file(cls, path: str) -> "GroupSpec":
        """Header ``d=<int> nu=<int>``, then one line per element: the images
        of 1..d in one-line notation, a ``|``, and the label."""
        with open(path, encoding="utf-8") as fh:
            lines = [ln.strip() for ln in fh if ln.strip() and not ln.startswith("#")]
        if not lines:
            raise InvalidGroupError(f"empty group file {path}")
        header = dict(
            kv.split("=", 1) for kv in lines[0].split() if "=" in kv
        )
        try:
            d = int(header["d"])
            nu = int(header["nu"])
        except (KeyError, ValueError) as exc:
            raise InvalidGroupError(f"bad header {lines[0]!r}") from exc
        elements = []
        for ln in lines[1:]:
            if "|" not in ln:
                raise InvalidGroupError(f"element line needs '|': {ln!r}")
            left, right = ln.split("|", 1)
            images = [int(x) for x in left.split()]
            if sorted(images) != list(range(1, d + 1)):
                raise InvalidGroupError(f"not a permutation of 1..{d}: {ln!r}")
            elements.append((tuple(x - 1 for x in images), int(right)))
        return cls.explicit(d, nu, elements)

    def to_file(self, path: str) -> None:
        if self.mode != "explicit":
            raise InvalidGroupError("only explicit groups have a file form")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f"d={self.d} nu={self.nu}\n")
            for perm, label in self.elements:
                fh.write(" ".join(str(i + 1) for i in perm) + f" | {label}\n")


def cyclic_shift_group(d: int) -> GroupSpec:
    """The order-d group generated by the d-cycle, labels all zero (nu=1)."""
    elems = []
    for s in range(d):
        elems.append((tuple((i + s) % d for i in range(d)), 0))
    return GroupSpec.explicit(d, 1, elems)


def prediction_from_group(group: GroupSpec, universe=None) -> dict:
    """Map each cycle type to its predicted probability.

    Symmetric mode is the exact gamma law.  Explicit mode counts elements
    with label 1 mod nu (every element when nu = 1) and scales by nu/|G|.
    """
    if universe is None:
        universe = partitions(group.d)
    if group.mode == "symmetric":
        return {parts: gamma_symmetric(group.d, parts) for parts in universe}
    target = 1 % group.nu
    hits = {}
    for perm, label in group.elements:
        if label == target:
            ct = cycle_type(perm)
            hits[ct] = hits.get(ct, 0) + 1
    order = len(group.elements)
    probs = {parts: Fraction(group.nu * hits.get(parts, 0), order) for parts in universe}
    return {parts: pr for parts, pr in probs.items() if pr or parts in hits}


# -- empirical distributions ------------------------------------------------------------


@dataclass
class ClassDistribution:
    """Counts of factorization classes over a set, plus exception buckets."""

    counts: dict
    non_squarefree: int
    degree_drop: int
    total: int

    @classmethod
    def empty(cls):
        return cls({}, 0, 0, 0)

    def merge(self, other: "ClassDistribution") -> "ClassDistribution":
        for parts, c in other.counts.items():
            self.counts[parts] = self.counts.get(parts, 0) + c
        self.non_squarefree += other.non_squarefree
        self.degree_drop += other.degree_drop
        self.total += other.total
        return self

    def frequency(self, parts) -> Fraction:
        return Fraction(self.counts.get(parts, 0), self.total)

    def to_json_dict(self):
        ordered = sorted(self.counts, reverse=True)
        return {
            "counts": {format_type(par): self.counts[par] for par in ordered},
            "non_squarefree": self.non_squarefree,
            "degree_drop": self.degree_drop,
            "total": self.total,
        }


def _classify_chunk(F: MultiPoly, chunk) -> ClassDistribution:
    counts = dict(Counter(_mp.classify_points(F, chunk)))
    return ClassDistribution(
        counts,
        counts.pop(_mp.NON_SQUAREFREE, 0),
        counts.pop(_mp.DEGREE_DROP, 0),
        len(chunk),
    )


def _sweep_points(F: MultiPoly, S, budget, seed, check):
    """The points of S, once S and deg_t fit the budget and F is classifiable:
    both budget checks run before any dense specialization."""
    pts = enumerate_points(S, F.ctx, budget)
    _mp.require_dense_budget(F, budget)
    if check:
        _mp.require_classifiable(F, seed=seed)
    return pts


def empirical_distribution(
    F: MultiPoly,
    S,
    *,
    threads: int = 1,
    budget: int = DEFAULT_BUDGET,
    seed: int = 0,
    check: bool = True,
) -> ClassDistribution:
    """Classify every point of S; deterministic for any thread count."""
    pts = _sweep_points(F, S, budget, seed, check)
    return map_merge(
        pts,
        lambda chunk: _classify_chunk(F, chunk),
        ClassDistribution.merge,
        ClassDistribution.empty(),
        threads=threads,
    )


# -- comparison against a prediction -------------------------------------------------------


@dataclass
class ComparisonReport:
    distribution: ClassDistribution
    prediction: dict  # parts -> Fraction
    per_type: dict  # parts -> (frequency, prediction, |deviation|) floats
    tv_distance: float
    irreg: float
    irreg_method: str
    normalized_error: float
    q: int
    n: int
    p_gt_d: bool

    def to_json_dict(self):
        ordered = sorted(self.per_type, reverse=True)
        return {
            "per_type": {
                format_type(par): {
                    "frequency": self.per_type[par][0],
                    "prediction": self.per_type[par][1],
                    "deviation": self.per_type[par][2],
                }
                for par in ordered
            },
            "distribution": self.distribution.to_json_dict(),
            "tv_distance": self.tv_distance,
            "irreg": self.irreg,
            "irreg_method": self.irreg_method,
            "normalized_error": self.normalized_error,
            "q": self.q,
            "n": self.n,
            "p_gt_d": self.p_gt_d,
        }


def compare(
    F: MultiPoly,
    S,
    group: GroupSpec,
    *,
    threads: int = 1,
    budget: int = DEFAULT_BUDGET,
    seed: int = 0,
) -> ComparisonReport:
    """Empirical distribution vs. group prediction, with the total-variation
    gap and its sqrt(q)/irreg normalization.

    Degree drops and repeated-factor points count fully against the
    prediction (they sit in S but in no class), so tv_distance is
    (1/2) * [sum_lambda |freq - prob| + freq_exceptional].  A group acting
    on other than deg_t letters is a DegreeMismatchError.
    """
    if group.d != F.deg_t:
        raise DegreeMismatchError(
            f"group acts on {group.d} letters but F has degree {F.deg_t} in t"
        )
    dist = empirical_distribution(F, S, threads=threads, budget=budget, seed=seed)
    pred = prediction_from_group(group)
    total = dist.total
    universe = sorted(set(dist.counts) | set(pred), reverse=True)
    gap = Fraction(0)
    per_type = {}
    for parts in universe:
        fr = Fraction(dist.counts.get(parts, 0), total)
        pr = pred.get(parts, Fraction(0))
        gap += abs(fr - pr)
        per_type[parts] = (float(fr), float(pr), float(abs(fr - pr)))
    gap += Fraction(dist.non_squarefree + dist.degree_drop, total)
    tv = gap / 2
    rep = _sets.irregularity(S, F.ctx, budget)
    q = F.ctx.q
    norm = float(tv) * math.sqrt(q) / rep.irreg
    return ComparisonReport(
        distribution=dist,
        prediction=pred,
        per_type=per_type,
        tv_distance=float(tv),
        irreg=rep.irreg,
        irreg_method=rep.method,
        normalized_error=norm,
        q=q,
        n=dimension(S),
        p_gt_d=F.ctx.p > F.deg_t,
    )


# -- restricted character sums ------------------------------------------------------------


@dataclass
class CharSumResult:
    cyclo: CyclotomicSum
    magnitude: float
    weil_ratio: float
    terms: int


def _matching_points(F, parts, budget, seed):
    pts = _sweep_points(F, _sets.FullSpace(F.n), budget, seed, True)
    return [pt for pt, r in zip(pts, _mp.classify_points(F, pts)) if r == parts]


def _weil_scale(q: int, n: int) -> float:
    return float(q) ** n / math.sqrt(q)


def restricted_charsum(
    F: MultiPoly,
    parts,
    b,
    *,
    budget: int = DEFAULT_BUDGET,
    seed: int = 0,
) -> CharSumResult:
    """Exact accumulation of psi(-a.b) over {a : class(F(t,a)) = parts}."""
    parts = tuple(sorted(parts, reverse=True))
    b = tuple(b)
    if len(b) != F.n:
        raise ZeroFrequencyError(f"frequency needs {F.n} coordinates, got {len(b)}")
    if all(x == 0 for x in b):
        raise ZeroFrequencyError("frequency vector must be nonzero")
    ctx = F.ctx
    matches = _matching_points(F, parts, budget, seed)
    counts = next(_sets.phase_counts(matches, [b], ctx, F.n, -1))
    cyclo = CyclotomicSum(ctx.p, counts)
    mag = cyclo.magnitude()
    return CharSumResult(cyclo, mag, mag / _weil_scale(ctx.q, F.n), len(matches))


@dataclass
class WeilSweep:
    max_ratio: float
    rows: list  # (q, b, magnitude, ratio)


def weil_sweep(
    F: MultiPoly,
    parts,
    bs=None,
    *,
    budget: int = DEFAULT_BUDGET,
    threads: int = 1,
    seed: int = 0,
) -> WeilSweep:
    """Character-sum magnitudes over a family of nonzero frequencies
    (every nonzero frequency when bs is None), sharing one classification
    pass over the full space."""
    parts = tuple(sorted(parts, reverse=True))
    ctx = F.ctx
    n = F.n
    if bs is None:
        bs = _sets.frequencies(ctx, n, budget)[1:]
    else:
        bs = [tuple(b) for b in bs]
        for b in bs:
            if len(b) != n or all(x == 0 for x in b):
                raise ZeroFrequencyError(f"bad frequency {b}")
    matches = _matching_points(F, parts, budget, seed)
    scale = _weil_scale(ctx.q, n)
    p = ctx.p
    q = ctx.q

    def work(chunk):
        rows = []
        for b, counts in zip(chunk, _sets.phase_counts(matches, chunk, ctx, n, -1)):
            mag = cyclotomic_magnitude(counts, p)
            rows.append((q, b, mag, mag / scale))
        return rows

    rows = map_merge(bs, work, lambda a, b2: a + b2, [], threads=threads)
    max_ratio = max((r[3] for r in rows), default=0.0)
    return WeilSweep(max_ratio, rows)
