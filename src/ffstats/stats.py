"""Factorization-class statistics over a specialization set.

Empirical side: classify F(t, a) for every a in S (``mpoly.spec_keys`` of
``sets.point_codes``) and tally the factor-degree multisets, with separate
buckets for degree drops and repeated factors.
Predicted side: either the random-permutation cycle-type law gamma, or the
density nu*|C n pi^-1(target)|/|G| read off an explicitly listed permutation
group whose elements carry labels in Z/nu (label 1 marks the coset the
statistics concentrate on; nu = 1 admits every element).

The comparison report normalizes the total-variation gap by sqrt(q)/irreg(S),
the scale on which a well-distributed set keeps the gap bounded.  Restricted
character sums over {a : class(F(t,a)) = lambda} come from ``sets.phase_sums``
and are reported with their magnitude / q^(n - 1/2) ratio.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import _gfp
from . import mpoly as _mp
from . import sets as _sets
from .errors import (
    ArityMismatchError,
    DegreeMismatchError,
    InvalidGroupError,
    PartitionMismatchError,
    ZeroFrequencyError,
)
from .mpoly import MultiPoly
from .sets import DEFAULT_BUDGET, dimension

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


def prediction_from_group(group: GroupSpec) -> dict:
    """Map each cycle type to its predicted probability.

    Symmetric mode is the exact gamma law.  Explicit mode counts elements
    with label 1 mod nu (every element when nu = 1) and scales by nu/|G|.
    """
    if group.mode == "symmetric":
        return {parts: gamma_symmetric(group.d, parts) for parts in partitions(group.d)}
    target = 1 % group.nu
    hits = Counter(cycle_type(perm) for perm, label in group.elements if label == target)
    order = len(group.elements)
    return {parts: Fraction(group.nu * c, order) for parts, c in hits.items()}


# -- empirical distributions ------------------------------------------------------------


@dataclass
class ClassDistribution:
    """Counts of factorization classes over a set, plus exception buckets."""

    counts: dict
    non_squarefree: int
    degree_drop: int
    total: int

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


def _sweep_points(F: MultiPoly, S, budget, seed):
    """``sets.point_codes`` of S, once S and its classification fit the
    budget and F is classifiable: both budget checks run before admissibility."""
    codes = _sets.point_codes(S, F.ctx, budget)
    _mp.require_dense_budget(F, budget, len(codes))
    _mp.require_classifiable(F, seed=seed)
    return codes


def empirical_distribution(
    F: MultiPoly,
    S,
    *,
    budget: int = DEFAULT_BUDGET,
    seed: int = 0,
) -> ClassDistribution:
    """Classify every point of S in one in-order pass: ``np.unique`` counts the
    keys of each ``mpoly.spec_keys`` block, and each distinct key is decoded once."""
    codes = _sweep_points(F, S, budget, seed)
    tally = Counter()
    for keys in _mp.spec_keys(F, codes):
        values, times = np.unique(keys, return_counts=True)
        tally.update(dict(zip(values.tolist(), times.tolist())))
    counts = {_gfp.gf_key_type(key, F.deg_t): c for key, c in tally.items()}
    return ClassDistribution(
        counts,
        counts.pop(_gfp.NON_SQUAREFREE, 0),
        counts.pop(_gfp.DEGREE_DROP, 0),
        len(codes),
    )


# -- comparison against a prediction -------------------------------------------------------


@dataclass
class ComparisonReport:
    distribution: ClassDistribution
    prediction: dict  # parts -> Fraction
    per_type: dict  # parts -> (frequency, prediction, |deviation|) floats
    tv_distance: float
    irregularity: _sets.IrregularityReport
    normalized_error: float
    q: int
    n: int
    p_gt_d: bool

    @property
    def irreg(self) -> float:
        return self.irregularity.irreg

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
            "irreg": self.irregularity.irreg,
            "irreg_method": self.irregularity.method,
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
    # first, so that a spectrum past the budget exits before classifying
    rep = _sets.irregularity(S, F.ctx, budget)
    dist = empirical_distribution(F, S, budget=budget, seed=seed)
    pred = prediction_from_group(group)
    total = dist.total
    universe = sorted(set(dist.counts) | set(pred), reverse=True)
    gap = Fraction(0)
    per_type = {}
    for parts in universe:
        fr = dist.frequency(parts)
        pr = pred.get(parts, Fraction(0))
        gap += abs(fr - pr)
        per_type[parts] = (float(fr), float(pr), float(abs(fr - pr)))
    gap += Fraction(dist.non_squarefree + dist.degree_drop, total)
    tv = gap / 2
    q = F.ctx.q
    norm = float(tv) * math.sqrt(q) / rep.irreg
    return ComparisonReport(
        distribution=dist,
        prediction=pred,
        per_type=per_type,
        tv_distance=float(tv),
        irregularity=rep,
        normalized_error=norm,
        q=q,
        n=dimension(S),
        p_gt_d=F.ctx.p > F.deg_t,
    )


# -- restricted character sums ------------------------------------------------------------


@dataclass
class CharSumResult:
    magnitude: float
    weil_ratio: float
    terms: int


def _frequencies(bs, ctx, n):
    """The ``ctx.encodings`` of the tuples bs, once each names a nonzero
    frequency of GF(q)^n (any integers mod p on a prime field, encodings in
    [0, q) on an extension); ZeroFrequencyError for a zero or a wrong length."""
    codes, error = ctx.encodings(bs, n)
    if (zero := np.flatnonzero((codes == 0).all(axis=1))).size:
        raise ZeroFrequencyError(f"frequency {bs[zero[0]]} is zero")
    if isinstance(error, ArityMismatchError):
        raise ZeroFrequencyError(f"frequency needs {n} coordinates, got {len(bs[len(codes)])}")
    if error:
        raise error
    return codes


def restricted_charsum(
    F: MultiPoly,
    parts,
    b,
    *,
    budget: int = DEFAULT_BUDGET,
    seed: int = 0,
) -> CharSumResult:
    """The sum of psi(-a.b) over {a : class(F(t,a)) = parts}: the one row of
    ``weil_sweep(F, parts, [b])``."""
    sweep = weil_sweep(F, parts, [b], budget=budget, seed=seed)
    _, _, mag, ratio = sweep.rows[0]
    return CharSumResult(mag, ratio, sweep.terms)


@dataclass
class WeilSweep:
    max_ratio: float
    rows: list  # (q, b, magnitude, ratio)
    terms: int  # points in the class


def weil_sweep(
    F: MultiPoly,
    parts,
    bs=None,
    *,
    budget: int = DEFAULT_BUDGET,
    seed: int = 0,
) -> WeilSweep:
    """Character-sum magnitudes over a family of nonzero frequencies
    (every nonzero frequency when bs is None), sharing one classification
    pass over the full space.  The parts must sum to deg_t."""
    parts = tuple(sorted(parts, reverse=True))
    ctx = F.ctx
    n = F.n
    if bs is not None:
        bs = [tuple(b) for b in bs]
        freqs = _frequencies(bs, ctx, n)
    codes = _sweep_points(F, _sets.FullSpace(n), budget, seed)
    if sum(parts) != F.deg_t or min(parts) < 1:  # after the budget checks, as exit 3 wins
        raise PartitionMismatchError(f"{parts} is not a partition of deg_t = {F.deg_t}")
    if bs is None:  # the frequencies of F_q^n are its points
        freqs = codes[1:]
        bs = map(tuple, freqs.tolist())
    keys = np.concatenate(list(_mp.spec_keys(F, codes)))
    matches = codes[keys == _gfp.gf_type_key(parts, F.deg_t)]
    sums = _sets.phase_sums(matches, freqs, ctx, n, -1, budget)
    mags = np.concatenate([np.empty(0), *(mag for _, _, mag in sums)])
    ratios = (mags / (float(ctx.q) ** n / math.sqrt(ctx.q))).tolist()
    rows = [(ctx.q, b, mag, r) for b, mag, r in zip(bs, mags.tolist(), ratios)]
    max_ratio = max(ratios, default=0.0)
    return WeilSweep(max_ratio, rows, len(matches))
