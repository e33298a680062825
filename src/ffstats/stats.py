"""Factorization-class statistics over a specialization set.

Empirical side: classify F(t, a) for every a in S (``mpoly.spec_keys`` of
``sets.point_codes``) and tally the factor-degree multisets, with separate
buckets for degree drops and repeated factors.  When S is the full space
and F is weighted-homogeneous, F(c^L t, c^w a) = c^D F(t, a) with the
integers of ``mpoly.torus_weights``, so every class and both buckets are
unions of the orbits a -> (c^(w_1) a_1, ..., c^(w_n) a_n), c != 0.  When
some w_i is nonzero mod q - 1, so that some orbit has more than one point,
one point per orbit (``sets.TorusOrbits``) is classified and tallied with
its orbit size as an integer weight, and the budget charges the orbits,
not the q^n points.
Predicted side: either the random-permutation cycle-type law gamma, or the
density nu*|C n pi^-1(target)|/|G| read off an explicitly listed permutation
group whose elements carry labels in Z/nu (label 1 marks the coset the
statistics concentrate on; nu = 1 admits every element).

The comparison report normalizes the total-variation gap by sqrt(q)/irreg(S),
the scale on which a well-distributed set keeps the gap bounded.  Restricted
character sums over {a : class(F(t,a)) = lambda} come from ``sets.phase_sums``
and are reported with their magnitude / q^(n - 1/2) ratio; on the orbit
path each point takes the key of its orbit's representative, and a sweep
over every frequency takes one frequency per orbit.  Every statistic first
pairs F with S (:func:`_require_paired`), the one check of S it makes.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import _gfp
from . import mpoly as _mp
from . import sets as _sets
from .errors import (
    DEFAULT_BUDGET,
    ArityMismatchError,
    DegreeMismatchError,
    InvalidGroupError,
    PartitionMismatchError,
    ZeroFrequencyError,
    charge,
)
from .mpoly import MultiPoly
from .sets import dimension

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
    error = ValueError(f"cycle-type parts must be positive integers: {text!r}")
    try:
        parts = tuple(sorted((int(x) for x in body.split(",") if x.strip()), reverse=True))
    except ValueError:
        raise error from None
    if any(x < 1 for x in parts):
        raise error
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
    surjective homomorphism onto Z/nu and the identity labelled 0, a check
    of |G|^2 d entries charged before it runs."""

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
    def explicit(cls, d: int, nu: int, elements, budget: int = DEFAULT_BUDGET) -> "GroupSpec":
        if d < 1 or nu < 1:
            raise InvalidGroupError("degree and nu must be >= 1")
        elems = tuple((tuple(perm), int(label) % nu) for perm, label in elements)
        work = len(elems) ** 2 * d
        charge(work, budget, f"group check composes {work} entries ({len(elems)} elements of degree {d})")
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
    def from_file(cls, path: str, budget: int = DEFAULT_BUDGET) -> "GroupSpec":
        """Header ``d=<int> nu=<int>``, then one line per element: the images
        of 1..d in one-line notation, a ``|``, and the label.  Lines whose
        first non-blank character is ``#`` are comments."""
        with open(path, encoding="utf-8") as fh:
            lines = [ln for ln in map(str.strip, fh) if ln and not ln.startswith("#")]
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
            try:
                images, label = [int(x) for x in left.split()], int(right)
            except ValueError as exc:
                raise InvalidGroupError(f"element line needs integers: {ln!r}") from exc
            if sorted(images) != list(range(1, d + 1)):
                raise InvalidGroupError(f"not a permutation of 1..{d}: {ln!r}")
            elements.append((tuple(x - 1 for x in images), label))
        return cls.explicit(d, nu, elements, budget)


def cyclic_shift_group(d: int, budget: int = DEFAULT_BUDGET) -> GroupSpec:
    """The order-d group generated by the d-cycle, labels all zero (nu=1):
    its d^2 entries are charged before they are listed, and the shifts of
    Z/d are a group by construction, so nothing is composed."""
    if d < 1:
        raise InvalidGroupError("degree and nu must be >= 1")
    charge(d * d, budget, f"cyclic group lists {d * d} entries")
    return GroupSpec(d, "explicit", 1, tuple((tuple((i + s) % d for i in range(d)), 0) for s in range(d)))


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


def _require_paired(F: MultiPoly, S) -> None:
    """The one check, before any other work, that S is a valid set of the
    dimension n of F; else the set's error or ArityMismatchError."""
    _sets.validate_set(S, F.ctx)
    if dimension(S) != F.n:
        raise ArityMismatchError(f"the set has dimension {dimension(S)} but F has n={F.n} parameters")


def _sweep_points(F: MultiPoly, S, budget):
    """The rows to classify for S, how many points of S each stands for, and
    the ``sets.TorusOrbits`` they represent (None when each is one point).
    For the full space of a weighted-homogeneous F (``mpoly.torus_weights``)
    with a weight nonzero mod q - 1 these are one representative per orbit
    and its orbit size, so q^n is never charged; otherwise ``sets.point_codes``
    of S, one point each.  S is one already paired with F
    (:func:`_require_paired`); the budget checks (of the set or the orbits,
    then the rank stack of one block) run before admissibility, and on the
    orbit path before any row is built."""
    q, n = F.ctx.q, F.n
    # past q or n 2^n the orbit tables do not fit, and for q > 2 neither do the
    # q^n points: the point path refuses them before the weights are solved
    orbital = S == _sets.FullSpace(n) and 2 < q and max(q, n << n) <= budget
    torus = _mp.torus_weights(F) if orbital else None
    if torus is None or not any(w % (q - 1) for w in torus[1]):  # else every orbit is one point
        codes = S.codes(F.ctx, budget)
        _mp.require_dense_budget(F, budget, len(codes))
        _mp.require_classifiable(F, budget)
        return codes, np.broadcast_to(np.int64(1), len(codes)), None
    orbits = _sets.TorusOrbits(torus[1], F.ctx, budget)
    _mp.require_dense_budget(F, budget, orbits.count)
    _mp.require_classifiable(F, budget)
    return *orbits.representatives(), orbits


def empirical_distribution(
    F: MultiPoly,
    S,
    *,
    budget: int = DEFAULT_BUDGET,
) -> ClassDistribution:
    """Classify S in one in-order pass of ``mpoly.spec_keys`` over the rows
    of :func:`_sweep_points`: one point per torus orbit, weighted by its
    orbit size, for the full space of a weighted-homogeneous F whose orbits
    are not all single points, else every point, weight 1.  Each distinct
    key of a block adds up its rows' weights in one int64 pass over the
    keys' places among ``np.unique``'s values (never as float weights: q^n
    may pass 2^53), and each distinct key is decoded once."""
    _require_paired(F, S)
    return _distribution(F, S, budget)


def _distribution(F, S, budget):
    """:func:`empirical_distribution` of an S already paired with F."""
    codes, weights, _ = _sweep_points(F, S, budget)
    tally, at = Counter(), 0
    for keys in _mp.spec_keys(F, codes):
        w = weights[at : at + len(keys)]
        at += len(keys)
        # return_counts keeps np.unique on its sort path (its hash path, for
        # the values alone, peaks about 0.15 MB higher over the prime-dist
        # jobs); its inverse would take an argsort, several times this search
        values = np.unique(keys, return_counts=True)[0]
        sums = np.zeros(len(values), np.int64)
        np.add.at(sums, np.searchsorted(values, keys), w)
        tally.update(dict(zip(values.tolist(), sums.tolist())))
    counts = {_gfp.gf_key_type(key, F.deg_t): c for key, c in tally.items()}
    return ClassDistribution(
        counts,
        counts.pop(_gfp.NON_SQUAREFREE, 0),
        counts.pop(_gfp.DEGREE_DROP, 0),
        sum(tally.values()),
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
) -> ComparisonReport:
    """Empirical distribution vs. group prediction, with the total-variation
    gap and its sqrt(q)/irreg normalization.

    Degree drops and repeated-factor points count fully against the
    prediction (they sit in S but in no class), so tv_distance is
    (1/2) * [sum_lambda |freq - prob| + freq_exceptional].  S is paired with
    F first; a group acting on other than deg_t letters is a DegreeMismatchError.
    """
    _require_paired(F, S)
    if group.d != F.deg_t:
        raise DegreeMismatchError(
            f"group acts on {group.d} letters but F has degree {F.deg_t} in t"
        )
    # first, so that a spectrum past the budget exits before classifying
    rep = _sets._irregularity(S, F.ctx, budget)
    dist = _distribution(F, S, budget)
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
        n=F.n,
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
) -> CharSumResult:
    """The sum of psi(-a.b) over {a : class(F(t,a)) = parts}: the one row of
    ``weil_sweep(F, parts, [b])``."""
    sweep = weil_sweep(F, parts, [b], budget=budget)
    return CharSumResult(sweep.magnitudes[0], sweep.ratios[0], sweep.terms)


def nonzero_frequencies(symbols, n):
    """Every nonzero frequency of GF(q)^n, spelled with symbols[c] for the
    encoding c (symbols lists all q), in the order of ``sets.point_codes``
    of the full space: the last coordinate fastest, zero skipped."""
    return itertools.islice(itertools.product(symbols, repeat=n), 1, None)


@dataclass
class WeilSweep:
    max_ratio: float
    magnitudes: list  # one per frequency, in order
    ratios: list  # magnitude / q^(n - 1/2)
    terms: int  # points in the class
    q: int
    n: int
    bs: list | None  # the frequency tuples; None for every nonzero one

    @property
    def rows(self):
        """(q, b, magnitude, ratio) for each frequency b in order."""
        bs = nonzero_frequencies(range(self.q), self.n) if self.bs is None else self.bs
        return list(zip(itertools.repeat(self.q), bs, self.magnitudes, self.ratios))


def weil_sweep(
    F: MultiPoly,
    parts,
    bs=None,
    *,
    budget: int = DEFAULT_BUDGET,
) -> WeilSweep:
    """Character-sum magnitudes over a family of nonzero frequencies
    (every nonzero frequency when bs is None, in :func:`nonzero_frequencies`
    order), sharing one classification pass over the full space.  The parts
    must sum to deg_t.

    The q^n points (and frequencies) are charged first.  The pass classifies
    the rows of :func:`_sweep_points`; on the orbit path each point of
    ``sets.point_codes`` of the full space takes its representative's key
    through ``sets.TorusOrbits.labels``, so the matches are selected from
    the same array on both paths, and every bit of ``sets.phase_sums`` is
    the same.

    Every frequency of an orbit then sees the same phases, so on the orbit
    path with bs None the spectrum is taken at the nonzero representatives
    alone (one frequency per orbit, charged as such) and spread to their
    orbits by the same labels.  Only for a class of at least p points, whose
    ``phase_sums`` bits depend on the phases alone: its sparse path sums in
    point order, which differs inside an orbit (by 1 ulp for ``t^2 + A1^3``
    over GF(13)), so a smaller class sweeps every frequency."""
    parts = tuple(sorted(parts, reverse=True))
    ctx = F.ctx
    n = F.n
    if bs is not None:
        bs = [tuple(b) for b in bs]
        freqs = _frequencies(bs, ctx, n)
    charge(ctx.q**n, budget, f"{ctx.q**n} points of the full space")
    full = _sets.FullSpace(n)
    _require_paired(F, full)
    codes, _, orbits = _sweep_points(F, full, budget)
    if sum(parts) != F.deg_t or min(parts) < 1:  # after the budget checks, as exit 3 wins
        raise PartitionMismatchError(f"{parts} is not a partition of deg_t = {F.deg_t}")
    keys = np.concatenate(list(_mp.spec_keys(F, codes)))
    points = codes
    if orbits is not None:  # each point takes its representative's key
        labels = orbits.labels()
        keys, points = keys[labels], full.codes(ctx, budget)
    matches = points[keys == _gfp.gf_type_key(parts, F.deg_t)]
    dual = bs is None and orbits is not None and len(matches) >= ctx.p
    if bs is None:  # the frequencies of F_q^n are its points; representatives stand for their orbits
        freqs = (codes if dual else points)[1:]
    sums = _sets.phase_sums(matches, freqs, ctx, budget)
    mags = np.concatenate([np.empty(0), *(mag for _, _, mag in sums)])
    if dual:  # the zero point is the zero representative's orbit, row 0 of both
        mags = mags[labels[1:] - 1]
    ratios = mags / (float(ctx.q) ** n / math.sqrt(ctx.q))
    return WeilSweep(float(ratios.max(initial=0.0)), mags.tolist(), ratios.tolist(), len(matches), ctx.q, n, bs)
