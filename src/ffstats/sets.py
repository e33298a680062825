"""Specialization sets S inside F_q^n: enumeration, indicator Fourier
spectra, and the irregularity measure (q^n/|S|) * sum_b |1^_S(b)|.

The Fourier transform convention is
    1^_S(b) = q^(-n) * sum_{a in S} e^(-2*pi*i*tr(a.b)/p),
so the full space has irregularity exactly 1 and a singleton has q^n.
Products of intervals or arithmetic progressions in a prime field factor
coordinate-wise, each factor reduces affinely to an initial interval
{0..H-1}, and the factor magnitudes have the closed form
|sin(pi*H*b/p)| / (p*|sin(pi*b/p)|).  One pass serves every distinct
length: it sums b <= (p-1)/2 only (b and p - b give the same term), takes
each numerator from H*b mod p reduced exactly in int64 (so p < 2^46), and
looks every sine up in one table sin(pi*i/p) while (p-1)/2 < 2^17.

Every spectrum comes from one block kernel, :func:`phase_sums`, on
frequencies given as encodings (``point_codes(FullSpace(n))`` for all of
F_q^n): phases tr(a.b) from the trace form (one integer matmul mod p per
block of frequencies), summed point by point for sets of fewer than p
points, else binned into a table of root-of-unity counts, one row per
F_p-line of frequencies, whose shift, one-slot flag and top count are taken
once; a frequency reads its row permuted, a cyclic shift in the log order
of a generator of F_p^*.  Phases are reduced as x - x // p * p, which numpy
strength-reduces (% divides).  Sums on a single root come back exactly,
which keeps the landmark values (full space, singletons, trace-zero
subgroups) free of floating-point noise, and no reduction goes through
BLAS: the same bits on every machine.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import Counter
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from . import _gfp
from .errors import ArityMismatchError, BudgetExceededError
from .field import FieldCtx, _unity_roots, cyclotomic_invariants, cyclotomic_sums

DEFAULT_BUDGET = 1 << 24

# Phase entries (frequencies x points) and count slots (frequencies x p)
# that the spectrum kernel holds at once.
_PHASE_BLOCK = 1 << 14

# Frequencies b <= (p-1)/2 the interval closed form sums at once.  Up to
# (p-1)/2 < 2^17 there is one block, whose magnitudes come from one sine table.
_INTERVAL_BLOCK = 1 << 17
# Arguments H*b mod p stay exact in int64 while p * 2^17 < 2^63.
_INTERVAL_MAX_P = 1 << 46


# -- descriptors ---------------------------------------------------------------


@dataclass(frozen=True)
class FullSpace:
    """All of F_q^n."""

    n: int


@dataclass(frozen=True)
class APSpec:
    """{alpha*j + beta : j = 0..length-1} inside the prime field."""

    alpha: int = 1
    beta: int = 0
    length: int = 1


@dataclass(frozen=True)
class GridProduct:
    """Cartesian product of 1-D progressions; prime fields only."""

    factors: tuple

    def __init__(self, factors):
        object.__setattr__(self, "factors", tuple(factors))


@dataclass(frozen=True)
class ExplicitSet:
    """A finite list of points, duplicates rejected."""

    points: tuple

    def __init__(self, points):
        object.__setattr__(self, "points", tuple(tuple(p) for p in points))


@dataclass(frozen=True)
class TraceZero:
    """{a in F_q : tr(a) = 0}; an additive subgroup of index p, n = 1."""


def dimension(s) -> int:
    if isinstance(s, FullSpace):
        return s.n
    if isinstance(s, GridProduct):
        return len(s.factors)
    if isinstance(s, ExplicitSet):
        return len(s.points[0]) if s.points else 0
    if isinstance(s, TraceZero):
        return 1
    raise TypeError(f"not a set descriptor: {s!r}")


def validate_set(s, ctx: FieldCtx) -> None:
    if isinstance(s, FullSpace):
        if s.n < 1:
            raise ValueError("dimension must be >= 1")
        return
    if isinstance(s, GridProduct):
        if ctx.k != 1:
            raise ValueError("grid products are defined over prime fields only")
        if not s.factors:
            raise ValueError("grid product needs at least one factor")
        for f in s.factors:
            if f.alpha % ctx.p == 0:
                raise ValueError(f"progression step must be nonzero: {f}")
            if not 1 <= f.length <= ctx.p:
                raise ValueError(f"progression length out of range: {f}")
        return
    if isinstance(s, ExplicitSet):
        if not s.points:
            raise ValueError("explicit set is empty")
        # whole-array passes: lengths, then the range [0, q) on every field
        # (a set lists encodings), then duplicates
        points, n = s.points, len(s.points[0])
        if n < 1:
            raise ValueError("points must have at least one coordinate")
        lengths = np.fromiter(map(len, points), np.int64, len(points))
        if (bad := np.flatnonzero(lengths != n)).size:
            raise ArityMismatchError(f"point {points[bad[0]]} should have {n} coordinates")
        coords = np.fromiter(itertools.chain.from_iterable(points), object, len(points) * n)
        if (bad := np.flatnonzero((coords < 0) | (coords >= ctx.q))).size:
            raise ValueError(f"coordinate out of range in {points[bad[0] // n]}")
        if len(set(points)) < len(points):
            raise ValueError(f"duplicate point {Counter(points).most_common(1)[0][0]}")
        return
    if isinstance(s, TraceZero):
        if ctx.k < 2:
            raise ValueError("trace-zero sets need a proper extension (k > 1)")
        return
    raise TypeError(f"not a set descriptor: {s!r}")


def cardinality(s, ctx: FieldCtx) -> int:
    validate_set(s, ctx)
    return _size(s, ctx)


def _size(s, ctx):
    """|S| of a set already validated."""
    if isinstance(s, FullSpace):
        return ctx.q**s.n
    if isinstance(s, GridProduct):
        out = 1
        for f in s.factors:
            out *= f.length
        return out
    if isinstance(s, ExplicitSet):
        return len(s.points)
    return ctx.q // ctx.p


def enumerate_points(s, ctx: FieldCtx, budget: int = DEFAULT_BUDGET):
    """All points of the set, each exactly once, in a fixed deterministic
    order (lexicographic coordinates / progression index order), as tuples:
    the rows of :func:`point_codes`."""
    validate_set(s, ctx)
    return list(map(tuple, _codes(s, ctx, budget).tolist()))


def point_codes(s, ctx: FieldCtx, budget: int = DEFAULT_BUDGET):
    """The points of the set as an (|S|, n) array of element encodings, in
    the order of :func:`enumerate_points`: int64 while q < 2^62, Python ints
    past it.  The budget is checked before any array is built."""
    validate_set(s, ctx)
    return _codes(s, ctx, budget)


def _codes(s, ctx, budget):
    """:func:`point_codes` of a set already validated; the full space and a
    grid are the Cartesian product of their axes, the last coordinate fastest."""
    size = _size(s, ctx)
    if size > budget:
        raise BudgetExceededError(f"set has {size} points, budget is {budget}")
    if isinstance(s, TraceZero):
        if ctx.q > budget:
            raise BudgetExceededError(f"field has {ctx.q} elements, budget is {budget}")
        # sums of k products below p^2 <= q: exact in int64 for any q within budget
        traces = ctx.decode(np.arange(ctx.q, dtype=np.int64)) @ ctx.trace_form[:, 0] % ctx.p
        return np.flatnonzero(traces == 0)[:, None]
    # an explicit set's codes, read; the other sets' axes take the read's dtype
    codes, _ = ctx.encodings(s.points if isinstance(s, ExplicitSet) else (), dimension(s))
    if isinstance(s, ExplicitSet):
        return codes
    if isinstance(s, FullSpace):
        axes = [np.arange(ctx.q, dtype=codes.dtype)] * s.n
    else:  # (alpha*j + beta) mod p, in the dtype where a product of residues is exact
        p, wide = ctx.p, _gfp.gf_dtype(1, 1, ctx.p)
        axes = [((np.arange(f.length, dtype=wide) * (f.alpha % p) + f.beta % p) % p).astype(codes.dtype)
                for f in s.factors]
    return np.stack(np.meshgrid(*axes, indexing="ij", copy=False), axis=-1).reshape(size, -1)


# -- torus orbits --------------------------------------------------------------


class TorusOrbits:
    """The orbits of c.a = (c^(w_1) a_1, ..., c^(w_n) a_n), c in GF(q)^*, on
    GF(q)^n, the weights (``mpoly.torus_weights``) read mod q - 1.

    Write the nonzero coordinates of a point, its support T, as a_i = g^(e_i)
    for the generator g of :func:`_log_table`: c = g^k moves e_i to
    e_i + k w_i mod q - 1, so the orbit has (q - 1)/gcd(q - 1, w_T) points.
    One point stands for each orbit: for the coordinates i_1 < i_2 < ... of
    T in turn, e_(i_j) is taken mod g_j = gcd(s_j w_(i_j), q - 1), where the
    shifts that fix the coordinates before it are the multiples of s_j:
    s_1 = 1 and s_(j+1) = lcm(s_j, (q - 1)/gcd(w_(i_j), q - 1)).  So a
    support has prod_j g_j representatives.

    The orbits of frequencies are the same: as (c.a).b = a.(c.b), a set A
    that is a union of orbits has the same phases tr(a.b), a in A, at every
    b of an orbit, so its spectrum is read at the representatives and
    spread over their orbits by :meth:`labels`.

    Construction checks the n 2^n entries of the support tables, the q
    entries of the power table and the ``count`` representatives against the
    budget before any of them is built; for q > 2 each is at most q^n."""

    def __init__(self, weights, ctx: FieldCtx, budget: int = DEFAULT_BUDGET):
        n, q = len(weights), ctx.q
        for what, size in (("support-table entries", n << n), ("powers", q)):
            if size > budget:
                raise BudgetExceededError(f"orbits take {size} {what}, budget is {budget}")
        weights = [w % (q - 1) for w in weights]
        # count, without listing the supports: after each coordinate, the
        # representatives of the supports so far, summed by their shift s_j
        # (a divisor of q - 1, so there are few)
        shifts = {1: 1}
        for w in weights:
            step, grown = (q - 1) // math.gcd(w, q - 1), Counter(shifts)
            for s, c in shifts.items():
                grown[math.lcm(s, step)] += c * math.gcd(s * w, q - 1)
            shifts = grown
        self.count = sum(shifts.values())
        if self.count > budget:
            raise BudgetExceededError(f"{self.count} orbit representatives, budget is {budget}")
        self.ctx = ctx
        self.weights = np.array(weights, np.int64)
        # one row per support, bit i of its index for coordinate i: the moduli
        # g_j (1 off the support), then the orbit size, s = (q - 1)/gcd(q - 1, w_T)
        self.inside = np.arange(1 << n)[:, None] >> np.arange(n) & 1 == 1
        self.moduli = np.ones((1 << n, n), np.int64)
        self.sizes = np.ones(1 << n, np.int64)
        for i, w in enumerate(weights):
            on = self.inside[:, i]
            self.moduli[on, i] = np.gcd(self.sizes[on] * w, q - 1)
            self.sizes[on] = np.lcm(self.sizes[on], (q - 1) // math.gcd(w, q - 1))
        self.counts = self.moduli.prod(axis=1)  # each at most count

    def representatives(self):
        """The (count, n) int64 codes of one point per orbit, support by
        support (the exponents in mixed radix, the last coordinate fastest),
        and the size of each one's orbit."""
        power, _ = _log_table(self.ctx.p, self.ctx.tail)
        support = np.repeat(np.arange(len(self.counts)), self.counts)
        moduli = self.moduli[support]
        place = np.cumprod(moduli[:, ::-1], axis=1)[:, ::-1] // moduli
        exps = _ranks(self.counts)[:, None] // place % moduli
        return np.where(self.inside[support], power[exps], 0), self.sizes[support]

    def labels(self, codes, sizes):
        """For every point of GF(q)^n, in the order of ``point_codes`` of the
        full space, the index of the row of codes whose orbit holds it, where
        codes and sizes are :meth:`representatives` (every orbit): one
        scatter of each orbit's points, (e_i + k w_i) for k below its size,
        not a sort, whose SIMD code adds to the RSS."""
        q, n = self.ctx.q, len(self.weights)
        power, log = _log_table(self.ctx.p, self.ctx.tail)
        reps = np.repeat(codes, sizes, axis=0)
        moved = np.where(reps != 0, power[(log[reps] + _ranks(sizes)[:, None] * self.weights) % (q - 1)], 0)
        labels = np.empty(q**n, np.int64)
        labels[moved @ q ** np.arange(n - 1, -1, -1)] = np.repeat(np.arange(len(sizes)), sizes)
        return labels


def _ranks(counts):
    """0, 1, ..., c - 1 for each count c in turn."""
    return np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)


# -- spectra -------------------------------------------------------------------


def _functionals(points, freqs, ctx, n, sign):
    """Power-basis coordinates pts of the points and functionals w of the
    frequencies with sign*tr(a.b) = pts[a] . w[b] mod p, by the trace form:
    integer products below n*k*p^2, exact in int64 for any feasible p."""
    pts, coords = (ctx.decode(np.asarray(r, np.int64).reshape(-1, n)) for r in (points, freqs))
    form = np.kron(np.eye(n, dtype=np.int64), ctx.trace_form)
    return pts.reshape(-1, n * ctx.k), ctx.vec.reduce(sign * (coords.reshape(-1, n * ctx.k) @ form))


def _bin(w, pts, p):
    """Slot counts of the phases pts . w mod p, one row per functional."""
    phases = w @ pts.T
    slots = phases - phases // p * p + p * np.arange(len(w))[:, None]
    return np.bincount(slots.ravel(), minlength=p * len(w)).reshape(len(w), p)


@functools.lru_cache(maxsize=None)
def _log_table(p, tail):
    """Powers g^e, e < q, of the least generator g (by encoding) of GF(q)^*
    for the field whose ``FieldCtx.tail`` is tail (F_p for (0,)), as
    encodings, and the log of each element, log[0] = 0; read-only, as the
    cache shares them.  The powers double in the arithmetic of ``FieldCtx.vec``,
    on the ``gf_dtype`` of a product, and a candidate is dropped at the
    first doubling that meets a 1 before g^(q-1)."""
    vec = _gfp.VecField(p, tail)
    q, digits, dtype = vec.q, p ** np.arange(vec.k), _gfp.gf_dtype(1, vec.k, p)
    one = vec.one.astype(dtype)
    for g in range(1, q):
        base = (g // digits % p).astype(dtype)[:, None]
        coords, step = one, base  # g^0 .. g^(len-1), and g^len
        while coords.shape[1] < q:
            new = vec.mul(coords, step)
            if (new[:, : q - 1 - coords.shape[1]] == one).all(axis=0).any():
                break
            coords = np.concatenate([coords, new], axis=1)
            step = vec.mul(new[:, -1:], base)
        else:  # no 1 before g^(q-1): g generates
            break
    power = (coords * digits[:, None]).sum(axis=0)
    log = np.zeros(q, np.int64)  # a scatter, not np.argsort, whose SIMD sort code adds to the RSS
    log[power[: q - 1]] = np.arange(q - 1)
    power.flags.writeable = log.flags.writeable = False
    return power[:q], log


def _line_table(points, freqs, ctx, n, sign):
    """The (lines, p) slot counts of one rep per F_p-line of frequencies, and
    each frequency's ``line`` and ``rot``.  As tr(a.(l*b)) = l*tr(a.b), each
    w = l*rep (l in F_p^* its first nonzero entry) has counts_w[m] =
    counts_rep[m*inv], inv = 1/l = g^rot with rot = p - 1 - log(l) from
    :func:`_log_table`: its line's row permuted.  The reps are found by
    ``np.unique`` of their base-p digits, and only they are binned."""
    p = ctx.p
    pts, w = _functionals(points, freqs, ctx, n, sign)
    power, log = _log_table(p, (0,))
    lead = w[np.arange(len(w)), (w != 0).argmax(axis=1)]
    rot = p - 1 - log[lead]  # the zero functional (lead 0) is its own line, inv = g^(p-1) = 1
    w = ctx.vec.reduce(w * power[rot][:, None])
    keys = w @ p ** np.arange(w.shape[1])
    _, first, line = np.unique(keys, return_index=True, return_inverse=True)
    step = max(1, _PHASE_BLOCK // max(len(pts), p))
    bins = (_bin(w[first[lo : lo + step]], pts, p) for lo in range(0, len(first), step))
    return np.concatenate([np.empty((0, p), np.int64), *bins]), line, rot


def _gathers(table, line, rot, p):
    """Per block of frequencies, their lines and rows table[line, (inv*m) mod p],
    m = 0..p-1, inv = g^rot.  A ring row holds the table row in log order
    twice, then slot 0: inv*g^d sits at rot + d, so a block is one gather of
    windows at rot and one of columns at log[m], with no index per slot."""
    power, log = _log_table(p, (0,))
    ring = np.take(table, np.concatenate([power[:-1], power[:-1], [0]]), axis=1)
    windows = np.lib.stride_tricks.sliding_window_view(ring[:, :-1], p - 1, axis=1)
    step = max(1, _PHASE_BLOCK // p)
    for lo in range(0, len(line), step):
        rows = line[lo : lo + step]
        # np.take keeps each row contiguous ([:, log] would not): np.add.reduce's order
        block = np.take(windows[rows, rot[lo : lo + step]], log, axis=1)
        block[:, 0] = ring[rows, -1]
        yield rows, block


def phase_counts(points, freqs, ctx: FieldCtx, n: int, sign: int):
    """Yield, for each block of frequencies b in order, the (B, p) slot counts
    of sum_{a in points} psi(sign * a.b), read from :func:`_line_table`."""
    table, line, rot = _line_table(points, freqs, ctx, n, sign)
    yield from (block for _, block in _gathers(table, line, rot, ctx.p))


def phase_sums(points, freqs, ctx: FieldCtx, n: int, sign: int, budget: int = DEFAULT_BUDGET):
    """Yield, for each block of frequencies b in order, the real parts,
    imaginary parts and magnitudes of sum_{a in points} psi(sign * a.b).

    With |S| >= p, :func:`field.cyclotomic_invariants` of the line table of
    :func:`phase_counts` are taken once, and :func:`field.cyclotomic_sums`
    of each frequency's row as :func:`_gathers` reads it.  With |S| < p, the
    sparse path sums cos and sin of each (frequency, point) phase, O(|S|)
    per frequency; as on the histogram path (some slot is empty) a row on
    one root comes back exactly.  Sums are ``np.add.reduce`` along rows,
    never BLAS dot products (whose order depends on the CPU): the bits
    depend on neither the machine nor the ``_PHASE_BLOCK`` boundaries.  On
    the histogram path they depend only on the frequency's count row, so two
    frequencies with the same phase multiset (one torus orbit, for a set of
    whole orbits) get the same bits; the sparse path sums in point order,
    which such frequencies do not share.

    The budget bounds the work before any phase or count is built: f*|S|
    phases for f frequencies on the sparse path; on the histogram path
    |S| phases for each F_p-line binned (at most min(f, (q^n-1)/(p-1) + 1))
    plus p count slots per frequency.
    """
    p, m, f = ctx.p, len(points), len(freqs)
    lines = (ctx.q**n - 1) // (p - 1) + 1
    work = f * m if m < p else min(f, lines) * m + f * p
    if work > budget:
        raise BudgetExceededError(f"spectrum costs {work} ({f} freqs, {m} points), budget {budget}")
    if m >= p:
        table, line, rot = _line_table(points, freqs, ctx, n, sign)
        arr, one, top = cyclotomic_invariants(table.astype(np.float64))  # one cast per line
        del table  # exact in float64; the counts are not read again
        for rows, block in _gathers(arr, line, rot, p):
            yield cyclotomic_sums(block, one[rows], top[rows], p)
        return
    pts, w = _functionals(points, freqs, ctx, n, sign)
    cos, sin = _unity_roots(p)
    step = max(1, _PHASE_BLOCK // max(m, 1))
    for lo in range(0, len(w), step):
        phases = w[lo : lo + step] @ pts.T
        phases -= phases // p * p
        re = np.add.reduce(cos[phases], axis=1)
        im = np.add.reduce(sin[phases], axis=1)
        mag = np.sqrt(re * re + im * im)
        root = phases.min(axis=1, initial=p)
        one = root == phases.max(axis=1, initial=-1)
        re[one], im[one], mag[one] = m * cos[root[one]], m * sin[root[one]], m
        yield re, im, mag


@dataclass
class FourierSpectrum:
    """Dense indicator transform; values keyed by frequency tuples."""

    ctx: FieldCtx
    n: int
    values: dict

    def __getitem__(self, b):
        return self.values[tuple(b)]


def indicator_fourier(s, ctx: FieldCtx, budget: int = DEFAULT_BUDGET) -> FourierSpectrum:
    """Full spectrum of the indicator by direct summation over frequencies."""
    n = dimension(s)
    qn = ctx.q**n
    freqs = point_codes(FullSpace(n), ctx, budget)
    sums = phase_sums(point_codes(s, ctx, budget), freqs, ctx, n, -1, budget)
    pairs = itertools.chain.from_iterable(zip(re.tolist(), im.tolist()) for re, im, _ in sums)
    values = {b: complex(re, im) / qn for b, (re, im) in zip(map(tuple, freqs.tolist()), pairs)}
    return FourierSpectrum(ctx, n, values)


# -- irregularity ----------------------------------------------------------------


@dataclass(frozen=True)
class IrregularityReport:
    irreg: float
    method: str
    bound_9plogp: float | None
    cardinality: int

    def to_json_dict(self):
        return {
            "irreg": self.irreg,
            "method": self.method,
            "bound_9plogp": self.bound_9plogp,
            "cardinality": self.cardinality,
        }


def interval_irreg_bound(p: int, H: int) -> float:
    """The 9*p*log(p)/H envelope for a length-H progression (natural log)."""
    if not 1 <= H <= p:
        raise ValueError(f"need 1 <= H <= p, got H={H}, p={p}")
    return 9.0 * p * math.log(p) / H


@functools.lru_cache(maxsize=None)
def _interval_irreg(p: int, lengths: tuple) -> MappingProxyType:
    """Exact irregularity of {0..H-1} in F_p via the sine closed form, for
    each H of the sorted tuple of distinct lengths, as {H: irreg}.

    The magnitude at b is sin(pi*r/p) / (p*sin(pi*b/p)) with r = H*b mod p
    folded to min(r, p - r), so every sine argument lies in [0, pi/2] and
    the term for p - b is the term for b, bit for bit: only b <= (p-1)/2 is
    summed.  Within a block starting at lo, r = (H*lo mod p) + H*j for
    j < _INTERVAL_BLOCK = 2^17 is exact in int64 while p < 2^46; past that
    the closed form is refused before anything is allocated.  When (p-1)/2
    fits in one block, one table sin(pi*i/p), i <= (p-1)/2, serves every
    numerator and denominator; otherwise each block takes its own sines."""
    out = {H: 1.0 if H == p else float(p) for H in lengths if H in (1, p)}
    inner = [H for H in lengths if 1 < H < p]
    if not inner:
        return MappingProxyType(out)
    if p >= _INTERVAL_MAX_P:
        raise BudgetExceededError(f"closed form needs p < 2^46 for exact arguments, got {p}")
    half = (p - 1) // 2
    table = np.sin(np.pi / p * np.arange(half + 1)) if half < _INTERVAL_BLOCK else None
    sums = {H: [] for H in inner}
    for lo in range(1, half + 1, _INTERVAL_BLOCK):
        b = np.arange(lo, min(lo + _INTERVAL_BLOCK, half + 1))
        den = p * (np.sin(np.pi / p * b) if table is None else table[b])
        j = b - lo
        for H in inner:
            r = H * j + H * lo % p
            r -= r // p * p  # numpy strength-reduces // by a scalar, not %
            r = np.minimum(r, p - r)
            num = np.sin(np.pi / p * r) if table is None else table[r]
            sums[H].append(float((num / den).sum()))
    for H in inner:
        out[H] = p / H * (H / p + 2 * math.fsum(sums[H]))
    return MappingProxyType(out)  # read-only: the cache hands it to every caller


def irregularity(s, ctx: FieldCtx, budget: int = DEFAULT_BUDGET) -> IrregularityReport:
    """Exact irregularity with the method recorded.

    Grid products (and the full space over a prime field, a grid of full
    intervals) go through the per-coordinate closed form after the affine
    reduction of each progression; everything else is a dense transform.
    One pass of :func:`_interval_irreg` serves every distinct length: it
    folds b <-> p - b, reduces each sine argument exactly (p < 2^46, else
    a budget error) and, for (p-1)/2 < 2^17, looks every sine up in one
    table.  It is charged p - 1 terms for each distinct length 1 < H < p,
    against the budget before any of them is built.  The set is validated
    once.
    """
    validate_set(s, ctx)
    return _irregularity(s, ctx, budget)


def _irregularity(s, ctx, budget):
    """:func:`irregularity` of a set already validated."""
    size = _size(s, ctx)
    if isinstance(s, GridProduct) or (isinstance(s, FullSpace) and ctx.k == 1):
        if isinstance(s, GridProduct):
            lengths = [f.length for f in s.factors]
        else:
            lengths = [ctx.p] * s.n
        work = (ctx.p - 1) * len({H for H in lengths if 1 < H < ctx.p})
        if work > budget:
            raise BudgetExceededError(f"closed form sums {work} terms, budget is {budget}")
        values = _interval_irreg(ctx.p, tuple(sorted(set(lengths))))
        irreg = 1.0
        bound = 1.0
        for H in lengths:
            irreg *= values[H]
            bound *= interval_irreg_bound(ctx.p, H)
        method = "closed_form_interval" if len(lengths) == 1 else "product_1d"
        return IrregularityReport(irreg, method, bound, size)
    n = dimension(s)
    pts = _codes(s, ctx, budget)
    if ctx.q**n > budget:
        raise BudgetExceededError(f"{ctx.q**n} frequencies exceed the budget {budget}")
    # fsum is correctly rounded: the total does not depend on the blocks
    sums = phase_sums(pts, _codes(FullSpace(n), ctx, budget), ctx, n, -1, budget)
    total = math.fsum(itertools.chain.from_iterable(mag.tolist() for _, _, mag in sums))
    return IrregularityReport(total / size, "exact_dft", None, size)


# -- correlation identity ----------------------------------------------------------


def verify_plancherel_decomposition(
    s, d_points, ctx: FieldCtx, budget: int = DEFAULT_BUDGET
) -> float:
    """Residual of the exact intersection identity

        |S n D| = |S||D|/q^n + sum_{b != 0} 1^_S(b) * sum_{a in D} psi(a.b).

    Both sides work on codes, D (a list, repeats counted) read by
    ``ctx.encodings``: the left side counts the codes of D in S, the right
    side pairs the ``phase_sums`` of S (minus sign, over q^n) with those of
    D (plus sign, which makes the b-sum collapse onto the intersection)
    over the nonzero rows of ``point_codes(FullSpace(n))``.  Anything above
    ~1e-12 per point indicates a normalization bug.
    """
    n = dimension(s)
    d_codes, error = ctx.encodings(list(d_points), n)
    if error:
        raise error
    nonzero = point_codes(FullSpace(n), ctx, budget)[1:]
    s_codes = point_codes(s, ctx, budget)
    in_s = set(map(tuple, s_codes.tolist()))
    lhs = sum(tuple(a) in in_s for a in d_codes.tolist())
    s_sums, d_sums = (
        np.concatenate([re + 1j * im for re, im, _ in phase_sums(pts, nonzero, ctx, n, sign, budget)])
        for pts, sign in ((s_codes, -1), (d_codes, +1))
    )
    rhs = (len(s_codes) * len(d_codes) + (s_sums * d_sums).sum()) / ctx.q**n
    return abs(lhs - rhs)


# -- text formats --------------------------------------------------------------------


def split_top_level(text: str, sep: str = ","):
    """Split on separators not nested inside () or []."""
    out, depth, cur = [], 0, []
    for ch in text:
        depth += (ch in "([") - (ch in ")]")
        if ch == sep and depth == 0:
            out.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    out.append("".join(cur))
    return out


def parse_element_literal(text: str, ctx: FieldCtx) -> int:
    """An element literal: an integer, or bracketed coordinates [c0,c1,...]."""
    text = text.strip()
    if text.startswith("["):
        if not text.endswith("]"):
            raise ValueError(f"unterminated coordinate vector: {text!r}")
        coords = [int(c) for c in text[1:-1].split(",")]
        return ctx.from_coords(coords)
    return ctx.from_int(int(text))


def parse_point(text: str, ctx: FieldCtx):
    return tuple(parse_element_literal(c, ctx) for c in split_top_level(text))


def load_points_file(path: str, ctx: FieldCtx) -> ExplicitSet:
    """One point per line, comma-separated element literals; '#' comments.
    Plain integers are ``int(c) % p``; a line with any other literal goes to
    :func:`parse_point`, which reads it or raises the parser's error."""
    p, points = ctx.p, []
    with open(path, encoding="utf-8") as fh:
        for line in map(str.strip, fh):
            if line and not line.startswith("#"):
                try:
                    points.append(tuple([int(c) % p for c in line.split(",")]))
                except ValueError:
                    points.append(parse_point(line, ctx))
    return ExplicitSet(points)


def parse_set(text: str, ctx: FieldCtx, n: int | None = None):
    """Set grammar: ``full`` | ``grid:SPEC(,SPEC)*`` with SPEC one of
    ``int(beta,H)`` or ``ap(alpha,beta,H)`` | ``tracezero`` | ``file:PATH``.
    n is the dimension of ``full``; every other set carries its own, which
    the statistics pair with F."""
    text = text.strip()
    if text == "full":
        if n is None or n < 1:
            raise ValueError("'full' needs the parameter count n")
        return FullSpace(n)
    if text == "tracezero":
        return TraceZero()
    if text.startswith("grid:"):
        factors = []
        for chunk in split_top_level(text[len("grid:"):]):
            chunk = chunk.strip()
            if chunk.startswith("int(") and chunk.endswith(")"):
                args = [int(a) for a in chunk[4:-1].split(",")]
                if len(args) != 2:
                    raise ValueError(f"int(beta,H) takes 2 arguments: {chunk!r}")
                factors.append(APSpec(1, args[0], args[1]))
            elif chunk.startswith("ap(") and chunk.endswith(")"):
                args = [int(a) for a in chunk[3:-1].split(",")]
                if len(args) != 3:
                    raise ValueError(f"ap(alpha,beta,H) takes 3 arguments: {chunk!r}")
                factors.append(APSpec(args[0], args[1], args[2]))
            else:
                raise ValueError(f"bad grid factor {chunk!r}")
        return GridProduct(factors)
    if text.startswith("file:"):
        return load_points_file(text[len("file:"):], ctx)
    raise ValueError(f"unrecognized set descriptor {text!r}")
