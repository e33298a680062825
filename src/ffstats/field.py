"""Exact arithmetic in GF(p^k) and the additive-character plumbing.

A :class:`FieldCtx` fixes the prime p, the extension degree k and a monic
irreducible modulus of degree k over GF(p) (prime fields need none).
Elements are encoded as integers in [0, q): an element with coordinates
(c0, ..., c_{k-1}) in the power basis 1, x, ..., x^{k-1} is stored as
c0 + c1*p + ... + c_{k-1}*p^(k-1), so for k == 1 the encoding is the
residue itself.  Contexts are immutable after construction and safe to
share between threads; elements are plain ints.

``ctx.red`` is what the polynomial kernels of :mod:`ffstats._gfp` take as
their modulus: the prime itself, or for k > 1 the field's packed-integer
reducer.  ``ctx.pack`` and ``ctx.unpack`` carry one element into and out of
the kernels' form (the identity on a prime field), and all arithmetic goes
through ``red``: ``add``, ``sub`` and ``mul`` apply ``+``, ``-`` or ``*`` to
packed operands and reduce with ``% red``, ``pow`` and ``inv`` are the
``_gfp`` kernels ``gf_pow`` and ``gf_inv``.

``ctx.vec`` is what the batched classifier takes instead: a
:class:`_gfp.VecField` holding the multiplication tensor T[i, j] =
coords(x^(i+j)), built once per context, and ``ctx.coordinates`` reads a
block of points into the int64 coordinate arrays it works on.

The trace is the F_p-bilinear trace form M_ij = tr(x^(i+j)), built once per
context: tr(a*b) = coords(a)^T M coords(b) mod p, so tr(a) is coords(a)
against the first column of M, and a prime field is the case M = [[1]].

Character sums psi(u) = e^(2*pi*i*tr(u)/p) are never evaluated in floating
point inside loops.  Instead each term increments an integer slot of a
:class:`CyclotomicSum` (slot j holds the coefficient of e^(2*pi*i*j/p)) and
the complex magnitude is taken once at the end.  Adding a constant to every
slot leaves the represented number unchanged, since the p-th roots of unity
sum to zero; the evaluation exploits this to return sums supported on at
most one root exactly, without any trigonometry.
"""

from __future__ import annotations

import functools
import math
import random

import numpy as np

from . import _gfp
from .errors import DegreeMismatchError, NotPrimeError, ReducibleModulusError

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; the base set is exact for 64-bit inputs."""
    if n < 2:
        return False
    for b in _MR_BASES:
        if n == b:
            return True
        if n % b == 0:
            return False
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@functools.lru_cache(maxsize=None)
def _unity_roots(p: int):
    ang = 2.0 * np.pi * np.arange(p) / p
    return np.cos(ang), np.sin(ang)


def cyclotomic_magnitude(counts, p: int) -> float:
    """|sum_j counts[j] * e^(2*pi*i*j/p)| for an integer count vector.

    Shifts off the minimum first (a constant vector represents zero); sums
    left supported on at most one slot come back exactly, everything else
    is evaluated in double precision.
    """
    arr = np.asarray(counts, dtype=np.int64)
    arr = arr - arr.min()
    nz = np.flatnonzero(arr)
    if nz.size == 0:
        return 0.0
    if nz.size == 1:
        return float(arr[nz[0]])
    cos, sin = _unity_roots(p)
    af = arr.astype(float)
    return math.hypot(float(af @ cos), float(af @ sin))


class CyclotomicSum:
    """Exact integer combination of the p-th roots of unity."""

    __slots__ = ("p", "counts")

    def __init__(self, p: int, counts=None):
        if counts is None:
            counts = [0] * p
        else:
            counts = [int(c) for c in counts]
            if len(counts) != p:
                raise DegreeMismatchError(f"expected {p} slots, got {len(counts)}")
        self.p = p
        self.counts = counts

    def add_root(self, j: int, weight: int = 1) -> None:
        self.counts[j % self.p] += weight

    def merge(self, other: "CyclotomicSum") -> "CyclotomicSum":
        """Slot-wise addition; associative, so shard partials combine in any
        grouping with the same result."""
        if other.p != self.p:
            raise DegreeMismatchError("cannot merge sums over different roots")
        self.counts = [a + b for a, b in zip(self.counts, other.counts)]
        return self

    def value(self) -> complex:
        cos, sin = _unity_roots(self.p)
        arr = np.asarray(self.counts, dtype=float)
        return complex(float(arr @ cos), float(arr @ sin))

    def magnitude(self) -> float:
        return cyclotomic_magnitude(self.counts, self.p)

    def __repr__(self):
        return f"CyclotomicSum(p={self.p}, counts={self.counts!r})"


def _poly_str(coeffs, var="x"):
    parts = []
    for i in range(len(coeffs) - 1, -1, -1):
        c = coeffs[i]
        if not c:
            continue
        if i == 0:
            parts.append(str(c))
        else:
            mono = var if i == 1 else f"{var}^{i}"
            parts.append(mono if c == 1 else f"{c}*{mono}")
    return " + ".join(parts) if parts else "0"


class FieldCtx:
    """Immutable description of GF(p^k); elements are ints in [0, q)."""

    __slots__ = ("p", "k", "q", "modulus", "red", "trace_form", "vec")

    def __init__(self, p: int, k: int = 1, modulus=None, seed: int = 0):
        if not isinstance(p, int) or not is_prime(p):
            raise NotPrimeError(f"characteristic {p} is not prime")
        if not isinstance(k, int) or k < 1:
            raise DegreeMismatchError(f"extension degree {k} must be >= 1")
        self.p = p
        self.k = k
        self.q = p**k
        if k == 1:
            if modulus is not None:
                raise DegreeMismatchError("a prime field takes no modulus")
            self.modulus = None
            self.red = p
        else:
            if modulus is None:
                mod = self._random_irreducible(p, k, seed)
            else:
                mod = [c % p for c in modulus]
                if len(mod) != k + 1 or mod[-1] != 1:
                    raise DegreeMismatchError(
                        f"modulus must be monic of degree {k}, got {_poly_str(mod)}"
                    )
                if _gfp.gf_spec_type(mod, p, p) != (k,):
                    raise ReducibleModulusError(
                        f"{_poly_str(mod)} is reducible over GF({p})"
                    )
            self.modulus = tuple(mod)
            self.red = _gfp.Packed(p, mod)
        # Trace form M_ij = tr(x^(i+j)); the integer p encodes x when k > 1.
        powers = [1]
        for _ in range(2 * k - 2):
            powers.append(self.mul(powers[-1], p))
        traces = [self._trace_raw(a) for a in powers]
        form = np.array([traces[i : i + k] for i in range(k)], dtype=np.int64)
        form.flags.writeable = False
        self.trace_form = form
        # The batched kernels' arithmetic: the multiplication tensor
        # T[i, j] = coords(x^(i+j)), read-only, built once per context.
        self.vec = _gfp.VecField(p, self.red.tail if k > 1 else ())

    @staticmethod
    def _random_irreducible(p, k, seed):
        # Rejection sampling; about one in k monic candidates is irreducible.
        rng = random.Random(seed)
        while True:
            cand = [rng.randrange(p) for _ in range(k)] + [1]
            if _gfp.gf_spec_type(cand, p, p) == (k,):
                return cand

    # -- element encoding -------------------------------------------------

    def coords(self, a: int):
        """Coordinate vector of an element in the power basis, length k."""
        p = self.p
        out = []
        for _ in range(self.k):
            out.append(a % p)
            a //= p
        return tuple(out)

    def from_coords(self, cs) -> int:
        if len(cs) != self.k:
            raise DegreeMismatchError(
                f"expected {self.k} coordinates, got {len(cs)}"
            )
        a = 0
        for c in reversed(list(cs)):
            a = a * self.p + (c % self.p)
        return a

    def from_int(self, c: int) -> int:
        """Embed an integer via the prime subfield."""
        return c % self.p

    def elements(self):
        return range(self.q)

    def random_element(self, rng: random.Random) -> int:
        return rng.randrange(self.q)

    def coordinates(self, points, n: int):
        """Power-basis coordinates of the leading points that have n
        coordinates, each naming an element, as an (m, n, k) int64 array; the
        point at index m, if there is one, is the first that does not.  On a
        prime field every integer names its residue mod p; on an extension
        only an encoding in [0, q) names an element.  Needs q < 2^63."""
        p, k, q = self.p, self.k, self.q
        if k == 1:
            m = next((i for i, a in enumerate(points) if len(a) != n), len(points))
            flat = np.fromiter((x % p for a in points[:m] for x in a), np.int64, m * n)
            return flat.reshape(m, n, 1)
        m = next(
            (i for i, a in enumerate(points) if len(a) != n or not all(0 <= x < q for x in a)),
            len(points),
        )
        flat = np.fromiter((x for a in points[:m] for x in a), np.int64, m * n)
        places = p ** np.arange(k, dtype=np.int64)
        return (flat[:, None] // places % p).reshape(m, n, k)

    # -- arithmetic: the kernels' form, reduced by ``red`` -------------------

    def pack(self, a: int) -> int:
        """Kernel form of an element: the residue itself on a prime field,
        the packed int of ``red`` on an extension."""
        return a if self.k == 1 else self.red.pack(a)

    def unpack(self, x: int) -> int:
        """Encoding of a reduced element in kernel form."""
        return x if self.k == 1 else self.red.unpack(x)

    def add(self, a: int, b: int) -> int:
        return self.unpack((self.pack(a) + self.pack(b)) % self.red)

    def sub(self, a: int, b: int) -> int:
        return self.unpack((self.pack(a) - self.pack(b)) % self.red)

    def neg(self, a: int) -> int:
        return self.sub(0, a)

    def mul(self, a: int, b: int) -> int:
        return self.unpack(self.pack(a) * self.pack(b) % self.red)

    def pow(self, a: int, e: int) -> int:
        if e < 0:
            raise ValueError("exponent must be nonnegative")
        return self.unpack(_gfp.gf_pow(self.pack(a), e, self.red))

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of zero field element")
        return self.unpack(_gfp.gf_inv(self.pack(a), self.red))

    # -- trace and character ------------------------------------------------

    def _trace_raw(self, a: int) -> int:
        # tr(a) = a + a^p + ... + a^(p^(k-1)); lands in the prime subfield,
        # whose elements encode as their residue.
        s = a
        t = a
        for _ in range(self.k - 1):
            t = self.pow(t, self.p)
            s = self.add(s, t)
        return s

    def trace(self, a: int) -> int:
        """Trace down to GF(p), returned as an integer residue in [0, p):
        tr(a) = tr(a * 1) = coords(a) . M[:, 0] mod p."""
        column = self.trace_form[:, 0].tolist()
        return sum(c * m for c, m in zip(self.coords(a), column)) % self.p

    def psi_index(self, a: int) -> int:
        """Slot index j of psi(a) = e^(2*pi*i*j/p), i.e. the trace of a."""
        return self.trace(a)

    # -- misc ----------------------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, FieldCtx)
            and (self.p, self.k, self.modulus) == (other.p, other.k, other.modulus)
        )

    def __hash__(self):
        return hash((self.p, self.k, self.modulus))

    def __repr__(self):
        if self.k == 1:
            return f"FieldCtx(p={self.p})"
        return f"FieldCtx(p={self.p}, k={self.k}, modulus={_poly_str(self.modulus)})"
