"""Exact arithmetic in GF(p^k) and the additive-character plumbing.

A :class:`FieldCtx` fixes the prime p, the extension degree k and a monic
irreducible modulus of degree k over GF(p) (prime fields need none).
Elements are encoded as integers in [0, q): an element with coordinates
(c0, ..., c_{k-1}) in the power basis 1, x, ..., x^{k-1} is stored as
c0 + c1*p + ... + c_{k-1}*p^(k-1), so for k == 1 the encoding is the
residue itself.  Contexts are immutable after construction and safe to
share between threads; elements are plain ints.

The scalar operations have one definition for every field: a prime field
is the case k = 1 with modulus x.  ``ctx.tail`` holds the coordinates of
x^k mod the modulus; ``add``, ``sub`` and ``neg`` act on coordinates,
``mul`` is a schoolbook product of coordinates reduced by ``tail`` from the
top, ``pow`` squares and multiplies and ``inv(a)`` is a^(q-2).  Each reads
its operands through ``coords``, which refuses on an extension an encoding
outside [0, q).  The list kernels of :mod:`ffstats._gfp` take the context
itself and touch coefficients only through these operations.

``ctx.vec`` is what the batched kernels take instead: a
:class:`_gfp.VecField` built from the same ``tail``, holding the
multiplication tensor T[i, j] = coords(x^(i+j)), built once per context.
Points reach it as arrays of element encodings: ``sets.point_codes`` of a
set, or ``ctx.encodings``, the one reader of caller-supplied points (their
arity, range, error and dtype; ``ctx.coefficients`` reads coefficients
through it, one value a row), and ``ctx.decode``, the one base-p digit
split of an array of encodings, turns each block into the coordinate arrays
the kernels work on.

The trace is the F_p-bilinear trace form M_ij = tr(x^(i+j)), derived once per
context from T: tr(a*b) = coords(a)^T M coords(b) mod p, so tr(a) is
coords(a) against the first column of M, and a prime field is the case
M = [[1]].

Character sums psi(u) = e^(2*pi*i*tr(u)/p) are never evaluated in floating
point inside loops.  On the histogram path of ``sets.phase_sums`` a block of
them arrives here as integer count vectors (slot j holds the coefficient of
e^(2*pi*i*j/p)), and :func:`cyclotomic_rows` takes their complex values once,
summing without BLAS, whose order depends on the CPU; the spectrum kernel
calls its two halves apart, :func:`cyclotomic_invariants` once per row of its
line table and :func:`cyclotomic_sums` per frequency.  Adding a constant to
every slot leaves the represented number unchanged, since the p-th roots of
unity sum to zero; the evaluation exploits this to return sums on one root
exactly.
"""

from __future__ import annotations

import functools
import math
import random

import numpy as np

from . import _gfp
from .errors import ArityMismatchError, DegreeMismatchError, NotPrimeError, ReducibleModulusError

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
# psi_12, the least strong pseudoprime to all of _MR_BASES (Sorenson and
# Webster, 2017): below it Miller-Rabin on those bases is exact.
_MR_EXACT = 318665857834031151167461


def is_prime(n: int) -> bool:
    """Miller-Rabin to the bases _MR_BASES, exact below _MR_EXACT; from
    there a strong Lucas test too, which makes it Baillie-PSW, with no known
    composite that passes."""
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
    return n < _MR_EXACT or _strong_lucas(n)


def _jacobi(a: int, n: int) -> int:
    """The Jacobi symbol (a/n), n odd and positive."""
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


def _strong_lucas(n: int) -> bool:
    """Strong Lucas probable-prime test of an odd n > 37 with no factor up to
    37, on Selfridge's parameters: D the first of 5, -7, 9, -11, ... with
    (D/n) = -1, P = 1, Q = (1 - D)/4.  With n + 1 = d 2^s, d odd, n passes
    when U_d = 0 or V_(d 2^r) = 0 for some r < s (all mod n)."""
    if math.isqrt(n) ** 2 == n:  # no D has (D/n) = -1
        return False
    D = 5
    while (j := _jacobi(D, n)) != -1:
        if j == 0:  # gcd(D, n) > 1, and |D| < n
            return False
        D = -D - 2 if D > 0 else -D + 2
    Q = (1 - D) // 4
    d, s = n + 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1

    def half(x):
        x %= n
        return (x + n) // 2 if x & 1 else x // 2

    # U_k, V_k, Q^k from k = 1, doubling (U_2k = U_k V_k, V_2k = V_k^2 - 2Q^k)
    # and stepping (U_(k+1) = (U_k + V_k)/2, V_(k+1) = (D U_k + V_k)/2)
    u, v, qk = 1, 1, Q % n
    for bit in bin(d)[3:]:
        u, v, qk = u * v % n, (v * v - 2 * qk) % n, qk * qk % n
        if bit == "1":
            u, v, qk = half(u + v), half(D * u + v), qk * Q % n
    if u == 0 or v == 0:
        return True
    for _ in range(s - 1):
        v, qk = (v * v - 2 * qk) % n, qk * qk % n
        if v == 0:
            return True
    return False


@functools.lru_cache(maxsize=None)
def _unity_roots(p: int):
    ang = 2.0 * np.pi * np.arange(p) / p
    return np.cos(ang), np.sin(ang)


def cyclotomic_rows(counts, p: int):
    """Real parts, imaginary parts and magnitudes of sum_j counts[i, j] * e^(2*pi*i*j/p),
    one per row of an (m, p) int64 array: :func:`cyclotomic_sums` of its invariants."""
    return cyclotomic_sums(*cyclotomic_invariants(counts), p)


def cyclotomic_invariants(counts):
    """Each row shifted off its minimum (a constant row represents zero),
    whether the shifted row has at most one nonzero slot, and its top count.
    A permutation of a row's slots leaves its flag and top count unchanged."""
    arr = counts - counts.min(axis=1, keepdims=True)
    return arr, np.count_nonzero(arr, axis=1) <= 1, arr.max(axis=1)


def cyclotomic_sums(arr, one, top, p: int):
    """Sums of shifted rows arr against the roots of unity, ``np.add.reduce``
    in an order fixed by p, the two products taken in one buffer, and
    magnitudes sqrt(re^2 + im^2), or exactly the top count for a row on at
    most one slot (flag ``one``)."""
    cos, sin = _unity_roots(p)
    buf = np.multiply(arr, cos)
    re = np.add.reduce(buf, axis=1)
    im = np.add.reduce(np.multiply(arr, sin, out=buf), axis=1)
    mag = np.sqrt(re * re + im * im)
    mag[one] = top[one]
    return re, im, mag


def cyclotomic_magnitude(counts, p: int) -> float:
    """|sum_j counts[j] * e^(2*pi*i*j/p)|: one row of :func:`cyclotomic_rows`."""
    return float(cyclotomic_rows(np.asarray(counts, dtype=np.int64).reshape(1, -1), p)[2][0])


def _poly_str(coeffs, var="x", write=str):
    """The one univariate printer: descending terms, each coefficient c
    written by write(c), a unit coefficient left out before its monomial."""
    parts = []
    for i in range(len(coeffs) - 1, -1, -1):
        c = coeffs[i]
        if not c:
            continue
        if i == 0:
            parts.append(write(c))
        else:
            mono = var if i == 1 else f"{var}^{i}"
            parts.append(mono if c == 1 else f"{write(c)}*{mono}")
    return " + ".join(parts) if parts else "0"


def _irreducible(p, block):
    """Which of a block of monic degree-k polynomials over GF(p), as
    ascending coefficient lists below p, are irreducible: one
    ``_gfp.gf_spec_types`` call, the key of (k,) marking each."""
    k = len(block[0]) - 1
    cands = np.array(block, _gfp.gf_dtype(k, 1, p))[..., None]
    return _gfp.gf_spec_types(cands, _gfp.VecField(p, ())) == _gfp.gf_type_key((k,), k)


class FieldCtx:
    """Immutable description of GF(p^k); elements are ints in [0, q)."""

    __slots__ = ("p", "k", "q", "modulus", "tail", "trace_form", "vec")

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
            mod = (0, 1)  # the case k = 1 with modulus x
        else:
            if modulus is None:
                mod = self._random_irreducible(p, k, seed)
            else:
                mod = [c % p for c in modulus]
                if len(mod) != k + 1 or mod[-1] != 1:
                    raise DegreeMismatchError(
                        f"modulus must be monic of degree {k}, got {_poly_str(mod)}"
                    )
                if not _irreducible(p, [mod])[0]:
                    raise ReducibleModulusError(
                        f"{_poly_str(mod)} is reducible over GF({p})"
                    )
            self.modulus = tuple(mod)
        # x^k = sum tail[j] x^j modulo the monic modulus
        self.tail = tuple(-c % p for c in mod[:k])
        # The multiplication tensor T[i, j] = coords(x^(i+j)), read-only,
        # built once per context: the batched kernels' arithmetic, and the
        # source of the trace form.
        self.vec = _gfp.VecField(p, self.tail)
        # tr(x^m) is the trace of multiplication by x^m, t_m = sum_l T[m, l, l],
        # so M_ij = tr(x^(i+j)) = sum_l T[i, j, l] t_l, taken in Python ints:
        # the products pass int64 for large p.
        tensor = self.vec.tensor.astype(object)
        form = (tensor @ np.trace(tensor, axis1=1, axis2=2) % p).astype(self.vec.tensor.dtype)
        form.flags.writeable = False
        self.trace_form = form

    @staticmethod
    def _random_irreducible(p, k, seed):
        # Rejection sampling; about one in k monic candidates is irreducible,
        # so blocks of 2k candidates are classified at once, drawn in order,
        # and the first irreducible one is taken.
        rng = random.Random(seed)
        while True:
            block = [[rng.randrange(p) for _ in range(k)] + [1] for _ in range(2 * k)]
            found = np.flatnonzero(_irreducible(p, block))
            if len(found):
                return block[found[0]]

    # -- element encoding -------------------------------------------------

    def coords(self, a: int):
        """Coordinate vector of an element in the power basis, length k: on
        a prime field the residue of any integer, on an extension the
        base-p digits of an encoding, ValueError outside [0, q)."""
        if self.k > 1 and not 0 <= a < self.q:
            raise ValueError(f"{a} does not encode an element of GF({self.q})")
        p, out = self.p, []
        for _ in range(self.k):
            out.append(a % p)
            a //= p
        return out

    def from_coords(self, cs) -> int:
        if len(cs) != self.k:
            raise DegreeMismatchError(
                f"expected {self.k} coordinates, got {len(cs)}"
            )
        p = self.p
        a = 0
        for c in reversed(cs):
            a = a * p + c % p
        return a

    def from_int(self, c: int) -> int:
        """Embed an integer via the prime subfield."""
        return c % self.p

    def elements(self):
        return range(self.q)

    def random_element(self, rng: random.Random) -> int:
        return rng.randrange(self.q)

    def encodings(self, points, n: int):
        """The one reader of caller-supplied points: the encodings of the
        leading points that name an element of GF(q)^n, as an (m, n) array
        (int64 while q < 2^62, else Python ints), and the error for the point
        at index m, the first that does not (None if there is none):
        ArityMismatchError for a wrong length, ValueError for a coordinate
        outside [0, q).  On a prime field every integer names its residue
        mod p; on an extension only an encoding in [0, q) names an element."""
        k, q = self.k, self.q
        m = next(
            (i for i, a in enumerate(points)
             if len(a) != n or (k > 1 and not all(0 <= x < q for x in a))),
            len(points),
        )
        dtype = np.int64 if q < _gfp._INT64_LIMIT else object
        codes = np.fromiter((x % q for a in points[:m] for x in a), dtype, m * n).reshape(m, n)
        if m == len(points):
            return codes, None
        bad = tuple(points[m])
        if len(bad) != n:
            return codes, ArityMismatchError(f"point {bad} should have {n} coordinates")
        return codes, ValueError(f"point {bad} has a coordinate outside [0, {q})")

    def coefficients(self, values):
        """The one reader of caller-supplied coefficients: their encodings as
        a list, one value a row of ``encodings``, or ValueError naming the
        first value that names no element of GF(q)."""
        values = list(values)
        codes, error = self.encodings([[c] for c in values], 1)
        if error:
            raise ValueError(f"coefficient {values[len(codes)]} is outside [0, {self.q})")
        return codes[:, 0].tolist()

    def element_str(self, a: int) -> str:
        """The text of an element: its residue on a prime field, its
        coordinates [c0,c1,...] on an extension."""
        return str(a) if self.k == 1 else "[" + ",".join(map(str, self.coords(a))) + "]"

    def decode(self, codes):
        """Power-basis coordinates of an array of encodings, int64 or object,
        as a new trailing axis of length k in the same dtype: the base-p
        digits, each reduced mod p (on a prime field, the residue of every
        integer)."""
        return self.vec.reduce(codes[..., None] // self.p ** np.arange(self.k).astype(codes.dtype))

    # -- arithmetic on coordinates ------------------------------------------

    def add(self, a: int, b: int) -> int:
        return self.from_coords([x + y for x, y in zip(self.coords(a), self.coords(b))])

    def sub(self, a: int, b: int) -> int:
        return self.from_coords([x - y for x, y in zip(self.coords(a), self.coords(b))])

    def neg(self, a: int) -> int:
        return self.from_coords([-x for x in self.coords(a)])

    def mul(self, a: int, b: int) -> int:
        """The schoolbook product of the coordinates, its terms of degree
        >= k reduced by ``tail`` from the top."""
        k, p, tail = self.k, self.p, self.tail
        y = self.coords(b)
        prod = [0] * (2 * k - 1)
        for i, x in enumerate(self.coords(a)):
            if x:
                for j, c in enumerate(y, i):
                    prod[j] += x * c
        for top in range(k - 2, -1, -1):  # x^(k+top) = x^top tail
            c = prod.pop() % p
            if c:
                for j, t in enumerate(tail, top):
                    prod[j] += c * t
        return self.from_coords(prod)

    def pow(self, a: int, e: int) -> int:
        """a**e by square and multiply from a itself; one for e = 0."""
        if e < 0:
            raise ValueError("exponent must be nonnegative")
        r = a = self.from_coords(self.coords(a))
        for bit in bin(e)[3:]:
            r = self.mul(r, r)
            if bit == "1":
                r = self.mul(r, a)
        return r if e else 1

    def inv(self, a: int) -> int:
        """1/a = a^(r-1) / N(a), where N(a) = a^r, r = (q - 1)/(p - 1), is
        the norm of a, in GF(p), and is zero only for a = 0; r = 1 on a
        prime field."""
        b = self.pow(a, (self.q - 1) // (self.p - 1) - 1)
        norm = self.mul(b, a)
        if not norm:
            raise ZeroDivisionError("inverse of zero field element")
        return self.mul(b, pow(norm, -1, self.p))

    # -- trace and character ------------------------------------------------

    def _trace_raw(self, a: int) -> int:
        # tr(a) = a + a^p + ... + a^(p^(k-1)); lands in the prime subfield,
        # whose elements encode as their residue.  Independent of the trace
        # form, so the tests keep it as its oracle.
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
