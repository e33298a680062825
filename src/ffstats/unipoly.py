"""Univariate polynomial algebra over a field context.

A :class:`UniPoly` is an immutable coefficient vector (encoded field
elements, index = degree, no trailing zeros) tied to a :class:`FieldCtx`.
The module provides gcd, squarefreeness, the factor-degree multiset via
distinct-degree splitting, irreducibility, discriminants, and the Morse
criterion (simple critical points with pairwise distinct critical values).

Only the *degrees* of the irreducible factors are ever computed; gcds with
x^(q^i) - x group the factors by degree and nothing is split further.
Every operation runs on the kernels of :mod:`ffstats._gfp`, for every
field: ``ctx.pack`` and ``ctx.unpack`` carry each coefficient across that
boundary.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import _gfp
from .errors import (
    MorsePreconditionError,
    NotSquarefreeError,
    ZeroPolynomialError,
)
from .field import FieldCtx

# A factorization type is the multiset of irreducible-factor degrees,
# stored as a tuple of positive ints sorted descending, e.g. (3, 2, 2, 1).
FactorizationType = tuple


@dataclass(frozen=True)
class UniPoly:
    """Dense univariate polynomial; ``coeffs[i]`` is the t^i coefficient."""

    ctx: FieldCtx
    coeffs: tuple

    @classmethod
    def make(cls, ctx, elems):
        return cls(ctx, tuple(_gfp.gf_trim(list(elems))))

    @classmethod
    def from_ints(cls, ctx, ints):
        """Coefficients given as plain integers, embedded via the prime subfield."""
        return cls.make(ctx, [ctx.from_int(c) for c in ints])

    @classmethod
    def zero(cls, ctx):
        return cls(ctx, ())

    @classmethod
    def one(cls, ctx):
        return cls(ctx, (1,))

    @classmethod
    def x(cls, ctx):
        return cls(ctx, (0, 1))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def lc(self) -> int:
        if not self.coeffs:
            raise ZeroPolynomialError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def _same_field(self, other):
        if self.ctx != other.ctx:
            raise ValueError("polynomials over different field contexts")

    def _packed(self):
        return [self.ctx.pack(c) for c in self.coeffs]

    def _kernel(self, fn, *others):
        """The ``_gfp`` kernel fn on self and others, as kernel lists."""
        for g in others:
            self._same_field(g)
        return fn(self._packed(), *[g._packed() for g in others], self.ctx.red)

    def _from_kernel(self, cs):
        return UniPoly.make(self.ctx, [self.ctx.unpack(c) for c in cs])

    def __add__(self, other):
        return self._from_kernel(self._kernel(_gfp.gf_add, other))

    def __sub__(self, other):
        return self._from_kernel(self._kernel(_gfp.gf_sub, other))

    def __neg__(self):
        return UniPoly.make(self.ctx, [self.ctx.neg(c) for c in self.coeffs])

    def __mul__(self, other):
        return self._from_kernel(self._kernel(_gfp.gf_mul, other))

    def __divmod__(self, other):
        q, r = self._kernel(_gfp.gf_divmod, other)
        return self._from_kernel(q), self._from_kernel(r)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def monic(self) -> "UniPoly":
        if self.is_zero or self.lc == 1:
            return self
        return self._from_kernel(self._kernel(_gfp.gf_monic))

    def derivative(self) -> "UniPoly":
        return self._from_kernel(self._kernel(_gfp.gf_diff))

    def evaluate(self, a: int) -> int:
        ctx = self.ctx
        red = ctx.red
        x = ctx.pack(a)
        y = 0
        for c in reversed(self._packed()):
            y = (y * x + c) % red
        return ctx.unpack(y)

    def __str__(self):
        ctx = self.ctx
        if self.is_zero:
            return "0"
        parts = []
        for i in range(self.degree, -1, -1):
            c = self.coeffs[i]
            if not c:
                continue
            cs = str(c) if ctx.k == 1 else "[" + ",".join(map(str, ctx.coords(c))) + "]"
            mono = "" if i == 0 else ("t" if i == 1 else f"t^{i}")
            if not mono:
                parts.append(cs)
            elif c == 1:
                parts.append(mono)
            else:
                parts.append(f"{cs}*{mono}")
        return " + ".join(parts)


# -- public operations -------------------------------------------------------


def poly_gcd(f: UniPoly, g: UniPoly) -> UniPoly:
    """Monic greatest common divisor via the Euclidean algorithm."""
    if f.is_zero and g.is_zero:
        raise ZeroPolynomialError("gcd(0, 0) is undefined")
    return f._from_kernel(f._kernel(_gfp.gf_gcd, g))


def is_squarefree(f: UniPoly) -> bool:
    """True iff gcd(f, f') = 1; false in particular whenever f' = 0."""
    if f.degree < 1:
        raise ZeroPolynomialError("squarefreeness needs degree >= 1")
    red = f.ctx.red
    fc = f._packed()
    fp = _gfp.gf_diff(fc, red)
    return bool(fp) and len(_gfp.gf_gcd(fc, fp, red)) == 1


def factorization_type(f: UniPoly) -> FactorizationType:
    """Multiset of irreducible-factor degrees of a squarefree f, descending."""
    if f.degree < 1:
        raise ZeroPolynomialError("factorization type needs degree >= 1")
    parts = _gfp.gf_spec_type(f._packed(), f.ctx.red, f.ctx.q)
    if parts is None:
        raise NotSquarefreeError(f"{f} has a repeated factor")
    return parts


def is_irreducible(f: UniPoly) -> bool:
    """True iff f has degree d >= 1 and factor-degree multiset (d,); an
    inseparable f is reducible.  Constants count as reducible."""
    d = f.degree
    return d >= 1 and _gfp.gf_spec_type(f._packed(), f.ctx.red, f.ctx.q) == (d,)


def discriminant(f: UniPoly) -> int:
    """(-1)^(d(d-1)/2) * res(f, f') / lc(f); zero iff f is not squarefree
    (including the inseparable case f' = 0)."""
    d = f.degree
    if d < 1:
        raise ZeroPolynomialError("discriminant needs degree >= 1")
    red = f.ctx.red
    fc = f._packed()
    res = _gfp.gf_resultant(fc, _gfp.gf_diff(fc, red), red)
    if (d * (d - 1) // 2) % 2:
        res = -res % red
    return f.ctx.unpack(res * _gfp.gf_inv(fc[-1], red) % red)


def is_morse(f: UniPoly) -> bool:
    """True iff f' is squarefree and the critical values of f are pairwise
    distinct.

    The critical-value polynomial c(X) = res_t(f'(t), X - f(t)) is recovered
    by evaluating the resultant at deg(f') + 1 points of the field (p > deg f
    guarantees enough of them) and interpolating; the two conditions together
    are equivalent to c being squarefree alongside f'.
    """
    ctx = f.ctx
    d = f.degree
    if d < 2:
        raise ZeroPolynomialError("Morse test needs degree >= 2")
    if ctx.p <= d:
        raise MorsePreconditionError(
            f"Morse test needs p > deg f, got p={ctx.p}, deg={d}"
        )
    red = ctx.red
    fc = f._packed()
    # p > d keeps deg f' = d - 1 >= 1 and f'' nonzero
    fp = _gfp.gf_diff(fc, red)
    if len(_gfp.gf_gcd(fp, _gfp.gf_diff(fp, red), red)) != 1:
        return False
    # c(X) has degree deg(f') = d - 1; interpolate from d evaluations.  The
    # points 0..d-1 lie in the prime subfield, where packing changes nothing.
    xs = list(range(d))
    ys = [_gfp.gf_resultant(fp, _gfp.gf_sub([x0], fc, red), red) for x0 in xs]
    c = _gfp.gf_interpolate(xs, ys, red)
    cp = _gfp.gf_diff(c, red)
    if not cp:
        return len(c) - 1 == 0
    return len(_gfp.gf_gcd(c, cp, red)) == 1
