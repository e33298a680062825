"""Univariate polynomial algebra over a field context.

A :class:`UniPoly` is an immutable coefficient vector (encoded field
elements, index = degree, no trailing zeros) tied to a :class:`FieldCtx`.
The module provides squarefreeness, the factor-degree multiset via
distinct-degree splitting, irreducibility, discriminants, and the Morse
criterion (simple critical points with pairwise distinct critical values).

Only the *degrees* of the irreducible factors are ever computed, by the
batched classifier of :mod:`ffstats._gfp` on a block of one polynomial
(``_gfp.gf_spec_type``, whose key ``_gfp.gf_key_type`` reads).  Every
operation runs on the kernels of :mod:`ffstats._gfp`, for every field:
they take the coefficient encodings as they are, and the context, whose
scalar operations they call.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import _gfp
from .errors import (
    MorsePreconditionError,
    NotSquarefreeError,
    ZeroPolynomialError,
)
from .field import FieldCtx, _poly_str

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
        """Coefficients read by ``ctx.coefficients``, whose error it raises:
        any integers mod p on a prime field, encodings in [0, q) on an
        extension; trailing zeros dropped."""
        return cls(ctx, tuple(_gfp.gf_trim(ctx.coefficients(elems))))

    @classmethod
    def from_ints(cls, ctx, ints):
        """Coefficients given as plain integers, embedded via the prime subfield."""
        return cls.make(ctx, [ctx.from_int(c) for c in ints])

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def evaluate(self, a: int) -> int:
        ctx = self.ctx
        y = 0
        for c in reversed(self.coeffs):
            y = ctx.add(ctx.mul(y, a), c)
        return y

    def __str__(self):
        return _poly_str(self.coeffs, "t", self.ctx.element_str)


# -- public operations -------------------------------------------------------


def is_squarefree(f: UniPoly) -> bool:
    """True iff gcd(f, f') = 1; false in particular whenever f' = 0."""
    if f.degree < 1:
        raise ZeroPolynomialError("squarefreeness needs degree >= 1")
    ctx, fc = f.ctx, list(f.coeffs)
    fp = _gfp.gf_diff(fc, ctx)
    return bool(fp) and len(_gfp.gf_gcd(fc, fp, ctx)) == 1


def factorization_type(f: UniPoly) -> FactorizationType:
    """Multiset of irreducible-factor degrees of a squarefree f, descending."""
    if f.degree < 1:
        raise ZeroPolynomialError("factorization type needs degree >= 1")
    parts = _gfp.gf_key_type(_gfp.gf_spec_type(list(f.coeffs), f.ctx), f.degree)
    if parts == _gfp.NON_SQUAREFREE:
        raise NotSquarefreeError(f"{f} has a repeated factor")
    return parts


def is_irreducible(f: UniPoly) -> bool:
    """True iff f has degree d >= 1 and factor-degree multiset (d,); an
    inseparable f is reducible.  Constants count as reducible."""
    d = f.degree
    return d >= 1 and _gfp.gf_spec_type(list(f.coeffs), f.ctx) == _gfp.gf_type_key((d,), d)


def discriminant(f: UniPoly) -> int:
    """(-1)^(d(d-1)/2) * res(f, f') / lc(f); zero iff f is not squarefree
    (including the inseparable case f' = 0)."""
    d = f.degree
    if d < 1:
        raise ZeroPolynomialError("discriminant needs degree >= 1")
    ctx, fc = f.ctx, list(f.coeffs)
    res = _gfp.gf_resultant(fc, _gfp.gf_diff(fc, ctx), ctx)
    if (d * (d - 1) // 2) % 2:
        res = ctx.neg(res)
    return ctx.mul(res, ctx.inv(fc[-1]))


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
    fc = list(f.coeffs)
    # p > d keeps deg f' = d - 1 >= 1
    fp = _gfp.gf_diff(fc, ctx)
    if not is_squarefree(UniPoly(ctx, tuple(fp))):
        return False
    # c(X) = lc(f')^d prod (X - f(theta)) over the roots theta of f' has
    # degree d - 1, in [1, p); interpolate it from d evaluations at the
    # points 0..d-1 of the prime subfield, each encoded as itself
    xs = list(range(d))
    ys = [_gfp.gf_resultant(fp, _gfp.gf_sub([x0], fc, ctx), ctx) for x0 in xs]
    return is_squarefree(UniPoly(ctx, tuple(_gfp.gf_interpolate(xs, ys, ctx))))
