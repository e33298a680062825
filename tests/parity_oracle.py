"""Stickelberger's parity law, kept as an independent oracle for the
classifier: a squarefree f of degree d over GF(q), q odd, with r irreducible
factors has a discriminant that is a square in GF(q) iff d - r is even
(Stickelberger 1897; Swan, Pacific J. Math. 12, 1962).

For F(t, A) with integer coefficients and deg_t F = d, D = disc_t F is taken
once by sympy over Z[A1..An]; as the discriminant is a polynomial in the
coefficients, D(a) = disc(F(t, a)) at every point a where the leading
coefficient does not vanish.  D is evaluated by ``FieldCtx`` scalar
arithmetic and its character taken by Euler's criterion, so nothing here
shares code with ``_gfp`` or ``mpoly``'s specialization."""

import math

import sympy

from ffstats.mpoly import NON_SQUAREFREE


def discriminant_terms(terms, n):
    """disc_t F as {(e_1..e_n): integer}, for F = sum of c t^e0 A1^e1 ... An^en
    over the items ((e0, e_1..e_n), c) of terms."""
    t, *A = sympy.symbols(f"t a1:{n + 1}")
    F = sum(c * t ** e[0] * math.prod(a**x for a, x in zip(A, e[1:])) for e, c in terms.items())
    return {e: int(c) for e, c in sympy.Poly(sympy.discriminant(F, t), *A).terms()}


def evaluate(D, ctx, point):
    """D(point) in GF(q), an integer coefficient read as c mod p in the prime
    subfield."""
    value = 0
    for e, c in D.items():
        term = c % ctx.p
        for a, x in zip(point, e):
            term = ctx.mul(term, ctx.pow(a, x))
        value = ctx.add(value, term)
    return value


def character(ctx, x):
    """The quadratic character of x by Euler's criterion: 0, 1 or -1."""
    if not x:
        return 0
    power = ctx.pow(x, (ctx.q - 1) // 2)
    assert power in (1, ctx.p - 1), power
    return 1 if power == 1 else -1


def predicted_character(outcome, d):
    """chi(disc f) that Stickelberger's law gives for a full-degree outcome."""
    return 0 if outcome == NON_SQUAREFREE else (-1) ** (d - len(outcome))
