"""Sparse polynomials in t and parameters A1..An, with the text grammar
used by the CLI and the on-disk formats.

Grammar (whitespace-insensitive, multiplication always explicit):

    expr   := term (('+' | '-') term)*
    term   := ['-'] factor ('*' factor)*
    factor := atom ['^' INT]
    atom   := INT | '[' INT (',' INT)* ']' | 't' | 'A1'..'An' | '(' expr ')'

Integer literals reduce modulo p; bracketed vectors spell out extension
field coordinates.  Exponents must be nonnegative integer literals.  The
printer emits a canonical form (descending t-degree, then descending
parameter exponents) that parses back to the same polynomial.

Specialization has one path, ``MultiPoly.specialize_block`` over
``ctx.vec``; ``specialize_dense`` (coefficient encodings) and ``specialize``
(a ``UniPoly`` of them) are its one-row reading of a point read by
``ctx.encodings``; ``ctx.coefficients`` reads the coefficients a
``MultiPoly`` is given.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import _gfp
from ._gfp import DEGREE_DROP, NON_SQUAREFREE  # re-exported: outcomes of classify_points
from .errors import (
    DEFAULT_BUDGET,
    ArityMismatchError,
    NegativeExponentError,
    NotAdmissibleError,
    PolynomialSyntaxError,
    UnknownVariableError,
    charge,
)
from .field import FieldCtx
from .unipoly import UniPoly, is_squarefree

# -- tokenizer ----------------------------------------------------------------

_SYMBOLS = set("+-*^()[],")


def _tokenize(text):
    out = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            out.append(("INT", int(text[i:j]), i))
            i = j
            continue
        if ch.isalpha():
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            out.append(("NAME", text[i:j], i))
            i = j
            continue
        if ch in _SYMBOLS:
            out.append((ch, ch, i))
            i += 1
            continue
        raise PolynomialSyntaxError(f"unexpected character {ch!r}", i)
    out.append(("END", None, n))
    return out


# -- term-dict arithmetic ------------------------------------------------------
# Terms map exponent tuples (e_t, e_1, ..., e_n) to nonzero encoded coefficients.


def _tadd(ctx, a, b):
    out = dict(a)
    for e, c in b.items():
        s = ctx.add(out.get(e, 0), c)
        if s:
            out[e] = s
        else:
            out.pop(e, None)
    return out


def _tneg(ctx, a):
    return {e: ctx.neg(c) for e, c in a.items()}


def _tmul(ctx, a, b, charge):
    charge(len(a) * len(b))
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            s = ctx.add(out.get(e, 0), ctx.mul(ca, cb))
            if s:
                out[e] = s
            else:
                out.pop(e, None)
    return out


def _tpow(ctx, a, e, nvars, charge):
    """a^e by square-and-multiply; the first factor is taken, not multiplied by 1."""
    if e == 0:
        return {(0,) * (nvars + 1): 1}
    out = None
    base = a
    while e:
        if e & 1:
            out = base if out is None else _tmul(ctx, out, base, charge)
        e >>= 1
        if e:
            base = _tmul(ctx, base, base, charge)
    return out


def _tpow_cost(a, e):
    """The cost _tpow charges for a^e when no term cancels, so that each
    power a^j has its most terms: min(C(len(a) + j - 1, j), the exponent box)."""
    if not a:
        return 0
    spans = [max(x) - min(x) for x in zip(*a)]

    def most(j):
        return min(math.comb(len(a) + j - 1, j), math.prod(j * s + 1 for s in spans))

    cost, done, step = 0, 0, 1
    while e:
        if e & 1:
            if done:
                cost += most(done) * most(step)
            done += step
        e >>= 1
        if e:
            cost += most(step) ** 2
            step *= 2
    return cost


class MultiPoly:
    """Sparse polynomial in t and A1..An; immutable after construction.
    Built by :func:`parse`, or from a term dict {(e_t, e_1, ..., e_n): c};
    it has no arithmetic."""

    __slots__ = ("ctx", "n", "terms", "_spec")

    def __init__(self, ctx: FieldCtx, n: int, terms):
        if n < 0:
            raise ValueError("parameter count must be >= 0")
        for e in terms:
            if len(e) != n + 1:
                raise ArityMismatchError(
                    f"exponent vector {e} should have length {n + 1}"
                )
            if any(x < 0 for x in e):
                raise ValueError(f"negative exponent in {e}")
        codes = ctx.coefficients(terms.values())
        self.ctx = ctx
        self.n = n
        self.terms = {tuple(e): c for e, c in zip(terms, codes) if c}
        self._spec = None

    # -- degrees ----------------------------------------------------------------

    @property
    def deg_t(self) -> int:
        return max((e[0] for e in self.terms), default=-1)

    @property
    def total_degree(self) -> int:
        return max((sum(e) for e in self.terms), default=-1)

    def __eq__(self, other):
        return (
            isinstance(other, MultiPoly)
            and self.ctx == other.ctx
            and self.n == other.n
            and self.terms == other.terms
        )

    __hash__ = None

    # -- specialization ------------------------------------------------------------

    def _prepared(self):
        # (deg_t, [(e_t, ((var_index, exp), ...), coords), ...]) for the block loop
        if self._spec is None:
            rows = []
            for e, c in sorted(self.terms.items()):
                powers = tuple((i, x) for i, x in enumerate(e[1:]) if x)
                rows.append((e[0], powers, self.ctx.coords(c)))
            self._spec = (self.deg_t, rows)
        return self._spec

    def specialize_dense(self, point):
        """Coefficient encodings of F(t, point), trimmed: the one-row
        reading of ``specialize_block``, the point read by ``ctx.encodings``,
        whose error it raises for a point that names no element of GF(q)^n."""
        ctx = self.ctx
        codes, error = ctx.encodings([point], self.n)
        if error:
            raise error
        block = codes.astype(_gfp.gf_dtype(self.deg_t, ctx.k, ctx.p))
        coeffs = self.specialize_block(ctx.decode(block))[0].tolist()
        return _gfp.gf_trim([ctx.from_coords(c) for c in coeffs])

    def specialize_block(self, points):
        """F(t, a) for a block of points: points is an (N, n, k) array of
        reduced power-basis coordinates (``ctx.decode``), one point per row,
        of ``_gfp.gf_dtype``; returns the untrimmed (N, deg_t + 1, k)
        coefficient array in the same dtype.  Each parameter gets one table
        of the powers its terms use; GF(q) products go through ``ctx.vec``."""
        d, rows = self._prepared()
        field = self.ctx.vec
        points = points.transpose(1, 2, 0)
        tables = [{} for _ in range(self.n)]
        out = np.zeros((d + 1, field.k, points.shape[-1]), dtype=points.dtype)
        for e_t, powers, coords in rows:
            w = np.array(coords, dtype=points.dtype)[:, None]
            for i, e in powers:
                if e not in tables[i]:
                    tables[i][e] = field.pow(points[i], e)
                w = field.mul(w, tables[i][e])
            out[e_t] = field.reduce(out[e_t] + w)
        return out.transpose(2, 0, 1)

    def specialize(self, point) -> UniPoly:
        """Substitute A_i := point[i]; the degree may drop below deg_t."""
        return UniPoly(self.ctx, tuple(self.specialize_dense(point)))

    # -- printing ---------------------------------------------------------------

    def _render_coeff(self, c):
        p = self.ctx.p
        if c <= p // 2:
            return "+", str(c), c == 1
        if c < p:  # the rest of the prime subfield, as a negative
            return "-", str(p - c), p - c == 1
        return "+", self.ctx.element_str(c), False

    def __str__(self):
        if not self.terms:
            return "0"
        keys = sorted(self.terms, key=lambda e: (-e[0], tuple(-x for x in e[1:])))
        pieces = []
        for e in keys:
            sign, cs, is_one = self._render_coeff(self.terms[e])
            monos = []
            if e[0]:
                monos.append("t" if e[0] == 1 else f"t^{e[0]}")
            for i, x in enumerate(e[1:], start=1):
                if x:
                    monos.append(f"A{i}" if x == 1 else f"A{i}^{x}")
            if not monos:
                body = cs
            elif is_one:
                body = "*".join(monos)
            else:
                body = "*".join([cs] + monos)
            pieces.append((sign, body))
        first_sign, first_body = pieces[0]
        out = ("-" if first_sign == "-" else "") + first_body
        for sign, body in pieces[1:]:
            out += f" {sign} {body}"
        return out


# -- parser --------------------------------------------------------------------


# Each nesting level costs four stack frames (expr, term, factor, atom).
_MAX_NESTING = 100


class _Parser:
    """Recursive descent over term dicts; ``parse`` builds the one MultiPoly."""

    def __init__(self, tokens, ctx, n, budget):
        self.toks = tokens
        self.pos = 0
        self.ctx = ctx
        self.n = n
        self.budget = budget
        self.spent = 0
        self.depth = 0

    def check(self, cost):
        charge(self.spent + cost, self.budget, f"expansion costs {self.spent + cost} term products")

    def charge(self, cost):
        """Count each product of the whole expansion against the budget
        before it is built."""
        self.check(cost)
        self.spent += cost

    def peek(self):
        return self.toks[self.pos]

    def advance(self):
        tok = self.toks[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind):
        tok = self.advance()
        if tok[0] != kind:
            raise PolynomialSyntaxError(
                f"expected {kind!r}, found {tok[1]!r}", tok[2]
            )
        return tok

    def parse(self):
        poly = self.expr()
        tok = self.peek()
        if tok[0] != "END":
            raise PolynomialSyntaxError(f"unexpected {tok[1]!r}", tok[2])
        return poly

    def expr(self):
        acc = self.term()
        while self.peek()[0] in ("+", "-"):
            op = self.advance()[0]
            rhs = self.term()
            acc = _tadd(self.ctx, acc, rhs if op == "+" else _tneg(self.ctx, rhs))
        return acc

    def term(self):
        negate = False
        if self.peek()[0] == "-":
            self.advance()
            negate = True
        acc = self.factor()
        while self.peek()[0] == "*":
            self.advance()
            acc = _tmul(self.ctx, acc, self.factor(), self.charge)
        return _tneg(self.ctx, acc) if negate else acc

    def factor(self):
        base = self.atom()
        if self.peek()[0] == "^":
            self.advance()
            tok = self.peek()
            if tok[0] == "-":
                raise NegativeExponentError("exponent must be nonnegative", tok[2])
            if tok[0] != "INT":
                raise PolynomialSyntaxError(
                    "exponent must be an integer literal", tok[2]
                )
            self.advance()
            if tok[1] < self.ctx.p:
                # below p only colliding terms cancel: refuse at once a chain
                # that passes the budget with none cancelling
                self.check(_tpow_cost(base, tok[1]))
            return _tpow(self.ctx, base, tok[1], self.n, self.charge)
        return base

    def monomial(self, var, c=1):
        """The terms of c t (var 0), c A_var, or the constant c (var None); {} for c = 0."""
        if self.n < 0:
            raise ValueError("parameter count must be >= 0")
        e = [0] * (self.n + 1)
        if var is not None:
            e[var] = 1
        return {tuple(e): c} if c else {}

    def atom(self):
        tok = self.advance()
        kind, val, pos = tok
        ctx, n = self.ctx, self.n
        if kind == "END":
            raise PolynomialSyntaxError("unexpected end of expression", pos)
        if kind == "INT":
            return self.monomial(None, ctx.from_int(val))
        if kind == "[":
            coords = [self.expect("INT")[1]]
            while self.peek()[0] == ",":
                self.advance()
                coords.append(self.expect("INT")[1])
            self.expect("]")
            if len(coords) != ctx.k:
                raise PolynomialSyntaxError(
                    f"coordinate vector needs {ctx.k} entries, got {len(coords)}", pos
                )
            return self.monomial(None, ctx.from_coords(coords))
        if kind == "NAME":
            if val == "t":
                return self.monomial(0)
            if val[0] == "A" and val[1:].isdigit():
                i = int(val[1:])
                if 1 <= i <= n:
                    return self.monomial(i)
                raise UnknownVariableError(
                    f"parameter {val} outside A1..A{n}", pos
                )
            raise UnknownVariableError(f"unknown variable {val!r}", pos)
        if kind == "(":
            if self.depth == _MAX_NESTING:
                raise PolynomialSyntaxError(
                    f"parentheses nested deeper than {_MAX_NESTING}", pos
                )
            self.depth += 1
            inner = self.expr()
            self.expect(")")
            self.depth -= 1
            return inner
        raise PolynomialSyntaxError(f"unexpected {val!r}", pos)


def parse(expr: str, n: int, ctx: FieldCtx, *, budget: int = DEFAULT_BUDGET) -> MultiPoly:
    """Parse an expression in t, A1..An over the given field context.  Each
    product of a terms by b terms adds a*b to the cost of the expansion,
    which is checked against the budget before the product is built.  A
    power below the characteristic is refused at once when its chain of
    products would pass the budget with no term cancelling."""
    return MultiPoly(ctx, n, _Parser(_tokenize(expr), ctx, n, budget).parse())


def infer_parameter_count(expr: str) -> int:
    """Largest A-index mentioned in the expression (0 if none)."""
    best = 0
    for kind, val, _ in _tokenize(expr):
        if kind == "NAME" and val[0] == "A" and val[1:].isdigit():
            best = max(best, int(val[1:]))
    return best


# -- specialization outcomes -----------------------------------------------------

TYPE = "type"


@dataclass(frozen=True)
class SpecializationOutcome:
    """Result of classifying one specialization: either the factor-degree
    multiset of a squarefree full-degree specialization, or why there is none."""

    kind: str
    parts: tuple = None

    @property
    def is_type(self) -> bool:
        return self.kind == TYPE


# Points per block of the batched path, sized in bytes: the largest
# temporaries, the raw coordinate products of an elimination step of the
# stacked rank (1 + d/2 d x d matrices over GF(p^k) a point), hold
# (1 + d/2) d^2 k^2 entries a point, so a block of _SPEC_BLOCK * 8 //
# itemsize // (d^2 k^2) points holds (1 + d/2) times _SPEC_BLOCK 8-byte words
# on every dtype, and an int32 block twice the points of an int64 one.  At
# least _SPEC_MIN points, as numpy's cost per call dominates below.
_SPEC_BLOCK = 1 << 13
_SPEC_MIN = 32


def _spec_block(d, ctx):
    """The dtype of a ``spec_keys`` block for deg_t = d >= 1, and its points."""
    dtype = _gfp.gf_dtype(d, ctx.k, ctx.p)
    return dtype, max(_SPEC_MIN, _SPEC_BLOCK * 8 // np.dtype(dtype).itemsize // (d * d * ctx.k * ctx.k))


def spec_keys(F: MultiPoly, codes):
    """Yield, block by block, the keys (read by ``_gfp.gf_key_type``; int64
    while deg_t <= 27, else Python ints) of F(t, a) for the rows a of
    codes, an (N, n) array of element encodings (``sets.point_codes``,
    ``ctx.encodings`` or the orbit representatives of
    ``sets.TorusOrbits``).  Each block is cast to ``_gfp.gf_dtype`` (int32
    while max(deg_t, k^2) * p^2 < 2^30 and q < 2^30, int64 while the same
    holds below 2^62, Python ints past it) and holds
    ``_SPEC_BLOCK * 8 // itemsize // (deg_t^2 k^2)`` points, at least
    ``_SPEC_MIN``, so that its bytes, not its entries, are fixed; it goes
    through ``ctx.decode``, ``specialize_block`` and ``_gfp.gf_spec_types``,
    one stacked rank a block."""
    d, ctx = F.deg_t, F.ctx
    if d < 1:
        raise NotAdmissibleError("polynomial has no t term to factor")
    dtype, size = _spec_block(d, ctx)
    for lo in range(0, len(codes), size):
        block = codes[lo : lo + size].astype(dtype, copy=False)
        yield _gfp.gf_spec_types(F.specialize_block(ctx.decode(block)), ctx.vec)


def classify_points(F: MultiPoly, points):
    """Classify F(t, a) for each point a, in order: the per-point reading of
    ``spec_keys``, through which every sweep classifies.

    Yields, per point, one of three outcomes:

    * the factor-degree multiset as a descending tuple, when F(t, a) keeps
      degree deg_t and is squarefree;
    * ``DEGREE_DROP``, when the leading coefficient vanishes at a;
    * ``NON_SQUAREFREE``, when F(t, a) has full degree but a repeated factor.

    The points are read by ``ctx.encodings`` (any integers mod p on a prime
    field, encodings in [0, q) on an extension) and classified by
    ``spec_keys``; each distinct key is decoded once.

    Raises NotAdmissibleError (on the first ``next``) when deg_t < 1, and,
    after the outcomes of the points before it, the reader's error for the
    first point that names no element (ArityMismatchError or ValueError).
    """
    points = list(points)
    codes, error = F.ctx.encodings(points, F.n)
    for keys in spec_keys(F, codes):
        distinct, at = np.unique(keys, return_inverse=True)
        outcomes = [_gfp.gf_key_type(key, F.deg_t) for key in distinct.tolist()]
        yield from map(outcomes.__getitem__, at.tolist())
    if error:
        raise error


def require_dense_budget(F: MultiPoly, budget: int, points: int = 1) -> None:
    """Raise BudgetExceededError unless classifying F at that many points
    fits the budget: one ``spec_keys`` block of min(points, block size)
    points stacks (1 + deg_t // 2) deg_t x deg_t matrices over GF(p^k) a
    point, whose elimination holds deg_t^2 k^2 products a matrix.  Call it
    before admissibility and specialization."""
    d, k = F.deg_t, F.ctx.k
    if d < 1:
        return
    m = min(points, _spec_block(d, F.ctx)[1])
    work = m * (1 + d // 2) * d * d * k * k
    charge(work, budget, f"classifying {m} points of degree {d} in t stacks {work} rank entries")


def torus_weights(F: MultiPoly):
    """Integers (L, (w_1, ..., w_n), D), not all zero, with L*e + sum m_i*w_i
    = D on every monomial t^e A^m of F, so that F(c^L t, c^w a) = c^D F(t, a)
    and F(t, a) has the class of F(t, (c^(w_1) a_1, ..., c^(w_n) a_n)) for
    every c != 0; None when only zero solves it.

    The exponent vectors, columns (D, w_1, ..., w_n, L), have the kernel of
    their Gram matrix, (n + 2)^2 integers whatever the number of terms (a
    numpy product, int64 while it cannot overflow).  Gauss-Jordan elimination
    on it in integers (each new row divided by the gcd of its entries) sets
    every column without a pivot to 1, so L = 1 whenever a solution has
    L != 0 (its column is then free), and the solution is scaled by the lcm
    of its denominators (``t^2 + A1^3`` gives L = 3, w = 2, D = 6)."""
    big = len(F.terms) * max([1, *map(max, F.terms)]) ** 2 >= 2**62
    M = np.array([[-1, *e[1:], e[0]] for e in F.terms], object if big else np.int64).reshape(-1, F.n + 2)
    rows = (M.T @ M).tolist()
    pivots = []
    for col in range(F.n + 2):
        r = len(pivots)
        pick = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if pick is None:
            continue
        rows[r], rows[pick] = rows[pick], rows[r]
        top = rows[r]
        for i, row in enumerate(rows):
            if i != r and row[col]:
                a, b = top[col], row[col]
                row = [a * x - b * y for x, y in zip(row, top)]
                g = math.gcd(*row) or 1
                rows[i] = [x // g for x in row]
        pivots.append(col)
    if len(pivots) == F.n + 2:
        return None
    x = [Fraction(1)] * (F.n + 2)
    for row, col in zip(rows, pivots):  # 0 at the other pivots
        x[col] = Fraction(row[col] - sum(row), row[col])
    scale = math.lcm(*(v.denominator for v in x))
    D, *w, L = (int(v * scale) for v in x)
    return L, tuple(w), D


def classify_specialization(F: MultiPoly, point) -> SpecializationOutcome:
    """Degree drop, repeated factors, or the factorization type at a point,
    with the errors of classify_points: a block of one point."""
    outcome = next(classify_points(F, [point]))
    if isinstance(outcome, tuple):
        return SpecializationOutcome(TYPE, outcome)
    return SpecializationOutcome(outcome)


# -- admissibility ----------------------------------------------------------------


@dataclass(frozen=True)
class AdmissibilityReport:
    """Degree data plus the exact discriminant verdict.

    ``disc_nonzero`` tells whether the discriminant of F in t is not
    identically zero, and ``trials_used`` counts the points classified to
    decide it.  ``admissible`` additionally demands p > deg_t; statistics can
    still be computed without that (the comparison report flags it), but
    classification itself needs ``classifiable``.
    """

    deg_t: int
    total_degree: int
    disc_nonzero: bool
    p_gt_d: bool
    trials_used: int

    @property
    def admissible(self) -> bool:
        return self.disc_nonzero and self.p_gt_d and self.deg_t >= 1

    @property
    def classifiable(self) -> bool:
        return self.disc_nonzero and self.deg_t >= 1


def _find_subfield_root(base: FieldCtx, ext: FieldCtx):
    """A root in ext of the modulus of base: the first trace z + z^q + ...
    + z^(q^(m-1)), m = [ext : base], over z = 0, 1, 2, ... that is one.  The
    trace maps ext onto its copy of GF(q), k of whose q elements are roots."""
    mod = UniPoly.from_ints(ext, base.modulus)
    for z in ext.elements():
        w = z
        for _ in range(ext.k // base.k - 1):
            z = ext.pow(z, base.q)
            w = ext.add(w, z)
        if mod.evaluate(w) == 0:
            return w


def _lift_terms(F: MultiPoly, ext: FieldCtx):
    """Re-encode the coefficients of F inside an extension of its field."""
    base = F.ctx
    if base.k == 1:
        return dict(F.terms)  # residues < p are valid encodings everywhere
    # c = sum c_i x^i maps to sum c_i root^i, a root of the base modulus
    root = _find_subfield_root(base, ext)
    return {e: UniPoly.from_ints(ext, base.coords(c)).evaluate(root) for e, c in F.terms.items()}


def admissibility(F: MultiPoly, budget: int = DEFAULT_BUDGET) -> AdmissibilityReport:
    """Decide exactly whether the discriminant R(a) of F(t, a) in t is not
    identically zero.  R = res_t(F, F_t), the determinant of deg_t - 1 rows
    of F's coefficients and deg_t rows of F_t's (c t^e A^m gives e c t^(e-1)
    A^m when p does not divide e), has degree at most B_i = (deg_t - 1)
    deg_(A_i) F + deg_t deg_(A_i) F_t in A_i, so R = 0 exactly when it
    vanishes on a grid T_1 x ... x T_n with |T_i| = B_i + 1 (Alon's
    Combinatorial Nullstellensatz, Lemma 2.1).  T_i is the encodings 0..B_i,
    in GF(q) when q > max B_i, else in GF(q^m) for the first m with q^m >
    max B_i, F lifted there.  A full-degree specialization has R(a) != 0
    exactly when it is squarefree.  Two grid points are tried alone first,
    by ``specialize`` and ``is_squarefree``: the last, (B_1, ..., B_n), then
    ((B_i - i) mod (B_i + 1))_i, off the diagonal A_1 = ... = A_n.  Past
    them the grid is charged against the budget (BudgetExceededError) and
    walked in ``spec_keys`` blocks, built one at a time, up to the first
    witness; ``trials_used`` counts the distinct points classified."""
    d, n, base = F.deg_t, F.n, F.ctx

    def report(ok, used):
        return AdmissibilityReport(d, F.total_degree, ok, base.p > d, used)

    if d < 1:
        return report(False, 0)
    derivative = [e for e in F.terms if e[0] % base.p]  # the terms that F_t keeps
    sides = [(d - 1) * max(e[i] for e in F.terms) + d * max((e[i] for e in derivative), default=0) + 1
             for i in range(1, n + 1)]
    m = 1
    while base.q**m < max(sides, default=1):
        m += 1
    G = F
    if m > 1:
        ext = FieldCtx(base.p, base.k * m)
        G = MultiPoly(ext, n, _lift_terms(F, ext))
    corner, off = tuple(s - 1 for s in sides), tuple((s - 1 - i) % s for i, s in enumerate(sides, 1))
    points = list(dict.fromkeys([corner, off]))
    for used, a in enumerate(points, 1):
        f = G.specialize(a)
        if f.degree == d and is_squarefree(f):
            return report(True, used)
    count = math.prod(sides)
    charge(count, budget, f"deciding the discriminant walks a grid of {count} points")
    require_dense_budget(G, budget, count)
    skip = [np.ravel_multi_index(a, sides) for a in points]  # left out of the walk
    used, size = len(points), _spec_block(d, G.ctx)[1]
    for lo in range(0, count, size):
        hi = min(lo + size, count)
        rows = np.delete(np.arange(lo, hi), [i - lo for i in skip if lo <= i < hi])
        if not len(rows):
            continue
        keys = next(spec_keys(G, np.stack(np.unravel_index(rows, sides), axis=1)))
        hits = np.flatnonzero(keys >= 0)
        if len(hits):
            return report(True, used + int(hits[0]) + 1)
        used += len(keys)
    return report(False, used)


def require_classifiable(F: MultiPoly, budget: int = DEFAULT_BUDGET) -> AdmissibilityReport:
    rep = admissibility(F, budget)
    if not rep.classifiable:
        raise NotAdmissibleError(
            "polynomial has no usable specializations: "
            + ("deg_t < 1" if rep.deg_t < 1 else "discriminant in t vanishes identically")
        )
    return rep
