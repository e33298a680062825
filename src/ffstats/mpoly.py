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
import random
from dataclasses import dataclass

import numpy as np

from . import _gfp
from ._gfp import DEGREE_DROP, NON_SQUAREFREE  # re-exported: outcomes of classify_points
from .errors import (
    ArityMismatchError,
    BudgetExceededError,
    NegativeExponentError,
    NotAdmissibleError,
    PolynomialSyntaxError,
    UnknownVariableError,
)
from .field import FieldCtx
from .sets import DEFAULT_BUDGET
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


def _tmul(ctx, a, b, charge=None):
    if charge is not None:
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


def _tpow(ctx, a, e, nvars, charge=None):
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
    """Sparse polynomial in t and A1..An; immutable after construction."""

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

    # -- constructors ---------------------------------------------------------

    @classmethod
    def constant(cls, ctx, n, c):
        return cls(ctx, n, {(0,) * (n + 1): c})

    @classmethod
    def variable_t(cls, ctx, n):
        return cls(ctx, n, {(1,) + (0,) * n: 1})

    @classmethod
    def parameter(cls, ctx, n, i):
        if not 1 <= i <= n:
            raise ValueError(f"parameter index {i} out of range 1..{n}")
        e = [0] * (n + 1)
        e[i] = 1
        return cls(ctx, n, {tuple(e): 1})

    @classmethod
    def from_unipoly(cls, f: UniPoly, n: int):
        """Lift a polynomial in t alone to one with n (unused) parameters."""
        terms = {}
        for i, c in enumerate(f.coeffs):
            if c:
                terms[(i,) + (0,) * n] = c
        return cls(f.ctx, n, terms)

    # -- degrees ----------------------------------------------------------------

    @property
    def deg_t(self) -> int:
        return max((e[0] for e in self.terms), default=-1)

    @property
    def total_degree(self) -> int:
        return max((sum(e) for e in self.terms), default=-1)

    @property
    def deg_params(self) -> int:
        return max((sum(e[1:]) for e in self.terms), default=0)

    # -- ring operations ---------------------------------------------------------

    def _compatible(self, other):
        if self.ctx != other.ctx or self.n != other.n:
            raise ValueError("polynomials over different contexts or arities")

    def __add__(self, other):
        self._compatible(other)
        return MultiPoly(self.ctx, self.n, _tadd(self.ctx, self.terms, other.terms))

    def __sub__(self, other):
        self._compatible(other)
        return MultiPoly(
            self.ctx, self.n, _tadd(self.ctx, self.terms, _tneg(self.ctx, other.terms))
        )

    def __neg__(self):
        return MultiPoly(self.ctx, self.n, _tneg(self.ctx, self.terms))

    def __mul__(self, other):
        self._compatible(other)
        return MultiPoly(self.ctx, self.n, _tmul(self.ctx, self.terms, other.terms))

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
    def __init__(self, tokens, ctx, n, budget):
        self.toks = tokens
        self.pos = 0
        self.ctx = ctx
        self.n = n
        self.budget = budget
        self.spent = 0
        self.depth = 0

    def check(self, cost):
        if self.spent + cost > self.budget:
            raise BudgetExceededError(
                f"expansion costs {self.spent + cost} term products, budget is {self.budget}"
            )

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
            acc = acc + rhs if op == "+" else acc - rhs
        return acc

    def term(self):
        negate = False
        if self.peek()[0] == "-":
            self.advance()
            negate = True
        acc = self.factor()
        while self.peek()[0] == "*":
            self.advance()
            terms = _tmul(self.ctx, acc.terms, self.factor().terms, self.charge)
            acc = MultiPoly(self.ctx, self.n, terms)
        return -acc if negate else acc

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
                self.check(_tpow_cost(base.terms, tok[1]))
            terms = _tpow(self.ctx, base.terms, tok[1], self.n, self.charge)
            return MultiPoly(self.ctx, self.n, terms)
        return base

    def atom(self):
        tok = self.advance()
        kind, val, pos = tok
        ctx, n = self.ctx, self.n
        if kind == "END":
            raise PolynomialSyntaxError("unexpected end of expression", pos)
        if kind == "INT":
            return MultiPoly.constant(ctx, n, ctx.from_int(val))
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
            return MultiPoly.constant(ctx, n, ctx.from_coords(coords))
        if kind == "NAME":
            if val == "t":
                return MultiPoly.variable_t(ctx, n)
            if val[0] == "A" and val[1:].isdigit():
                i = int(val[1:])
                if 1 <= i <= n:
                    return MultiPoly.parameter(ctx, n, i)
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
    return _Parser(_tokenize(expr), ctx, n, budget).parse()


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
    codes, an (N, n) array of element encodings (``sets.point_codes`` or
    ``ctx.encodings``).  Each block is cast to ``_gfp.gf_dtype`` (int32
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
    if work > budget:
        raise BudgetExceededError(
            f"classifying {m} points of degree {d} in t stacks {work} rank entries, budget is {budget}"
        )


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
    """Degree data plus the sampled discriminant verdict.

    ``disc_nonzero`` is one-sided: True is certain, False is wrong with
    probability at most 2^-trials when the discriminant is not identically
    zero.  ``admissible`` additionally demands p > deg_t; statistics can
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


def _disc_degree_bound(F: MultiPoly) -> int:
    # res_t(F, F_t) is a determinant of size < 2*deg_t with entries of
    # parameter degree <= deg_params.
    return max(0, (2 * F.deg_t - 1) * F.deg_params)


def _find_subfield_root(base: FieldCtx, ext: FieldCtx):
    """A root in ext of the modulus of base.  The trace z + z^q + ... +
    z^(q^(m-1)) down to the copy of GF(q) in ext, m = [ext : base], is
    uniform there for a uniform z, and k of its q elements are roots, so
    about q/k draws find one; the draws are seeded by the two fields."""
    mod = UniPoly.from_ints(ext, base.modulus)
    rng = random.Random(f"{base!r} in {ext!r}")
    while True:
        w = z = ext.random_element(rng)
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


def disc_nonzero_probabilistic(F: MultiPoly, trials: int = 32, seed: int = 0):
    """Sampled check that the discriminant of F in t is not identically zero.

    Points are drawn from an extension large enough that a nonzero
    discriminant vanishes on at most half of it, so each failing trial
    halves the false-negative probability.  Returns (verdict, trials_used);
    a True verdict is exact.
    """
    if F.deg_t < 1:
        raise ValueError("needs positive degree in t")
    base = F.ctx
    bound = _disc_degree_bound(F)
    m = 1
    while base.q**m <= 2 * bound:
        m += 1
    if m == 1:
        sample = F
    else:
        sctx = FieldCtx(base.p, base.k * m, seed=seed + 1)
        sample = MultiPoly(sctx, F.n, _lift_terms(F, sctx))
    rng = random.Random(seed)
    for trial in range(trials):
        point = [sample.ctx.random_element(rng) for _ in range(F.n)]
        # a full-degree specialization has a nonzero discriminant exactly
        # when it is squarefree
        f = sample.specialize(point)
        if f.degree == F.deg_t and is_squarefree(f):
            return True, trial + 1
    return False, trials


def admissibility(F: MultiPoly, trials: int = 32, seed: int = 0) -> AdmissibilityReport:
    d = F.deg_t
    if d < 1:
        return AdmissibilityReport(d, F.total_degree, False, F.ctx.p > d, 0)
    ok, used = disc_nonzero_probabilistic(F, trials=trials, seed=seed)
    return AdmissibilityReport(d, F.total_degree, ok, F.ctx.p > d, used)


def require_classifiable(F: MultiPoly, trials: int = 32, seed: int = 0) -> AdmissibilityReport:
    rep = admissibility(F, trials=trials, seed=seed)
    if not rep.classifiable:
        raise NotAdmissibleError(
            "polynomial has no usable specializations: "
            + ("deg_t < 1" if rep.deg_t < 1 else "discriminant in t vanishes identically")
        )
    return rep
