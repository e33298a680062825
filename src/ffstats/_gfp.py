"""Dense univariate polynomial kernels over GF(q): the one set of polynomial
algorithms in the package, for prime fields and extension fields alike.

Polynomials are plain lists of coefficients, index = degree, with no
trailing zeros; ``[]`` is the zero polynomial.  Coefficients are element
encodings (``field``), and the list kernels touch them only through the
scalar operations of the field ``F`` they take (``F.add``, ``F.sub``,
``F.mul``, ``F.neg``, ``F.pow``, ``F.inv``), so one definition serves every
field, and a test can pass a field of its own.  Zero encodes as 0 and one
as 1, so ``if c``, ``c == 1`` and trimming mean the same on every field.
Callers pass reduced coefficients.

Every polynomial is classified by :func:`gf_spec_types`, a whole block at
once: distinct-degree splitting by numpy ranks over GF(q), with GF(q)
products taken through the multiplication tensor of a :class:`VecField`; a
prime field is the case k = 1.  Its arrays hold int32 while every sum
stays below 2^31, int64 within :func:`gf_batch_fits` and Python ints
(object arrays) past it, as :func:`gf_dtype` chooses, and the algorithm is
the same on all three; :func:`gf_spec_type` is its one-row reading.  Its
keys have one codec, :func:`gf_type_key` and its inverse
:func:`gf_key_type`, which name each outcome by its parts (a descending
tuple), :data:`DEGREE_DROP` or :data:`NON_SQUAREFREE`.
"""

from itertools import zip_longest

import numpy as np

# gf_spec_types keeps every sum of a block within its dtype: below 2^31 on
# int32 when max(d, k^2) * p^2 < 2^30, below 2^63 on int64 when
# max(d, k^2) * p^2 < 2^62.  Every sum of raw coordinate products is reduced
# mod p before it meets the multiplication tensor, and every tensor
# contraction is reduced after it: a contraction sums k^2 products of
# residues; a product mod f sums d products, then its reduced high half meets
# the table of x^s mod f in sums of d - 1 products and a residue, below d p^2
# before % p; an entry of x^(q^j) = x^(q^(j-1)) Q sums d products; an
# elimination step subtracts two products of entries in (-p, p), below 2 p^2
# in size; a coefficient of f' is a residue times at most d.  So every sum is
# below max(d, k^2, 2) p^2 <= 2 max(d, k^2) p^2, under twice the limit.
# Points are cast into the block's dtype as encodings below q, so q is below
# the limit too.  Past the int64 bound the same kernel runs on object arrays
# of Python ints; gf_dtype is the one place that chooses among the three.
_INT32_LIMIT = 1 << 30
_INT64_LIMIT = 1 << 62


def gf_trim(f):
    while f and f[-1] == 0:
        f.pop()
    return f


def gf_add(f, g, F):
    return gf_trim([F.add(a, b) for a, b in zip_longest(f, g, fillvalue=0)])


def gf_sub(f, g, F):
    return gf_trim([F.sub(a, b) for a, b in zip_longest(f, g, fillvalue=0)])


def gf_mul(f, g, F):
    if not f or not g:
        return []
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] = F.add(out[i + j], F.mul(a, b))
    return gf_trim(out)


def gf_monic(f, F):
    f = gf_trim(list(f))
    if not f or f[-1] == 1:
        return f
    inv = F.inv(f[-1])
    return [F.mul(c, inv) for c in f]


def gf_divmod(f, g, F):
    dg = len(g) - 1
    if dg < 0:
        raise ZeroDivisionError("polynomial division by zero")
    r = list(f)
    if len(r) - 1 < dg:
        return [], gf_trim(r)
    q = [0] * (len(r) - dg)
    inv = 1 if g[-1] == 1 else F.inv(g[-1])
    for i in range(len(r) - 1, dg - 1, -1):
        c = r[i]
        if c:
            if inv != 1:
                c = F.mul(c, inv)
            q[i - dg] = c
            for j in range(dg):
                r[i - dg + j] = F.sub(r[i - dg + j], F.mul(c, g[j]))
            r[i] = 0
    return gf_trim(q), gf_trim(r[:dg])


def gf_rem(f, g, F):
    return gf_divmod(f, g, F)[1]


def gf_gcd(f, g, F):
    a, b = list(f), list(g)
    while b:
        a, b = b, gf_rem(a, b, F)
    return gf_monic(a, F)


def gf_diff(f, F):
    return gf_trim([F.mul(i % F.p, c) for i, c in enumerate(f)][1:])


# -- batched classification ----------------------------------------------------
# The batch is the last axis, so that numpy's inner loops run along it.  A
# block of GF(q) elements is a (k, N) array of power-basis coordinates, one
# element per column; a block of polynomials a (d, k, N) array, a block of
# matrices a (d, d, k, N) array.  Prime fields are the case k = 1.


class VecField:
    """GF(q) arithmetic on coordinate arrays, int32, int64 or object, for
    one field; the per-field constants of the batched kernels.

    Built from ``tail``, the coordinates of x^k mod the modulus
    (``FieldCtx.tail``; () or (0,) for a prime field, modulus x).  A
    product a*b of GF(q) elements is bilinear in their coordinates:
    (a*b)_l = sum_ij a_i b_j T[i, j, l], where row T[i, j] holds the
    coordinates of x^(i+j) reduced by the modulus.  ``outer`` forms the
    coordinate products a_i b_j and ``contract`` applies T, so that sums of
    products can be accumulated raw and contracted once.  On a prime field
    (k = 1) ``outer`` is the plain product and ``contract`` does nothing, so
    a product there costs one ``a * b % p`` and no contraction.  The tensor
    is int64 while its entries, below p, fit it, and an object array past
    that; every method returns arrays in the dtype of its arguments, the
    constants cast to it.
    """

    __slots__ = ("p", "k", "q", "tensor", "frobenius_bits", "one", "_flat")

    def __init__(self, p, tail):
        k = len(tail) or 1
        self.p, self.k, self.q = p, k, p**k
        # x^s for s = 0..2k-2 by repeated times-x; x^k = sum tail[j] x^j
        powers = [[1] + [0] * (k - 1)]
        for _ in range(2 * k - 2):
            v = powers[-1]
            powers.append([(a + v[-1] * t) % p for a, t in zip([0] + v[:-1], tail)])
        dtype = np.int64 if p < 1 << 63 else object
        tensor = np.array([[powers[i + j] for j in range(k)] for i in range(k)], dtype=dtype)
        flat = tensor.reshape(k * k, k).T
        one = np.zeros((k, 1), dtype=np.int64)
        one[0] = 1
        for a in (tensor, flat, one):
            a.flags.writeable = False  # shared by every block and thread
        self.tensor, self._flat, self.one = tensor, flat, one
        self.frobenius_bits = bin(self.q)[2:]

    def outer(self, a, b):
        """The coordinate products of a and b, broadcast over the leading
        axes; entries below p^2 in size when a and b are reduced."""
        if self.k == 1:
            return a * b
        k = self.k
        x = a[..., :, None, :] * b[..., None, :, :]
        return x.reshape(x.shape[:-3] + (k * k, x.shape[-1]))

    def contract(self, x):
        """GF(q) elements from sums of ``outer`` products.  When k > 1 each
        coordinate product is reduced mod p, summed against T (sums below
        k^2 p^2) and the result reduced again; when k = 1 the sum is returned
        as it is, for the caller to reduce."""
        if self.k == 1:
            return x
        return self.reduce(np.matmul(self._flat.astype(x.dtype, copy=False), self.reduce(x)))

    def prod(self, a, b):
        """a*b, congruent mod p to the reduced product: below p^2 in size
        for reduced a and b, and reduced already when k > 1."""
        return self.contract(self.outer(a, b))

    def mul(self, a, b):
        return self.reduce(self.prod(a, b))

    def reduce(self, x):
        """x mod p, elementwise: x - x // p * p on int32 and int64, as numpy
        strength-reduces // by a scalar but divides for %; x % p on objects,
        one Python-int call."""
        return x % self.p if x.dtype == object else x - x // self.p * self.p

    def pow(self, a, e):
        """a**e elementwise, for a block of reduced elements: square and
        multiply from a itself (a**1 is a, no product), or one for e = 0."""
        if e == 0:
            r = np.zeros_like(a)
            r[0] = 1
            return r
        r = a
        for bit in bin(e)[3:]:
            r = self.mul(r, r)
            if bit == "1":
                r = self.mul(r, a)
        return r


def gf_batch_fits(d, k, p):
    """Whether gf_spec_types can classify degree-d polynomials over GF(p^k)
    on a fixed width (int64 at the widest), and points over it can be read
    into int64."""
    return max(d, k * k) * p * p < _INT64_LIMIT and p**k < _INT64_LIMIT


def gf_dtype(d, k, p):
    """The dtype in which degree-d polynomials over GF(p^k) are specialized
    and classified: int32 while max(d, k^2) p^2 < 2^30 and q < 2^30, int64
    within gf_batch_fits, else object (Python ints)."""
    if not gf_batch_fits(d, k, p):
        return object
    return np.int32 if max(d, k * k) * p * p < _INT32_LIMIT and p**k < _INT32_LIMIT else np.int64


def gf_key_dtype(d):
    """int64 while every degree-d key, below (d+1)^(d/2), fits it, else object."""
    return np.int64 if (d + 1) ** (d // 2) <= 1 << 63 else object


NON_SQUAREFREE = "non_squarefree"
DEGREE_DROP = "degree_drop"


def gf_type_key(outcome, d):
    """The gf_spec_types key of a degree-d outcome: -2 for DEGREE_DROP, -1 for
    NON_SQUAREFREE, for parts the sum of e (d+1)^(e-1) over parts e <= d/2,
    whose base-(d+1) digits are e c_e (c_e parts equal to e)."""
    if outcome == DEGREE_DROP:
        return -2
    if outcome == NON_SQUAREFREE:
        return -1
    return sum(e * (d + 1) ** (e - 1) for e in outcome if 2 * e <= d)


def gf_key_type(key, d):
    """The outcome of a degree-d key: the inverse of gf_type_key."""
    if key < 0:
        return DEGREE_DROP if key == -2 else NON_SQUAREFREE
    small = []
    for e in range(1, d // 2 + 1):
        key, digit = divmod(key, d + 1)
        small[:0] = [e] * (digit // e)
    rest = d - sum(small)  # zero, or one factor of degree above d/2
    return (rest, *small) if rest else tuple(small)


def _vmulrem(u, v, table, field):
    # u*v mod the monic f, column by column; the high half of the product,
    # degrees d..2d-2, takes one contraction against table[s - d] = x^s mod f
    d = len(u)
    m = np.zeros((2 * d - 1, field.k * field.k, v.shape[-1]), dtype=v.dtype)
    for i in range(d):
        m[i : i + d] += field.outer(u[i], v)
    m = field.reduce(field.contract(m))
    high = field.outer(m[d:, None], table).sum(axis=0, dtype=m.dtype)
    return field.reduce(m[:d] + field.contract(high))


def _vrank(a, field):
    # Ranks over GF(q) of a (d, d, k, N) block with entries in (-p, p),
    # overwriting it.  Elimination cross-multiplies, row*pivot -
    # pivot_row*entry, so it needs no inverses; only rows not yet pivots,
    # right of the current column, are read again.
    d, _, _, n = a.shape
    at = np.arange(n)
    one = field.one.astype(a.dtype)
    free = np.ones((d, n), dtype=bool)
    for c in range(d):
        col = np.where(free[:, None], a[:, c], 0)
        nonzero = col.any(axis=1)
        has = nonzero.any(axis=0)
        piv = nonzero.argmax(axis=0)
        free[piv[has], at[has]] = False
        if c == d - 1:  # the last column only counts its pivots
            break
        rest = a[:, c + 1 :]
        prow = np.ascontiguousarray(rest[piv, :, :, at].transpose(1, 2, 0))
        col[piv, :, at] = 0
        pivot = np.where(has, a[piv, c, :, at].T, one)
        x = field.outer(rest, pivot)
        x -= field.outer(col[:, None], prow)
        rest[...] = field.reduce(field.contract(x))
    return d - free.sum(axis=0)


def _times_x(h, f, field):
    # x*h mod the monic f: a shift and one reduction step
    return field.reduce(np.concatenate((np.zeros_like(h[:1]), h[:-1])) - field.prod(h[-1], f))


def gf_spec_types(c, field):
    """Classify a block of polynomials: c is an (N, d+1, k) array of reduced
    power-basis coordinates, one polynomial over GF(q) = ``field`` per row,
    d >= 1, of :func:`gf_dtype` (every array of the kernel takes the dtype
    of c).  Returns a key per row, of
    :func:`gf_key_dtype` (:func:`gf_type_key`, read back by
    :func:`gf_key_type`): -2 when the degree-d coefficient is zero, -1 for
    a repeated factor, otherwise the base-(d+1) code of D_1..D_(d/2) after
    Mobius inversion.

    Distinct-degree splitting by ranks (von zur Gathen & Gerhard, Modern
    Computer Algebra, ch. 14): deg gcd(g, f) = d - rank M_g, where row i of
    M_g is x^i g mod f.  The monic f is squarefree iff rank M_f' = d.  Then
    D_j = deg gcd(x^(q^j) - x, f) = sum over e | j of e c_e, where c_e counts
    the factors of degree e; D_1..D_(d/2) give c_e for e <= d/2, and the
    rest of the degree is zero or one factor.  x^(q^j) is x^(q^(j-1)) times
    the Frobenius matrix Q, whose row i is x^(iq) mod f (a -> a^q is
    GF(q)-linear on GF(q)[x]/(f)); every product mod f reduces its high
    half against one table of x^s mod f, s = d..2d-2.  The 1 + d // 2
    matrices M_g of a block are stacked on the batch axis and take one rank.
    """
    n, d = c.shape[0], c.shape[1] - 1
    p, half = field.p, d // 2
    keys = np.full(n, -2, dtype=gf_key_dtype(d))
    live = np.flatnonzero(c[:, d].any(axis=1))
    c = c[live].transpose(1, 2, 0)
    f = c[:d]
    if (c[d] != field.one).any():  # make each row monic
        f = field.mul(f, field.pow(c[d], field.q - 2))
    monic = np.concatenate((f, np.zeros_like(f[:1])))
    monic[d, 0] = 1
    gs = [np.arange(1, d + 1, dtype=f.dtype)[:, None, None] * monic[1:] % p]  # f'
    if d >= 2:
        table = [-f % p]  # x^d mod f, then times x up to x^(2d-2)
        for _ in range(d - 2):
            table.append(_times_x(table[-1], f, field))
        table = np.stack(table)
        h = np.zeros_like(f)  # x^q mod f, from x: the leading bit of q
        h[1, 0] = 1
        for bit in field.frobenius_bits[1:]:
            h = _vmulrem(h, h, table, field)
            if bit == "1":
                h = _times_x(h, f, field)
    if d >= 4:
        q = np.zeros((d,) + f.shape, dtype=f.dtype)
        q[0, 0, 0] = 1
        q[1] = h
        for i in range(2, d):
            q[i] = _vmulrem(q[i - 1], h, table, field)
    for j in range(half):
        if j:  # x^(q^(j+1)) = x^(q^j) Q, d products a coordinate
            h = field.reduce(field.contract(field.outer(h[:, None], q).sum(axis=0, dtype=h.dtype)))
        g = h.copy()
        g[1, 0] -= 1
        gs.append(g)
    rows = [np.concatenate(gs, axis=-1)]  # row i of every M_g: x^i g mod f
    f = np.tile(f, len(gs))
    for _ in range(1, d):
        rows.append(_times_x(rows[-1], f, field))
    degrees = d - _vrank(np.stack(rows), field).reshape(len(gs), -1)
    for e in range(1, half + 1):  # Mobius inversion, as a sieve, leaves e c_e
        degrees[2 * e :: e] -= degrees[e]
    weights = np.array([(d + 1) ** e for e in range(half)], keys.dtype)
    keys[live] = np.where(degrees[0] == 0, weights @ degrees[1:], -1)
    return keys


def gf_spec_type(f, F):
    """The :func:`gf_spec_types` key of one polynomial f of degree >= 1 over
    the field F: its encodings, on the dtype :func:`gf_dtype` picks, are
    read into coordinates by ``F.decode`` and classified on ``F.vec``.  The
    benchmark's traced run wraps it by this name."""
    codes = np.array(f, gf_dtype(len(f) - 1, F.k, F.p))
    return int(gf_spec_types(F.decode(codes)[None], F.vec)[0])


def gf_resultant(f, g, F):
    """res(f, g) by a remainder sequence tracking leading coefficients."""
    a, b = list(f), list(g)
    if not a or not b:
        return 0
    acc = 1
    while True:
        m, n = len(a) - 1, len(b) - 1
        if n == 0:
            return F.mul(acc, F.pow(b[0], m))
        r = gf_rem(a, b, F)
        if not r:
            return 0
        acc = F.mul(acc, F.pow(b[-1], m - (len(r) - 1)))
        if (m * n) % 2:
            acc = F.neg(acc)
        a, b = b, r


def gf_interpolate(xs, ys, F):
    """Lagrange interpolation through (xs[i], ys[i]); xs distinct."""
    acc = []
    for i, xi in enumerate(xs):
        num = [1]
        den = 1
        for j, xj in enumerate(xs):
            if j != i:
                num = gf_mul(num, [F.neg(xj), 1], F)
                den = F.mul(den, F.sub(xi, xj))
        scale = F.mul(ys[i], F.inv(den))
        acc = gf_add(acc, [F.mul(c, scale) for c in num], F)
    return acc
