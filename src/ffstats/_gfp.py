"""Dense univariate polynomial kernels over GF(q): the one set of polynomial
algorithms in the package, for prime fields and extension fields alike.

Polynomials are plain lists of coefficients, index = degree, with no
trailing zeros; ``[]`` is the zero polynomial.  The kernels touch a
coefficient only through ``+``, ``-``, ``*`` on ints and ``% p``, so the
argument ``p`` decides the field:

* for GF(p), ``p`` is the prime itself and coefficients are residues in
  [0, p);
* for GF(p^k), ``p`` is the field's :class:`Packed` reducer and each
  coefficient is an element packed into one int (Kronecker substitution):
  coordinate i of the power basis sits in bits [W*i, W*(i+1)).  An integer
  product of two packed elements is then their polynomial product with
  signed lanes, and ``x % reducer`` turns any such sum back into a reduced
  packed element.

Zero packs to 0 and one packs to 1, so ``if c``, ``c == 1`` and trimming
mean the same on both kinds of field.  Callers pass reduced coefficients.
Frobenius powers need the field size ``q`` besides ``p``.

Sweeps classify a whole block of polynomials at once with
:func:`gf_spec_types`, int64 numpy linear algebra on Frobenius matrices over
GF(q), with GF(q) products taken through the multiplication tensor of a
:class:`VecField`; a prime field is the case k = 1.  The scalar
:func:`gf_spec_type`, one distinct-degree pass per polynomial, is the
reference the batched kernel is tested against, and serves single
polynomials and fields past the int64 bound of :func:`gf_batch_fits`.  The
scalar kernels avoid classes and keep their inner loops allocation-light.
The module keeps its historical name because the benchmark's traced run
wraps ``_gfp.gf_spec_type``.
"""

import functools

import numpy as np

# gf_spec_types keeps every int64 sum below 2^63 when max(d, k^2) * p^2 <
# 2^62.  Every sum of raw coordinate products is reduced mod p before it
# meets the multiplication tensor, and every tensor contraction is reduced
# after it: a contraction sums k^2 products of residues; a mulmod entry sums
# at most d products and subtracts at most d - 1 more (reduced elements when
# k > 1); an entry of Q^j sums d products; an elimination step subtracts two
# products.  Points are read into int64 as encodings below q, so q < 2^62 too.
_INT64_LIMIT = 1 << 62


class Packed:
    """Reducer of GF(p^k) whose elements are packed into signed W-bit lanes.

    W = 2*bitlen(p) + bitlen(k) + 41, so one lane holds, with its sign, the
    sum of up to 2^40 products of packed elements (each lane of one product
    is a sum of at most k products of reduced coordinates, each below p^2):
    every kernel sum is far shorter, since no coefficient list that fits in
    memory has 2^40 terms.  ``x % reducer`` reads the signed lanes of x,
    reduces each lane mod p, reduces by the field modulus and repacks; it is
    the only place that reduces by the modulus.
    """

    __slots__ = ("p", "k", "q", "width", "mask", "half", "tail")

    def __init__(self, p, modulus):
        k = len(modulus) - 1
        self.p = p
        self.k = k
        self.q = p**k
        self.width = 2 * p.bit_length() + k.bit_length() + 41
        self.mask = (1 << self.width) - 1
        self.half = 1 << (self.width - 1)
        # x^k = sum tail[j] x^j modulo the monic modulus
        self.tail = [-c % p for c in modulus[:k]]

    def pack(self, a):
        """Packed form of an element encoded as c0 + c1*p + ... (base p);
        ValueError unless 0 <= a < q."""
        if not 0 <= a < self.q:
            raise ValueError(f"{a} does not encode an element of GF({self.q})")
        p, width = self.p, self.width
        x = 0
        shift = 0
        while a:
            a, c = divmod(a, p)
            x |= c << shift
            shift += width
        return x

    def unpack(self, x):
        """Base-p encoding of a reduced packed element."""
        p, width, mask = self.p, self.width, self.mask
        a = 0
        m = 1
        while x:
            a += (x & mask) * m
            x >>= width
            m *= p
        return a

    def __rmod__(self, x):
        p, k, width, mask, half = self.p, self.k, self.width, self.mask, self.half
        cs = []
        while x:
            v = x & mask
            x >>= width
            if v >= half:
                v -= mask + 1
                x += 1
            cs.append(v % p)
        for i in range(len(cs) - 1, k - 1, -1):
            c = cs[i] % p
            if c:
                off = i - k
                for j, t in enumerate(self.tail):
                    cs[off + j] += c * t
        out = 0
        for c in reversed(cs[:k]):
            out = (out << width) | (c % p)
        return out


def gf_pow(a, e, p):
    """a**e for one coefficient."""
    if isinstance(p, int):
        return pow(a, e, p)
    r = 1
    for bit in bin(e)[2:]:
        r = r * r % p
        if bit == "1":
            r = r * a % p
    return r


def gf_inv(a, p):
    """Inverse of one nonzero coefficient, a^(q-2)."""
    if isinstance(p, int):
        return pow(a, p - 2, p)
    return gf_pow(a, p.q - 2, p)


def gf_trim(f):
    while f and f[-1] == 0:
        f.pop()
    return f


def gf_add(f, g, p):
    out = [0] * max(len(f), len(g))
    for i, c in enumerate(f):
        out[i] = c
    for i, c in enumerate(g):
        out[i] = (out[i] + c) % p
    return gf_trim(out)


def gf_sub(f, g, p):
    out = [0] * max(len(f), len(g))
    for i, c in enumerate(f):
        out[i] = c
    for i, c in enumerate(g):
        out[i] = (out[i] - c) % p
    return gf_trim(out)


def gf_mul(f, g, p):
    if not f or not g:
        return []
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] += a * b
    return gf_trim([c % p for c in out])


def gf_monic(f, p):
    f = gf_trim(list(f))
    if not f or f[-1] == 1:
        return f
    inv = gf_inv(f[-1], p)
    return [c * inv % p for c in f]


def gf_divmod(f, g, p):
    dg = len(g) - 1
    if dg < 0:
        raise ZeroDivisionError("polynomial division by zero")
    r = list(f)
    if len(r) - 1 < dg:
        return [], gf_trim(r)
    q = [0] * (len(r) - dg)
    inv = 1 if g[-1] == 1 else gf_inv(g[-1], p)
    for i in range(len(r) - 1, dg - 1, -1):
        c = r[i]
        if c:
            if inv != 1:
                c = c * inv % p
            q[i - dg] = c
            for j in range(dg):
                r[i - dg + j] = (r[i - dg + j] - c * g[j]) % p
            r[i] = 0
    return gf_trim(q), gf_trim(r[:dg])


def gf_rem(f, g, p):
    return gf_divmod(f, g, p)[1]


def gf_quo(f, g, p):
    return gf_divmod(f, g, p)[0]


def gf_gcd(f, g, p):
    a, b = list(f), list(g)
    while b:
        a, b = b, gf_rem(a, b, p)
    return gf_monic(a, p)


def gf_diff(f, p):
    return gf_trim([i * c % p for i, c in enumerate(f)][1:])


def _mulrem(u, v, g, dg, p):
    # u*v mod monic g; inputs deg < dg, output a length-<=dg list that may
    # carry trailing zeros (fine for repeated use inside gf_pow_mod).
    m = [0] * (len(u) + len(v) - 1)
    for i, a in enumerate(u):
        if a:
            for j, b in enumerate(v):
                m[i + j] += a * b
    m = [c % p for c in m]
    for i in range(len(m) - 1, dg - 1, -1):
        c = m[i]
        if c:
            off = i - dg
            for j in range(dg):
                m[off + j] = (m[off + j] - c * g[j]) % p
    del m[dg:]
    return m


def gf_pow_mod(f, e, g, p):
    """f**e mod g, with g monic of degree >= 1."""
    dg = len(g) - 1
    if e == 0:
        return [1] if dg > 0 else []
    base = gf_rem(f, g, p)
    if not base:
        return []
    r = list(base)
    for bit in bin(e)[3:]:
        r = _mulrem(r, r, g, dg, p)
        if bit == "1":
            r = _mulrem(r, base, g, dg, p)
    return gf_trim(r)


def gf_ddf_type(f, p, q):
    """Multiset of irreducible-factor degrees of a monic squarefree f over
    GF(q).

    Distinct-degree splitting only: stage i collects gcd(g, x^(q^i) - x),
    whose degree is i times the number of degree-i factors.  The factors
    themselves are never separated.  Returns a descending tuple.
    """
    parts = []
    g = f
    h = [0, 1]
    i = 0
    while True:
        dg = len(g) - 1
        if dg <= 0:
            break
        i += 1
        if 2 * i > dg:
            parts.append(dg)
            break
        h = gf_pow_mod(h, q, g, p)
        d = gf_gcd(gf_sub(h, [0, 1], p), g, p)
        dd = len(d) - 1
        if dd > 0:
            parts.extend([i] * (dd // i))
            g = gf_quo(g, d, p)
            if len(g) - 1 > 0:
                h = gf_rem(h, g, p)
    return tuple(sorted(parts, reverse=True))


def gf_spec_type(f, p, q):
    """Factor-degree multiset of f over GF(q) (descending tuple), or None
    when f has a repeated factor.  f must have degree >= 1 and a nonzero
    leading term; f of degree d is irreducible iff this returns (d,)."""
    if f[-1] != 1:
        inv = gf_inv(f[-1], p)
        f = [c * inv % p for c in f]
    if len(f) == 2:
        return (1,)
    fp = gf_diff(f, p)
    if not fp or len(gf_gcd(f, fp, p)) != 1:
        return None
    return gf_ddf_type(f, p, q)


# -- batched classification ----------------------------------------------------
# The batch is the last axis, so that numpy's inner loops run along it.  A
# block of GF(q) elements is a (k, N) array of power-basis coordinates, one
# element per column; a block of polynomials a (d, k, N) array, a block of
# matrices a (d, d, k, N) array.  Prime fields are the case k = 1.


class VecField:
    """GF(q) arithmetic on int64 coordinate arrays, for one field; the
    per-field constants of the batched kernels.

    A product a*b of GF(q) elements is bilinear in their coordinates:
    (a*b)_l = sum_ij a_i b_j T[i, j, l], where row T[i, j] holds the
    coordinates of x^(i+j) reduced by the modulus.  ``outer`` forms the
    coordinate products a_i b_j and ``contract`` applies T, so that sums of
    products can be accumulated raw and contracted once.  On a prime field
    (k = 1) ``outer`` is the plain product and ``contract`` does nothing, so
    a product there costs one ``a * b % p`` and no contraction.
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
        tensor = np.array([[powers[i + j] for j in range(k)] for i in range(k)], dtype=np.int64)
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
        return np.matmul(self._flat, x % self.p) % self.p

    def prod(self, a, b):
        """a*b, congruent mod p to the reduced product: below p^2 in size
        for reduced a and b, and reduced already when k > 1."""
        return self.contract(self.outer(a, b))

    def mul(self, a, b):
        return self.prod(a, b) % self.p

    def pow(self, a, e):
        """a**e elementwise, for a block of reduced elements."""
        r = np.zeros_like(a)
        r[0] = 1
        for bit in bin(e)[2:]:
            r = self.mul(r, r)
            if bit == "1":
                r = self.mul(r, a)
        return r

    def matmul(self, a, b):
        """Matrix product of (d, m, k, N) and (m, e, k, N) blocks, reduced."""
        if self.k == 1:
            return np.einsum("imn,mjn->ijn", a[:, :, 0], b[:, :, 0])[:, :, None] % self.p
        x = np.einsum("imxn,mjyn->ijxyn", a, b)
        return self.contract(x.reshape(x.shape[:2] + (self.k * self.k, x.shape[-1])))


def gf_batch_fits(d, k, p):
    """Whether gf_spec_types can classify degree-d polynomials over GF(p^k)
    in int64, and points over it can be read into int64."""
    return max(d, k * k) * p * p < _INT64_LIMIT and p**k < _INT64_LIMIT


def _vmulrem(u, v, f, field):
    # u*v mod the monic f, column by column; f omits its leading 1.
    d, p = len(u), field.p
    m = np.zeros((2 * d - 1, field.k * field.k, v.shape[-1]), dtype=np.int64)
    for i in range(d):
        m[i : i + d] += field.outer(u[i], v)
    m = field.contract(m)
    for s in range(2 * d - 2, d - 1, -1):
        m[s - d : s] -= field.prod(m[s] % p, f)
    return m[:d] % p


def _vrank(a, field):
    # Ranks over GF(q) of a (d, d, k, N) block with entries in (-p, p),
    # overwriting it.  Elimination cross-multiplies, row*pivot -
    # pivot_row*entry, so it needs no inverses; only rows not yet pivots,
    # right of the current column, are read again.
    d, _, _, n = a.shape
    at = np.arange(n)
    free = np.ones((d, n), dtype=bool)
    for c in range(d):
        col = np.where(free[:, None], a[:, c], 0)
        nonzero = col.any(axis=1)
        has = nonzero.any(axis=0)
        piv = nonzero.argmax(axis=0)
        free[piv[has], at[has]] = False
        rest = a[:, c + 1 :]
        prow = rest[piv, :, :, at].transpose(1, 2, 0)
        col[piv, :, at] = 0
        pivot = np.where(has, a[piv, c, :, at].T, field.one)
        x = field.outer(rest, pivot)
        x -= field.outer(col[:, None], prow)
        np.remainder(field.contract(x), field.p, out=rest)
    return d - free.sum(axis=0)


@functools.lru_cache(maxsize=None)
def _degree_counts_map(d):
    # N_j = sum_e c_e gcd(j, e) = sum_{k | j} phi(k) M_k with
    # M_k = sum_{k | e} c_e.  Mobius inversion over divisors gives
    # phi(j) M_j = sum_{k | j} mu(j/k) N_k, and over multiples
    # c_e = sum_m mu(m) M_{em}.  mobius[k-1, j-1] = mu(j/k) when k | j.
    mu = [0, 1] + [0] * d
    for i in range(1, d + 1):
        for j in range(2 * i, d + 1, i):
            mu[j] -= mu[i]
    mobius = np.zeros((d, d), dtype=np.int64)
    for k in range(1, d + 1):
        mobius[k - 1, k - 1 :: k] = mu[1 : d // k + 1]
    phi = (np.arange(1, d + 1) @ mobius)[:, None]
    mobius.flags.writeable = phi.flags.writeable = False  # shared by every call
    return mobius, phi


def gf_spec_types(c, field):
    """The batched gf_spec_type: c is an (N, d+1, k) int64 array of reduced
    power-basis coordinates, one polynomial over GF(q) = ``field`` per row,
    d >= 1 and gf_batch_fits(d, k, p).  Returns, per row, the descending
    tuple of factor degrees, None for a repeated factor, or () when the
    degree-d coefficient is zero.

    Row i of the Frobenius matrix Q is x^(iq) mod f: a -> a^q is GF(q)-linear
    on GF(q)[x]/(f), f is squarefree iff Q is invertible, and then
    nullity(Q^j - I) = sum over the factors of gcd(j, degree), which two
    Mobius inversions turn into the number of factors of each degree
    (Berlekamp 1967; von zur Gathen & Gerhard, Modern Computer Algebra,
    ch. 14).  On a prime field Q is Berlekamp's matrix.
    """
    n, d = c.shape[0], c.shape[1] - 1
    p = field.p
    out = [()] * n
    live = np.flatnonzero(c[:, d].any(axis=1))
    c = c[live].transpose(1, 2, 0)
    f = field.mul(c[:d], field.pow(c[d], field.q - 2))
    q = np.zeros((d, d) + c.shape[1:], dtype=np.int64)
    q[0, 0, 0] = 1
    h = q[0]
    for bit in field.frobenius_bits:
        h = _vmulrem(h, h, f, field)
        if bit == "1":  # times x: a shift and one reduction step
            h = (np.concatenate((np.zeros_like(h[:1]), h[:-1])) - field.prod(h[-1], f)) % p
    for i in range(1, d):
        q[i] = _vmulrem(q[i - 1], h, f, field)
    squarefree = _vrank(q.copy(), field) == d
    for i in live[~squarefree].tolist():
        out[i] = None
    q = q[..., squarefree]
    nullity = np.empty((d, q.shape[-1]), dtype=np.int64)
    eye = np.zeros((d, d, field.k, 1), dtype=np.int64)
    eye[range(d), range(d), 0] = 1
    power = q
    for j in range(d):
        nullity[j] = d - _vrank(power - eye, field)
        if j + 1 < d:
            power = field.matmul(power, q)
    mobius, phi = _degree_counts_map(d)
    counts = mobius @ (mobius.T @ nullity // phi)
    types = {}
    for i, row in zip(live[squarefree].tolist(), counts.T.tolist()):
        key = tuple(row)
        if key not in types:
            types[key] = tuple(e for e in range(d, 0, -1) for _ in range(row[e - 1]))
        out[i] = types[key]
    return out

def gf_resultant(f, g, p):
    """res(f, g) by a remainder sequence tracking leading coefficients."""
    a, b = list(f), list(g)
    if not a or not b:
        return 0
    acc = 1
    while True:
        m, n = len(a) - 1, len(b) - 1
        if n == 0:
            return acc * gf_pow(b[0], m, p) % p
        r = gf_rem(a, b, p)
        if not r:
            return 0
        acc = acc * gf_pow(b[-1], m - (len(r) - 1), p) % p
        if (m * n) % 2:
            acc = -acc % p
        a, b = b, r


def gf_interpolate(xs, ys, p):
    """Lagrange interpolation through (xs[i], ys[i]); xs distinct."""
    acc = []
    for i, xi in enumerate(xs):
        num = [1]
        den = 1
        for j, xj in enumerate(xs):
            if j != i:
                num = gf_mul(num, [-xj % p, 1], p)
                den = den * ((xi - xj) % p) % p
        scale = ys[i] * gf_inv(den, p) % p
        acc = gf_add(acc, [c * scale % p for c in num], p)
    return acc
