"""The scalar classifier, kept as an independent reference for the batched
one: per polynomial, a gcd with the derivative for squarefreeness, then
distinct-degree splitting by gcds with x^(q^i) - x, in the list kernels of
``ffstats._gfp`` (lists of coefficient encodings, with the field ``F``
passed in, whose scalar operations they call).  It shares no code with
``_gfp.gf_spec_types`` or ``_gfp.VecField``."""

from ffstats import _gfp
from ffstats.mpoly import DEGREE_DROP, NON_SQUAREFREE


def _mulrem(u, v, g, dg, F):
    # u*v mod monic g; inputs deg < dg, output a length-<=dg list that may
    # carry trailing zeros (fine for repeated use inside pow_mod).
    m = [0] * (len(u) + len(v) - 1)
    for i, a in enumerate(u):
        if a:
            for j, b in enumerate(v):
                m[i + j] = F.add(m[i + j], F.mul(a, b))
    for i in range(len(m) - 1, dg - 1, -1):
        c = m[i]
        if c:
            off = i - dg
            for j in range(dg):
                m[off + j] = F.sub(m[off + j], F.mul(c, g[j]))
    del m[dg:]
    return m


def pow_mod(f, e, g, F):
    """f**e mod g, with g monic of degree >= 1."""
    dg = len(g) - 1
    if e == 0:
        return [1] if dg > 0 else []
    base = _gfp.gf_rem(f, g, F)
    if not base:
        return []
    r = list(base)
    for bit in bin(e)[3:]:
        r = _mulrem(r, r, g, dg, F)
        if bit == "1":
            r = _mulrem(r, base, g, dg, F)
    return _gfp.gf_trim(r)


def ddf_type(f, F):
    """Multiset of irreducible-factor degrees of a monic squarefree f over
    GF(q) = F, descending: stage i collects gcd(g, x^(q^i) - x), whose degree
    is i times the number of degree-i factors."""
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
        h = pow_mod(h, F.q, g, F)
        d = _gfp.gf_gcd(_gfp.gf_sub(h, [0, 1], F), g, F)
        dd = len(d) - 1
        if dd > 0:
            parts.extend([i] * (dd // i))
            g = _gfp.gf_divmod(g, d, F)[0]
            if len(g) - 1 > 0:
                h = _gfp.gf_rem(h, g, F)
    return tuple(sorted(parts, reverse=True))


def spec_type(f, F):
    """Factor-degree multiset of f over the field F (descending tuple), or
    NON_SQUAREFREE when f has a repeated factor.  f must have degree >= 1
    and a nonzero leading term."""
    if f[-1] != 1:
        inv = F.inv(f[-1])
        f = [F.mul(c, inv) for c in f]
    if len(f) == 2:
        return (1,)
    fp = _gfp.gf_diff(f, F)
    if not fp or len(_gfp.gf_gcd(f, fp, F)) != 1:
        return NON_SQUAREFREE
    return ddf_type(f, F)


def classify_one(F, point):
    """The ``classify_points`` outcome of F(t, point), point by point."""
    coeffs = F.specialize_dense(point)
    return spec_type(coeffs, F.ctx) if len(coeffs) > F.deg_t else DEGREE_DROP
