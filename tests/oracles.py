"""Helpers that only the tests call: the trace as a sum of Frobenius powers
(the oracle for the trace form of ``FieldCtx``), the slot counts that
``sets.phase_sums`` reads on its histogram path, the indicator spectrum of a
set as a dict, and a writer of the group files ``GroupSpec.from_file``
reads."""

import itertools

from ffstats import sets


def trace_raw(ctx, a):
    """tr(a) = a + a^p + ... + a^(p^(k-1)), by field arithmetic alone; it
    lands in the prime subfield, whose elements encode as their residue."""
    s = t = a
    for _ in range(ctx.k - 1):
        t = ctx.pow(t, ctx.p)
        s = ctx.add(s, t)
    return s


def phase_counts(points, freqs, ctx):
    """Yield, for each block of the (f, n) frequencies b in order, the (B, p)
    slot counts of sum_{a in points} psi(-a.b), read from ``sets._line_table``."""
    table, line, rot = sets._line_table(points, freqs, ctx)
    yield from (block for _, block in sets._gathers(table, line, rot))


def indicator_spectrum(s, ctx):
    """{b: 1^_S(b)} for every b in GF(q)^n, keyed by tuples of encodings:
    each value complex(re, im) / q^n from the rows of ``sets.phase_sums``."""
    n = sets.dimension(s)
    qn = ctx.q**n
    freqs = sets.point_codes(sets.FullSpace(n), ctx)
    sums = sets.phase_sums(sets.point_codes(s, ctx), freqs, ctx)
    pairs = itertools.chain.from_iterable(zip(re.tolist(), im.tolist()) for re, im, _ in sums)
    return {b: complex(re, im) / qn for b, (re, im) in zip(map(tuple, freqs.tolist()), pairs)}


def write_group_file(group, path):
    """Write an explicit GroupSpec in the format of ``GroupSpec.from_file``."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"d={group.d} nu={group.nu}\n")
        for perm, label in group.elements:
            fh.write(" ".join(str(i + 1) for i in perm) + f" | {label}\n")
