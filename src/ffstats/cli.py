"""Command-line front end.

Subcommands: ``factor-type``, ``irreg``, ``dist``, ``compare``, ``charsum``
and ``demo`` (presets: quadratic residues in an interval, k-th power
residues, the trinomial family, shifted Morse polynomials, and the
Artin-Schreier trace-zero counterexample).

Every run prints one JSON document on one line: ``{"version", "config",
"result", "timings"}``.  ``main`` builds the parser of the invoked
subcommand alone (all six only for help and errors), then the field and any
``--poly``, calls the subcommand's handler for ``result``, and derives
``config`` from the parsed options: every one but ``--out``, with ``q`` and
the canonical polynomial added.  The ``result`` subtree is byte-identical
for a fixed config, whose ``--seed`` chooses only the extension modulus;
wall-clock times live only under ``timings``.  Every run works in the
calling thread: ``--threads`` is accepted for compatibility.
``--format csv`` writes a table instead, nested results as dotted keys.
The ``charsum --all-b`` rows, one per frequency, are written by ``_json``
and the CSV writer from one text per distinct float, with json's bytes.
Reports go to stdout or ``--out``; an error is one ``input error: ...`` or
``budget error: ...`` line, printed to the stderr of the call (no logging
is configured).  Exit codes: 0 ok, 2 input error, 3 budget error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
import time

from . import __version__, mpoly, sets, stats, unipoly
from .errors import DEFAULT_BUDGET, BudgetExceededError, FFStatsError
from .field import FieldCtx

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_BUDGET = 3


def _positive_int(text):
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _add_shared(sp):
    """The options every subcommand takes."""
    sp.add_argument("--p", type=int, required=True, help="field characteristic (prime)")
    sp.add_argument("--k", type=int, default=1, help="extension degree (default 1)")
    sp.add_argument(
        "--modulus",
        default=None,
        help="extension modulus as ascending coefficients, e.g. '1,0,1' for x^2+1",
    )
    sp.add_argument("--seed", type=int, default=0, help="extension-modulus choice")
    sp.add_argument(
        "--threads",
        type=_positive_int,
        default=1,
        help="accepted for compatibility; every run uses one thread",
    )
    sp.add_argument("--budget", type=_positive_int, default=DEFAULT_BUDGET)
    sp.add_argument("--format", choices=("json", "csv"), default="json")
    sp.add_argument("--out", default=None, help="write the report here instead of stdout")


def _add_poly(sp):
    """The options of the subcommands that take a polynomial."""
    sp.add_argument("--poly", required=True, help="polynomial in t, A1..An")
    sp.add_argument(
        "--n",
        type=int,
        default=None,
        help="parameter count (default: highest A-index in --poly)",
    )


def _ctx_from(args) -> FieldCtx:
    modulus = None
    if args.modulus is not None:
        modulus = [int(c) for c in args.modulus.split(",")]
    return FieldCtx(args.p, args.k, modulus=modulus, seed=args.seed)


def _poly_from(args, ctx):
    n = args.n if args.n is not None else mpoly.infer_parameter_count(args.poly)
    return mpoly.parse(args.poly, n, ctx, budget=args.budget)


def _config(args, ctx, F):
    """Every parsed option but --out, with the field (and polynomial) as built."""
    cfg = {key: v for key, v in vars(args).items() if key not in ("handler", "out")}
    cfg.update(
        p=ctx.p,
        k=ctx.k,
        q=ctx.q,
        modulus=None if ctx.modulus is None else ",".join(str(c) for c in ctx.modulus),
    )
    if F is not None:
        cfg.update(poly=str(F), n=F.n)
    return cfg


# -- subcommand handlers ------------------------------------------------------------


def _cmd_factor_type(args, ctx, F):
    point = sets.parse_point(args.point, ctx)
    mpoly.require_dense_budget(F, args.budget)
    outcome = mpoly.classify_specialization(F, point)
    f = F.specialize(point)
    return {
        "outcome": outcome.kind,
        "type": stats.format_type(outcome.parts) if outcome.is_type else None,
        "specialized": str(f),
        "degree": f.degree,
    }


def _cmd_irreg(args, ctx, F):
    # --n sizes the full space; config echoes the dimension of the set as built
    descriptor = sets.parse_set(args.set, ctx, n=args.n)
    args.n = sets.dimension(descriptor)
    return sets.irregularity(descriptor, ctx, budget=args.budget).to_json_dict()


def _cmd_dist(args, ctx, F):
    descriptor = sets.parse_set(args.set, ctx, n=F.n)
    dist = stats.empirical_distribution(F, descriptor, budget=args.budget)
    return dist.to_json_dict()


def _load_group(spec_text, d, budget):
    if spec_text == "symmetric":
        return stats.GroupSpec.symmetric(d)
    return stats.GroupSpec.from_file(spec_text, budget)


def _cmd_compare(args, ctx, F):
    descriptor = sets.parse_set(args.set, ctx, n=F.n)
    group = _load_group(args.group, F.deg_t, args.budget)
    report = stats.compare(F, descriptor, group, budget=args.budget)
    return report.to_json_dict()


def _cmd_charsum(args, ctx, F):
    parts = stats.parse_type(args.type)
    if args.all_b:
        sweep = stats.weil_sweep(F, parts, None, budget=args.budget)
        bs = map(",".join, stats.nonzero_frequencies(list(map(str, range(ctx.q))), F.n))
        rows = _SweepTable(ctx.q, list(zip(bs, sweep.magnitudes, sweep.ratios)))
        return {"max_ratio": sweep.max_ratio, "rows": rows}
    b = sets.parse_point(args.b, ctx)
    res = stats.restricted_charsum(F, parts, b, budget=args.budget)
    return {
        "b": args.b,
        "magnitude": res.magnitude,
        "weil_ratio": res.weil_ratio,
        "terms": res.terms,
    }


# -- demos -----------------------------------------------------------------------


def _interval(args, ctx):
    """--H points from --beta on the line; H defaults to ceil(p^(3/4))."""
    H = args.H or math.ceil(ctx.p**0.75)
    return H, sets.GridProduct([sets.APSpec(1, args.beta, H)])


def _subfield_index(ctx, m):
    """The index in F_p^* of the m-th powers of GF(q): a in F_p^* is one iff
    a^e = 1, e = (q - 1)/gcd(q - 1, m).  On a prime field, gcd(p - 1, m)."""
    return (ctx.p - 1) // math.gcd(ctx.p - 1, (ctx.q - 1) // math.gcd(ctx.q - 1, m))


def _demo_pv(args, ctx, F):
    """Quadratic residues in an interval of F_p: how often t^2 - a splits."""
    H, descriptor = _interval(args, ctx)
    target = H / _subfield_index(ctx, 2)
    F = mpoly.parse("t^2 - A1", 1, ctx)
    # first, so that a closed form past the budget exits before classifying
    rep = sets.irregularity(descriptor, ctx, budget=args.budget)
    dist = stats.empirical_distribution(F, descriptor, budget=args.budget)
    split = dist.counts.get((1, 1), 0)
    return {
        "H": H,
        "beta": args.beta,
        "split_count": split,
        "target": target,
        "deviation": split - target,
        "classical_scale": math.sqrt(ctx.p) * math.log(ctx.p),
        "distribution": dist.to_json_dict(),
        "irreg": rep.to_json_dict(),
    }


def _demo_power_residues(args, ctx, F):
    """How many a in an interval are k-th powers: t^k - a has a root.

    With m = k with every factor p divided out, t^k - a and t^m - a have a
    root for the same a, as x -> x^p permutes the field.  As p does not
    divide m, t^m - a is squarefree unless a = 0 (and m >= 2, with root 0),
    so the a with a root are the non-squarefree one and every type with a 1."""
    k = m = args.power
    while m % ctx.p == 0:
        m //= ctx.p
    H, descriptor = _interval(args, ctx)
    F = mpoly.parse(f"t^{m} - A1", 1, ctx)
    dist = stats.empirical_distribution(F, descriptor, budget=args.budget)
    with_root = dist.non_squarefree + sum(c for parts, c in dist.counts.items() if 1 in parts)
    g = _subfield_index(ctx, k)
    return {
        "power": k,
        "H": H,
        "beta": args.beta,
        "count_with_root": with_root,
        "target": H / g,
        "gcd": g,
        "deviation": with_root - H / g,
        "classical_scale": math.sqrt(ctx.p) * math.log(ctx.p),
    }


def _demo_trinomial(args, ctx, F):
    """t^3 + A1*t + A2 against the random-permutation law, over the box
    int(beta,H)^2 (the full plane without --H)."""
    F = mpoly.parse("t^3 + A1*t + A2", 2, ctx)
    if args.H:
        descriptor = sets.GridProduct([sets.APSpec(1, args.beta, args.H)] * 2)
    elif args.beta:
        raise ValueError("--beta needs --H: the full plane has no start")
    else:
        descriptor = sets.FullSpace(2)
    group = stats.GroupSpec.symmetric(3)
    report = stats.compare(F, descriptor, group, budget=args.budget)
    return report.to_json_dict()


def _demo_morse(args, ctx, F):
    """Shifted families f(t) + h_i + a: all-irreducible counts in an interval.
    F = prod_i (f + A1 + h_i) is parsed as one product, so its expansion is
    charged against the budget like any --poly.  Target H/d^m, but 0 for an f over F_p
    when gcd(d, k) > 1: a degree-d irreducible over F_p splits into gcd(d, k) factors."""
    fU = mpoly.parse(args.f, 0, ctx, budget=args.budget).specialize(())
    d = fU.degree
    if not unipoly.is_morse(fU):
        raise ValueError(f"{args.f} is not Morse over GF({ctx.q})")
    shifts = [int(s) for s in args.shifts.split(",")] if args.shifts else [0]
    if len(set(s % ctx.p for s in shifts)) != len(shifts):
        raise ValueError("shifts must be distinct")
    product = " * ".join(f"({args.f} + A1 + {h % ctx.p})" for h in shifts)
    F = mpoly.parse(product, 1, ctx, budget=args.budget)
    H, descriptor = _interval(args, ctx)
    rep = sets.irregularity(descriptor, ctx, budget=args.budget)
    dist = stats.empirical_distribution(F, descriptor, budget=args.budget)
    m = len(shifts)
    all_irreducible = dist.counts.get((d,) * m, 0)
    target = 0.0 if max(fU.coeffs) < ctx.p and math.gcd(d, ctx.k) > 1 else H / d**m
    return {
        "f": str(fU),
        "is_morse": True,
        "degree": d,
        "shifts": shifts,
        "H": H,
        "all_irreducible_count": all_irreducible,
        "target": target,
        "deviation": all_irreducible - target,
        "distribution": dist.to_json_dict(),
        "irreg": rep.to_json_dict(),
    }


def _demo_artin_schreier(args, ctx, F):
    """t^p - t - a on the trace-zero set: every specialization splits, yet
    the set is as regular as they come (irregularity p)."""
    p = ctx.p
    F = mpoly.parse(f"t^{p} - t - A1", 1, ctx)
    descriptor = sets.TraceZero()
    group = stats.cyclic_shift_group(p, args.budget)
    comparison = stats.compare(F, descriptor, group, budget=args.budget)
    dist = comparison.distribution
    split_all = dist.counts.get((1,) * p, 0)
    return {
        "degree": p,
        "set_size": dist.total,
        "split_completely": split_all,
        "split_fraction": split_all / dist.total,
        "irreg": comparison.irregularity.to_json_dict(),
        "comparison_vs_cyclic": comparison.to_json_dict(),
    }


_DEMOS = {
    "pv": _demo_pv,
    "power-residues": _demo_power_residues,
    "trinomial": _demo_trinomial,
    "morse": _demo_morse,
    "artin-schreier": _demo_artin_schreier,
}

# the subcommands, in the order of their parsers
_COMMANDS = ("factor-type", "irreg", "dist", "compare", "charsum", "demo")


# -- output ----------------------------------------------------------------------


class _SweepTable:
    """The rows of ``charsum --all-b``: q, and a (b text, magnitude, ratio)
    per frequency.  ``texts`` maps each distinct float to float.__repr__,
    what json's C encoder writes for a finite float, so each is rendered
    once.  Keyed by value, exact for any float but -0.0 (== 0.0) and NaN
    (== none): a magnitude is sqrt(re^2 + im^2) or a count, so finite and
    >= +0.0, and each ratio divides one by a positive constant."""

    def __init__(self, q, rows):
        self.q, self.rows = q, rows
        floats = dict.fromkeys([m for _, m, _ in rows] + [r for _, _, r in rows])
        self.texts = dict(zip(floats, map(float.__repr__, floats)))


def _json(report):
    """json.dumps(report), a sweep table at result.rows written from its texts
    as {"q", "b", "magnitude", "ratio"} dicts, and the two dicts above it item by item."""
    table = report["result"].get("rows")
    if not isinstance(table, _SweepTable):
        return json.dumps(report)
    head, t = f'{{"q": {table.q}, "b": "', table.texts  # b is digits and commas: json writes them as is
    rows = ", ".join([f'{head}{b}", "magnitude": {t[m]}, "ratio": {t[r]}}}' for b, m, r in table.rows])

    def items(tree, key, text):
        pairs = (f"{json.dumps(k)}: {text if k == key else json.dumps(v)}" for k, v in tree.items())
        return "{" + ", ".join(pairs) + "}"

    return items(report, "result", items(report["result"], "rows", f"[{rows}]"))


def _csv_rows(result):
    header = ["type", "count", "frequency", "prediction", "deviation"]
    if "per_type" in result or "counts" in result:  # comparison or plain distribution
        dist = result.get("distribution", result)
        if "per_type" in result:
            rows = [
                [t, dist["counts"].get(t, 0), cell["frequency"], cell["prediction"], cell["deviation"]]
                for t, cell in result["per_type"].items()
            ]
        else:
            rows = [[t, c, c / dist["total"], "", ""] for t, c in dist["counts"].items()]
        rows += [[bucket, dist[bucket], "", "", ""] for bucket in ("non_squarefree", "degree_drop")]
        return header, rows
    if isinstance(table := result.get("rows"), _SweepTable):  # charsum --all-b
        t = table.texts
        return ["q", "b", "magnitude", "ratio"], [(table.q, b, t[m], t[r]) for b, m, r in table.rows]
    return ["key", "value"], list(_flatten(result))


def _flatten(tree, prefix=""):
    """[dotted key, value] of every leaf; a list is one leaf, as JSON text."""
    for key, value in tree.items():
        if isinstance(value, dict):
            yield from _flatten(value, f"{prefix}{key}.")
        elif isinstance(value, list):
            yield [prefix + key, json.dumps(value)]
        else:  # the writer would print None as an empty field
            yield [prefix + key, "None" if value is None else value]


def _emit(report, args):
    if args.format == "json":
        # no indent: json's C encoder only runs without one
        text = _json(report) + "\n"
    else:
        header, rows = _csv_rows(report["result"])
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
        text = buf.getvalue()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def build_parser(command=None) -> argparse.ArgumentParser:
    """The ffstats parser.  When ``command`` names a subcommand, only that
    subcommand's parser is built, as a run parses with no other; otherwise
    (None, an option, an unknown name) all of them, for help and errors."""
    one = command in _COMMANDS
    ap = argparse.ArgumentParser(
        prog="ffstats",
        description="Factorization statistics of polynomial specializations over finite fields",
    )
    # the usage line names every subcommand, also when one is built
    metavar = "{" + ",".join(_COMMANDS) + "}" if one else None
    sub = ap.add_subparsers(dest="command", required=True, metavar=metavar)

    def add(name, summary, poly=True):
        if one and name != command:
            return None
        sp = sub.add_parser(name, help=summary)
        _add_shared(sp)
        if poly:
            _add_poly(sp)
        return sp

    if sp := add("factor-type", "classify one specialization"):
        sp.add_argument("--point", default="", help="comma-separated element literals")
        sp.set_defaults(handler=_cmd_factor_type)

    if sp := add("irreg", "irregularity of a set", poly=False):
        sp.add_argument("--set", required=True)
        sp.add_argument("--n", type=int, default=1, help="dimension for 'full'")
        sp.set_defaults(handler=_cmd_irreg)

    if sp := add("dist", "empirical class distribution over a set"):
        sp.add_argument("--set", default="full")
        sp.set_defaults(handler=_cmd_dist)

    if sp := add("compare", "distribution vs. group prediction"):
        sp.add_argument("--set", default="full")
        sp.add_argument("--group", default="symmetric", help="'symmetric' or a group file")
        sp.set_defaults(handler=_cmd_compare)

    if sp := add("charsum", "restricted character sums"):
        sp.add_argument("--type", required=True, help="factorization type, e.g. '2,1'")
        one_or_all = sp.add_mutually_exclusive_group(required=True)
        one_or_all.add_argument("--b", help="frequency vector")
        one_or_all.add_argument("--all-b", action="store_true", help="sweep every nonzero frequency")
        sp.set_defaults(handler=_cmd_charsum)

    if sp := add("demo", "named reproductions", poly=False):
        sp.add_argument("demo", choices=sorted(_DEMOS))
        sp.add_argument("--H", type=_positive_int, default=None, help="interval length")
        sp.add_argument("--beta", type=int, default=0, help="interval start")
        sp.add_argument("--power", type=_positive_int, default=2, help="k for power residues")
        sp.add_argument("--f", default="t^3 - 3*t", help="Morse base polynomial in t")
        sp.add_argument("--shifts", default="0", help="comma-separated shifts h_i")

    return ap


def main(argv=None) -> int:
    if argv is None:  # read here, so that the console script builds one subparser too
        argv = sys.argv[1:]
    try:
        args = build_parser(argv[0] if argv else None).parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if not exc.code else EXIT_INPUT
    handler = _DEMOS[args.demo] if args.command == "demo" else args.handler
    start = time.perf_counter()
    try:
        ctx = _ctx_from(args)
        F = _poly_from(args, ctx) if "poly" in args else None
        result = handler(args, ctx, F)
    except BudgetExceededError as exc:
        print(f"budget error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (FFStatsError, ValueError, OSError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    elapsed = time.perf_counter() - start
    report = {
        "version": __version__,
        "config": _config(args, ctx, F),
        "result": result,
        "timings": {"elapsed_s": elapsed},
    }
    _emit(report, args)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
