"""Command-line front end.

Subcommands: ``factor-type``, ``irreg``, ``dist``, ``compare``, ``charsum``
and ``demo`` (presets: quadratic residues in an interval, k-th power
residues, the trinomial family, shifted Morse polynomials, and the
Artin-Schreier trace-zero counterexample).

Every run prints one JSON document: ``{"version", "config", "result",
"timings"}``.  The ``result`` subtree is byte-identical for a fixed
(config, seed) whatever ``--threads`` says; thread count and wall-clock
times live only under ``config``/``timings``.  Logs go to stderr, reports
to stdout or ``--out``.  Exit codes: 0 ok, 2 input error, 3 budget error.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import sys
import time

from . import __version__, mpoly, sets, stats, unipoly
from .errors import BudgetExceededError, FFStatsError
from .field import FieldCtx

log = logging.getLogger("ffstats")

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_BUDGET = 3


def _positive_int(text):
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _add_common(sp, needs_poly=True):
    sp.add_argument("--p", type=int, required=True, help="field characteristic (prime)")
    sp.add_argument("--k", type=int, default=1, help="extension degree (default 1)")
    sp.add_argument(
        "--modulus",
        default=None,
        help="extension modulus as ascending coefficients, e.g. '1,0,1' for x^2+1",
    )
    if needs_poly:
        sp.add_argument("--poly", required=True, help="polynomial in t, A1..An")
        sp.add_argument(
            "--n",
            type=int,
            default=None,
            help="parameter count (default: highest A-index in --poly)",
        )
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--threads", type=_positive_int, default=1)
    sp.add_argument("--budget", type=int, default=sets.DEFAULT_BUDGET)
    sp.add_argument("--format", choices=("json", "csv"), default="json")
    sp.add_argument("--out", default=None, help="write the report here instead of stdout")


def _ctx_from(args) -> FieldCtx:
    modulus = None
    if args.modulus is not None:
        modulus = [int(c) for c in args.modulus.split(",")]
    return FieldCtx(args.p, args.k, modulus=modulus, seed=args.seed)


def _poly_from(args, ctx):
    n = args.n if args.n is not None else mpoly.infer_parameter_count(args.poly)
    return mpoly.parse(args.poly, n, ctx)


def _base_config(args, ctx, **extra):
    cfg = {
        "p": ctx.p,
        "k": ctx.k,
        "q": ctx.q,
        "modulus": None
        if ctx.modulus is None
        else ",".join(str(c) for c in ctx.modulus),
        "seed": args.seed,
        "threads": args.threads,
        "budget": args.budget,
        "format": args.format,
    }
    cfg.update(extra)
    return cfg


# -- subcommand handlers ------------------------------------------------------------


def _cmd_factor_type(args):
    ctx = _ctx_from(args)
    F = _poly_from(args, ctx)
    point = sets.parse_point(args.point, ctx) if args.point else ()
    mpoly.require_dense_budget(F, args.budget)
    outcome = mpoly.classify_specialization(F, point)
    f = F.specialize(point)
    result = {
        "outcome": outcome.kind,
        "type": stats.format_type(outcome.parts) if outcome.is_type else None,
        "specialized": str(f),
        "degree": f.degree,
    }
    cfg = _base_config(args, ctx, poly=str(F), n=F.n, point=args.point or "")
    return result, cfg


def _cmd_irreg(args):
    ctx = _ctx_from(args)
    # --n sizes the full space; any other descriptor carries its own dimension
    n = args.n if args.set.strip() == "full" else None
    descriptor = sets.parse_set(args.set, ctx, n=n)
    rep = sets.irregularity(descriptor, ctx, budget=args.budget)
    result = rep.to_json_dict()
    cfg = _base_config(args, ctx, set=args.set, n=args.n)
    return result, cfg


def _cmd_dist(args):
    ctx = _ctx_from(args)
    F = _poly_from(args, ctx)
    descriptor = sets.parse_set(args.set, ctx, n=F.n)
    dist = stats.empirical_distribution(
        F, descriptor, threads=args.threads, budget=args.budget, seed=args.seed
    )
    result = dist.to_json_dict()
    cfg = _base_config(args, ctx, poly=str(F), n=F.n, set=args.set)
    return result, cfg


def _load_group(spec_text, d):
    if spec_text == "symmetric":
        return stats.GroupSpec.symmetric(d)
    return stats.GroupSpec.from_file(spec_text)


def _cmd_compare(args):
    ctx = _ctx_from(args)
    F = _poly_from(args, ctx)
    descriptor = sets.parse_set(args.set, ctx, n=F.n)
    group = _load_group(args.group, F.deg_t)
    report = stats.compare(
        F, descriptor, group, threads=args.threads, budget=args.budget, seed=args.seed
    )
    result = report.to_json_dict()
    cfg = _base_config(args, ctx, poly=str(F), n=F.n, set=args.set, group=args.group)
    return result, cfg


def _cmd_charsum(args):
    ctx = _ctx_from(args)
    F = _poly_from(args, ctx)
    parts = stats.parse_type(args.type)
    if args.all_b:
        sweep = stats.weil_sweep(
            F, parts, None, budget=args.budget, threads=args.threads, seed=args.seed
        )
        result = {
            "max_ratio": sweep.max_ratio,
            "rows": [
                {
                    "q": q,
                    "b": ",".join(str(x) for x in b),
                    "magnitude": mag,
                    "ratio": ratio,
                }
                for q, b, mag, ratio in sweep.rows
            ],
        }
    else:
        if not args.b:
            raise ValueError("need --b or --all-b")
        b = sets.parse_point(args.b, ctx)
        res = stats.restricted_charsum(F, parts, b, budget=args.budget, seed=args.seed)
        result = {
            "b": args.b,
            "magnitude": res.magnitude,
            "weil_ratio": res.weil_ratio,
            "terms": res.terms,
        }
    cfg = _base_config(
        args, ctx, poly=str(F), n=F.n, type=args.type, b=args.b or "", all_b=args.all_b
    )
    return result, cfg


# -- demos -----------------------------------------------------------------------


def _interval_default(p):
    return math.ceil(p**0.75)


def _demo_pv(args, ctx):
    """Quadratic residues in an interval: how often t^2 - a splits."""
    H = args.H or _interval_default(ctx.p)
    F = mpoly.parse("t^2 - A1", 1, ctx)
    descriptor = sets.GridProduct([sets.APSpec(1, args.beta, H)])
    dist = stats.empirical_distribution(
        F, descriptor, threads=args.threads, budget=args.budget, seed=args.seed
    )
    split = dist.counts.get((1, 1), 0)
    rep = sets.irregularity(descriptor, ctx, budget=args.budget)
    return {
        "H": H,
        "beta": args.beta,
        "split_count": split,
        "target": H / 2,
        "deviation": split - H / 2,
        "classical_scale": math.sqrt(ctx.p) * math.log(ctx.p),
        "distribution": dist.to_json_dict(),
        "irreg": rep.to_json_dict(),
    }


def _demo_power_residues(args, ctx):
    """How many a in an interval are k-th powers: t^k - a has a root."""
    k = args.power
    H = args.H or _interval_default(ctx.p)
    F = mpoly.parse(f"t^{k} - A1", 1, ctx)
    descriptor = sets.GridProduct([sets.APSpec(1, args.beta, H)])
    points = sets.enumerate_points(descriptor, ctx, args.budget)
    with_root = 0
    for point, outcome in zip(points, mpoly.classify_points(F, points)):
        if isinstance(outcome, tuple):
            has_root = 1 in outcome
        else:
            f = F.specialize(point)
            has_root = any(f.evaluate(x) == 0 for x in range(ctx.q))
        with_root += 1 if has_root else 0
    g = math.gcd(ctx.p - 1, k)
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


def _demo_trinomial(args, ctx):
    """t^3 + A1*t + A2 against the random-permutation law."""
    F = mpoly.parse("t^3 + A1*t + A2", 2, ctx)
    if args.H:
        descriptor = sets.GridProduct(
            [sets.APSpec(1, 0, args.H), sets.APSpec(1, 0, args.H)]
        )
    else:
        descriptor = sets.FullSpace(2)
    report = stats.compare(
        F,
        descriptor,
        stats.GroupSpec.symmetric(3),
        threads=args.threads,
        budget=args.budget,
        seed=args.seed,
    )
    return report.to_json_dict()


def _demo_morse(args, ctx):
    """Shifted families f(t) + h_i + a: all-irreducible counts in an interval."""
    f = mpoly.parse(args.f, 0, ctx)
    fU = f.specialize(())
    d = fU.degree
    if not unipoly.is_morse(fU):
        raise ValueError(f"{args.f} is not Morse over GF({ctx.q})")
    shifts = [int(s) for s in args.shifts.split(",")] if args.shifts else [0]
    if len(set(s % ctx.p for s in shifts)) != len(shifts):
        raise ValueError("shifts must be distinct")
    base = mpoly.MultiPoly.from_unipoly(fU, 1)
    A = mpoly.parse("A1", 1, ctx)
    F = mpoly.MultiPoly.constant(ctx, 1, 1)
    for h in shifts:
        F = F * (base + A + mpoly.MultiPoly.constant(ctx, 1, ctx.from_int(h)))
    H = args.H or _interval_default(ctx.p)
    descriptor = sets.GridProduct([sets.APSpec(1, args.beta, H)])
    dist = stats.empirical_distribution(
        F, descriptor, threads=args.threads, budget=args.budget, seed=args.seed
    )
    m = len(shifts)
    all_irreducible = dist.counts.get((d,) * m, 0)
    target = H / d**m
    rep = sets.irregularity(descriptor, ctx, budget=args.budget)
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


def _demo_artin_schreier(args, ctx):
    """t^p - t - a on the trace-zero set: every specialization splits, yet
    the set is as regular as they come (irregularity p)."""
    p = ctx.p
    F = mpoly.parse(f"t^{p} - t - A1", 1, ctx)
    descriptor = sets.TraceZero()
    group = stats.cyclic_shift_group(p)
    comparison = stats.compare(
        F, descriptor, group, threads=args.threads, budget=args.budget, seed=args.seed
    )
    dist = comparison.distribution
    rep = sets.irregularity(descriptor, ctx, budget=args.budget)
    split_all = dist.counts.get((1,) * p, 0)
    return {
        "degree": p,
        "set_size": dist.total,
        "split_completely": split_all,
        "split_fraction": split_all / dist.total,
        "irreg": rep.to_json_dict(),
        "comparison_vs_cyclic": comparison.to_json_dict(),
    }


_DEMOS = {
    "pv": _demo_pv,
    "power-residues": _demo_power_residues,
    "trinomial": _demo_trinomial,
    "morse": _demo_morse,
    "artin-schreier": _demo_artin_schreier,
}


def _cmd_demo(args):
    ctx = _ctx_from(args)
    result = _DEMOS[args.name](args, ctx)
    cfg = _base_config(args, ctx, demo=args.name)
    return result, cfg


# -- output ----------------------------------------------------------------------


def _csv_rows(result):
    if "per_type" in result:  # comparison report
        dist = result["distribution"]
        rows = []
        for t, cell in result["per_type"].items():
            rows.append(
                [
                    t,
                    dist["counts"].get(t, 0),
                    cell["frequency"],
                    cell["prediction"],
                    cell["deviation"],
                ]
            )
        return ["type,count,frequency,prediction,deviation"], rows
    if "counts" in result:  # plain distribution
        rows = [
            [t, c, c / result["total"], "", ""]
            for t, c in result["counts"].items()
        ]
        rows.append(["non_squarefree", result["non_squarefree"], "", "", ""])
        rows.append(["degree_drop", result["degree_drop"], "", "", ""])
        return ["type,count,frequency,prediction,deviation"], rows
    return ["key,value"], [[k, v] for k, v in result.items()]


def _emit(report, args):
    if args.format == "json":
        text = json.dumps(report, indent=2) + "\n"
    else:
        header, rows = _csv_rows(report["result"])
        lines = header + [",".join(str(x) for x in row) for row in rows]
        text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="ffstats",
        description="Factorization statistics of polynomial specializations over finite fields",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("factor-type", help="classify one specialization")
    _add_common(sp)
    sp.add_argument("--point", default="", help="comma-separated element literals")
    sp.set_defaults(handler=_cmd_factor_type)

    sp = sub.add_parser("irreg", help="irregularity of a set")
    _add_common(sp, needs_poly=False)
    sp.add_argument("--set", required=True)
    sp.add_argument("--n", type=int, default=1, help="dimension for 'full'")
    sp.set_defaults(handler=_cmd_irreg)

    sp = sub.add_parser("dist", help="empirical class distribution over a set")
    _add_common(sp)
    sp.add_argument("--set", default="full")
    sp.set_defaults(handler=_cmd_dist)

    sp = sub.add_parser("compare", help="distribution vs. group prediction")
    _add_common(sp)
    sp.add_argument("--set", default="full")
    sp.add_argument("--group", default="symmetric", help="'symmetric' or a group file")
    sp.set_defaults(handler=_cmd_compare)

    sp = sub.add_parser("charsum", help="restricted character sums")
    _add_common(sp)
    sp.add_argument("--type", required=True, help="factorization type, e.g. '2,1'")
    sp.add_argument("--b", default="", help="frequency vector")
    sp.add_argument("--all-b", action="store_true", help="sweep every nonzero frequency")
    sp.set_defaults(handler=_cmd_charsum)

    sp = sub.add_parser("demo", help="named reproductions")
    sp.add_argument("name", choices=sorted(_DEMOS))
    _add_common(sp, needs_poly=False)
    sp.add_argument("--H", type=int, default=None, help="interval length")
    sp.add_argument("--beta", type=int, default=0, help="interval start")
    sp.add_argument("--power", type=int, default=2, help="k for power residues")
    sp.add_argument("--f", default="t^3 - 3*t", help="Morse base polynomial in t")
    sp.add_argument("--shifts", default="0", help="comma-separated shifts h_i")
    sp.set_defaults(handler=_cmd_demo)

    return ap


def main(argv=None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.INFO, format="%(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if not exc.code else EXIT_INPUT
    start = time.perf_counter()
    try:
        result, cfg = args.handler(args)
    except BudgetExceededError as exc:
        log.error("budget error: %s", exc)
        return EXIT_BUDGET
    except (FFStatsError, ValueError, OSError) as exc:
        log.error("input error: %s", exc)
        return EXIT_INPUT
    elapsed = time.perf_counter() - start
    report = {
        "version": __version__,
        "config": cfg,
        "result": result,
        "timings": {"elapsed_s": elapsed},
    }
    _emit(report, args)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
