"""Per-layer metrics: which functions the traced run records, the probes,
and how both become the per-layer metrics listed in ``BENCHMARK.json``.

Layers are the program's modules: ``cli``, ``stats``, ``sets``, ``mpoly``,
``unipoly`` (with the prime-field kernels of ``_gfp``), ``field`` and
``parallel``.  Three sources feed them:

* spans around calls into each module's public functions, recorded from
  the benchmark's own files (:mod:`spans`);
* a separate counting pass for counters that need a wrapper on a hot method
  (``FieldCtx.mul``), so that wrapper does not distort the traced times;
* probes that call public functions directly on inputs drawn from the
  workload: the polynomials, sets and fields its jobs used.

A metric whose layer a workload does not exercise reads 0.
"""

from __future__ import annotations

import contextlib
import operator
import random
import statistics
import time

import numpy as np

import spans

PACKAGE = "ffstats"

EXACT = "exact_dft"


def _irreg_ann(args, kwargs, rep):
    s, ctx = args[0], args[1]
    freqs = ctx.q ** _call("sets.dimension", s) if rep.method == EXACT else 0
    return {"method": rep.method, "freqs": freqs}


# Functions recorded as spans, with what to read off their results.
SPANS = {
    "cli.main": None,
    "stats.empirical_distribution": lambda a, kw, r: {"points": r.total},
    "stats.compare": None,
    "stats.weil_sweep": lambda a, kw, r: {"freqs": len(r.rows)},
    "sets.enumerate_points": lambda a, kw, r: {"points": len(r)},
    "sets.irregularity": _irreg_ann,
    "mpoly.require_classifiable": None,
    "mpoly.admissibility": lambda a, kw, r: {"trials": r.trials_used},
}

# Called once per point: summed, not stored span by span.
HOT = (
    "mpoly.classify_specialization",
    "unipoly.is_squarefree",
    "unipoly.factorization_type",
    "_gfp.gf_spec_type",
)
KERNELS = tuple(n for n in HOT if n.startswith(("unipoly.", "_gfp.")))

# Counted in a pass of their own.
COUNTED = {"field.FieldCtx.mul": "field.mul_calls"}

# Spans whose arguments the probes reuse as inputs.
SITES = ("stats.empirical_distribution", "stats.weil_sweep", "sets.irregularity")


def _call(target, *args, **kwargs):
    return spans.resolve(PACKAGE, target)[2](*args, **kwargs)


class Tracer:
    """Runs instrumented passes and turns their records into metrics."""

    def __init__(self):
        self.recorder = spans.Recorder()
        self.counts = {}
        self.sites = []  # (target, args, result) from the first traced pass

    @property
    def missing(self):
        return self.recorder.missing

    @contextlib.contextmanager
    def counting(self):
        """Counts calls of the COUNTED targets while the block runs."""
        with spans.Instrumentation(PACKAGE, self.recorder) as inst:
            for target, metric in COUNTED.items():
                self.counts.setdefault(metric, 0)

                def make(fn, metric=metric):
                    counts = self.counts

                    def counted(*args, **kwargs):
                        counts[metric] += 1
                        return fn(*args, **kwargs)

                    return counted

                inst.wrap(target, make)
            yield

    @contextlib.contextmanager
    def tracing(self):
        """Records spans while the block runs, into the current iteration;
        ``recorder.end_iteration()`` closes it."""
        rec = self.recorder
        capture = not rec.iterations
        with spans.Instrumentation(PACKAGE, rec) as inst:
            for target, on_return in SPANS.items():
                if capture and target in SITES:
                    on_return = self._capturing(target, on_return)
                inst.wrap(target, lambda fn, t=target, f=on_return: rec.wrap(t, fn, on_return=f))
            for target in HOT:
                inst.wrap(target, lambda fn, t=target: rec.wrap(t, fn, hot=True))
            yield

    def _capturing(self, target, on_return):
        def capture(args, kwargs, result):
            self.sites.append((target, args, result))
            return on_return(args, kwargs, result) if on_return else {}

        return capture

    # -- metrics ------------------------------------------------------------------

    def metrics(self, seed: int, names) -> dict:
        """Every metric of names; those no source produced read 0."""
        per_iter = [span_metrics(s) for s, _ in self.recorder.iterations]
        out = {name: statistics.median(m[name] for m in per_iter) for name in per_iter[0]}
        out.update(self.counts)
        out.update(Probes(self.sites, random.Random(seed), self.recorder).run())
        for name in names:
            out.setdefault(name, 0.0)
        return out


def span_metrics(spans_) -> dict:
    def of(name):
        return [s for s in spans_ if s.name == name]

    def self_s(name):
        return sum(s.self_s for s in of(name))

    def dur(name):
        return sum(s.dur for s in of(name))

    def ann(name, key):
        return sum(s.ann.get(key, 0) for s in of(name))

    irreg = of("sets.irregularity")
    exact = [s for s in irreg if s.ann.get("method") == EXACT]
    closed = [s for s in irreg if s.ann.get("method") not in (None, EXACT)]
    points = ann("stats.empirical_distribution", "points")
    freqs = ann("stats.weil_sweep", "freqs")
    dists = of("stats.empirical_distribution")
    kernel_in_dist = sum(t for s in dists for n, t in s.hot.items() if n in KERNELS)
    dist_loop = sum(s.self_s + sum(s.hot.values()) for s in dists)
    return {
        "cli.self_s": self_s("cli.main"),
        "stats.distribution_us_per_point": _per(self_s("stats.empirical_distribution"), points) * 1e6,
        "stats.sweep_us_per_freq": _per(self_s("stats.weil_sweep"), freqs) * 1e6,
        "stats.compare_self_s": self_s("stats.compare"),
        "stats.points": points,
        "stats.freqs": freqs,
        "sets.enumerate_us_per_point": _per(
            dur("sets.enumerate_points"), ann("sets.enumerate_points", "points")
        )
        * 1e6,
        "sets.irreg_exact_us_per_freq": _per(
            sum(s.dur for s in exact), sum(s.ann["freqs"] for s in exact)
        )
        * 1e6,
        "sets.irreg_closed_form_us": _per(sum(s.dur for s in closed), len(closed)) * 1e6,
        "mpoly.admissibility_s": dur("mpoly.require_classifiable"),
        "mpoly.admissibility_trials": ann("mpoly.admissibility", "trials"),
        "unipoly.classify_share": _per(kernel_in_dist, dist_loop),
    }


def _per(total, count):
    return total / count if count else 0.0


class Probes:
    """Direct calls of public functions on inputs drawn from the workload."""

    SAMPLE = 100  # points per classification site
    FIELD_PAIRS = 1000  # operand pairs per field
    FREQS = 8  # count vectors per spectrum site

    def __init__(self, sites, rng, recorder):
        self.rng = rng
        self.recorder = recorder
        self.classify_sites = {}  # key -> (F, S)
        self.spectrum_sites = {}  # key -> (ctx, points)
        for target, args, result in sites:
            if target == "stats.empirical_distribution":
                F, S = args[0], args[1]
                self.classify_sites.setdefault((repr(F.ctx), str(F), S), (F, S))
            elif target == "stats.weil_sweep":
                F, parts = args[0], args[1]
                S = self._fn("sets.FullSpace")(F.n)
                self.classify_sites.setdefault((repr(F.ctx), str(F), S), (F, S))
                self.spectrum_sites.setdefault(
                    (repr(F.ctx), str(F), tuple(parts)), (F.ctx, self._matching(F, S, parts))
                )
            elif result.method == EXACT:
                S, ctx = args[0], args[1]
                self.spectrum_sites.setdefault((repr(ctx), S), (ctx, self._points(S, ctx)))

    def _fn(self, target):
        return spans.resolve(PACKAGE, target)[2]

    def _points(self, S, ctx):
        return self._fn("sets.enumerate_points")(S, ctx)

    def _sample(self, S, ctx, count):
        pts = self._points(S, ctx)
        return self.rng.sample(pts, min(count, len(pts)))

    def _matching(self, F, S, parts):
        classify = self._fn("mpoly.classify_specialization")
        parts = tuple(sorted(parts, reverse=True))
        return [pt for pt in self._sample(S, F.ctx, 4 * self.SAMPLE) if classify(F, pt).parts == parts]

    def run(self) -> dict:
        out = {}
        for probe in (self.mpoly, self.unipoly, self.field, self.spectrum, self.parallel):
            try:
                out.update(probe())
            except (ImportError, AttributeError) as exc:
                self.recorder.note_missing(f"probe {probe.__name__}", repr(exc))
        return out

    def _samples(self):
        return [(F, self._sample(S, F.ctx, self.SAMPLE)) for F, S in self.classify_sites.values()]

    def mpoly(self):
        specialize = self._fn("mpoly.MultiPoly.specialize_dense")
        classify = self._fn("mpoly.classify_specialization")
        spec_t = spec_n = cls_t = cls_n = 0
        for F, pts in self._samples():
            spec_t += _best_of(3, lambda: [specialize(F, pt) for pt in pts])
            spec_n += len(pts)
            cls_t += _best_of(1, lambda: [classify(F, pt) for pt in pts])
            cls_n += len(pts)
        return {
            "mpoly.specialize_us": _per(spec_t, spec_n) * 1e6,
            "mpoly.classify_us": _per(cls_t, cls_n) * 1e6,
        }

    def unipoly(self):
        is_squarefree = self._fn("unipoly.is_squarefree")
        factorization_type = self._fn("unipoly.factorization_type")
        polys = []
        for F, pts in self._samples():
            for pt in pts:
                f = F.specialize(pt)
                if f.degree == F.deg_t and is_squarefree(f):
                    polys.append(f)
        n = len(polys)
        return {
            "unipoly.factorization_type_us": _per(
                _best_of(1, lambda: [factorization_type(f) for f in polys]), n
            )
            * 1e6,
            "unipoly.is_squarefree_us": _per(_best_of(1, lambda: [is_squarefree(f) for f in polys]), n)
            * 1e6,
        }

    def _fields(self):
        ctxs = {repr(F.ctx): F.ctx for F, _ in self.classify_sites.values()}
        ctxs.update({repr(ctx): ctx for ctx, _ in self.spectrum_sites.values()})
        return list(ctxs.values())

    def field(self):
        mul = self._fn("field.FieldCtx.mul")
        add = self._fn("field.FieldCtx.add")
        trace = self._fn("field.FieldCtx.trace")
        totals = {"mul": 0.0, "add": 0.0, "trace": 0.0}
        calls = 0
        for ctx in self._fields():
            pairs = [(self.rng.randrange(ctx.q), self.rng.randrange(ctx.q)) for _ in range(self.FIELD_PAIRS)]
            trace(ctx, 1)  # builds any lazy table outside the timed loop
            totals["mul"] += _best_of(3, lambda: [mul(ctx, a, b) for a, b in pairs])
            totals["add"] += _best_of(3, lambda: [add(ctx, a, b) for a, b in pairs])
            totals["trace"] += _best_of(3, lambda: [trace(ctx, a) for a, _ in pairs])
            calls += len(pairs)
        return {f"field.{op}_ns": _per(t, calls) * 1e9 for op, t in totals.items()}

    def spectrum(self):
        magnitude = self._fn("field.cyclotomic_magnitude")
        t = 0.0
        n = 0
        for ctx, pts in self.spectrum_sites.values():
            if not pts:
                continue
            dim = len(pts[0])
            for _ in range(self.FREQS):
                b = [self.rng.randrange(ctx.q) for _ in range(dim)]
                counts = np.zeros(ctx.p, dtype=np.int64)
                for a in pts:
                    acc = 0
                    for ai, bi in zip(a, b):
                        acc = ctx.add(acc, ctx.mul(ai, bi))
                    counts[-ctx.trace(acc) % ctx.p] += 1
                t += _best_of(5, lambda: magnitude(counts, ctx.p))
                n += 1
        return {"field.cyclotomic_magnitude_us": _per(t, n) * 1e6}

    def parallel(self):
        map_merge = self._fn("parallel.map_merge")
        out = {}
        for threads, name in ((1, "parallel.map_merge_overhead_1t_ms"), (2, "parallel.map_merge_overhead_ms")):
            total = 0.0
            for F, S in self.classify_sites.values():
                pts = self._points(S, F.ctx)
                total += _median_of(5, lambda: map_merge(pts, len, operator.add, 0, threads=threads))
            out[name] = total * 1e3
        return out


def _timed(fn):
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def _best_of(repeats, fn):
    return min(_timed(fn) for _ in range(repeats))


def _median_of(repeats, fn):
    return statistics.median(_timed(fn) for _ in range(repeats))
