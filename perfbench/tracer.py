"""In-memory span tracer for ellcert, installed from outside the package.

Every layer boundary is a public function of an ``ellcert`` module.  The
package imports names directly (``from .curve import make_family``), so a
wrapper must replace the function object in every ``ellcert.*`` namespace
that binds it, not only in the defining module.

Two kinds of wrapper exist:

* spans record (name, start, end, parent) and give self time: a span's
  duration minus the time its child spans cover;
* counters only count calls, for hot leaves such as ``is_prime`` (about
  200k calls per p = 13 search), whose timing wrappers would dominate
  the traced wall.  A counted leaf's time stays in its caller's self time.

Spans are appended to a list and written out once, when the traced
process ends; ``aggregate`` turns them into the per-layer metrics.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter

LAYERS = (
    "cli", "certify", "arith", "curve", "localcond", "descent", "heights",
    "primitivity",
)

# (module, function) pairs timed as spans.  A span's layer is its module.
SPANS = (
    ("cli", "main"),
    ("cli", "cmd_search"),
    ("cli", "cmd_verify"),
    ("cli", "run_search"),
    ("cli", "certify_candidate"),
    ("cli", "_verify_file"),
    ("cli", "_load_checkpoint"),
    ("cli", "_save_checkpoint"),
    ("certify", "certify_divisibility"),
    ("certify", "certify_square_subfamily"),
    ("certify", "certify_infinite_instance"),
    ("certify", "cohomology_vanishing_checks"),
    ("certify", "certificate_to_jsonl"),
    ("certify", "certificate_to_dict"),
    ("certify", "certificate_from_dict"),
    ("arith", "kth_power_free"),
    ("arith", "factorize"),
    ("curve", "has_rational_m_torsion"),
    ("curve", "reduction_at"),
    ("curve", "smul"),
    ("curve", "count_points_mod_p"),
    ("curve", "rational_points_up_to_height"),
    ("localcond", "check_local"),
    ("descent", "selmer"),
    ("descent", "certify_rank_one"),
    ("heights", "log_int_bounds"),
    ("heights", "canonical_height"),
    ("heights", "silverman_gaps"),
    ("heights", "vy_lower_bound"),
    ("primitivity", "certify_primitive"),
)

# Hot leaves: call counts only.
COUNTERS = (
    ("arith", "is_prime"),
    ("arith", "vp"),
    ("curve", "make_family"),
)


def _rebind(modules, original, replacement) -> int:
    """Replace ``original`` by identity in every given module namespace."""
    n = 0
    for mod in modules:
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, replacement)
                n += 1
    return n


class Tracer:
    """Spans and counters for one process; one instance per traced run."""

    def __init__(self):
        self.spans: list = []  # [name, start, end, parent index, tag]
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def span(self, name: str, fn, tag=None):
        """Wrap ``fn`` so each call records a span; ``tag(result)`` may
        attach a value to it, such as a byte count."""
        spans, stack, clock = self.spans, self._stack, time.monotonic

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            spans.append(rec)
            stack.append(idx)
            rec[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if tag is not None:
                rec[4] = tag(out)
            return out

        return wrapper

    def counter(self, name: str, fn, tag=None):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            out = fn(*args, **kwargs)
            if tag is not None and tag(out):
                counts[name + ":true"] += 1
            return out

        return wrapper

    def counting_generator(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            for item in fn(*args, **kwargs):
                counts[name] += 1
                yield item

        return wrapper

    def install(self) -> None:
        """Wrap every listed function in every ``ellcert.*`` namespace."""
        import importlib

        modules = [importlib.import_module("ellcert." + m) for m in LAYERS]
        modules.append(sys.modules["ellcert"])

        def bind(mod_name, fn_name, make):
            original = getattr(importlib.import_module("ellcert." + mod_name), fn_name)
            if _rebind(modules, original, make(original)) == 0:
                raise RuntimeError(f"ellcert.{mod_name}.{fn_name} is bound nowhere")

        for mod_name, fn_name in SPANS:
            tag = len if fn_name == "certificate_to_jsonl" else None
            bind(mod_name, fn_name, lambda f, m=mod_name, n=fn_name, t=tag: self.span(
                f"{m}.{n}", f, t))
        for mod_name, fn_name in COUNTERS:
            bind(mod_name, fn_name, lambda f, m=mod_name, n=fn_name: self.counter(
                f"{m}.{n}", f))
        bind("cli", "cheap_filter", lambda f: self.counter("cli.cheap_filter", f, bool))
        bind("cli", "iter_parameter_pairs",
             lambda f: self.counting_generator("cli.iter_parameter_pairs", f))

    def dump(self) -> dict:
        return {"spans": self.spans, "counts": dict(self.counts)}


def self_times(spans) -> list[float]:
    """Per-span self time: duration minus the durations of direct children."""
    out = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def aggregate(trace: dict, spawned: float, wall_s: float, outcomes: dict) -> dict:
    """Per-layer metrics of one traced process.

    ``spawned`` is the parent's clock when it started the process,
    ``wall_s`` the process wall it saw, and ``outcomes`` the verdict counts
    of ``child.Verdicts``.  The time before the first root span
    (interpreter start, imports) is ``trace.startup_s`` and the time after
    the last (writing the spans, exit) is ``trace.exit_s``, so these two
    and the layer self times add up to the wall.
    """
    spans, counts = trace["spans"], trace["counts"]
    selfs = self_times(spans)
    roots = [(start, end) for _, start, end, parent, _ in spans if parent < 0]
    first = min((start for start, _ in roots), default=spawned)
    last = max((end for _, end in roots), default=spawned)
    idle = sum(b[0] - a[1] for a, b in zip(roots, roots[1:]))
    by_fn: Counter = Counter()
    calls: Counter = Counter()
    by_layer: Counter = Counter({layer: 0.0 for layer in LAYERS})
    for rec, st in zip(spans, selfs):
        by_fn[rec[0]] += st
        calls[rec[0]] += 1
        by_layer[rec[0].split(".", 1)[0]] += st

    # a primitivity proof needed more than the crude ratio when it
    # computed any canonical height (9-doubling refinement or point search)
    refined = set()
    for rec in spans:
        if rec[0] == "heights.canonical_height":
            p = rec[3]
            while p >= 0 and spans[p][0] != "primitivity.certify_primitive":
                p = spans[p][3]
            if p >= 0:
                refined.add(p)
    n_prim = calls["primitivity.certify_primitive"]
    n_cand = sum(outcomes.values())
    certified = outcomes.get("certified", 0)
    refused = sum(v for k, v in outcomes.items() if k.startswith("refused"))
    pairs = counts.get("cli.iter_parameter_pairs", 0)

    m = {
        "trace.wall_s": wall_s,
        "trace.startup_s": first - spawned + idle,
        "trace.exit_s": spawned + wall_s - last,
        "trace.spans": len(spans),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = by_layer[layer]
    m.update({
        "curve.torsion_calls": calls["curve.has_rational_m_torsion"],
        "curve.torsion_s": by_fn["curve.has_rational_m_torsion"],
        "curve.make_family_calls": counts.get("curve.make_family", 0),
        "curve.reduction_s": by_fn["curve.reduction_at"],
        "descent.selmer_calls": calls["descent.selmer"],
        "descent.selmer_s": by_fn["descent.selmer"],
        "descent.rank_one_self_s": by_fn["descent.certify_rank_one"],
        "arith.is_prime_calls": counts.get("arith.is_prime", 0),
        "arith.vp_calls": counts.get("arith.vp", 0),
        "arith.kth_power_free_calls": calls["arith.kth_power_free"],
        "arith.kth_power_free_s": by_fn["arith.kth_power_free"],
        "arith.factorize_calls": calls["arith.factorize"],
        "arith.factorize_s": by_fn["arith.factorize"],
        "cli.pairs_enumerated": pairs,
        "cli.filter_pass_ratio": (
            counts.get("cli.cheap_filter:true", 0) / pairs if pairs else 0.0),
        "cli.loop_self_s": by_fn["cli.run_search"],
        "cli.checkpoint_writes": calls["cli._save_checkpoint"],
        "cli.checkpoint_s": by_fn["cli._save_checkpoint"] + by_fn["cli._load_checkpoint"],
        "cli.certified_ratio": certified / n_cand if n_cand else 0.0,
        "cli.refused": refused,
        "cli.errored": n_cand - certified - refused,
        "localcond.check_local_calls": calls["localcond.check_local"],
        "localcond.check_local_s": by_fn["localcond.check_local"],
        "heights.log_int_bounds_calls": calls["heights.log_int_bounds"],
        "heights.log_int_bounds_s": by_fn["heights.log_int_bounds"],
        "heights.canonical_height_calls": calls["heights.canonical_height"],
        "heights.canonical_height_s": by_fn["heights.canonical_height"],
        "primitivity.refined_share": len(refined) / n_prim if n_prim else 0.0,
        "certify.serialize_s": (
            by_fn["certify.certificate_to_jsonl"] + by_fn["certify.certificate_to_dict"]),
        "certify.bytes_out": sum(
            rec[4] or 0 for rec in spans if rec[0] == "certify.certificate_to_jsonl"),
        "certify.parse_s": by_fn["certify.certificate_from_dict"],
    })
    return m
