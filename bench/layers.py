"""Per-layer spans for a traced benchmark pass.

The wrappers sit on the public names each nestsim module calls in the next:
cli -> harness / engine / config / lemmas, harness -> engine / config,
engine -> matching / world / strategy cohorts, lemmas -> matching, and
matching.match_arrays -> matching.match_core.  `engine` and `lemmas` import
`match_arrays` by name, so the wrapper goes on each of them.  A name that no
longer exists is skipped and every metric resting on its layer is reported
as missing; the program itself is never edited.

A span's self time is its duration minus the time of the spans it caused.
A wrapper's own bookkeeping after the call is charged to no layer, so it
shows only in the tracing overhead.
"""

from __future__ import annotations

import time
import types
from collections import defaultdict

ESTIMATORS = {
    "recruit_success": "recruit_success_rate",
    "nest_delta": "nest_delta_distribution",
    "retention": "ignorance_retention",
    "ratio_growth": "ratio_growth",
    "dropout": "dropout_time",
}


class Spans:
    """Span totals, self times and counters, keyed by layer name."""

    def __init__(self):
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.count = defaultdict(int)
        self.peak = defaultdict(int)
        self.missing = set()   # layers with a wrapper that could not be installed
        self._open = []        # child seconds gathered by each open span
        self._installed = []   # (owner, name, original) to restore

    def wrap(self, owner, name, layer, after=None):
        original = owner.__dict__.get(name)
        if original is None:
            self.missing.add(layer)
            return
        spans = self

        def wrapper(*args, **kwargs):
            spans._open.append(0.0)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                spans.total[layer] += elapsed
                spans.self_time[layer] += elapsed - spans._open.pop()
            if after is not None:
                after(spans, args, result)
            if spans._open:
                spans._open[-1] += time.perf_counter() - start
            return result

        setattr(owner, name, wrapper)
        self._installed.append((owner, name, original))

    def install(self, ns):
        """Wrap the layer boundaries of the nestsim modules in `ns` (name -> module)."""
        absent = types.ModuleType("absent")
        cli, harness, engine, lemmas, matching, optimal, simple = (
            ns.get(m) or absent
            for m in ("cli", "harness", "engine", "lemmas", "matching", "optimal", "simple")
        )
        self.wrap(cli, "main", "cli")
        for caller in (cli, harness):
            self.wrap(caller, "run", "engine", after=_count_rounds)
            self.wrap(caller, "ColonyConfig", "config")
            self.wrap(caller, "make_qualities", "config")
        self.wrap(harness, "sweep", "harness")
        self.wrap(harness, "rows_to_csv", "harness")
        for short, fn in ESTIMATORS.items():
            self.wrap(lemmas, fn, f"lemmas.{short}")
        for caller in (engine, lemmas):
            self.wrap(caller, "match_arrays", "matching", after=_count_matches)
        self.wrap(matching, "match_core", "matching.match_core")
        self.wrap(engine, "WorldState", "world.init", after=_record_world)
        trace_cls = engine.__dict__.get("Trace", absent)
        self.wrap(trace_cls, "to_jsonl", "engine.trace_serialize", after=_count_bytes)
        for algo, module, cls_name in (
            ("optimal", optimal, "OptimalCohort"),
            ("simple", simple, "SimpleCohort"),
        ):
            cls = module.__dict__.get(cls_name, absent)
            self.wrap(cls, "emit", f"{algo}.emit")
            self.wrap(cls, "absorb", f"{algo}.absorb")
            self.wrap(cls, "convergence_nest", f"{algo}.check")
            self.wrap(cls, "mode_tallies", f"{algo}.check")

    def uninstall(self):
        for owner, name, original in reversed(self._installed):
            setattr(owner, name, original)
        self._installed.clear()


def _count_rounds(spans, args, result):
    trace, _report = result
    spans.count["engine.rounds"] += len(trace.records)


def _count_matches(spans, args, result):
    active, targets = args[0], args[1]
    pairs = result[0]
    spans.count["matching.calls"] += 1
    spans.count["matching.pool_ants"] += len(targets)
    spans.count["matching.active"] += int(sum(active))
    spans.count["matching.pairs"] += sum(1 for a, b in pairs if a != b)


def _record_world(spans, args, result):
    visited = getattr(result, "visited", None)
    if visited is None:
        spans.missing.add("world.visited")
        return
    spans.peak["world.visited_bytes"] = max(
        spans.peak["world.visited_bytes"], int(visited.nbytes)
    )


def _count_bytes(spans, args, result):
    # json.dumps escapes to ASCII, so characters are bytes
    spans.count["engine.trace_bytes"] += len(result)


def _ratio(num, den, scale=1.0):
    return num / den * scale if den else 0.0


ENGINE_CHILDREN = (
    "matching", "matching.match_core", "world.init",
    "optimal.emit", "optimal.absorb", "optimal.check",
    "simple.emit", "simple.absorb", "simple.check",
)

# name -> (unit, layers it rests on, value from a Spans)
PER_LAYER = {
    "matching.calls": ("count", ("matching",), lambda s: s.count["matching.calls"]),
    "matching.pool_ants": ("count", ("matching",), lambda s: s.count["matching.pool_ants"]),
    "matching.match_core_s": ("s", ("matching.match_core",),
                              lambda s: s.total["matching.match_core"]),
    "matching.match_arrays_self_s": ("s", ("matching", "matching.match_core"),
                                     lambda s: s.self_time["matching"]),
    "matching.ns_per_pool_ant": ("ns", ("matching",),
                                 lambda s: _ratio(s.total["matching"], s.count["matching.pool_ants"], 1e9)),
    "matching.pairs_per_active": ("ratio", ("matching",),
                                  lambda s: _ratio(s.count["matching.pairs"], s.count["matching.active"])),
    "engine.rounds": ("count", ("engine",), lambda s: s.count["engine.rounds"]),
    "engine.self_s": ("s", ("engine",) + ENGINE_CHILDREN, lambda s: s.self_time["engine"]),
    "engine.self_ms_per_round": ("ms", ("engine",) + ENGINE_CHILDREN,
                                 lambda s: _ratio(s.self_time["engine"], s.count["engine.rounds"], 1e3)),
    "engine.trace_serialize_s": ("s", ("engine.trace_serialize",),
                                 lambda s: s.total["engine.trace_serialize"]),
    "engine.trace_bytes": ("bytes", ("engine.trace_serialize",),
                           lambda s: s.count["engine.trace_bytes"]),
    **{
        f"{algo}.{part}_s": ("s", (f"{algo}.{part}",),
                             lambda s, layer=f"{algo}.{part}": s.total[layer])
        for algo in ("optimal", "simple")
        for part in ("emit", "absorb", "check")
    },
    "world.init_s": ("s", ("world.init",), lambda s: s.total["world.init"]),
    "world.visited_bytes": ("bytes", ("world.init", "world.visited"),
                            lambda s: s.peak["world.visited_bytes"]),
    "config.self_s": ("s", ("config",), lambda s: s.self_time["config"]),
    "harness.self_s": ("s", ("harness", "engine", "config"),
                       lambda s: s.self_time["harness"]),
    **{
        f"lemmas.{short}.self_s": ("s", (f"lemmas.{short}", "matching"),
                                   lambda s, layer=f"lemmas.{short}": s.self_time[layer])
        for short in ESTIMATORS
    },
    "cli.self_s": ("s",
                   ("cli", "engine", "config", "harness", "engine.trace_serialize")
                   + tuple(f"lemmas.{short}" for short in ESTIMATORS),
                   lambda s: s.self_time["cli"]),
}


def layer_metrics(spans):
    """(metrics, missing): every per-layer metric whose layers were all wrapped."""
    metrics, missing = {}, []
    for name, (unit, layers, value) in PER_LAYER.items():
        if spans.missing.intersection(layers):
            missing.append(name)
        else:
            metrics[name] = {"value": value(spans), "unit": unit}
    return metrics, missing
