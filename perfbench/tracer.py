#!/usr/bin/env python3
"""Outside-in tracer: run one topicflow subcommand with its layers wrapped.

    python3 perfbench/tracer.py SPANS.json <topicflow arguments...>

The public functions of each topicflow module are replaced, in every
``topicflow.*`` module that refers to them, by wrappers that record
spans (name, start, end, parent) or, for functions called very often,
aggregated calls and busy time. Nothing under ``src/`` changes. Spans
stay in memory and are written to SPANS.json when the command returns;
the process exits with the command's exit code.

A span's self time is its duration minus the time of its child spans
and of the aggregated calls made while it was the innermost span.
"""
from __future__ import annotations

import functools
import json
import os
import resource
import sys
import time
from pathlib import Path

# Functions traced with one span per call, by module.
SPANNED = {
    "topicflow.ingest": ("ingest_records", "compute_yearly_paper_quantile"),
    "topicflow.classification": ("load_classification",),
    "topicflow.cli": (
        "write_profiles", "load_profiles",
        "cmd_ingest", "cmd_flows", "cmd_metrics", "cmd_viz", "cmd_report",
    ),
    "topicflow.flows": (
        "flow_networks_from_profiles", "build_flow_networks",
        "write_flow_network", "load_flow_network",
    ),
    "topicflow.metrics": (
        "attractiveness_table", "most_attractive_topics", "migration_index_series",
        "median_sink_source", "multidisciplinarity",
    ),
    "topicflow.bundleviz": ("render_svg", "layout"),
}
# Functions called once per profile: calls and busy time are aggregated.
AGGREGATED = {
    ("topicflow.flows", "dominant_topics"): "flows.dominant",
    ("topicflow.flows", "dominant_area_set"): "flows.dominant",
}
# Generators: calls, items yielded and time spent producing them.
GENERATORS = {("topicflow.ingest", "iter_records"): "ingest.iter_records"}


def _children_cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


class Tracer:
    def __init__(self):
        self.origin = time.perf_counter()
        self.origin_unix = time.time()
        self.spans: list[dict] = []
        self.stack: list[dict] = []
        self.aggregates: dict[str, dict] = {}
        self.counters: dict[str, float] = {}
        self.maxima: dict[str, float] = {}

    # -- recording --

    def _now(self) -> float:
        return time.perf_counter() - self.origin

    def enter(self, name: str) -> dict:
        span = {
            "id": len(self.spans),
            "name": name,
            "parent": self.stack[-1]["id"] if self.stack else None,
            "start": self._now(),
            "end": None,
            "child_s": 0.0,
            "children_cpu_s": -_children_cpu_s(),
        }
        self.spans.append(span)
        self.stack.append(span)
        return span

    def exit(self, span: dict) -> None:
        span["end"] = self._now()
        span["children_cpu_s"] += _children_cpu_s()
        self.stack.pop()
        if self.stack:
            self.stack[-1]["child_s"] += span["end"] - span["start"]

    def aggregate(self, name: str) -> dict:
        return self.aggregates.setdefault(name, {"calls": 0, "items": 0, "busy_s": 0.0})

    def charge(self, agg: dict, seconds: float) -> None:
        agg["busy_s"] += seconds
        if self.stack:
            self.stack[-1]["child_s"] += seconds

    def count(self, name: str, value: float) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def peak(self, name: str, value: float) -> None:
        self.maxima[name] = max(self.maxima.get(name, value), value)

    # -- wrappers --

    def spanned(self, fn, name: str):
        observe = OBSERVERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.exit(span)
            if observe is not None:
                observe(self, span, args, kwargs, result)
            return result

        return wrapper

    def aggregated(self, fn, name: str):
        agg = self.aggregate(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                agg["calls"] += 1
                self.charge(agg, clock() - t0)

        return wrapper

    def generator(self, fn, name: str):
        agg = self.aggregate(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            agg["calls"] += 1
            inner = fn(*args, **kwargs)
            items = busy = 0
            try:
                while True:
                    t0 = clock()
                    try:
                        item = next(inner)
                    except StopIteration:
                        busy += clock() - t0
                        return
                    busy += clock() - t0
                    items += 1
                    yield item
            finally:
                agg["items"] += items
                self.charge(agg, busy)

        return wrapper

    def install(self) -> None:
        """Wrap every listed function wherever a topicflow module refers to it."""
        import topicflow.cli  # noqa: F401 - imports every traced module

        plan = [
            (module, attr, f"{module.rsplit('.', 1)[1]}.{attr}", self.spanned)
            for module, attrs in SPANNED.items()
            for attr in attrs
        ]
        plan += [(m, a, name, self.aggregated) for (m, a), name in AGGREGATED.items()]
        plan += [(m, a, name, self.generator) for (m, a), name in GENERATORS.items()]
        modules = [
            mod for key, mod in sys.modules.items()
            if key == "topicflow" or key.startswith("topicflow.")
        ]
        for module, attr, name, make in plan:
            original = getattr(sys.modules[module], attr)
            wrapper = make(original, name)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)

    def dump(self, path, argv: list[str], exit_code: int, wall_s: float) -> None:
        spans = [
            {
                "id": s["id"],
                "name": s["name"],
                "parent": s["parent"],
                "start": s["start"],
                "end": s["end"],
                "self_s": s["end"] - s["start"] - s["child_s"],
                "children_cpu_s": s["children_cpu_s"],
            }
            for s in self.spans
            if s["end"] is not None
        ]
        record = {
            "argv": argv,
            "pid": os.getpid(),
            "origin_unix": self.origin_unix,
            "exit_code": exit_code,
            "wall_s": wall_s,
            "spans": spans,
            "aggregates": self.aggregates,
            "counters": self.counters,
            "maxima": self.maxima,
        }
        Path(path).write_text(json.dumps(record, sort_keys=True) + "\n", encoding="utf-8")


# -- per-span observers: counts taken from arguments and results --


def _wrote_profiles(tracer, span, args, kwargs, result):
    path = kwargs.get("path", args[1] if len(args) > 1 else None)
    tracer.count("cli.profiles_bytes", os.path.getsize(path))


def _ingest_done(tracer, span, args, kwargs, result):
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    tracer.peak("ingest.rss_mb", rss_kb / 1024)


def _networks_built(tracer, span, args, kwargs, result):
    profiles = kwargs.get("profiles", args[0] if args else ())
    tracer.peak("flows.profiles", len(profiles))


def _pool_cpu(tracer, span, args, kwargs, result):
    tracer.count("flows.pool_children_cpu_s", span["children_cpu_s"])


def _wrote_network(tracer, span, args, kwargs, result):
    net = kwargs.get("net", args[0] if args else None)
    path = kwargs.get("path", args[1] if len(args) > 1 else None)
    tracer.count("flows.networks", 1)
    tracer.count("flows.edges", len(net.weights))
    tracer.count("flows.bytes", os.path.getsize(path))


def _rendered(tracer, span, args, kwargs, result):
    tracer.count("bundleviz.edges_drawn", result.count('class="edge-'))
    tracer.count("bundleviz.svg_bytes", len(result.encode("utf-8")))


OBSERVERS = {
    "cli.write_profiles": _wrote_profiles,
    "cli.cmd_ingest": _ingest_done,
    "flows.flow_networks_from_profiles": _networks_built,
    "flows.build_flow_networks": _pool_cpu,
    "flows.write_flow_network": _wrote_network,
    "bundleviz.render_svg": _rendered,
}


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print("usage: tracer.py SPANS.json <topicflow arguments...>", file=sys.stderr)
        return 1
    spans_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    tracer.install()
    import topicflow.cli

    t0 = time.perf_counter()
    code = topicflow.cli.main(cli_args)
    tracer.dump(spans_path, cli_args, code, time.perf_counter() - t0)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
