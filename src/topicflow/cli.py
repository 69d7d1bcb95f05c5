"""Command-line pipeline: synth, ingest, flows, metrics, viz, report.

Every stage reads and writes plain sorted TSV under the output
directory, so intermediate artifacts stay diffable, and the whole tree
is byte-identical across reruns with the same inputs and flags. Each
file is replaced in one step (``util.write_text_atomic``).
``report`` hands the profiles that ingest built to flows and metrics in
memory instead of re-reading ``profiles.tsv``, and still writes every
artifact that the separate subcommands would. All stages run in one
process.
Exit codes: 0 success, 1 usage, 2 input format, 3 internal invariant.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import NamedTuple

from .bundleviz import VizConfig, load_viz_config, render_svg
from .classification import ClassificationTable, load_classification
from .errors import (
    EXIT_INPUT,
    EXIT_INTERNAL,
    EXIT_OK,
    InvalidSpec,
    MalformedLine,
    MissingInput,
    PipelineError,
    UsageError,
)
from .flows import (
    FlowNetwork,
    flow_file_name,
    flow_networks_from_profiles,
    load_flow_network,
    write_flow_network,
)
from .ingest import (
    ActivityProfile,
    IngestStats,
    SnapshotGrid,
    ingest_records,
)
from .metrics import (
    ZeroBaselinePolicy,
    attractiveness_table,
    migration_index_series,
    median_sink_source,
    most_attractive_topics,
    multidisciplinarity,
)
from .util import (
    Checked, fmt_float, gc_paused, iter_key_values, iter_tsv, write_text_atomic,
)

PROFILE_HEADER = "#author\tsnapshot\ttopic\tcount"
# The values each of these settings takes, from a flag or a config file.
_CHOICES = {
    "cut_scope": ("classified", "all"),
    "level": ("topic", "area", "both"),
    "appearing_weight": ("unit", "uniform"),
    "area_mode": ("mapped", "argmax"),
    "sector_order": ("modularity", "strength", "alphabetical"),
}


class _PipelineFields(NamedTuple):
    records: str | None = None
    journal_topics: str | None = None
    topic_areas: str | None = None
    out_dir: str = "out"
    start_year: int = 1910
    end_year: int = 2014
    width: int = 5
    max_papers_per_year: int = 17
    quantile: float | None = None
    cut_scope: str = "classified"
    level: str = "both"
    baseline_policy: str = "strict"
    appearing_weight: str = "unit"
    area_mode: str = "mapped"
    viz_config: str | None = None
    min_weight: float | None = None
    sector_order: str | None = None
    canvas_size: int | None = None
    seed: int = 0
    threads: int | None = None


class PipelineConfig(Checked, _PipelineFields):
    __slots__ = ()

    def _check(self):
        if not 0 <= self.seed < 2**64:
            raise InvalidSpec("seed must be a 64-bit unsigned integer")
        if self.threads is not None and self.threads < 1:
            raise UsageError("--threads must be >= 1")
        for name, allowed in _CHOICES.items():  # checked before any stage writes
            value = getattr(self, name)
            if value is not None and value not in allowed:  # None: sector_order unset
                raise UsageError(f"{name} must be one of {', '.join(allowed)}, got {value!r}")

    def grid(self) -> SnapshotGrid:
        return SnapshotGrid(self.start_year, self.end_year, self.width)

    def levels(self) -> list[str]:
        return ["topic", "area"] if self.level == "both" else [self.level]


# Config-file parser per setting, read off the annotations ("int | None" -> int).
_FIELD_TYPES = {
    name: {"str": str, "int": int, "float": float}[kind.__forward_arg__.removesuffix(" | None")]
    for name, kind in _PipelineFields.__annotations__.items()
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _build_parser() -> _Parser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--config", help="flat key=value file with defaults for any flag")
    shared.add_argument("--out", dest="out_dir", help="output directory (default: out)")
    shared.add_argument("--records", help="publication records TSV or NDJSON")
    shared.add_argument("--journal-topics", help="journal->topic TSV")
    shared.add_argument("--topic-areas", help="topic->area TSV")
    shared.add_argument("--start-year", type=int)
    shared.add_argument("--end-year", type=int)
    shared.add_argument("--width", type=int, help="snapshot width in years (default 5)")
    shared.add_argument("--max-papers-per-year", type=int,
                        help="disambiguation cut, 0 disables (default 17)")
    shared.add_argument("--quantile", type=float,
                        help="derive the cut from this yearly paper-count quantile instead")
    shared.add_argument("--cut-scope", choices=_CHOICES["cut_scope"],
                        help="count classified in-range papers only, or all records")
    shared.add_argument("--level", choices=_CHOICES["level"])
    shared.add_argument("--baseline-policy",
                        help="strict | active | smooth:<k> (default strict)")
    shared.add_argument("--appearing-weight", choices=_CHOICES["appearing_weight"])
    shared.add_argument("--area-mode", choices=_CHOICES["area_mode"])
    shared.add_argument("--viz-config", help="key=value file with rendering settings")
    shared.add_argument("--min-weight", type=float, help="omit edges lighter than this")
    shared.add_argument("--sector-order", choices=_CHOICES["sector_order"])
    shared.add_argument("--canvas-size", type=int)
    shared.add_argument("--seed", type=int)
    shared.add_argument("--threads", type=int,
                        help="accepted for compatibility (must be >= 1); stages run in "
                             "one process and output is identical at every setting")

    parser = _Parser(prog="topicflow", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("ingest", parents=[shared],
                   help="records -> activity profiles + ingest stats")
    sub.add_parser("flows", parents=[shared],
                   help="profiles -> flow networks per consecutive snapshot pair")
    sub.add_parser("metrics", parents=[shared],
                   help="flow networks -> attractiveness, migration indices, distributions")
    viz = sub.add_parser("viz", parents=[shared],
                         help="one flow network -> edge-bundled circular SVG")
    viz.add_argument("--pair", nargs=2, type=int, metavar=("FROM", "TO"), required=True)
    synth = sub.add_parser("synth", parents=[shared],
                           help="generate a seeded corpus with ground-truth answer networks")
    synth.add_argument("--authors", type=int, default=200)
    synth.add_argument("--topics", type=int, default=12)
    synth.add_argument("--areas", type=int, default=4)
    synth.add_argument("--snapshots", type=int, default=5)
    synth.add_argument("--mobility", type=float, default=0.3)
    synth.add_argument("--skew", type=float, default=1.0)
    sub.add_parser("report", parents=[shared],
                   help="run ingest, flows, metrics and viz, then write a summary")
    return parser


def _resolve_config(args: argparse.Namespace) -> PipelineConfig:
    values: dict[str, object] = {}  # from the config file, then from the flags
    config_path = getattr(args, "config", None)
    if config_path:
        if not Path(config_path).is_file():
            raise MissingInput(f"config file not found: {config_path}")
        for lineno, key, value in iter_key_values(config_path):
            key = key.replace("-", "_")
            if key not in _FIELD_TYPES:
                raise MalformedLine(f"{config_path}:{lineno}: unknown setting {key!r}")
            try:
                values[key] = _FIELD_TYPES[key](value)
            except ValueError:
                raise MalformedLine(
                    f"{config_path}:{lineno}: bad value {value!r} for {key}"
                ) from None
    for name in PipelineConfig._fields:
        flag = getattr(args, name, None)
        if flag is not None:
            values[name] = flag
    return PipelineConfig(**values)


def _require_file(path, what: str) -> Path:
    if path is None:
        raise UsageError(f"{what} is required (flag or config file)")
    p = Path(path)
    if not p.is_file():
        raise MissingInput(f"{what} not found: {p}")
    return p


def _load_table(cfg: PipelineConfig) -> ClassificationTable:
    jt = _require_file(cfg.journal_topics, "--journal-topics")
    ta = _require_file(cfg.topic_areas, "--topic-areas")
    return load_classification(jt, ta)


def _out_dir(cfg: PipelineConfig) -> Path:
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


# -- profile serialization --


def write_profiles(profiles: list[ActivityProfile], path) -> None:
    lines = [PROFILE_HEADER]
    for author, snapshot, counts in profiles:
        prefix = f"{author}\t{snapshot}\t"
        for topic in sorted(counts):
            lines.append(f"{prefix}{topic}\t{counts[topic]}")
    write_text_atomic(path, "\n".join(lines) + "\n")


def load_profiles(
    path, table: ClassificationTable, grid: SnapshotGrid
) -> list[ActivityProfile]:
    """Read ``profiles.tsv`` back into profiles sorted by (author, snapshot).

    Rows may come in any order; ``write_profiles`` writes each (author,
    snapshot) group's rows together, so a group is looked up only when
    the pair changes from the previous row. The loaded profiles are as
    compact as the ones ingest builds: topic keys are the classification
    table's own strings, every profile of a snapshot holds the same int,
    and an author's consecutive rows share one author string.
    """
    topics = {t: t for t in table.topic_area}
    # A label, and each label or count text that passed, map to one shared int.
    labels: dict[str | int, int] = {}
    for label in grid.labels():
        labels[str(label)] = labels[label] = label
    counts: dict[str, int] = {}
    grouped: dict[tuple[str, int], dict[str, int]] = {}
    author = group_snapshot = bucket = None
    for lineno, parts in iter_tsv(path):
        if len(parts) != 4:
            raise MalformedLine(f"{path}:{lineno}: expected 4 columns, got {len(parts)}")
        author_text, snapshot_text, topic_text, count_text = parts
        topic = topics.get(topic_text)
        if topic is None:
            raise MalformedLine(f"{path}:{lineno}: unknown topic {topic_text!r}")
        snapshot = labels.get(snapshot_text)
        count = counts.get(count_text)
        if snapshot is None or count is None:  # a text not seen yet: check it in full
            try:
                count = int(count_text)
                parsed = int(snapshot_text)  # other spellings, such as "01915", parse
            except ValueError:
                raise MalformedLine(
                    f"{path}:{lineno}: snapshot and count must be integers"
                ) from None
            snapshot = labels.get(parsed)
            if snapshot is None:
                raise MalformedLine(f"{path}:{lineno}: snapshot {parsed} is not on the grid")
            if count < 1:
                raise MalformedLine(f"{path}:{lineno}: counts must be >= 1")
            labels[snapshot_text] = snapshot
            counts[count_text] = count
        if author_text != author:
            author, bucket = author_text, None
        if bucket is None or snapshot != group_snapshot:
            group_snapshot = snapshot
            bucket = grouped.setdefault((author, snapshot), {})
        if topic in bucket:
            raise MalformedLine(f"{path}:{lineno}: duplicate topic row {topic!r}")
        bucket[topic] = count
    return [ActivityProfile(*key, grouped[key]) for key in sorted(grouped)]


# -- commands --


def cmd_ingest(cfg: PipelineConfig) -> tuple[list[ActivityProfile], IngestStats]:
    import json
    records = _require_file(cfg.records, "--records")
    table = _load_table(cfg)
    out = _out_dir(cfg)
    profiles, stats = ingest_records(
        records, table, cfg.grid(), cfg.max_papers_per_year,
        cut_scope=cfg.cut_scope, quantile=cfg.quantile,
    )
    if cfg.quantile is not None:
        print(f"quantile {cfg.quantile} -> max papers per year {stats.max_papers_per_year}")
    profiles_path = out / "profiles.tsv"
    write_profiles(profiles, profiles_path)
    stats_path = out / "ingest_stats.json"
    write_text_atomic(stats_path, json.dumps(stats.as_dict(), indent=2, sort_keys=True) + "\n")
    print(f"ingest: {json.dumps(stats.as_dict(), sort_keys=True)}", file=sys.stderr)
    print(f"wrote {profiles_path} ({len(profiles)} profiles)")
    return profiles, stats


def _read_profiles(
    cfg: PipelineConfig, out: Path, table: ClassificationTable
) -> list[ActivityProfile]:
    profiles_path = out / "profiles.tsv"
    if not profiles_path.is_file():
        raise MissingInput(f"profiles not found: {profiles_path} (run ingest first)")
    return load_profiles(profiles_path, table, cfg.grid())


def cmd_flows(
    cfg: PipelineConfig, profiles: list[ActivityProfile] | None = None
) -> list[Path]:
    """Write every requested flow network; ``profiles`` defaults to ``profiles.tsv``."""
    table = _load_table(cfg)
    out = _out_dir(cfg)
    if profiles is None:
        profiles = _read_profiles(cfg, out, table)
    nets = flow_networks_from_profiles(
        profiles,
        cfg.grid(),
        level=cfg.level,
        table=table,
        area_mode=cfg.area_mode,
        appearing_weight=cfg.appearing_weight,
    )
    written: list[Path] = []
    for net in nets:
        path = out / flow_file_name(net.level, net.from_snapshot, net.to_snapshot)
        write_flow_network(net, path)
        written.append(path)
    print(f"wrote {len(written)} network files to {out}")
    return written


def _load_networks(cfg: PipelineConfig, out: Path, level: str) -> list[FlowNetwork]:
    """Every network of ``level`` on the grid."""
    nets = []
    for earlier, later in cfg.grid().label_pairs():
        path = out / flow_file_name(level, earlier, later)
        if not path.is_file():
            raise MissingInput(f"network file not found: {path} (run flows first)")
        nets.append(load_flow_network(path, level=level, from_snapshot=earlier, to_snapshot=later))
    return nets


def _write_tsv(path: Path, header: str, rows: list[str]) -> None:
    write_text_atomic(path, "\n".join([header, *rows]) + "\n")


def cmd_metrics(
    cfg: PipelineConfig, profiles: list[ActivityProfile] | None = None
) -> list[Path]:
    """Write every metric table; ``profiles`` defaults to ``profiles.tsv``.
    All inputs are checked before the first write, so a bad one changes no file."""
    table = _load_table(cfg)
    out = _out_dir(cfg)
    policy = ZeroBaselinePolicy.parse(cfg.baseline_policy)
    # Only the histogram is kept, so profiles read here are freed before
    # the networks load (a lower peak RSS).
    distributions = multidisciplinarity(
        profiles if profiles is not None else _read_profiles(cfg, out, table), table
    )
    nets = {level: _load_networks(cfg, out, level) for level in cfg.levels()}
    written: list[Path] = []

    if "topic" in nets:
        deltas = attractiveness_table(nets["topic"], policy, n_topics=table.topic_count)
        rows = [
            f"{snapshot}\t{topic}\t{fmt_float(delta)}\t{pairs_used}"
            for (snapshot, topic), (delta, pairs_used) in sorted(deltas.items())
        ]
        path = out / "delta_topic.tsv"
        _write_tsv(path, "#snapshot\ttopic\tdelta\tpairs_used", rows)
        written.append(path)

        winner_rows = []
        for snapshot, entry in sorted(most_attractive_topics(deltas).items()):
            for topic in entry.ties:
                flag = "winner" if topic == entry.topic else "tie"
                winner_rows.append(f"{snapshot}\t{topic}\t{fmt_float(entry.delta)}\t{flag}")
        path = out / "most_attractive_topic.tsv"
        _write_tsv(path, "#snapshot\ttopic\tdelta\trank", winner_rows)
        written.append(path)

    if "area" in nets:
        series = migration_index_series(
            [n for n in nets["area"] if n.weights], areas=table.areas()
        )
        rows = [
            f"{entry.snapshot}\t{area}\t{fmt_float(idx.iota)}\t{fmt_float(idx.epsilon)}"
            f"\t{fmt_float(idx.rho)}\t{fmt_float(idx.sigma)}"
            for entry in series
            for area, idx in sorted(entry.indices.items())
        ]
        path = out / "indices_area.tsv"
        _write_tsv(path, "#snapshot\tarea\tiota\tepsilon\trho\tsigma", rows)
        written.append(path)

        median_rows = []
        if any(entry.cross_total > 0 for entry in series):
            medians = median_sink_source(series)
            median_rows = [
                f"{area}\t{fmt_float(rho)}\t{fmt_float(sigma)}"
                for area, (rho, sigma) in sorted(medians.items())
            ]
        path = out / "medians_area.tsv"
        _write_tsv(path, "#area\tmedian_rho\tmedian_sigma", median_rows)
        written.append(path)

    hist_rows = [
        f"{dist.snapshot}\t{n_areas}\t{count}"
        for dist in distributions
        for n_areas, count in sorted(dist.histogram.items())
    ]
    path = out / "multidisciplinarity.tsv"
    _write_tsv(path, "#snapshot\tn_areas\tauthor_count", hist_rows)
    written.append(path)
    summary_rows = [
        f"{dist.snapshot}\t{dist.author_volume}\t{dist.q_cutoff}" for dist in distributions
    ]
    path = out / "multidisciplinarity_summary.tsv"
    _write_tsv(path, "#snapshot\tauthor_volume\tq99_cutoff", summary_rows)
    written.append(path)

    print(f"wrote {len(written)} metric files to {out}")
    return written


def _viz_config(cfg: PipelineConfig) -> VizConfig:
    viz = VizConfig()
    if cfg.viz_config is not None:
        viz = load_viz_config(_require_file(cfg.viz_config, "--viz-config"), viz)
    overrides = {
        name: getattr(cfg, name)
        for name in ("min_weight", "sector_order", "canvas_size")
        if getattr(cfg, name) is not None
    }
    return viz._replace(**overrides)  # checked like a new config


def cmd_viz(cfg: PipelineConfig, pair: tuple[int, int]) -> Path:
    level = cfg.level if cfg.level != "both" else "topic"
    table = _load_table(cfg)
    out = _out_dir(cfg)
    earlier, later = pair
    net_path = out / flow_file_name(level, earlier, later)
    if not net_path.is_file():
        raise MissingInput(f"network file not found: {net_path} (run flows first)")
    net = load_flow_network(net_path, level=level, from_snapshot=earlier, to_snapshot=later)
    svg_path = out / f"viz_{level}_{earlier}_{later}.svg"
    write_text_atomic(svg_path, render_svg(net, table, _viz_config(cfg)))
    print(f"wrote {svg_path}")
    return svg_path


def cmd_synth(cfg: PipelineConfig, args: argparse.Namespace) -> Path:
    from .synth import SyntheticSpec, generate_corpus  # no other stage loads synth
    spec = SyntheticSpec(
        n_authors=args.authors,
        n_topics=args.topics,
        n_areas=args.areas,
        n_snapshots=args.snapshots,
        mobility=args.mobility,
        skew=args.skew,
        seed=cfg.seed,
    )
    result = generate_corpus(spec, cfg.grid(), cfg.out_dir)
    print(
        f"wrote {result.records_path} ({result.n_records} records), classification "
        f"tables and {len(result.answer_paths)} answer networks"
    )
    return result.records_path


def cmd_report(cfg: PipelineConfig) -> Path:
    import json
    # A bad policy or rendering setting fails before any write.
    ZeroBaselinePolicy.parse(cfg.baseline_policy)
    _viz_config(cfg)
    out = _out_dir(cfg)
    profiles, stats = cmd_ingest(cfg)
    flow_paths = cmd_flows(cfg, profiles)
    metric_paths = cmd_metrics(cfg, profiles)
    del profiles  # viz reads only the flow files
    viz_level = "area" if cfg.level == "area" else "topic"
    viz_cfg = cfg._replace(level=viz_level)
    # cmd_flows wrote every pair of the level, so each one is drawn.
    svg_paths = [cmd_viz(viz_cfg, pair) for pair in cfg.grid().label_pairs()]
    summary = {
        "ingest_stats": stats.as_dict(),
        "snapshot_labels": cfg.grid().labels(),
        "flow_files": sorted(p.name for p in flow_paths),
        "metric_files": sorted(p.name for p in metric_paths),
        "viz_files": sorted(p.name for p in svg_paths),
    }
    report_path = out / "report.json"
    write_text_atomic(report_path, json.dumps(summary, indent=2, sort_keys=True) + "\n")
    print(f"wrote {report_path}")
    return report_path


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        cfg = _resolve_config(args)
        # The stages build many objects and no cycles, so collection would only walk them.
        with gc_paused():
            if args.command == "ingest":
                cmd_ingest(cfg)
            elif args.command == "flows":
                cmd_flows(cfg)
            elif args.command == "metrics":
                cmd_metrics(cfg)
            elif args.command == "viz":
                cmd_viz(cfg, tuple(args.pair))
            elif args.command == "synth":
                cmd_synth(cfg, args)
            elif args.command == "report":
                cmd_report(cfg)
        return EXIT_OK
    except PipelineError as exc:
        print(f"topicflow: error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"topicflow: error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as exc:  # noqa: BLE001 - invariant violations exit 3
        print(f"topicflow: internal error: {exc!r}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
