"""Command-line pipeline: synth, ingest, flows, metrics, viz, report.

Every stage reads and writes plain sorted TSV under the output
directory, so intermediate artifacts stay diffable, and the whole tree
is byte-identical across reruns with the same inputs and flags. Only
``util`` opens files: lines are read by ``iter_lines``, and tables written
by ``write_tsv`` in bounded blocks of rows, each file replaced in one step.
``ingest`` writes each profile as the dedupe walk yields it and keeps
none. ``report`` reads the walk once, handing each profile to the
profile writer, the flow fold and the area tally, and writes every
artifact that the separate subcommands would. All stages run in one process.
Exit codes: 0 success, 1 usage, 2 input format, 3 internal invariant.
"""
from __future__ import annotations

import argparse
import collections
import sys
from pathlib import Path
from typing import Iterable, Iterator

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
    LEVELS,
    FlowFold,
    FlowNetwork,
    build_flow_networks,
    dominant_sets_of,
    flow_file_name,
    load_flow_network,
    write_flow_network,
)
from .ingest import ActivityProfile, IngestStats, SnapshotGrid, check_cut, ingest_records
from .metrics import (
    AreaTally,
    MultidisciplinarityDistribution,
    ZeroBaselinePolicy,
    attractiveness_table,
    migration_index_series,
    median_sink_source,
    most_attractive_topics,
    multidisciplinarity,
)
from .util import (
    Checked, fmt_float, gc_paused, iter_key_values, iter_tsv, write_json, write_text_atomic,
    write_tsv,
)

PROFILE_HEADER = "#author\tsnapshot\ttopic\tcount"
# Every pipeline setting, in flag order: (name, flag, type, default, choices, help).
# A setting is read from its flag or, under its name, from a ``--config`` file,
# whose text the type parses; ``choices`` limits the values either may give.
_SETTINGS = (
    ("out_dir", "--out", str, "out", None, "output directory (default: out)"),
    ("records", "--records", str, None, None, "publication records TSV or NDJSON"),
    ("journal_topics", "--journal-topics", str, None, None, "journal->topic TSV"),
    ("topic_areas", "--topic-areas", str, None, None, "topic->area TSV"),
    ("start_year", "--start-year", int, 1910, None, None),
    ("end_year", "--end-year", int, 2014, None, None),
    ("width", "--width", int, 5, None, "snapshot width in years (default 5)"),
    ("max_papers_per_year", "--max-papers-per-year", int, 17, None,
     "disambiguation cut, 0 disables (default 17)"),
    ("quantile", "--quantile", float, None, None,
     "derive the cut from this yearly paper-count quantile instead"),
    ("cut_scope", "--cut-scope", str, "classified", ("classified", "all"),
     "count classified in-range papers only, or all records"),
    ("level", "--level", str, "both", ("topic", "area", "both"), None),
    ("baseline_policy", "--baseline-policy", str, "strict", None,
     "strict | active | smooth:<k> (default strict)"),
    ("appearing_weight", "--appearing-weight", str, "unit", ("unit", "uniform"), None),
    ("area_mode", "--area-mode", str, "mapped", ("mapped", "argmax"), None),
    ("viz_config", "--viz-config", str, None, None, "key=value file with rendering settings"),
    ("min_weight", "--min-weight", float, None, None, "omit edges lighter than this"),
    ("sector_order", "--sector-order", str, None, ("modularity", "strength", "alphabetical"),
     None),
    ("canvas_size", "--canvas-size", int, None, None, None),
    ("seed", "--seed", int, 0, None, None),
    ("threads", "--threads", int, None, None,
     "accepted for compatibility (must be >= 1); stages run in "
     "one process and output is identical at every setting"),
)
_CHOICES = {name: choices for name, _, _, _, choices, _ in _SETTINGS if choices}
# Config-file parser per setting.
_FIELD_TYPES = {name: kind for name, _, kind, _, _, _ in _SETTINGS}

_PipelineFields = collections.namedtuple(
    "_PipelineFields", [row[0] for row in _SETTINGS], defaults=[row[3] for row in _SETTINGS]
)


class PipelineConfig(Checked, _PipelineFields):
    __slots__ = ()

    def _check(self):  # every check runs before any stage creates --out
        if not 0 <= self.seed < 2**64:
            raise InvalidSpec("seed must be a 64-bit unsigned integer")
        if self.threads is not None and self.threads < 1:
            raise UsageError("--threads must be >= 1")
        for name, allowed in _CHOICES.items():
            value = getattr(self, name)
            if value is not None and value not in allowed:  # None: sector_order unset
                raise UsageError(f"{name} must be one of {', '.join(allowed)}, got {value!r}")
        self.grid()  # raises on a bad grid, as parse does on a bad policy
        ZeroBaselinePolicy.parse(self.baseline_policy)
        check_cut(self.max_papers_per_year, self.cut_scope, self.quantile)

    def grid(self) -> SnapshotGrid:
        return SnapshotGrid(self.start_year, self.end_year, self.width)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _build_parser() -> _Parser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--config", help="flat key=value file with defaults for any flag")
    for name, flag, kind, _, choices, text in _SETTINGS:
        # No default: an absent flag leaves the config file's value, or the field's.
        shared.add_argument(flag, dest=name, type=kind, choices=choices, help=text)

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


# -- profile serialization --


def write_profiles(profiles: Iterable[ActivityProfile], path) -> int:
    """Write ``profiles``, a row per topic, through ``write_tsv``; return
    how many. A stream is written without being held."""
    written = 0

    def rows() -> Iterator[str]:
        nonlocal written
        for author, snapshot, counts in profiles:
            written += 1
            prefix = f"{author}\t{snapshot}\t"
            for topic in sorted(counts):
                yield f"{prefix}{topic}\t{counts[topic]}"

    lines = [PROFILE_HEADER]  # perfbench/test_perfbench.py edits this line
    write_tsv(path, lines, rows())
    return written


def load_profiles(
    path, table: ClassificationTable, grid: SnapshotGrid
) -> Iterator[ActivityProfile]:
    """Yield the profiles of ``profiles.tsv`` one (author, snapshot) group at a time.

    Groups must come in strictly ascending (author, snapshot) order, as
    ``write_profiles`` writes them; a group out of that order, such as one
    that appears again later, raises ``MalformedLine`` at its first row.
    A profile is yielded when its group ends, so the caller decides what
    to keep. Loaded profiles are as compact as the ones ingest builds:
    topic keys are the classification table's own strings, every profile
    of a snapshot holds the same int, and an author's groups share one
    author string.
    """
    topics = {t: t for t in table.topic_area}
    # A label, and each label or count text that passed, map to one shared int.
    labels: dict[str | int, int] = {}
    for label in grid.labels():
        labels[str(label)] = labels[label] = label
    counts: dict[str, int] = {}
    author = group_snapshot = bucket = None
    for lineno, parts in iter_tsv(path, 4):
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
        if author_text != author or snapshot != group_snapshot:
            if bucket is not None:
                if (author_text, snapshot) < (author, group_snapshot):
                    raise MalformedLine(
                        f"{path}:{lineno}: profile {author_text!r}@{snapshot} does not "
                        f"follow {author!r}@{group_snapshot} in (author, snapshot) order"
                    )
                yield ActivityProfile(author, group_snapshot, bucket)
            if author_text != author:
                author = author_text
            group_snapshot, bucket = snapshot, {}
        if topic in bucket:
            raise MalformedLine(f"{path}:{lineno}: duplicate topic row {topic!r}")
        bucket[topic] = count
    if bucket is not None:
        yield ActivityProfile(author, group_snapshot, bucket)


# -- commands --


def _start_ingest(
    cfg: PipelineConfig,
) -> tuple[ClassificationTable, Path, Iterator[ActivityProfile], IngestStats]:
    """Ingest up to its first write: the table, ``--out``, and the dedupe walk,
    not started, with the stats it completes. Bad input raises here."""
    records = _require_file(cfg.records, "--records")
    table = _load_table(cfg)
    profiles, stats = ingest_records(
        records, table, cfg.grid(), cfg.max_papers_per_year,
        cut_scope=cfg.cut_scope, quantile=cfg.quantile,
    )
    out = Path(cfg.out_dir)  # created only once the records are read
    out.mkdir(parents=True, exist_ok=True)
    if cfg.quantile is not None:
        print(f"quantile {cfg.quantile} -> max papers per year {stats.max_papers_per_year}")
    return table, out, profiles, stats


def _write_ingest(out: Path, profiles: Iterable[ActivityProfile], stats: IngestStats) -> None:
    """Write ``profiles.tsv`` as the walk yields it, then ``ingest_stats.json``."""
    import json
    profiles_path = out / "profiles.tsv"
    n_profiles = write_profiles(profiles, profiles_path)  # the walk's stats are complete now
    write_json(out / "ingest_stats.json", stats.as_dict())
    print(f"ingest: {json.dumps(stats.as_dict(), sort_keys=True)}", file=sys.stderr)
    print(f"wrote {profiles_path} ({n_profiles} profiles)")


def cmd_ingest(cfg: PipelineConfig) -> None:
    """Write ``profiles.tsv`` and ``ingest_stats.json``; each profile goes
    from the dedupe walk to the file, and none is kept."""
    _, out, profiles, stats = _start_ingest(cfg)
    _write_ingest(out, profiles, stats)


def _read_profiles(
    cfg: PipelineConfig, out: Path, table: ClassificationTable
) -> Iterator[ActivityProfile]:
    profiles_path = out / "profiles.tsv"
    if not profiles_path.is_file():
        raise MissingInput(f"profiles not found: {profiles_path} (run ingest first)")
    return load_profiles(profiles_path, table, cfg.grid())


def _write_networks(out: Path, nets: list[FlowNetwork]) -> list[Path]:
    written: list[Path] = []
    for net in nets:
        path = out / flow_file_name(net.level, net.from_snapshot, net.to_snapshot)
        write_flow_network(net, path)
        written.append(path)
    print(f"wrote {len(written)} network files to {out}")
    return written


def cmd_flows(cfg: PipelineConfig) -> list[Path]:
    """Write every requested flow network, counted from ``profiles.tsv`` as it streams."""
    table = _load_table(cfg)
    out = Path(cfg.out_dir)
    nodes = dominant_sets_of(cfg.level, table, cfg.area_mode)
    profiles = _read_profiles(cfg, out, table)
    # Not flow_networks_from_profiles: perfbench's tracer takes the len() of its argument.
    return _write_networks(out, build_flow_networks(
        ((p.author_id, p.snapshot, nodes(p)) for p in profiles),
        cfg.grid(), level=cfg.level, appearing_weight=cfg.appearing_weight,
    ))


def _load_network(out: Path, table, level: str, earlier: int, later: int) -> FlowNetwork:
    path = out / flow_file_name(level, earlier, later)
    if not path.is_file():
        raise MissingInput(f"network file not found: {path} (run flows first)")
    return load_flow_network(path, table=table, level=level, from_snapshot=earlier,
                             to_snapshot=later)


def _load_networks(cfg: PipelineConfig, out: Path, table) -> dict[str, list[FlowNetwork]]:
    """Every network on the grid of each requested level, by level."""
    pairs = cfg.grid().label_pairs()
    return {level: [_load_network(out, table, level, *pair) for pair in pairs]
            for level in LEVELS[cfg.level]}


def _write_metrics(
    cfg: PipelineConfig, out: Path, table: ClassificationTable,
    distributions: list[MultidisciplinarityDistribution], nets: dict[str, list[FlowNetwork]],
) -> list[Path]:
    """Write every metric table, from the ``distributions`` and the networks
    ``_load_networks`` gives. All inputs are checked before the first write,
    so a bad one changes no file."""
    policy = ZeroBaselinePolicy.parse(cfg.baseline_policy)
    tables: list[tuple[str, str, list[str]]] = []  # (file name, header, rows)
    if "topic" in nets:
        deltas = attractiveness_table(nets["topic"], policy, n_topics=table.topic_count)
        rows = [
            f"{snapshot}\t{topic}\t{fmt_float(delta)}\t{pairs_used}"
            for (snapshot, topic), (delta, pairs_used) in sorted(deltas.items())
        ]
        tables.append(("delta_topic.tsv", "#snapshot\ttopic\tdelta\tpairs_used", rows))

        winner_rows = []
        for snapshot, entry in sorted(most_attractive_topics(deltas).items()):
            for topic in entry.ties:
                flag = "winner" if topic == entry.topic else "tie"
                winner_rows.append(f"{snapshot}\t{topic}\t{fmt_float(entry.delta)}\t{flag}")
        tables.append(("most_attractive_topic.tsv", "#snapshot\ttopic\tdelta\trank", winner_rows))

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
        tables.append(("indices_area.tsv", "#snapshot\tarea\tiota\tepsilon\trho\tsigma", rows))

        median_rows = [
            f"{area}\t{fmt_float(rho)}\t{fmt_float(sigma)}"
            for area, (rho, sigma) in sorted(median_sink_source(series).items())
        ]
        tables.append(("medians_area.tsv", "#area\tmedian_rho\tmedian_sigma", median_rows))

    hist_rows = [
        f"{dist.snapshot}\t{n_areas}\t{count}"
        for dist in distributions
        for n_areas, count in sorted(dist.histogram.items())
    ]
    tables.append(("multidisciplinarity.tsv", "#snapshot\tn_areas\tauthor_count", hist_rows))
    summary_rows = [
        f"{dist.snapshot}\t{dist.author_volume}\t{dist.q_cutoff}" for dist in distributions
    ]
    tables.append(
        ("multidisciplinarity_summary.tsv", "#snapshot\tauthor_volume\tq99_cutoff", summary_rows)
    )

    written: list[Path] = []
    for name, header, rows in tables:
        path = out / name
        write_tsv(path, [header], rows)
        written.append(path)
    print(f"wrote {len(written)} metric files to {out}")
    return written


def cmd_metrics(cfg: PipelineConfig) -> list[Path]:
    table = _load_table(cfg)
    out = Path(cfg.out_dir)
    # Only the histogram is kept: profiles stream into it one at a time,
    # before the networks load (a lower peak RSS).
    distributions = multidisciplinarity(_read_profiles(cfg, out, table), table)
    return _write_metrics(cfg, out, table, distributions, _load_networks(cfg, out, table))


def _viz_config(cfg: PipelineConfig) -> VizConfig:
    viz = VizConfig()
    if cfg.viz_config is not None:
        viz = load_viz_config(_require_file(cfg.viz_config, "--viz-config"))
    overrides = {
        name: getattr(cfg, name)
        for name in ("min_weight", "sector_order", "canvas_size")
        if getattr(cfg, name) is not None
    }
    return viz._replace(**overrides)  # checked like a new config


def _draw(out: Path, net: FlowNetwork, table: ClassificationTable, viz: VizConfig) -> Path:
    svg_path = out / f"viz_{net.level}_{net.from_snapshot}_{net.to_snapshot}.svg"
    write_text_atomic(svg_path, render_svg(net, table, viz))
    print(f"wrote {svg_path}")
    return svg_path


def cmd_viz(cfg: PipelineConfig, pair: tuple[int, int]) -> Path:
    earlier, later = pair
    if (earlier, later) not in cfg.grid().label_pairs():
        raise UsageError(f"--pair {earlier} {later} is not a consecutive pair of the grid")
    viz = _viz_config(cfg)  # a bad rendering setting fails before any write
    table = _load_table(cfg)
    out = Path(cfg.out_dir)
    net = _load_network(out, table, LEVELS[cfg.level][0], earlier, later)
    return _draw(out, net, table, viz)


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
    """Run every stage and write ``report.json``. The dedupe walk is read
    once: each profile it yields goes to ``profiles.tsv``, to the flow
    fold and to the area tally, and none is kept."""
    viz = _viz_config(cfg)  # a bad rendering setting fails before any write
    table, out, profiles, stats = _start_ingest(cfg)
    fold = FlowFold(cfg.grid(), cfg.level, cfg.appearing_weight)
    nodes = dominant_sets_of(cfg.level, table, cfg.area_mode)
    tally = AreaTally(table)

    def counted() -> Iterator[ActivityProfile]:
        for profile in profiles:
            fold.add(profile.author_id, profile.snapshot, nodes(profile))
            tally.add(profile)
            yield profile

    _write_ingest(out, counted(), stats)
    flow_paths = _write_networks(out, fold.networks())
    # Metrics and viz read the flow files, each once, so their weights are
    # the written ones, as in the standalone stages.
    nets = _load_networks(cfg, out, table)
    metric_paths = _write_metrics(cfg, out, table, tally.distributions(), nets)
    svg_paths = [_draw(out, net, table, viz) for net in nets[LEVELS[cfg.level][0]]]
    summary = {
        "ingest_stats": stats.as_dict(),
        "snapshot_labels": cfg.grid().labels(),
        "flow_files": sorted(p.name for p in flow_paths),
        "metric_files": sorted(p.name for p in metric_paths),
        "viz_files": sorted(p.name for p in svg_paths),
    }
    report_path = out / "report.json"
    write_json(report_path, summary)
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
