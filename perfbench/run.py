#!/usr/bin/env python3
"""topicflow benchmark: seeded batch workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload report_ref --seed 8 --seconds 10 --trace 0

Set-up (untimed, cached under perfbench/.work by workload spec, seed and
a digest of the topicflow sources): the corpus is generated with
``topicflow synth --seed <seed>``, plus what the workload needs before its
timed commands. Every cached file is topicflow output (synth writes the
answer files with the flows writer), so a source change starts a new
cache entry rather than comparing new code with outputs of old code.
The timed part runs each subcommand as a fresh ``python -m topicflow.cli``
process, the way users run it, in a fresh output directory, repeating the
workload until ``--seconds`` have passed (at least once). Every output is
checked.

Times are reported at a reference CPU speed. On a shared machine the speed
a process gets drifts by up to about 1.8x over seconds to minutes, so raw times
of the same code spread across runs by more than a regression bound. Every
timed process therefore runs between two calibration loops (a fixed
pure-Python loop shaped like record parsing, run by this script), and its
wall and CPU times are multiplied by ``CAL_REF_S`` over the mean time of
those two loops. The raw times are printed and saved beside the scaled
ones, with the host speed the loops measured.

``--authors N`` replaces the workload's corpus size: ``--workload report_ref
--seed 8 --authors 100000`` is the ROADMAP reference corpus.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` runs the
workload once untraced and once under ``perfbench/tracer.py`` and prints
the per-layer metrics. The last line of stdout is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the full
result (machine stamp, corpus spec, spans) is written to
perfbench/.work/results/. The exit code is 0 when every check passed,
1 when a check failed, 2 when the program cannot be found.
"""
from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import time
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
CACHE_KEEP = 12  # cached corpora kept per workload: a 10-seed series plus spares
SETUP_STARTS = 8  # minimum set-up starts per run: one before each iteration, the rest after the last
QUANTILE = "0.999"
CAL_ROUNDS = 32
CAL_REF_S = 0.2  # calibration loop time at the reference speed
_CAL_LINES = [f"a{i % 997}\tp{i}\tj{i % 53}\t{1910 + i % 20}" for i in range(4000)]

Problems = list[str]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    spec: dict  # arguments of `topicflow synth`
    fmt: str = "tsv"  # records format handed to the timed commands


# Sized so that one iteration takes a few seconds: the speed scaling works
# best on short processes, and a run measures many iterations.
REF_SHAPE = {"topics": 40, "areas": 8, "snapshots": 4, "mobility": 0.3}
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "report_ref",
            "headline `report` on the ROADMAP reference shape at 10k of its 100k authors: "
            "ingest-bound, profiles re-read; below the flows pool threshold",
            {"authors": 10_000, **REF_SHAPE},
        ),
        Workload(
            "rerun_wide",
            "flows, metrics and 20 viz runs after one untimed ingest: 300 topics, 21 snapshots, "
            "~2.5k topic edges per pair; viz ~75% of wall, flows ~14%, metrics ~11%; no pool",
            {"authors": 5_000, "topics": 300, "areas": 15, "snapshots": 21, "mobility": 0.5},
        ),
        Workload(
            "ingest_json_cut",
            "NDJSON parse path plus the quantile pass; the derived cut excludes authors",
            {"authors": 5_000, **REF_SHAPE},
            fmt="ndjson",
        ),
    )
}
END_TO_END_UNITS = {
    "wall_s": "s",
    "records_per_s": "records/s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
SUBCOMMANDS = ("ingest", "flows", "metrics", "viz", "report")


# -- processes --


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


@dataclass
class Proc:
    name: str
    code: int
    wall_s: float  # raw
    cpu_s: float  # raw
    maxrss_mb: float
    stdout: str
    scale: float = 1.0  # CAL_REF_S / measured calibration time

    @property
    def ref_wall_s(self) -> float:
        return self.wall_s * self.scale

    @property
    def ref_cpu_s(self) -> float:
        return self.cpu_s * self.scale


def run_proc(name: str, argv: list[str], log_dir: Path) -> Proc:
    """Run one process to completion; rusage covers it and its reaped children."""
    log_dir.mkdir(parents=True, exist_ok=True)
    stem = log_dir / f"{len(list(log_dir.glob('*.out'))):03d}-{name}"
    with open(f"{stem}.out", "w+b") as out, open(f"{stem}.err", "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=_env(), stdout=out, stderr=err)
        _, status, ru = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        text = out.read().decode("utf-8", "replace")
    return Proc(name, proc.returncode, wall, ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024, text)


def calibrate() -> float:
    """Wall time of a fixed pure-Python loop: split, parse, count, sort."""
    t0 = time.perf_counter()
    for _ in range(CAL_ROUNDS):
        counts: dict[tuple[str, int], int] = {}
        for line in _CAL_LINES:
            author, _, _, year = line.split("\t")
            key = (author, int(year))
            counts[key] = counts.get(key, 0) + 1
        sorted(counts.items())
    return time.perf_counter() - t0


class Clock:
    """Runs timed processes, each between two calibration loops."""

    def __init__(self):
        self.calibrations = [calibrate()]

    def run(self, name: str, argv: list[str], log_dir: Path) -> Proc:
        proc = run_proc(name, argv, log_dir)
        self.calibrations.append(calibrate())
        proc.scale = 2 * CAL_REF_S / sum(self.calibrations[-2:])
        return proc

    def speed(self) -> float:
        """Median host speed relative to the reference speed (higher is faster)."""
        return statistics.median(CAL_REF_S / c for c in self.calibrations)


def topicflow(*args) -> list[str]:
    return [sys.executable, "-m", "topicflow.cli", *map(str, args)]


def checked(name: str, argv: list[str], log_dir: Path) -> Proc:
    proc = run_proc(name, argv, log_dir)
    if proc.code != 0:
        raise SystemExit(f"perfbench: set-up step {name} exited {proc.code}; see {log_dir}")
    return proc


# -- set-up --


@dataclass
class Corpus:
    workload: Workload
    dir: Path
    manifest: dict
    records: Path  # what the timed commands read
    threshold: int | None = None  # ingest_json_cut: cut derived in set-up

    @property
    def n_records(self) -> int:
        return self.manifest["n_records"]

    @property
    def grid(self) -> dict:
        return self.manifest["grid"]

    @property
    def pairs(self) -> list[tuple[int, int]]:
        labels = self.manifest["snapshot_labels"]
        return list(zip(labels, labels[1:]))

    def common(self, out: Path, threads: int) -> list[str]:
        g = self.grid
        return [
            "--journal-topics", str(self.dir / "corpus" / "journal_topics.tsv"),
            "--topic-areas", str(self.dir / "corpus" / "topic_areas.tsv"),
            "--out", str(out),
            "--start-year", str(g["start_year"]),
            "--end-year", str(g["end_year"]),
            "--width", str(g["width_years"]),
            "--threads", str(threads),
        ]


def source_digest() -> str:
    """Digest of the topicflow package sources (paths and bytes)."""
    h = hashlib.sha256()
    package = SRC / "topicflow"
    for path in sorted(p for p in package.rglob("*") if p.is_file()):
        if "__pycache__" in path.parts:
            continue
        h.update(str(path.relative_to(package)).encode() + b"\0")
        h.update(hashlib.sha256(path.read_bytes()).digest())
    return h.hexdigest()


def _cache_key(workload: Workload, seed: int) -> str:
    blob = json.dumps({"spec": workload.spec, "fmt": workload.fmt}, sort_keys=True)
    spec = hashlib.sha256(blob.encode()).hexdigest()[:10]
    return f"{workload.name}-seed{seed}-{spec}-src{source_digest()[:12]}"


def yearly_quantile(records: Path, q: str) -> int:
    """Smallest k with at least a fraction q of (author, year) paper counts <= k.

    Written independently of topicflow, over every well-formed record.
    """
    papers: dict[tuple[str, str], set[str]] = {}
    with open(records, encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("#") or not line.strip():
                continue
            author, paper, _, year = line.rstrip("\n").split("\t")
            papers.setdefault((author, year), set()).add(paper)
    counts = sorted(len(p) for p in papers.values())
    return counts[max(0, math.ceil(Fraction(q) * len(counts)) - 1)]


def to_ndjson(tsv: Path, ndjson: Path) -> None:
    with open(tsv, encoding="utf-8") as src, open(ndjson, "w", encoding="utf-8") as dst:
        for line in src:
            if line.startswith("#") or not line.strip():
                continue
            author, paper, journal, year = line.rstrip("\n").split("\t")
            dst.write(json.dumps(
                {"author_id": author, "paper_id": paper, "journal_id": journal, "year": int(year)}
            ) + "\n")


def prepare(workload: Workload, seed: int, work: Path, threads: int) -> Corpus:
    """Build (or reuse) the workload's inputs for this seed and these sources."""
    cache = work / "cache"
    entry = cache / _cache_key(workload, seed)
    if not (entry / "ready.json").is_file():
        tmp = cache / f"{entry.name}.tmp"
        shutil.rmtree(tmp, ignore_errors=True)
        tmp.mkdir(parents=True)
        s = workload.spec
        checked("synth", topicflow(
            "synth", "--authors", s["authors"], "--topics", s["topics"], "--areas", s["areas"],
            "--snapshots", s["snapshots"], "--mobility", s["mobility"], "--seed", seed,
            "--out", tmp / "corpus",
        ), tmp / "logs")
        ready: dict = {"spec": s, "seed": seed, "fmt": workload.fmt}
        manifest = json.loads((tmp / "corpus" / "synth_manifest.json").read_text())
        corpus = Corpus(workload, tmp, manifest, tmp / "corpus" / "records.tsv")
        if workload.name == "rerun_wide":
            # The one ingest the re-analysis loop starts from.
            checked("ingest", topicflow(
                "ingest", "--records", corpus.records, *corpus.common(tmp / "base", threads)
            ), tmp / "logs")
        if workload.fmt == "ndjson":
            to_ndjson(corpus.records, tmp / "records.ndjson")
            ready["threshold"] = yearly_quantile(corpus.records, QUANTILE)
            # Reference profiles: the same records as TSV, cut at the same threshold.
            checked("reference", topicflow(
                "ingest", "--records", corpus.records,
                "--max-papers-per-year", ready["threshold"], "--cut-scope", "all",
                *corpus.common(tmp / "reference", threads),
            ), tmp / "logs")
        (tmp / "ready.json").write_text(json.dumps(ready, sort_keys=True) + "\n")
        os.replace(tmp, entry)
        _evict(cache, workload, keep=entry)
    os.utime(entry / "ready.json")
    ready = json.loads((entry / "ready.json").read_text())
    manifest = json.loads((entry / "corpus" / "synth_manifest.json").read_text())
    records = entry / ("records.ndjson" if workload.fmt == "ndjson" else "corpus/records.tsv")
    return Corpus(workload, entry, manifest, records, ready.get("threshold"))


def _evict(cache: Path, workload: Workload, keep: Path) -> None:
    entries = sorted(
        (p for p in cache.glob(f"{workload.name}-seed*") if (p / "ready.json").is_file()),
        key=lambda p: (p == keep, (p / "ready.json").stat().st_mtime),
    )
    for stale in entries[:-CACHE_KEEP]:
        shutil.rmtree(stale, ignore_errors=True)


def setup_starts(clock: Clock, corpus: Corpus, log_dir: Path, n: int = 1) -> list[Proc]:
    """Fresh interpreters importing the CLI and loading the tables."""
    code = (
        "import sys\nfrom topicflow.cli import load_classification\n"
        "load_classification(sys.argv[1], sys.argv[2])"
    )
    argv = [
        sys.executable, "-c", code,
        str(corpus.dir / "corpus" / "journal_topics.tsv"),
        str(corpus.dir / "corpus" / "topic_areas.tsv"),
    ]
    starts = [clock.run("setup", argv, log_dir) for _ in range(n)]
    for start in starts:
        if start.code != 0:
            raise SystemExit(f"perfbench: set-up start exited {start.code}; see {log_dir}")
    return starts


# -- the timed workload --


def commands(corpus: Corpus, out: Path, threads: int) -> list[tuple[str, list[str]]]:
    common = corpus.common(out, threads)
    name = corpus.workload.name
    if name == "report_ref":
        return [("report", ["report", "--records", str(corpus.records), *common])]
    if name == "rerun_wide":
        return [("flows", ["flows", *common]), ("metrics", ["metrics", *common])] + [
            ("viz", ["viz", "--level", "topic", "--pair", str(a), str(b), *common])
            for a, b in corpus.pairs
        ]
    return [("ingest", [
        "ingest", "--records", str(corpus.records), "--quantile", QUANTILE,
        "--cut-scope", "all", *common,
    ])]


@dataclass
class Iteration:
    procs: list[Proc]
    problems: Problems = field(default_factory=list)
    digest: str = ""

    @property
    def wall_s(self) -> float:
        return sum(p.ref_wall_s for p in self.procs)

    @property
    def raw_wall_s(self) -> float:
        return sum(p.wall_s for p in self.procs)

    @property
    def cpu_s(self) -> float:
        return sum(p.ref_cpu_s for p in self.procs)

    def cmd_wall(self, sub: str) -> float:
        return sum(p.ref_wall_s for p in self.procs if p.name == sub)


def run_iteration(clock: Clock, corpus: Corpus, out: Path, threads: int,
                  trace_dir: Path | None = None,
                  tamper: Callable[[Path], None] | None = None) -> Iteration:
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    if corpus.workload.name == "rerun_wide":
        shutil.copyfile(corpus.dir / "base" / "profiles.tsv", out / "profiles.tsv")
    logs = out.parent / f"{out.name}-logs"
    shutil.rmtree(logs, ignore_errors=True)
    procs = []
    for i, (sub, args) in enumerate(commands(corpus, out, threads)):
        if trace_dir is not None:
            args = [str(HERE / "tracer.py"), str(trace_dir / f"{i:03d}.json"), *args]
            procs.append(clock.run(sub, [sys.executable, *args], logs))
        else:
            procs.append(clock.run(sub, topicflow(*args), logs))
    it = Iteration(procs)
    if tamper is not None:
        tamper(out)
    it.problems = [f"{p.name} exited {p.code} (see {logs})" for p in procs if p.code != 0]
    if not it.problems:
        try:
            it.problems = check_outputs(corpus, out, procs)
        except (OSError, ValueError) as exc:  # a missing or unparsable artifact
            it.problems = [f"output check failed: {exc}"]
    it.digest = tree_digest(out)
    return it


# -- output checks --


def data_rows(path: Path) -> list[str]:
    return [
        line for line in path.read_text(encoding="utf-8").splitlines()
        if line and not line.startswith("#")
    ]


def check_flows(corpus: Corpus, out: Path) -> Problems:
    answers = sorted((corpus.dir / "corpus").glob("answers_flows_*.tsv"))
    expected = [a.name.removeprefix("answers_") for a in answers]
    problems = []
    if sorted(p.name for p in out.glob("flows_*.tsv")) != expected:
        problems.append("flow files differ from the answer files' set")
    for answer, name in zip(answers, expected):
        produced = out / name
        if produced.is_file() and data_rows(produced) != data_rows(answer):
            problems.append(f"{produced.name}: rows differ from {answer.name}")
    return problems


def check_indices(out: Path) -> Problems:
    """Sink and source indices each sum to 1 on every snapshot with cross flow."""
    crossing = set()
    for path in out.glob("flows_area_*.tsv"):
        for row in data_rows(path):
            _, to, source, target, _ = row.split("\t")
            if source != target:
                crossing.add(to)
    sums: dict[str, list[float]] = {}
    for row in data_rows(out / "indices_area.tsv"):
        snapshot, _, _, _, rho, sigma = row.split("\t")
        acc = sums.setdefault(snapshot, [0.0, 0.0])
        acc[0] += float(rho)
        acc[1] += float(sigma)
    problems = [f"indices_area.tsv: no rows for snapshot {s}" for s in sorted(crossing - set(sums))]
    for snapshot in sorted(crossing & set(sums)):
        rho, sigma = sums[snapshot]
        if abs(rho - 1) > 1e-9 or abs(sigma - 1) > 1e-9:
            problems.append(
                f"indices_area.tsv: snapshot {snapshot} sums rho={rho!r} sigma={sigma!r}"
            )
    return problems


def check_svgs(out: Path, pairs: list[tuple[int, int]]) -> Problems:
    expected = {f"viz_topic_{a}_{b}.svg" for a, b in pairs}
    found = {p.name for p in out.glob("*.svg")}
    problems = []
    if found != expected:
        problems.append(f"svg files {sorted(found)} != requested {sorted(expected)}")
    for name in sorted(expected & found):
        try:
            root = ET.parse(out / name).getroot()
        except ET.ParseError as exc:
            problems.append(f"{name}: not well-formed ({exc})")
            continue
        if root.tag.rsplit("}", 1)[-1] != "svg":
            problems.append(f"{name}: root element is {root.tag}")
    return problems


def check_outputs(corpus: Corpus, out: Path, procs: list[Proc]) -> Problems:
    name = corpus.workload.name
    if name in ("report_ref", "rerun_wide"):
        return check_flows(corpus, out) + check_indices(out) + check_svgs(out, corpus.pairs)
    problems = []
    printed = re.search(r"max papers per year (\d+)", procs[0].stdout)
    if printed is None or int(printed.group(1)) != corpus.threshold:
        problems.append(f"printed threshold {printed and printed.group(1)} != {corpus.threshold}")
    reference = corpus.dir / "reference" / "profiles.tsv"
    produced = out / "profiles.tsv"
    if not produced.is_file() or produced.read_bytes() != reference.read_bytes():
        problems.append("profiles.tsv differs from the TSV ingest at the same threshold")
    return problems


def tree_digest(out: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(out)).encode() + b"\0")
        h.update(hashlib.sha256(path.read_bytes()).digest())
    return h.hexdigest()


def check_digests(corpus: Corpus, iterations: list[Iteration]) -> None:
    """Every run of one cache entry (corpus and sources), in this call or
    earlier ones, yields the same tree."""
    record = corpus.dir / "artifact_digest"
    if not record.is_file() and not any(it.problems for it in iterations):
        record.write_text(iterations[0].digest + "\n")
    expected = record.read_text().strip() if record.is_file() else iterations[0].digest
    for it in iterations:
        if it.digest != expected:
            it.problems.append(f"artifact digest {it.digest[:12]} != {expected[:12]}")


# -- per-layer metrics from the traced run --

LAYER_UNITS: dict[str, str] = {
    **{f"cmd_wall_s.{sub}": "s" for sub in SUBCOMMANDS},
    "ingest.iter_records.calls": "count",
    "ingest.iter_records.items": "count",
    "ingest.parse_per_record": "ratio",
    "ingest.iter_records.busy_s": "s",
    "ingest.ingest_records.self_s": "s",
    "ingest.compute_yearly_paper_quantile.self_s": "s",
    "ingest.records_read": "count",
    "ingest.records_kept": "count",
    "ingest.dropped_year": "count",
    "ingest.dropped_unclassified": "count",
    "ingest.authors_excluded": "count",
    "ingest.unaccounted": "count",
    "ingest.rss_mb": "MB",
    "classification.load_classification.calls": "count",
    "classification.load_classification.busy_s": "s",
    "cli.write_profiles.busy_s": "s",
    "cli.profiles_bytes": "bytes",
    "cli.load_profiles.calls": "count",
    "cli.load_profiles.busy_s": "s",
    **{f"cli.cmd_{sub}.self_s": "s" for sub in SUBCOMMANDS},
    "flows.dominant.calls": "count",
    "flows.dominant.busy_s": "s",
    "flows.dominant_calls_per_profile": "ratio",
    "flows.build_flow_networks.self_s": "s",
    "flows.pool_children_cpu_s": "s",
    "flows.networks": "count",
    "flows.edges": "count",
    "flows.bytes": "bytes",
    "flows.write_flow_network.busy_s": "s",
    "flows.load_flow_network.calls": "count",
    "flows.load_flow_network.busy_s": "s",
    "metrics.attractiveness_table.busy_s": "s",
    "metrics.most_attractive_topics.busy_s": "s",
    "metrics.migration_index_series.busy_s": "s",
    "metrics.median_sink_source.busy_s": "s",
    "metrics.multidisciplinarity.busy_s": "s",
    "metrics.rows": "count",
    "bundleviz.render_svg.calls": "count",
    "bundleviz.render_svg.self_s": "s",
    "bundleviz.layout.busy_s": "s",
    "bundleviz.edges_drawn": "count",
    "bundleviz.svg_bytes": "bytes",
}
METRIC_FILES = (
    "delta_topic.tsv", "most_attractive_topic.tsv", "indices_area.tsv", "medians_area.tsv",
    "multidisciplinarity.tsv", "multidisciplinarity_summary.tsv",
)


def summarize_spans(dumps: list[dict]) -> dict[str, dict]:
    """calls, items, busy_s and self_s per traced name, over every process."""
    summary: dict[str, dict] = {}

    def entry(name):
        return summary.setdefault(name, {"calls": 0, "items": 0, "busy_s": 0.0, "self_s": 0.0})

    for dump in dumps:
        # No traced function calls itself, so durations of one name never overlap.
        for span in dump["spans"]:
            e = entry(span["name"])
            e["calls"] += 1
            e["busy_s"] += span["end"] - span["start"]
            e["self_s"] += span["self_s"]
        for name, agg in dump["aggregates"].items():
            e = entry(name)
            e["calls"] += agg["calls"]
            e["items"] += agg["items"]
            e["busy_s"] += agg["busy_s"]
            e["self_s"] += agg["busy_s"]
    return summary


def layer_metrics(dumps: list[dict], out: Path, untraced: Iteration) -> dict:
    s = summarize_spans(dumps)

    def get(name, key):
        return s.get(name, {}).get(key, 0)

    def total(key):
        return sum(d["counters"].get(key, 0) for d in dumps)

    def peak(key):
        return max((d["maxima"].get(key, 0) for d in dumps), default=0)

    stats_path = out / "ingest_stats.json"
    stats = json.loads(stats_path.read_text()) if stats_path.is_file() else {}
    read = stats.get("records_read", 0)
    profiles = sum(d["maxima"].get("flows.profiles", 0) for d in dumps)
    m = {f"cmd_wall_s.{sub}": untraced.cmd_wall(sub) for sub in SUBCOMMANDS}
    m.update({
        "ingest.iter_records.calls": get("ingest.iter_records", "calls"),
        "ingest.iter_records.items": get("ingest.iter_records", "items"),
        "ingest.parse_per_record": get("ingest.iter_records", "items") / read if read else 0,
        "ingest.iter_records.busy_s": get("ingest.iter_records", "busy_s"),
        "ingest.ingest_records.self_s": get("ingest.ingest_records", "self_s"),
        "ingest.compute_yearly_paper_quantile.self_s":
            get("ingest.compute_yearly_paper_quantile", "self_s"),
        **{f"ingest.{k}": stats.get(k, 0) for k in (
            "records_read", "records_kept", "dropped_year", "dropped_unclassified",
            "authors_excluded",
        )},
        "ingest.unaccounted": read - stats.get("records_kept", 0)
        - stats.get("dropped_year", 0) - stats.get("dropped_unclassified", 0),
        "ingest.rss_mb": peak("ingest.rss_mb"),
        "classification.load_classification.calls":
            get("classification.load_classification", "calls"),
        "classification.load_classification.busy_s":
            get("classification.load_classification", "busy_s"),
        "cli.write_profiles.busy_s": get("cli.write_profiles", "busy_s"),
        "cli.profiles_bytes": total("cli.profiles_bytes"),
        "cli.load_profiles.calls": get("cli.load_profiles", "calls"),
        "cli.load_profiles.busy_s": get("cli.load_profiles", "busy_s"),
        **{f"cli.cmd_{sub}.self_s": get(f"cli.cmd_{sub}", "self_s") for sub in SUBCOMMANDS},
        "flows.dominant.calls": get("flows.dominant", "calls"),
        "flows.dominant.busy_s": get("flows.dominant", "busy_s"),
        "flows.dominant_calls_per_profile":
            get("flows.dominant", "calls") / profiles if profiles else 0,
        "flows.build_flow_networks.self_s": get("flows.build_flow_networks", "self_s"),
        "flows.pool_children_cpu_s": total("flows.pool_children_cpu_s"),
        "flows.networks": total("flows.networks"),
        "flows.edges": total("flows.edges"),
        "flows.bytes": total("flows.bytes"),
        "flows.write_flow_network.busy_s": get("flows.write_flow_network", "busy_s"),
        "flows.load_flow_network.calls": get("flows.load_flow_network", "calls"),
        "flows.load_flow_network.busy_s": get("flows.load_flow_network", "busy_s"),
        **{f"metrics.{fn}.busy_s": get(f"metrics.{fn}", "busy_s") for fn in (
            "attractiveness_table", "most_attractive_topics", "migration_index_series",
            "median_sink_source", "multidisciplinarity",
        )},
        "metrics.rows": sum(
            len(data_rows(out / name)) for name in METRIC_FILES if (out / name).is_file()
        ),
        "bundleviz.render_svg.calls": get("bundleviz.render_svg", "calls"),
        "bundleviz.render_svg.self_s": get("bundleviz.render_svg", "self_s"),
        "bundleviz.layout.busy_s": get("bundleviz.layout", "busy_s"),
        "bundleviz.edges_drawn": total("bundleviz.edges_drawn"),
        "bundleviz.svg_bytes": total("bundleviz.svg_bytes"),
    })
    assert set(m) == set(LAYER_UNITS), set(m) ^ set(LAYER_UNITS)
    return m


# -- entry point --


def stamp(threads: int) -> dict:
    model = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = "unknown"  # the benchmark may run from an export without git metadata
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                check=True,
            ).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "threads": threads,
        "commit": commit,
        "source_digest": source_digest(),
    }


def bench(workload: Workload, seed: int, seconds: float, trace: bool, *, work: Path = WORK,
          tamper: Callable[[Path], None] | None = None) -> dict:
    """Set up, run and check one workload; return the full result record."""
    threads = len(os.sched_getaffinity(0))
    corpus = prepare(workload, seed, work, threads)
    runs = work / "runs" / workload.name
    result = {
        "workload": workload.name,
        "why": workload.why,
        "seed": seed,
        "spec": workload.spec,
        "format": workload.fmt,
        "records": corpus.n_records,
        "stamp": stamp(threads),
        "trace": trace,
    }
    clock = Clock()
    start_logs = runs / "setup-logs"
    shutil.rmtree(start_logs, ignore_errors=True)
    setup_starts(clock, corpus, start_logs)  # warm-up, not counted
    if trace:
        untraced = run_iteration(clock, corpus, runs / "out", threads, tamper=tamper)
        trace_dir = runs / "trace"
        shutil.rmtree(trace_dir, ignore_errors=True)
        trace_dir.mkdir(parents=True)
        traced = run_iteration(clock, corpus, runs / "out", threads, trace_dir, tamper=tamper)
        iterations = [untraced, traced]
        check_digests(corpus, iterations)
        dumps = [json.loads(p.read_text()) for p in sorted(trace_dir.glob("*.json"))]
        metrics = {k: (v, LAYER_UNITS[k]) for k, v in
                   layer_metrics(dumps, runs / "out", untraced).items()}
        result["processes"] = dumps
        # Informational: the difference of one traced and one untraced run.
        result["extra"] = {"trace.overhead_s": (traced.wall_s - untraced.wall_s, "s")}
    else:
        # Set-up starts are spread over the run, one before each iteration,
        # so their median spans its length.
        starts: list[Proc] = []
        iterations = []
        deadline = time.perf_counter() + seconds
        while not iterations or time.perf_counter() < deadline:
            starts += setup_starts(clock, corpus, start_logs)
            iterations.append(run_iteration(clock, corpus, runs / "out", threads, tamper=tamper))
        starts += setup_starts(clock, corpus, start_logs, n=max(0, SETUP_STARTS - len(starts)))
        result["setup_starts"] = [{"wall_s": p.wall_s, "scale": p.scale} for p in starts]
        check_digests(corpus, iterations)
        med = statistics.median
        metrics = {
            "wall_s": med(it.wall_s for it in iterations),
            "records_per_s": med(corpus.n_records / it.wall_s for it in iterations),
            "cpu_s": med(it.cpu_s for it in iterations),
            "peak_rss_mb": med(max(p.maxrss_mb for p in it.procs) for it in iterations),
            "setup_s": med(p.ref_wall_s for p in starts),
        }
        metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}
        ran = {p.name for p in iterations[0].procs}
        result["extra"] = {
            **{f"cmd_wall_s.{sub}": (med(it.cmd_wall(sub) for it in iterations), "s")
               for sub in SUBCOMMANDS if sub in ran},
            "raw.wall_s": (med(it.raw_wall_s for it in iterations), "s"),
            "raw.cpu_s": (med(sum(p.cpu_s for p in it.procs) for it in iterations), "s"),
            "raw.setup_s": (med(p.wall_s for p in starts), "s"),
        }
    result["extra"]["host_speed"] = (clock.speed(), "ratio")
    result["calibrations_s"] = clock.calibrations
    result["iterations"] = [
        {"wall_s": it.wall_s, "raw_wall_s": it.raw_wall_s, "digest": it.digest,
         "problems": it.problems,
         "commands": [{"name": p.name, "code": p.code, "wall_s": p.wall_s, "cpu_s": p.cpu_s,
                       "scale": p.scale, "maxrss_mb": p.maxrss_mb} for p in it.procs]}
        for it in iterations
    ]
    result["attempted"] = len(iterations)
    result["failed"] = sum(bool(it.problems) for it in iterations)
    result["metrics"] = metrics
    if not trace:
        result["extra"]["failed_frac"] = (result["failed"] / len(iterations), "ratio")
    results = work / "results"
    results.mkdir(parents=True, exist_ok=True)
    path = results / f"{workload.name}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    result["path"] = path
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--authors", type=int,
                        help="corpus size in place of the workload's (100000 with seed 8 "
                             "and report_ref is the ROADMAP reference corpus)")
    args = parser.parse_args(argv)
    if not (SRC / "topicflow" / "cli.py").is_file():
        print(f"perfbench: topicflow sources not found under {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    if args.authors:
        workload = dataclasses.replace(workload, spec={**workload.spec, "authors": args.authors})
    result = bench(workload, args.seed, args.seconds, bool(args.trace))

    s = result["stamp"]
    print(f"workload {result['workload']} seed {result['seed']} format {result['format']} "
          f"records {result['records']} spec {json.dumps(result['spec'], sort_keys=True)}")
    print(f"why: {result['why']}")
    print(f"nproc {s['nproc']} threads {s['threads']} python {s['python']} "
          f"cpu {s['cpu_model']!r} commit {s['commit']}")
    for it in result["iterations"]:
        for problem in it["problems"]:
            print(f"FAILED CHECK: {problem}")
    shown = {**result["metrics"], **result.get("extra", {})}
    for name, (value, unit) in shown.items():
        print(f"{name:45s} {value:>16.6g} {unit}")
    print(f"full result: {result['path'].relative_to(ROOT)}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()},
    }))
    return 0 if result["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
