#!/usr/bin/env python3
"""Desk-scale benchmark: a million synthetic records through every subcommand.

Runs ``synth``, then ``ingest``, ``flows``, ``metrics`` and one ``viz
--level topic --pair 1910 1915``, and last a whole ``report`` into its
own directory, each as its own ``python -m topicflow.cli`` child, the
way users run it, and reports each one's wall time and max RSS (from
``os.wait4``). So ``flows`` and ``metrics`` show what streaming
``profiles.tsv`` through each of them costs, ``viz`` what one redraw
costs, and ``report`` what one pass through every stage costs, its
dedupe walk feeding the profile writer, the flow fold and the area tally
at once. This script imports no topicflow code and stays
small: a child started by ``subprocess`` reports at least the RSS its
parent had when it started, so a large parent would hide the stages' own
peaks. Ingest's peak is also given per record read, and the peaks of
``flows`` and ``metrics`` per profile (the numbers to watch as the corpus
grows). Mirrors the performance gate in tests/test_acceptance.py but
keeps the artifacts around for inspection.

Usage:
    python3 scripts/benchmark_ingest.py [--out bench_out] [--authors 100000] [--threads N]
"""
from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def run_stage(argv: list[str]) -> tuple[int, float, int]:
    """Run one topicflow subcommand as a child; return (exit code, wall s, max RSS KiB)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    t0 = time.perf_counter()
    child = subprocess.Popen(
        [sys.executable, "-m", "topicflow.cli", *argv], env=env, stdout=subprocess.DEVNULL
    )
    _, status, usage = os.wait4(child.pid, 0)
    return os.waitstatus_to_exitcode(status), time.perf_counter() - t0, usage.ru_maxrss


def count_profiles(path: Path) -> int:
    """The (author, snapshot) groups of ``profiles.tsv``, whose rows come grouped."""
    groups, last = 0, None
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            key = line.split("\t", 2)[:2]
            if not line.startswith("#") and key != last:
                groups, last = groups + 1, key
    return groups


def run(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="bench_out")
    parser.add_argument("--authors", type=int, default=100_000)
    parser.add_argument("--seed", type=int, default=8)
    parser.add_argument("--threads", type=int, default=None)
    args = parser.parse_args(argv)

    out = Path(args.out)
    corpus = out / "corpus"
    grid = ["--start-year", "1910", "--end-year", "2014", "--width", "5"]
    stages = [("synth", [
        "synth", "--out", str(corpus), "--authors", str(args.authors), "--topics", "40",
        "--areas", "8", "--snapshots", "4", "--mobility", "0.3", "--skew", "1.0",
        "--seed", str(args.seed), *grid,
    ])]
    inputs = [
        "--records", str(corpus / "records.tsv"),
        "--journal-topics", str(corpus / "journal_topics.tsv"),
        "--topic-areas", str(corpus / "topic_areas.tsv"), *grid,
    ]
    if args.threads is not None:
        inputs += ["--threads", str(args.threads)]
    common = [*inputs, "--out", str(out / "run")]
    stages += [(stage, [stage, *common]) for stage in ("ingest", "flows", "metrics")]
    stages.append(("viz", ["viz", "--level", "topic", "--pair", "1910", "1915", *common]))
    stages.append(("report", ["report", *inputs, "--out", str(out / "report")]))

    print(f"{args.authors} authors, seed {args.seed}")
    peaks = {}
    for stage, stage_argv in stages:
        rc, wall, peaks[stage] = run_stage(stage_argv)
        if rc != 0:
            return rc
        print(f"  {stage}: {wall:.1f}s, max rss {peaks[stage] / 1024:.0f} MB")
    stats = json.loads((out / "run" / "ingest_stats.json").read_text(encoding="utf-8"))
    per_record = peaks["ingest"] * 1024 / stats["records_read"]
    print(f"{stats['records_read']} records read; "
          f"ingest max rss per record read: {per_record:.0f} bytes")
    profiles = count_profiles(out / "run" / "profiles.tsv")
    per_profile = {stage: peaks[stage] * 1024 / profiles for stage in ("flows", "metrics")}
    print(f"{profiles} profiles; max rss per profile: flows {per_profile['flows']:.0f} bytes, "
          f"metrics {per_profile['metrics']:.0f} bytes")
    return 0


if __name__ == "__main__":
    sys.exit(run())
