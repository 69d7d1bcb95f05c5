#!/usr/bin/env python3
"""Desk-scale benchmark: a million synthetic records through ingest + flows.

Reports wall time per stage, peak RSS, and peak RSS per record read
(the number to watch as the corpus grows). Mirrors the performance gate in
tests/test_acceptance.py but keeps the artifacts around for inspection.

Usage:
    python3 scripts/benchmark_ingest.py [--out bench_out] [--authors 100000] [--threads N]
"""
from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from topicflow import SnapshotGrid, SyntheticSpec, generate_corpus  # noqa: E402
from topicflow.cli import main as topicflow  # noqa: E402


def peak_rss_bytes() -> int:
    kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return kb * 1024


def run(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="bench_out")
    parser.add_argument("--authors", type=int, default=100_000)
    parser.add_argument("--seed", type=int, default=8)
    parser.add_argument("--threads", type=int, default=None)
    args = parser.parse_args(argv)

    out = Path(args.out)
    spec = SyntheticSpec(
        n_authors=args.authors, n_topics=40, n_areas=8, n_snapshots=4,
        mobility=0.3, skew=1.0, seed=args.seed,
    )
    print(f"generating corpus ({args.authors} authors)...")
    t0 = time.perf_counter()
    corpus = generate_corpus(spec, SnapshotGrid(1910, 2014, 5), out / "corpus")
    print(f"  {corpus.n_records} records in {time.perf_counter() - t0:.1f}s")

    grid = corpus.grid
    common = [
        "--records", str(corpus.records_path),
        "--journal-topics", str(corpus.journal_topics_path),
        "--topic-areas", str(corpus.topic_areas_path),
        "--out", str(out / "run"),
        "--start-year", str(grid.start_year),
        "--end-year", str(grid.end_year),
        "--width", str(grid.width_years),
    ]
    if args.threads is not None:
        common += ["--threads", str(args.threads)]

    for stage in ("ingest", "flows"):
        t0 = time.perf_counter()
        rc = topicflow([stage, *common])
        if rc != 0:
            return rc
        print(f"  {stage}: {time.perf_counter() - t0:.1f}s")
    stats = json.loads((out / "run" / "ingest_stats.json").read_text(encoding="utf-8"))
    peak = peak_rss_bytes()
    print(f"peak rss: {peak / 1e9:.2f} GB ({peak / stats['records_read']:.0f} bytes/record read)")
    return 0


if __name__ == "__main__":
    sys.exit(run())
