"""Seeded synthetic corpora with ground-truth flow networks.

The generator samples, per author and snapshot, an intended dominant
topic set and realizes it with controlled paper counts (dominant topics
get two papers, optional noise topics one), so the pipeline's dominant
sets are known by construction. Expected transition networks are counted
during sampling with an independent set-based rule and written next to
the records as answer files, making every generated corpus its own
oracle for the flow stage.
"""
from __future__ import annotations

import random
from pathlib import Path
from typing import NamedTuple

from .errors import InvalidSpec
from .flows import FlowNetwork, flow_file_name, write_flow_network
from .ingest import SnapshotGrid
from .util import Checked, write_json, write_tsv

# Fixed dominant-set pairs guaranteeing that a mobile corpus exercises
# every transition-counting case: pure move, vanishing topic, full
# persistence, appearance under ambiguity, and a full cross move.
_CASE_PAIRS = (
    ("case_move", (0,), (1,)),
    ("case_vanish", (0, 1), (0,)),
    ("case_persist", (0, 1), (0, 1)),
    ("case_appear", (0, 1, 2), (0, 1, 3)),
    ("case_cross", (0, 1), (2, 3)),
)


MAX_SKEW = 8.0


class _SpecFields(NamedTuple):
    n_authors: int
    n_topics: int
    n_areas: int
    n_snapshots: int
    mobility: float = 0.3
    skew: float = 1.0
    seed: int = 0


class SyntheticSpec(Checked, _SpecFields):
    __slots__ = ()

    def _check(self):
        if not 1 <= self.n_areas <= self.n_topics:
            raise InvalidSpec(
                f"need n_topics >= n_areas >= 1, got {self.n_topics}/{self.n_areas}"
            )
        if self.n_authors < 1 or self.n_snapshots < 1:
            raise InvalidSpec("need at least one author and one snapshot")
        if not 0.0 <= self.mobility <= 1.0:
            raise InvalidSpec(f"mobility must be in [0, 1], got {self.mobility}")
        # Drawing an author's topic set needs up to three distinct topics, and
        # the third comes about once per 3**skew tries: at skew 8 a 200-author,
        # 300-topic corpus takes seconds, at 10 over a minute, and past about 53
        # the draw never ends (or the weights overflow); nan fails the test.
        if not 0 <= self.skew <= MAX_SKEW:
            raise InvalidSpec(f"skew must be in [0, {MAX_SKEW:g}], got {self.skew}")
        if not 0 <= self.seed < 2**64:
            raise InvalidSpec("seed must be a 64-bit unsigned integer")


class SynthResult(NamedTuple):
    records_path: Path
    journal_topics_path: Path
    topic_areas_path: Path
    answer_paths: dict[tuple[str, int, int], Path]
    manifest_path: Path
    grid: SnapshotGrid
    n_records: int


def _expected_transitions(source_set: frozenset, target_set: frozenset) -> dict:
    # Deliberately set-based, kept independent of the pipeline's counter.
    flows: dict[tuple[str, str], int] = {}
    for node in source_set & target_set:
        flows[(node, node)] = flows.get((node, node), 0) + 1
    for node in target_set - source_set:
        for origin in source_set:
            flows[(origin, node)] = flows.get((origin, node), 0) + 1
    return flows


def _weighted_sample(rng: random.Random, topics: list[str], weights: list[float]) -> frozenset:
    """One to three distinct topics, each drawn by weight."""
    size = rng.randint(1, min(3, len(topics)))
    chosen: set[str] = set()
    while len(chosen) < size:
        chosen.add(rng.choices(topics, weights=weights, k=1)[0])
    return frozenset(chosen)


def generate_corpus(spec: SyntheticSpec, grid: SnapshotGrid, out_dir) -> SynthResult:
    """Write records, classification files, answer networks and a manifest.

    Fully reproducible from the seed. Answer networks assume the default
    pipeline settings (unit appearing weight, mapped area mode, the
    default disambiguation threshold) and cover every consecutive pair of
    the restricted grid recorded in the manifest.
    """
    labels = grid.labels()
    if spec.n_snapshots > len(labels):
        raise InvalidSpec(
            f"{spec.n_snapshots} snapshots requested but the grid only has {len(labels)}"
        )
    labels = labels[: spec.n_snapshots]
    end_year = min(grid.end_year, labels[-1] + grid.width_years - 1)
    synth_grid = SnapshotGrid(grid.start_year, end_year, grid.width_years)

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rng = random.Random(spec.seed)

    topics = [f"t{i:03d}" for i in range(spec.n_topics)]
    areas = [f"a{i:02d}" for i in range(spec.n_areas)]
    topic_area = {t: areas[i % spec.n_areas] for i, t in enumerate(topics)}
    weights = [1.0 / (i + 1) ** spec.skew for i in range(spec.n_topics)]

    def years_of(label: int) -> list[int]:
        return list(range(label, min(label + grid.width_years, end_year + 1)))

    # intended dominant sets per author: list of (author, {label: frozenset})
    author_sets: list[tuple[str, dict[int, frozenset]]] = []
    for i in range(spec.n_authors):
        author = f"auth{i:05d}"
        first = rng.randrange(len(labels))
        last = rng.randrange(len(labels))
        if first > last:
            first, last = last, first
        active = labels[first : last + 1]
        dominant = _weighted_sample(rng, topics, weights)
        sets: dict[int, frozenset] = {}
        for label in active:
            sets[label] = dominant
            if rng.random() < spec.mobility:
                dominant = _weighted_sample(rng, topics, weights)
        author_sets.append((author, sets))

    if spec.mobility > 0 and spec.n_topics >= 4 and len(labels) >= 2:
        for name, src_idx, dst_idx in _CASE_PAIRS:
            author_sets.append(
                (
                    name,
                    {
                        labels[0]: frozenset(topics[i] for i in src_idx),
                        labels[1]: frozenset(topics[i] for i in dst_idx),
                    },
                )
            )

    pairs = synth_grid.label_pairs()
    answers_topic: dict[tuple[int, int], dict] = {p: {} for p in pairs}
    answers_area: dict[tuple[int, int], dict] = {p: {} for p in pairs}
    lines: list[str] = []
    for author, sets in author_sets:
        for label, dominant in sets.items():
            noise_pool = [t for t in topics if t not in dominant]
            noise = rng.sample(noise_pool, min(len(noise_pool), rng.randint(0, 2)))
            years = years_of(label)
            serial = 0
            for topic, count in [(t, 2) for t in sorted(dominant)] + [(t, 1) for t in noise]:
                for _ in range(count):
                    year = years[serial % len(years)]
                    line = f"{author}\tp_{author}_{label}_{serial}\tj_{topic}\t{year}"
                    lines.append(line)
                    if rng.random() < 0.02:
                        lines.append(line)
                    serial += 1
        for earlier, later in pairs:
            if earlier in sets and later in sets:
                for edge, n in _expected_transitions(sets[earlier], sets[later]).items():
                    bucket = answers_topic[(earlier, later)]
                    bucket[edge] = bucket.get(edge, 0) + n
                src_areas = frozenset(topic_area[t] for t in sets[earlier])
                dst_areas = frozenset(topic_area[t] for t in sets[later])
                for edge, n in _expected_transitions(src_areas, dst_areas).items():
                    bucket = answers_area[(earlier, later)]
                    bucket[edge] = bucket.get(edge, 0) + n

    # A sliver of droppable noise: unclassified journals and out-of-range
    # years, which the ground truth must never see.
    n_noise = max(1, len(lines) // 100)
    for i in range(n_noise):
        author = f"auth{rng.randrange(spec.n_authors):05d}"
        if rng.random() < 0.5:
            year = rng.choice(years_of(rng.choice(labels)))
            lines.append(f"{author}\tp_noise_{i}\tj_unclassified\t{year}")
        else:
            year = end_year + 1 + rng.randrange(30)
            lines.append(f"{author}\tp_noise_{i}\tj_{topics[0]}\t{year}")
    rng.shuffle(lines)

    records_path = out / "records.tsv"
    write_tsv(records_path, ["#author_id\tpaper_id\tjournal_id\tyear"], lines)

    journal_topics_path = out / "journal_topics.tsv"
    write_tsv(journal_topics_path, ["#journal_id\ttopic_id"], (f"j_{t}\t{t}" for t in topics))

    topic_areas_path = out / "topic_areas.tsv"
    write_tsv(topic_areas_path, ["#topic_id\tarea_id"], (f"{t}\t{topic_area[t]}" for t in topics))

    answer_paths: dict[tuple[str, int, int], Path] = {}
    for level, answers in (("topic", answers_topic), ("area", answers_area)):
        for (earlier, later), edges in answers.items():
            net = FlowNetwork(
                level=level, from_snapshot=earlier, to_snapshot=later, weights=edges
            )
            path = out / ("answers_" + flow_file_name(level, earlier, later))
            write_flow_network(net, path)
            answer_paths[(level, earlier, later)] = path

    manifest_path = out / "synth_manifest.json"
    manifest = {
        "spec": spec._asdict(),
        "grid": synth_grid._asdict(),
        "snapshot_labels": labels,
        "n_records": len(lines),
        "assumes": {"appearing_weight": "unit", "area_mode": "mapped"},
        "answer_files": sorted(p.name for p in answer_paths.values()),
    }
    write_json(manifest_path, manifest)

    return SynthResult(
        records_path=records_path,
        journal_topics_path=journal_topics_path,
        topic_areas_path=topic_areas_path,
        answer_paths=answer_paths,
        manifest_path=manifest_path,
        grid=synth_grid,
        n_records=len(lines),
    )
