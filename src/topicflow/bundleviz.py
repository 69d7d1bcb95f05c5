"""Categorical edge-bundled circular diagrams rendered as standalone SVG.

Areas become colored sectors on a circle; nodes (topics, or areas at the
coarse level) sit just inside their sector, ordered by the logarithm of
their strength. An edgeless network has no node and one equal sector per
area of the table. Same-area transitions are drawn as U-shaped curves in
the band between nodes and sectors. Cross-area transitions are cubic
B-splines through seven control points: the two endpoints plus five
points on concentric guide circles that gather outgoing flow near the
source sector and incoming flow near the circle center, which is what
produces the visual bundling.

Per-edge work is kept small. ``layout`` computes the node, r_zero and
area gather points once. The B-spline to Bezier conversion is the
knot-insertion schedule of the one polygon length drawn, seven points,
written out as straight-line lerps, the nine at alpha 0 as copies:
``render_svg`` runs the 1 lerp over a source node's points and the 1
over a target node's once per node, with the path text they fix, and
each edge runs the other 7 and builds its ``<path>`` with one format.
``layout`` walks the edges once, for the exact node strengths, each
node's area and the cross-area links the sector order's modularity merge
starts from; the merge compares exact integer-scaled gains and keeps
community sums as they merge.
"""
from __future__ import annotations

import math
import sys
from typing import TYPE_CHECKING, Iterator, NamedTuple

from .classification import AreaId, ClassificationTable
from .errors import MalformedLine, UnknownTopic, UsageError
from .util import Checked, Record, iter_key_values

if TYPE_CHECKING:
    from fractions import Fraction

    from .flows import FlowNetwork

Point = tuple[float, float]

DEFAULT_PALETTE = (
    "#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd", "#8c564b",
    "#e377c2", "#7f7f7f", "#bcbd22", "#17becf", "#aec7e8", "#ffbb78",
    "#98df8a", "#ff9896", "#c5b0d5", "#c49c94", "#f7b6d2", "#c7c7c7",
    "#dbdb8d", "#9edae5", "#393b79", "#637939", "#8c6d31", "#843c39",
    "#7b4173", "#5254a3", "#bd9e39",
)

_FLOAT32_MAX = 3.4028234663852886e38  # the largest single-precision float


class _VizFields(NamedTuple):
    canvas_size: int = 1000
    radius_frac: float = 0.36
    r_node: float = 1.00
    r_zero: float = 0.92
    r_first: float = 0.80
    r_second: float = 0.55
    sector_inner: float = 1.04
    sector_outer: float = 1.10
    sector_gap_deg: float = 3.0
    out_offset_deg: float = 0.6
    radial_nudge: float = 0.03
    dest_color_weight: float = 0.7
    alpha_max: float = 0.85
    alpha_slope: float = 0.55
    alpha_floor: float = 0.08
    width_min: float = 0.6
    width_scale: float = 0.5
    min_weight: float = 0.0
    node_radius_scale: float = 3.0
    node_radius_min: float = 2.0
    node_radius_max: float = 9.0
    label_radius: float = 1.13
    font_size: float = 9.0
    show_labels: bool = True
    sector_order: str = "modularity"
    palette: tuple[tuple[str, str], ...] = ()


class VizConfig(Checked, _VizFields):
    """All rendering knobs; level radii are fractions of the node circle."""

    __slots__ = ()

    def _check(self):
        if not all(math.isfinite(v) for v in self if isinstance(v, float)):
            raise UsageError("rendering settings must be finite numbers")
        if self.canvas_size < 1:
            raise UsageError(f"canvas size must be >= 1, got {self.canvas_size}")
        if self.radius_frac <= 0:
            raise UsageError("radius fraction must be positive")
        if not (0 < self.r_second < self.r_first < self.r_zero <= self.r_node):
            raise UsageError("level radii must satisfy r_node >= r_zero > r_first > r_second > 0")
        if not self.r_node < self.sector_inner < self.sector_outer:
            raise UsageError("sector band must lie outside the node circle")
        if self.sector_order not in ("modularity", "strength", "alphabetical"):
            raise UsageError(f"unknown sector order {self.sector_order!r}")
        if not 0 <= self.dest_color_weight <= 1:
            raise UsageError("destination color weight must lie in [0, 1]")
        if self.alpha_floor <= 0 or self.alpha_max > 1:
            raise UsageError("alpha must stay within (0, 1]")
        if self.width_min <= 0 or self.width_scale <= 0:
            raise UsageError("stroke widths must be positive and strictly increasing")
        if min(self.node_radius_min, self.node_radius_max, self.font_size) < 0:  # SVG forbids
            raise UsageError("node radii and font size must be >= 0")
        if self.node_radius_min > self.node_radius_max:
            raise UsageError("node_radius_min must not exceed node_radius_max")
        # No coordinate drawn exceeds ``extent`` in magnitude. SVG viewers
        # need only single precision, where a larger number is infinite.
        reach = max(
            self.sector_outer, abs(self.label_radius), self.r_first + abs(self.radial_nudge)
        )
        try:
            extent = self.canvas_size * (0.5 + self.radius_frac * reach)
        except OverflowError:  # a canvas size beyond float range
            extent = math.inf
        if not extent <= _FLOAT32_MAX:
            raise UsageError("canvas size and radii put the drawing beyond SVG's number range")


_BOOL_WORDS = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}
_HEX_RE = frozenset("0123456789abcdefABCDEF")


def _is_hex_color(text: str) -> bool:
    return len(text) == 7 and text[0] == "#" and all(c in _HEX_RE for c in text[1:])


def load_viz_config(path) -> VizConfig:
    """Flat ``key=value`` file over the default ``VizConfig``; unknown keys
    with #RRGGBB values are per-area palette overrides."""
    cfg = VizConfig()
    updates: dict[str, object] = {}
    palette = dict(cfg.palette)
    for lineno, key, value in iter_key_values(path):
        if key in VizConfig._fields and key != "palette":
            current = getattr(cfg, key)
            try:
                if isinstance(current, bool):
                    updates[key] = _BOOL_WORDS[value.lower()]
                elif isinstance(current, int):
                    updates[key] = int(value)
                elif isinstance(current, float):
                    updates[key] = float(value)
                else:
                    updates[key] = value
            except (KeyError, ValueError):
                raise MalformedLine(f"{path}:{lineno}: bad value {value!r} for {key}") from None
        elif _is_hex_color(value):
            palette[key] = value
        else:
            reason = f"unknown setting {key!r}, and {value!r} is not a #RRGGBB color"
            raise MalformedLine(f"{path}:{lineno}: {reason}")
    updates["palette"] = tuple(sorted(palette.items()))
    return cfg._replace(**updates)


# -- colors --


def parse_hex(color: str) -> tuple[int, int, int]:
    if not _is_hex_color(color):
        raise UsageError(f"colors must be #RRGGBB, got {color!r}")
    return int(color[1:3], 16), int(color[3:5], 16), int(color[5:7], 16)


def mix_colors(source: str, destination: str, dest_weight: float) -> str:
    """Channel-wise interpolation, biased toward the destination color."""
    src = parse_hex(source)
    dst = parse_hex(destination)
    mixed = (
        round(s * (1.0 - dest_weight) + d * dest_weight) for s, d in zip(src, dst)
    )
    return "#" + "".join(f"{c:02x}" for c in mixed)


# -- geometry --


def _polar(center: Point, angle: float, radius: float) -> Point:
    return (center[0] + radius * math.cos(angle), center[1] + radius * math.sin(angle))


def arc_midpoint(a: float, b: float) -> float:
    """Midpoint of the shorter arc from a to b (ties resolve toward +pi/2 from a)."""
    diff = (b - a) % (2.0 * math.pi)
    if diff > math.pi:
        diff -= 2.0 * math.pi
    return a + diff / 2.0


# -- layout --


class VizLayout(Record):
    """Where ``layout`` put everything; slotted: ``render_svg`` reads it per edge."""

    cfg: VizConfig
    center: Point
    circle_radius: float
    node_angle: dict[str, float]
    node_radius: dict[str, float]
    node_area: dict[str, AreaId]
    sector_arc: dict[AreaId, tuple[float, float]]  # in sector order
    sector_color: dict[AreaId, str]
    node_point: dict[str, Point]  # on the node circle
    zero_point: dict[str, Point]  # the node's radial projection onto r_zero
    gather_out: dict[AreaId, Point]  # where flow leaving the area bundles
    gather_in: dict[AreaId, Point]  # where flow entering the area bundles
    __slots__ = tuple(__annotations__)

    def __init__(self, **fields):
        for name, value in fields.items():
            setattr(self, name, value)


def _fraction(weight) -> Fraction:
    from fractions import Fraction  # loaded only for a network with a non-int weight
    return Fraction(weight)


def _greedy_modularity_order(areas, between, area_strength) -> list[str]:
    """Agglomerative modularity merge over the (tiny) area graph, whose
    links ``between[a][b]`` (the cross-area weight joining a and b, both
    ways; a row for every area that has a node) it merges in place.

    Merging communities a and b gains ``2 * (between / two_m - ka * kb /
    two_m**2)`` modularity; ``between * two_m - ka * kb`` is that gain times
    the positive constant ``two_m**2 / 2``, so it orders and ties the
    merges the same way and has the same sign. Exact arithmetic (ints, or
    rationals once a weight is not an int) plus lexicographic tie-breaking
    keep the resulting order reproducible across runs and hash seeds.
    """
    # degree[a]: a's degree sum, first its strength; kept up to date as communities merge.
    degree = dict(area_strength)
    two_m = sum(degree.values())

    communities = {a: frozenset([a]) for a in areas}
    if two_m > 0:
        while len(communities) > 1:
            best = None
            ids = sorted(communities)
            for i, ca in enumerate(ids):
                row, ka = between[ca], degree[ca]
                for cb in ids[i + 1 :]:
                    gain = row.get(cb, 0) * two_m - ka * degree[cb]
                    if best is None or gain > best[0]:
                        best = (gain, ca, cb)
            if best is None or best[0] <= 0:
                break
            _, ca, cb = best  # ca < cb, so the merged community keeps the id ca
            communities[ca] |= communities.pop(cb)
            degree[ca] += degree.pop(cb)
            row = between[ca]
            row.pop(cb, None)
            for other, w in between.pop(cb).items():
                if other != ca:
                    row[other] = row.get(other, 0) + w
                    joined = between[other]
                    joined[ca] = joined.get(ca, 0) + joined.pop(cb)

    def community_key(members: frozenset):
        return (-sum(area_strength[a] for a in sorted(members)), min(members))

    ordered: list[str] = []
    for members in sorted(communities.values(), key=community_key):
        ordered.extend(sorted(members, key=lambda a: (-area_strength[a], a)))
    return ordered


def _sectors(cfg: VizConfig, sizes: dict[AreaId, int]) -> Iterator[tuple[AreaId, float, float]]:
    """(area, start angle, span) per area of ``sizes``, in its order: a gap
    follows each sector, and the rest of the circle is shared by size."""
    gap = math.radians(cfg.sector_gap_deg)
    gap = min(gap, math.pi / max(1, len(sizes)))
    available = 2.0 * math.pi - gap * len(sizes)
    total = sum(sizes.values())
    theta = -math.pi / 2.0
    for area, size in sizes.items():
        span = available * size / total
        yield area, theta, span
        theta += span + gap


def layout(net: FlowNetwork, table: ClassificationTable, cfg: VizConfig) -> VizLayout:
    """Deterministic circular layout: sector order by the configured
    heuristic, node angles inside their sector, radii clamped to the
    configured band. An edgeless network has no node and one equal sector
    per area of the table, in the table's order under every heuristic."""
    # One pass over the edges: exact strengths (int sums, rationals once a weight is
    # not an int), as node order must not hang on float summation order; each node's
    # area on first sight; each cross-area weight both ways into the merge's links.
    strength: dict[str, int | Fraction] = {}
    node_area: dict[str, str] = {}
    by_area: dict[str, list[str]] = {} if net.weights else {a: [] for a in table.areas()}
    between: dict[str, dict[str, int | Fraction]] = {}

    def first_sight(node: str) -> str:
        area = node if net.level == "area" else table.topic_area.get(node)
        if area is None:
            raise UnknownTopic(f"topic {node!r} not in the topic->area table")
        node_area[node] = area
        by_area.setdefault(area, []).append(node)
        between.setdefault(area, {})
        return area

    for (source, target), weight in net.weights.items():
        w = weight if type(weight) is int else _fraction(weight)
        strength[source] = strength.get(source, 0) + w
        strength[target] = strength.get(target, 0) + w
        a = node_area.get(source) or first_sight(source)
        b = node_area.get(target) or first_sight(target)
        if a != b:
            between[a][b] = between[a].get(b, 0) + w
            between[b][a] = between[b].get(a, 0) + w

    area_strength = {
        area: sum(strength[n] for n in nodes) for area, nodes in by_area.items()
    }

    if cfg.sector_order == "alphabetical":
        order = sorted(by_area)
    elif cfg.sector_order == "strength":
        order = sorted(by_area, key=lambda a: (-area_strength[a], a))
    else:
        order = _greedy_modularity_order(sorted(by_area), between, area_strength)

    center = (cfg.canvas_size / 2.0, cfg.canvas_size / 2.0)
    circle_radius = cfg.canvas_size * cfg.radius_frac
    node_angle: dict[str, float] = {}
    sector_arc: dict[str, tuple[float, float]] = {}
    for area, theta, span in _sectors(cfg, {area: len(by_area[area]) or 1 for area in order}):
        nodes = sorted(by_area[area], key=lambda n: (-strength[n], n))
        sector_arc[area] = (theta, theta + span)
        for i, node in enumerate(nodes):
            node_angle[node] = theta + span * (i + 0.5) / len(nodes)

    largest = sys.float_info.max  # what an exact strength beyond float range counts as
    node_radius = {
        node: min(
            cfg.node_radius_max,
            max(cfg.node_radius_min, cfg.node_radius_scale * math.log1p(min(s, largest))),
        )
        for node, s in strength.items()
    }

    offset = math.radians(cfg.out_offset_deg)
    palette = dict(cfg.palette)
    barycenter = {area: (a0 + a1) / 2.0 for area, (a0, a1) in sector_arc.items()}
    return VizLayout(
        cfg=cfg,
        center=center,
        circle_radius=circle_radius,
        node_angle=node_angle,
        node_radius=node_radius,
        node_area=node_area,
        sector_arc=sector_arc,
        sector_color={
            area: palette.get(area, DEFAULT_PALETTE[i % len(DEFAULT_PALETTE)])
            for i, area in enumerate(order)
        },
        node_point={
            n: _polar(center, a, cfg.r_node * circle_radius) for n, a in node_angle.items()
        },
        zero_point={
            n: _polar(center, a, cfg.r_zero * circle_radius) for n, a in node_angle.items()
        },
        gather_out={
            area: _polar(center, b + offset, (cfg.r_first + cfg.radial_nudge) * circle_radius)
            for area, b in barycenter.items()
        },
        gather_in={
            area: _polar(center, b - offset, (cfg.r_first - cfg.radial_nudge) * circle_radius)
            for area, b in barycenter.items()
        },
    )


# -- edge routing --

# A cross-area edge is a clamped uniform cubic B-spline (knots 0,0,0,0,1,2,
# 3,4,4,4,4) over seven control points: 0-2 from its source node (its node
# point, its projection onto r_zero, its area's outgoing gather point), 3
# from the pair (the shorter arc's midpoint on r_second), 4-6 from its
# target node (its area's incoming gather point, r_zero projection, node
# point). Outgoing flow gathers beside the source sector's barycenter just
# outside the first-level circle, incoming flow beside the target's just
# inside it, so direction stays readable.
#
# Raising each interior knot to multiplicity 3 (Boehm insertion) turns the
# spline into the Bezier path M p0 C p1 p7 p10 C p11 p13 p16 C p17 p19 p22
# C p23 p24 p6. The insertion's 18 lerps are written out below as
# ``p + (q - p) * alpha`` with its operands and alphas, p7-p24 numbered in
# insertion order. The nine at alpha 0 are copies, exact for every point
# drawn: ``VizConfig._check`` keeps each within ±3.4e38, so no difference
# overflows, and each is a center of at least 0.5 plus an offset, never
# -0.0. One lerp reads only the source node's points and one only the
# target's, so those, and the path text they fix, are computed once per
# node; each edge computes the other seven.


def _cross_head(p0: Point, p1: Point, p2: Point) -> tuple:
    """A source node's part of its cross edges: the path text up to p7,
    then the points the edge's lerps read (p2, p7)."""
    (x0, y0), (x1, y1), (x2, y2) = p0, p1, p2
    x7, y7 = x1 + (x2 - x1) * 0.5, y1 + (y2 - y1) * 0.5
    return "M %.3f %.3f C %.3f %.3f %.3f %.3f" % (x0, y0, x1, y1, x7, y7), x2, y2, x7, y7


def _cross_tail(p4: Point, p5: Point, p6: Point) -> tuple:
    """A target node's part of its cross edges: the path text from p23,
    then the points the edge's lerps read (p4 = p15 = p18, p20)."""
    (x4, y4), (x5, y5), (x6, y6) = p4, p5, p6
    x20, y20 = x4 + (x5 - x4) * 0.5, y4 + (y5 - y4) * 0.5
    text = " C %.3f %.3f %.3f %.3f %.3f %.3f" % (x20, y20, x5, y5, x6, y6)  # p23, p24 = p5
    return text, x4, y4, x20, y20


_CROSS_ELEMENT = (
    '<path class="edge-cross" fill="none" stroke="%s" stroke-width="%.6g" '
    'stroke-opacity="%.4f" d="%s %.3f %.3f C %.3f %.3f %.3f %.3f %.3f %.3f '
    'C %.3f %.3f %.3f %.3f %.3f %.3f%s"/>'
)


def _cross_element(head: tuple, tail: tuple, x3, y3, color: str, width, alpha) -> str:
    """One cross edge's ``<path>``: the seven lerps that read its point 3."""
    head_text, x2, y2, x7, y7 = head
    tail_text, x4, y4, x20, y20 = tail
    x8, y8 = x2 + (x3 - x2) * (1 / 3), y2 + (y3 - y2) * (1 / 3)  # p8 = p11
    x10, y10 = x7 + (x8 - x7) * 0.5, y7 + (y8 - y7) * 0.5
    x13, y13 = x8 + (x3 - x8) * 0.5, y8 + (y3 - y8) * 0.5  # p9 = p12 = p3
    x14, y14 = x3 + (x4 - x3) * (1 / 3), y3 + (y4 - y3) * (1 / 3)  # p14 = p17
    x16, y16 = x13 + (x14 - x13) * 0.5, y13 + (y14 - y13) * 0.5
    x19, y19 = x14 + (x4 - x14) * 0.5, y14 + (y4 - y14) * 0.5
    x22, y22 = x19 + (x20 - x19) * 0.5, y19 + (y20 - y19) * 0.5
    return _CROSS_ELEMENT % (
        color, width, alpha, head_text, x10, y10, x8, y8, x13, y13, x16, y16,
        x14, y14, x19, y19, x22, y22, tail_text,
    )


# -- rendering --


def _fmt(value: float) -> str:
    return f"{value:.3f}"


def _pt(p: Point) -> str:
    return f"{p[0]:.3f} {p[1]:.3f}"


def _annulus_path(center: Point, r_in: float, r_out: float, a0: float, a1: float) -> str:
    large = 1 if (a1 - a0) > math.pi else 0
    p_out0 = _polar(center, a0, r_out)
    p_out1 = _polar(center, a1, r_out)
    p_in1 = _polar(center, a1, r_in)
    p_in0 = _polar(center, a0, r_in)
    return (
        f"M {_pt(p_out0)} "
        f"A {_fmt(r_out)} {_fmt(r_out)} 0 {large} 1 {_pt(p_out1)} "
        f"L {_pt(p_in1)} "
        f"A {_fmt(r_in)} {_fmt(r_in)} 0 {large} 0 {_pt(p_in0)} Z"
    )


def _sector_elements(lay: VizLayout) -> list[str]:
    """One annulus path per sector of the layout, in sector order."""
    r_in = lay.cfg.sector_inner * lay.circle_radius
    r_out = lay.cfg.sector_outer * lay.circle_radius
    return [
        f'<path class="sector" fill="{lay.sector_color[area]}" '
        f'd="{_annulus_path(lay.center, r_in, r_out, a0, a1)}"/>'
        for area, (a0, a1) in lay.sector_arc.items()
    ]


def _escape(text: str) -> str:
    """XML character data: ``&`` first, so the other entities stay intact."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _label_element(lay: VizLayout, node: str) -> str:
    cfg = lay.cfg
    angle = lay.node_angle[node]
    pos = _polar(lay.center, angle, cfg.label_radius * lay.circle_radius)
    color = lay.sector_color[lay.node_area[node]]
    degrees = math.degrees(angle)
    if math.cos(angle) >= 0:
        anchor = "start"
    else:
        anchor = "end"
        degrees += 180.0
    return (
        f'<text class="label" x="{_fmt(pos[0])}" y="{_fmt(pos[1])}" '
        f'font-size="{cfg.font_size:g}" fill="{color}" text-anchor="{anchor}" '
        f'dominant-baseline="middle" '
        f'transform="rotate({_fmt(degrees)} {_pt(pos)})">{_escape(node)}</text>'
    )


def _document(cfg: VizConfig, body: list[str]) -> str:
    size = cfg.canvas_size
    head = (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">'
    )
    return "\n".join([head, *body, "</svg>"]) + "\n"


def render_svg(
    net: FlowNetwork,
    table: ClassificationTable,
    cfg: VizConfig = VizConfig(),
) -> str:
    """Render the network's ``layout`` as a standalone SVG document; an
    edgeless network draws only its sectors. Self-transitions are never
    drawn, edges lighter than ``cfg.min_weight`` are omitted. Element
    order: sectors, intra edges, cross edges, nodes, labels."""
    lay = layout(net, table, cfg)
    cx, cy = lay.center
    # Each edge reads the settings, and what its two nodes fix, from locals.
    # An intra-area edge bends at its angular midpoint, between node circle and sectors.
    intra_radius = (cfg.r_node + cfg.sector_inner) / 2.0 * lay.circle_radius
    mid_radius = cfg.r_second * lay.circle_radius
    diameter = 2.0 * lay.circle_radius
    min_weight, width_min, width_scale = cfg.min_weight, cfg.width_min, cfg.width_scale
    alpha_floor, alpha_max, alpha_slope = cfg.alpha_floor, cfg.alpha_max, cfg.alpha_slope
    colors = lay.sector_color
    parts = {}
    for node, angle in lay.node_angle.items():
        area, point, zero = lay.node_area[node], lay.node_point[node], lay.zero_point[node]
        parts[node] = (
            area, *point, angle,
            _cross_head(point, zero, lay.gather_out[area]),
            _cross_tail(lay.gather_in[area], zero, point),
        )
    cos, sin, hypot = math.cos, math.sin, math.hypot
    intra: list[str] = []
    cross: list[str] = []
    cross_colors: dict[tuple[AreaId, AreaId], str] = {}
    for (source, target), weight in net.sorted_items():
        if source == target:
            continue
        weight = float(weight)
        if weight < min_weight:
            continue
        src_area, sx, sy, src_angle, head, _ = parts[source]
        dst_area, tx, ty, dst_angle, _, tail = parts[target]
        width = width_min + width_scale * weight
        if width > _FLOAT32_MAX:  # an edge too heavy for SVG's number range
            width = _FLOAT32_MAX
        normalized = hypot(tx - sx, ty - sy) / diameter
        alpha = min(1.0, max(alpha_floor, alpha_max - alpha_slope * normalized))
        mid_angle = arc_midpoint(src_angle, dst_angle)
        if src_area == dst_area:
            intra.append(
                '<path class="edge-intra" fill="none" stroke="%s" stroke-width="%.6g" '
                'stroke-opacity="%.4f" d="M %.3f %.3f Q %.3f %.3f %.3f %.3f"/>' % (
                    colors[src_area], width, alpha, sx, sy,
                    cx + intra_radius * cos(mid_angle), cy + intra_radius * sin(mid_angle),
                    tx, ty,
                )
            )
        else:
            color = cross_colors.get((src_area, dst_area))
            if color is None:
                color = cross_colors[src_area, dst_area] = mix_colors(
                    colors[src_area], colors[dst_area], cfg.dest_color_weight
                )
            x3, y3 = cx + mid_radius * cos(mid_angle), cy + mid_radius * sin(mid_angle)
            cross.append(_cross_element(head, tail, x3, y3, color, width, alpha))
    nodes = [
        f'<circle class="node" cx="{_fmt(lay.node_point[n][0])}" '
        f'cy="{_fmt(lay.node_point[n][1])}" r="{_fmt(lay.node_radius[n])}" '
        f'fill="{lay.sector_color[lay.node_area[n]]}"/>'
        for n in sorted(lay.node_angle)
    ]
    labels = (
        [_label_element(lay, n) for n in sorted(lay.node_angle)]
        if cfg.show_labels
        else []
    )
    return _document(cfg, [*_sector_elements(lay), *intra, *cross, *nodes, *labels])
