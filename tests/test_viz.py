from __future__ import annotations

import hashlib
import math
import random
import xml.etree.ElementTree as ET
from bisect import bisect_right
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from topicflow.bundleviz import (
    VizConfig,
    _cross_element,
    _cross_head,
    _cross_tail,
    _greedy_modularity_order,
    _polar,
    arc_midpoint,
    layout,
    load_viz_config,
    mix_colors,
    parse_hex,
    render_svg,
)
from topicflow.classification import ClassificationTable
from topicflow.cli import main
from topicflow.errors import MalformedLine, UnknownTopic, UsageError
from topicflow.flows import FlowNetwork, write_flow_network
from conftest import write_lines


@pytest.fixture
def three_area_table(make_table):
    return make_table(
        {f"j{i}": [f"t{i}"] for i in range(6)},
        {"t0": "a0", "t1": "a0", "t2": "a1", "t3": "a1", "t4": "a2", "t5": "a2"},
    )


@pytest.fixture
def three_area_net():
    return FlowNetwork(
        "topic",
        1910,
        1915,
        {
            ("t0", "t0"): 4,
            ("t0", "t1"): 3,
            ("t1", "t2"): 2,
            ("t2", "t4"): 1,
            ("t4", "t0"): 2,
            ("t3", "t5"): 5,
        },
    )


# -- spline machinery, checked against an independent de Boor evaluator --

def de_boor(ctrl, u):
    degree = 3
    spans = len(ctrl) - 3
    knots = [0.0] * 4 + [float(i) for i in range(1, spans)] + [float(spans)] * 4
    k = bisect_right(knots, u) - 1
    k = min(k, len(ctrl) - 1)
    d = [ctrl[j] for j in range(k - degree, k + 1)]
    for r in range(1, degree + 1):
        for j in range(degree, r - 1, -1):
            i = j + k - degree
            denom = knots[i + degree - r + 1] - knots[i]
            alpha = 0.0 if denom == 0.0 else (u - knots[i]) / denom
            d[j] = (
                (1 - alpha) * d[j - 1][0] + alpha * d[j][0],
                (1 - alpha) * d[j - 1][1] + alpha * d[j][1],
            )
    return d[degree]


def de_casteljau(segment, t):
    points = list(segment)
    while len(points) > 1:
        points = [
            (
                (1 - t) * p[0] + t * q[0],
                (1 - t) * p[1] + t * q[1],
            )
            for p, q in zip(points, points[1:])
        ]
    return points[0]


# The knot-insertion schedule the cross-edge kernel writes out, replayed on
# indices for any control-polygon length: the reference for its lerps.


def _knot_schedule(n):
    """Knot insertion raising every interior knot to multiplicity 3, replayed
    on indices: lerp ``(i, j, alpha)`` appends pool[i] + (pool[j] - pool[i])
    * alpha to a pool that starts as the n control points. Also returns the
    pool indices of each Bezier segment."""
    degree = 3
    spans = n - 3
    knots = [0.0] * 4 + [float(i) for i in range(1, spans)] + [float(spans)] * 4
    ctrl = list(range(n))
    lerps = []
    for value in range(1, spans):
        u = float(value)
        for _ in range(2):
            span = bisect_right(knots, u) - 1
            new = []
            for i in range(span - degree + 1, span + 1):
                denom = knots[i + degree] - knots[i]
                alpha = (u - knots[i]) / denom if denom else 0.0
                new.append(n + len(lerps))
                lerps.append((ctrl[i - 1], ctrl[i], alpha))
            ctrl[span - degree + 1 : span] = new
            knots.insert(span + 1, u)
    segments = tuple(tuple(ctrl[3 * i : 3 * i + 4]) for i in range(spans))
    return tuple(lerps), segments


def _replay(pool, lerps):
    """Append each lerp's point to ``pool`` (alpha 0.0 included)."""
    for i, j, t in lerps:
        (px, py), (qx, qy) = pool[i], pool[j]
        pool.append((px + (qx - px) * t, py + (qy - py) * t))
    return pool


def bspline_beziers(points):
    """Clamped uniform cubic B-spline over the control polygon, converted
    to cubic Bezier segments by raising interior knots to full multiplicity."""
    if len(points) < 4:
        raise UsageError("cubic B-spline needs at least 4 control points")
    lerps, segments = _knot_schedule(len(points))
    pool = _replay([tuple(p) for p in points], lerps)
    return [[pool[k] for k in seg] for seg in segments]


def route_cross_edge(lay, source, target):
    """The seven control points of a cross-area edge."""
    src_area = lay.node_area[source]
    dst_area = lay.node_area[target]
    if src_area == dst_area:
        raise UsageError(f"{source}->{target} stays inside {src_area}; route as intra-area")
    mid_angle = arc_midpoint(lay.node_angle[source], lay.node_angle[target])
    return [
        lay.node_point[source],
        lay.zero_point[source],
        lay.gather_out[src_area],
        _polar(lay.center, mid_angle, lay.cfg.r_second * lay.circle_radius),
        lay.gather_in[dst_area],
        lay.zero_point[target],
        lay.node_point[target],
    ]


def route_intra_edge(lay, source, target):
    """Endpoints plus one control point at the angular midpoint, placed in
    the band between the node circle and the sector."""
    src_area = lay.node_area[source]
    dst_area = lay.node_area[target]
    if src_area != dst_area:
        raise UsageError(f"{source}->{target} crosses {src_area}->{dst_area}")
    cfg = lay.cfg
    mid_angle = arc_midpoint(lay.node_angle[source], lay.node_angle[target])
    mid_radius = (cfg.r_node + cfg.sector_inner) / 2.0 * lay.circle_radius
    return [
        lay.node_point[source],
        _polar(lay.center, mid_angle, mid_radius),
        lay.node_point[target],
    ]


def edge_width(cfg, weight):
    return cfg.width_min + cfg.width_scale * float(weight)


CONTROL_POLYGON = [(0, 0), (1, 2), (2, -1), (3, 3), (4, 0), (5, 2), (6, 1)]


def test_bspline_interpolates_clamped_endpoints():
    segments = bspline_beziers(CONTROL_POLYGON)
    assert segments[0][0] == (0, 0)
    assert segments[-1][-1] == (6, 1)
    for prev, nxt in zip(segments, segments[1:]):
        assert prev[-1] == pytest.approx(nxt[0])


@pytest.mark.parametrize("u", [0.0, 0.3, 1.0, 1.7, 2.5, 3.0, 3.999])
def test_bspline_matches_de_boor(u):
    segments = bspline_beziers(CONTROL_POLYGON)
    index = min(int(u), len(segments) - 1)
    local = u - index
    got = de_casteljau(segments[index], local)
    want = de_boor(CONTROL_POLYGON, u)
    assert got == pytest.approx(want, abs=1e-9)


def test_bspline_four_points_is_single_bezier():
    points = [(0, 0), (1, 1), (2, 1), (3, 0)]
    assert bspline_beziers(points) == [points]


def reference_beziers(points):
    """Boehm knot insertion written out step by step, list splicing included."""
    degree = 3
    spans = len(points) - 3
    knots = [0.0] * 4 + [float(i) for i in range(1, spans)] + [float(spans)] * 4
    ctrl = [tuple(p) for p in points]
    for value in range(1, spans):
        u = float(value)
        for _ in range(2):
            span = bisect_right(knots, u) - 1
            new_ctrl = ctrl[: span - degree + 1]
            for i in range(span - degree + 1, span + 1):
                denom = knots[i + degree] - knots[i]
                alpha = (u - knots[i]) / denom if denom else 0.0
                p, q = ctrl[i - 1], ctrl[i]
                new_ctrl.append((p[0] + (q[0] - p[0]) * alpha, p[1] + (q[1] - p[1]) * alpha))
            new_ctrl.extend(ctrl[span:])
            ctrl = new_ctrl
            knots = knots[: span + 1] + [u] + knots[span + 1 :]
    return [ctrl[3 * i : 3 * i + 4] for i in range(spans)]


def float_bits(segments):
    # float.hex is exact and tells -0.0 from 0.0; the nan an overflowing
    # lerp yields compares equal to itself.
    return [[(x.hex(), y.hex()) for x, y in seg] for seg in segments]


finite = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(finite, finite), min_size=4, max_size=12))
def test_bspline_bit_identical_to_knot_insertion(points):
    assert float_bits(bspline_beziers(points)) == float_bits(reference_beziers(points))


def test_bspline_needs_four_points():
    with pytest.raises(UsageError):
        bspline_beziers([(0, 0), (1, 1), (2, 2)])


def test_arc_midpoint_wraps_and_breaks_ties():
    assert arc_midpoint(0.0, math.pi / 2) == pytest.approx(math.pi / 4)
    # wraparound: -170deg to 170deg crosses the back of the circle
    a, b = math.radians(170), math.radians(-170)
    mid = arc_midpoint(a, b) % (2 * math.pi)
    assert mid == pytest.approx(math.pi, abs=1e-12)
    # diametrical tie resolves a quarter turn from the first angle
    assert arc_midpoint(0.0, math.pi) == pytest.approx(math.pi / 2)


# -- layout --

def angle_of(lay, node):
    return lay.node_angle[node]


def test_nodes_ordered_by_descending_strength(three_area_table):
    net = FlowNetwork(
        "topic", 1910, 1915, {("t0", "t0"): 100, ("t1", "t1"): 10, ("t2", "t2"): 1}
    )
    table = three_area_table
    lay = layout(net, table, VizConfig())
    # t0, t1 share area a0: stronger node comes first along the arc
    assert angle_of(lay, "t0") < angle_of(lay, "t1")


def test_single_area_three_nodes_strength_order(make_table):
    table = make_table(
        {"jx": ["x"], "jy": ["y"], "jz": ["z"]}, {"x": "a0", "y": "a0", "z": "a0"}
    )
    # strengths 100, 10, 1 via self-loops; one sector, arc order 100, 10, 1
    net = FlowNetwork(
        "topic", 1910, 1915, {("y", "y"): 50, ("z", "z"): 5, ("x", "x"): 1}
    )
    lay = layout(net, table, VizConfig())
    assert list(lay.sector_arc) == ["a0"]
    assert angle_of(lay, "y") < angle_of(lay, "z") < angle_of(lay, "x")


def test_equal_strength_tie_is_lexicographic(three_area_table):
    net = FlowNetwork("topic", 1910, 1915, {("t0", "t0"): 3, ("t1", "t1"): 3})
    lay = layout(net, three_area_table, VizConfig())
    assert angle_of(lay, "t0") < angle_of(lay, "t1")


def test_node_radius_clamped(three_area_table):
    net = FlowNetwork(
        "topic", 1910, 1915, {("t0", "t0"): 1, ("t1", "t1"): 10_000_000}
    )
    cfg = VizConfig(node_radius_min=5.0)
    lay = layout(net, three_area_table, cfg)
    assert lay.node_radius["t0"] == cfg.node_radius_min
    assert lay.node_radius["t1"] == cfg.node_radius_max


def test_angles_lie_inside_sector_arcs(three_area_table, three_area_net):
    lay = layout(three_area_net, three_area_table, VizConfig())
    for node, angle in lay.node_angle.items():
        a0, a1 = lay.sector_arc[lay.node_area[node]]
        assert a0 < angle < a1


def test_sector_orders(three_area_table, three_area_net):
    alpha = layout(three_area_net, three_area_table, VizConfig(sector_order="alphabetical"))
    assert list(alpha.sector_arc) == ["a0", "a1", "a2"]
    strength = layout(three_area_net, three_area_table, VizConfig(sector_order="strength"))
    totals = dict.fromkeys(alpha.sector_arc, 0)
    for (source, target), weight in three_area_net.weights.items():
        totals[alpha.node_area[source]] += weight
        totals[alpha.node_area[target]] += weight
    assert list(strength.sector_arc) == sorted(totals, key=lambda a: (-totals[a], a))


def test_modularity_order_groups_dense_pairs(make_table):
    table = make_table(
        {f"j{i}": [f"t{i}"] for i in range(4)},
        {"t0": "a0", "t1": "a1", "t2": "a2", "t3": "a3"},
    )
    # two tight pairs: (a0,a2) and (a1,a3); cross-pair weight negligible
    net = FlowNetwork(
        "topic",
        1910,
        1915,
        {
            ("t0", "t2"): 50,
            ("t2", "t0"): 50,
            ("t1", "t3"): 40,
            ("t3", "t1"): 40,
            ("t0", "t1"): 1,
        },
    )
    order = list(layout(net, table, VizConfig(sector_order="modularity")).sector_arc)
    assert abs(order.index("a0") - order.index("a2")) == 1
    assert abs(order.index("a1") - order.index("a3")) == 1


def reference_modularity_order(areas, sym, area_strength):
    """The greedy merge scored with the modularity gain itself, as rationals,
    every community sum recomputed from its members on every merge."""
    adjacency = {a: dict() for a in areas}
    degree = {a: 0 for a in areas}
    for (a, b), w in sym.items():
        if a == b:
            adjacency[a][a] = adjacency[a].get(a, 0) + 2 * w
            degree[a] += 2 * w
        else:
            adjacency[a][b] = adjacency[a].get(b, 0) + w
            adjacency[b][a] = adjacency[b].get(a, 0) + w
            degree[a] += w
            degree[b] += w
    two_m = sum(degree.values())
    communities = {a: frozenset([a]) for a in areas}
    if two_m > 0:
        while len(communities) > 1:
            best = None
            ids = sorted(communities)
            for i, ca in enumerate(ids):
                for cb in ids[i + 1 :]:
                    between = sum(
                        adjacency[x].get(y, 0)
                        for x in sorted(communities[ca])
                        for y in sorted(communities[cb])
                    )
                    ka = sum(degree[x] for x in sorted(communities[ca]))
                    kb = sum(degree[x] for x in sorted(communities[cb]))
                    gain = 2 * (Fraction(between, two_m) - Fraction(ka * kb, two_m * two_m))
                    if best is None or gain > best[0]:
                        best = (gain, ca, cb)
            if best is None or best[0] <= 0:
                break
            _, ca, cb = best
            merged = communities.pop(ca) | communities.pop(cb)
            communities[min(merged)] = merged

    def community_key(members):
        return (-sum(area_strength[a] for a in sorted(members)), min(members))

    ordered = []
    for members in sorted(communities.values(), key=community_key):
        ordered.extend(sorted(members, key=lambda a: (-area_strength[a], a)))
    return ordered


def links_of(areas, sym):
    """The merge's ``between``: a row per area, each cross pair's weight both ways."""
    between = {a: {} for a in areas}
    for (a, b), w in sym.items():
        if a != b:
            between[a][b] = between[b][a] = w
    return between


# Few distinct weights and few areas: equal gains, and equal strengths, are common.
area_weights = st.sampled_from([1, 2, 3]).flatmap(
    lambda k: st.sampled_from([k, float(k), Fraction(k), k / 2, Fraction(k, 3)])
)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 7).flatmap(lambda n: st.tuples(
    st.just([f"a{i}" for i in range(n)]),
    st.dictionaries(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), area_weights, max_size=20
    ),
)))
def test_modularity_order_matches_rational_gain_reference(graph):
    areas, edges = graph
    sym = {}  # each unordered pair's exact total weight, a self-loop under (a, a)
    for (i, j), w in edges.items():
        key = (areas[min(i, j)], areas[max(i, j)])
        sym[key] = sym.get(key, 0) + (w if type(w) is int else Fraction(w))
    strength = {a: 0 for a in areas}
    for (a, b), w in sym.items():
        strength[a] += w
        strength[b] += w
    want = reference_modularity_order(areas, sym, strength)
    assert _greedy_modularity_order(areas, links_of(areas, sym), strength) == want


def test_modularity_order_breaks_exact_ties_like_the_reference():
    # A ring of four equal links: every first merge gains the same.
    areas = ["a0", "a1", "a2", "a3"]
    sym = {("a0", "a1"): 1, ("a1", "a2"): 1, ("a2", "a3"): 1, ("a0", "a3"): 1}
    strength = dict.fromkeys(areas, 2)
    got = _greedy_modularity_order(areas, links_of(areas, sym), strength)
    assert got == reference_modularity_order(areas, sym, strength)
    assert got == ["a0", "a1", "a2", "a3"]


def test_layout_of_an_edgeless_network_is_the_table_sectors(three_area_table):
    net = FlowNetwork("topic", 1910, 1915, {})
    for order in ("modularity", "strength", "alphabetical"):
        lay = layout(net, three_area_table, VizConfig(sector_order=order))
        assert tuple(lay.sector_arc) == three_area_table.areas(), order
        spans = [a1 - a0 for a0, a1 in lay.sector_arc.values()]
        assert spans == pytest.approx([spans[0]] * len(spans)), order
        assert lay.node_angle == {}, order


def test_layout_unknown_topic(make_table):
    table = make_table({"j0": ["t0"]}, {"t0": "a0"})
    net = FlowNetwork("topic", 1910, 1915, {("t0", "mystery"): 1})
    with pytest.raises(UnknownTopic):
        layout(net, table, VizConfig())


# -- routing --

def radius_of(lay, point):
    return math.hypot(point[0] - lay.center[0], point[1] - lay.center[1])


def test_cross_edge_control_points(three_area_table, three_area_net):
    cfg = VizConfig()
    lay = layout(three_area_net, three_area_table, cfg)
    points = route_cross_edge(lay, "t1", "t2")
    assert len(points) == 7
    R = lay.circle_radius
    # endpoints on the node circle; P1/P5 are radial projections
    assert radius_of(lay, points[0]) == pytest.approx(cfg.r_node * R)
    assert radius_of(lay, points[1]) == pytest.approx(cfg.r_zero * R)
    assert radius_of(lay, points[5]) == pytest.approx(cfg.r_zero * R)
    origin_angle = math.atan2(points[0][1] - lay.center[1], points[0][0] - lay.center[0])
    p1_angle = math.atan2(points[1][1] - lay.center[1], points[1][0] - lay.center[0])
    assert math.isclose(origin_angle, p1_angle, abs_tol=1e-9)
    # out-going gathers outside the first-level circle, in-going inside it
    assert radius_of(lay, points[2]) == pytest.approx((cfg.r_first + cfg.radial_nudge) * R)
    assert radius_of(lay, points[4]) == pytest.approx((cfg.r_first - cfg.radial_nudge) * R)
    assert radius_of(lay, points[2]) > radius_of(lay, points[4])
    assert radius_of(lay, points[3]) == pytest.approx(cfg.r_second * R)


def test_cross_edge_offsets_straddle_barycenters(three_area_table, three_area_net):
    cfg = VizConfig()
    lay = layout(three_area_net, three_area_table, cfg)
    points = route_cross_edge(lay, "t1", "t2")
    offset = math.radians(cfg.out_offset_deg)

    def angle(p):
        return math.atan2(p[1] - lay.center[1], p[0] - lay.center[0])

    src_bary = sum(lay.sector_arc[lay.node_area["t1"]]) / 2.0
    dst_bary = sum(lay.sector_arc[lay.node_area["t2"]]) / 2.0

    def norm(x):
        return (x + math.pi) % (2 * math.pi) - math.pi

    assert norm(angle(points[2]) - (src_bary + offset)) == pytest.approx(0.0, abs=1e-9)
    assert norm(angle(points[4]) - (dst_bary - offset)) == pytest.approx(0.0, abs=1e-9)


def test_cross_edge_p3_at_shorter_arc_midpoint(three_area_table, three_area_net):
    lay = layout(three_area_net, three_area_table, VizConfig())
    points = route_cross_edge(lay, "t1", "t2")
    mid = arc_midpoint(lay.node_angle["t1"], lay.node_angle["t2"])
    got = math.atan2(points[3][1] - lay.center[1], points[3][0] - lay.center[0])
    diff = (got - mid + math.pi) % (2 * math.pi) - math.pi
    assert diff == pytest.approx(0.0, abs=1e-9)


def test_cross_edge_same_area_rejected(three_area_table, three_area_net):
    lay = layout(three_area_net, three_area_table, VizConfig())
    with pytest.raises(UsageError, match="t0->t1 stays inside a0; route as intra-area"):
        route_cross_edge(lay, "t0", "t1")


def test_intra_edge_control_point_in_band(three_area_table, three_area_net):
    cfg = VizConfig()
    lay = layout(three_area_net, three_area_table, cfg)
    p0, ctrl, p1 = route_intra_edge(lay, "t0", "t1")
    r = radius_of(lay, ctrl)
    assert cfg.r_node * lay.circle_radius < r < cfg.sector_inner * lay.circle_radius
    # the whole quadratic stays out of the sector band
    for i in range(101):
        t = i / 100
        point = de_casteljau([p0, ctrl, p1], t)
        assert radius_of(lay, point) <= cfg.sector_inner * lay.circle_radius + 1e-9


def test_intra_edge_cross_area_rejected(three_area_table, three_area_net):
    lay = layout(three_area_net, three_area_table, VizConfig())
    with pytest.raises(UsageError, match="t0->t2 crosses a0->a1"):
        route_intra_edge(lay, "t0", "t2")


# -- rendering --

def svg_elements(svg, local_name, cls=None):
    root = ET.fromstring(svg)
    out = []
    for el in root.iter():
        if el.tag.rsplit("}", 1)[-1] == local_name:
            if cls is None or el.get("class") == cls:
                out.append(el)
    return out


def test_svg_well_formed_with_expected_counts(three_area_table, three_area_net):
    svg = render_svg(three_area_net, three_area_table, VizConfig())
    assert svg_elements(svg, "path", "sector") != []
    sectors = svg_elements(svg, "path", "sector")
    assert len(sectors) == 3
    edges = svg_elements(svg, "path", "edge-intra") + svg_elements(svg, "path", "edge-cross")
    # 6 weighted pairs, one is a self-loop
    assert len(edges) == 5
    circles = svg_elements(svg, "circle", "node")
    assert len(circles) == 6
    labels = svg_elements(svg, "text", "label")
    assert len(labels) == 6


def reference_spline_path(points):
    """Path text of the Bezier chain, built segment by segment."""
    segments = bspline_beziers(points)
    parts = [f"M {segments[0][0][0]:.3f} {segments[0][0][1]:.3f}"]
    for seg in segments:
        parts.append("C " + " ".join(f"{x:.3f} {y:.3f}" for x, y in seg[1:]))
    return " ".join(parts)


@settings(max_examples=150, deadline=None)
@given(
    st.integers(2, 14).flatmap(lambda n: st.tuples(
        st.lists(st.integers(0, 4), min_size=n, max_size=n),
        st.dictionaries(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
            st.integers(1, 9) | st.floats(0.25, 9.0),
            min_size=1,
            max_size=40,
        ),
    )),
    st.sampled_from(["modularity", "strength", "alphabetical"]),
    st.sampled_from([300, 997, 1000, 1600, 3 * 10**38]),  # the last near the largest allowed
    st.floats(0.0, 5.0),
)
def test_cross_edge_paths_match_spline_of_routed_points(graph, order, size, offset):
    node_areas, edges = graph
    topic_area = {f"t{i}": f"a{area}" for i, area in enumerate(node_areas)}
    table = ClassificationTable(
        journal_topics={f"j{t}": (t,) for t in topic_area}, topic_area=topic_area
    )
    net = FlowNetwork("topic", 1910, 1915, {(f"t{i}", f"t{j}"): w for (i, j), w in edges.items()})
    cfg = VizConfig(sector_order=order, canvas_size=size, out_offset_deg=offset)
    lay = layout(net, table, cfg)
    want = [
        reference_spline_path(route_cross_edge(lay, source, target))
        for (source, target), _ in net.sorted_items()
        if lay.node_area[source] != lay.node_area[target]
    ]
    svg = render_svg(net, table, cfg)
    got = [el.get("d") for el in svg_elements(svg, "path", "edge-cross")]
    assert got == want
    # render_svg places intra-area edges inline, with route_intra_edge's float operations
    want_intra = [
        "M {0[0]:.3f} {0[1]:.3f} Q {1[0]:.3f} {1[1]:.3f} {2[0]:.3f} {2[1]:.3f}".format(
            *route_intra_edge(lay, source, target)
        )
        for (source, target), _ in net.sorted_items()
        if source != target and lay.node_area[source] == lay.node_area[target]
    ]
    assert [el.get("d") for el in svg_elements(svg, "path", "edge-intra")] == want_intra


# Any coordinate ``layout`` can produce: ``VizConfig`` keeps every point
# within single precision's range, and a center of at least 0.5 plus an
# offset is never -0.0 (``x + 0.0`` turns -0.0 into 0.0). The smallest
# subnormals and the range's ends are drawn often.
F32 = 3.4028234663852886e38
kernel_coordinate = st.floats(-F32, F32).map(lambda x: x + 0.0) | st.sampled_from(
    [0.0, 5e-324, -5e-324, F32, -F32]
)


@settings(max_examples=500, deadline=None)
@given(st.lists(st.tuples(kernel_coordinate, kernel_coordinate), min_size=7, max_size=7))
def test_cross_kernel_path_is_the_knot_insertion_spline(points):
    p0, p1, p2, (x3, y3), p4, p5, p6 = points
    head, tail = _cross_head(p0, p1, p2), _cross_tail(p4, p5, p6)
    element = _cross_element(head, tail, x3, y3, "#123456", 1.5, 0.25)
    prefix = (
        '<path class="edge-cross" fill="none" stroke="#123456" stroke-width="1.5" '
        'stroke-opacity="0.2500" d="'
    )
    assert element.startswith(prefix) and element.endswith('"/>')
    path = element[len(prefix):-3]
    assert path.startswith(head[0]) and path.endswith(tail[0])
    assert path == reference_spline_path(points)


def test_labels_with_markup_characters_round_trip(make_table):
    topics = ["a&b", "x<y", "p>q", "&amp;<>"]
    table = make_table(
        {f"j{i}": [t] for i, t in enumerate(topics)},
        {"a&b": "a0", "x<y": "a0", "p>q": "a1", "&amp;<>": "a1"},
    )
    net = FlowNetwork(
        "topic", 1910, 1915,
        {("a&b", "x<y"): 2, ("x<y", "p>q"): 1, ("p>q", "&amp;<>"): 3},
    )
    svg = render_svg(net, table, VizConfig())
    labels = svg_elements(svg, "text", "label")
    assert sorted(el.text for el in labels) == sorted(topics)


def test_render_deterministic(three_area_table, three_area_net):
    cfg = VizConfig()
    first = render_svg(three_area_net, three_area_table, cfg)
    second = render_svg(three_area_net, three_area_table, cfg)
    assert first == second


def test_stroke_width_affine_strictly_increasing(three_area_table):
    net = FlowNetwork(
        "topic", 1910, 1915, {("t0", "t2"): 1, ("t0", "t4"): 2, ("t1", "t4"): 7}
    )
    cfg = VizConfig()
    svg = render_svg(net, three_area_table, cfg)
    widths = sorted(
        float(el.get("stroke-width")) for el in svg_elements(svg, "path", "edge-cross")
    )
    assert widths == sorted(edge_width(cfg, w) for w in (1, 2, 7))
    assert widths[0] < widths[1] < widths[2]
    # weight-2 edge has exactly twice the weight-dependent increment of weight-1
    assert widths[1] - cfg.width_min == pytest.approx(2 * (widths[0] - cfg.width_min))


def test_min_weight_filters_edges(three_area_table, three_area_net):
    cfg = VizConfig(min_weight=3.0)
    svg = render_svg(three_area_net, three_area_table, cfg)
    edges = svg_elements(svg, "path", "edge-intra") + svg_elements(svg, "path", "edge-cross")
    # weights >= 3 excluding the self-loop: (t0->t1, 3) and (t3->t5, 5)
    assert len(edges) == 2


def test_edge_colors_biased_toward_destination(three_area_table):
    net = FlowNetwork("topic", 1910, 1915, {("t0", "t4"): 1, ("t2", "t4"): 1})
    cfg = VizConfig()
    svg = render_svg(net, three_area_table, cfg)
    lay = layout(net, three_area_table, cfg)
    edges = svg_elements(svg, "path", "edge-cross")
    colors = {el.get("stroke") for el in edges}
    expected = {
        mix_colors(
            lay.sector_color[lay.node_area[s]],
            lay.sector_color[lay.node_area["t4"]],
            cfg.dest_color_weight,
        )
        for s in ("t0", "t2")
    }
    assert colors == expected
    assert len(colors) == 2
    # both are closer to the shared destination color than to their sources
    dest_rgb = parse_hex(lay.sector_color[lay.node_area["t4"]])
    for color in colors:
        rgb = parse_hex(color)
        for src in ("t0", "t2"):
            src_rgb = parse_hex(lay.sector_color[lay.node_area[src]])
            if mix_colors(lay.sector_color[lay.node_area[src]], lay.sector_color[lay.node_area["t4"]], cfg.dest_color_weight) == color:
                dist_dest = sum((a - b) ** 2 for a, b in zip(rgb, dest_rgb))
                dist_src = sum((a - b) ** 2 for a, b in zip(rgb, src_rgb))
                assert dist_dest < dist_src


def test_opacity_decreases_with_endpoint_distance(three_area_table, three_area_net):
    cfg = VizConfig()
    lay = layout(three_area_net, three_area_table, cfg)
    svg = render_svg(three_area_net, three_area_table, cfg)
    edges = svg_elements(svg, "path", "edge-cross")
    for el in edges:
        alpha = float(el.get("stroke-opacity"))
        assert 0.0 < alpha <= 1.0


def test_empty_network_with_table_renders_sectors_only(three_area_table):
    svg = render_svg(FlowNetwork("topic", 1910, 1915, {}), three_area_table, VizConfig())
    assert len(svg_elements(svg, "path", "sector")) == 3
    assert svg_elements(svg, "path", "edge-cross") == []
    assert svg_elements(svg, "circle") == []


def test_render_writes_file(three_area_table, three_area_net, tmp_path):
    # the viz command writes exactly the document render_svg returns
    out = tmp_path / "out"
    out.mkdir()
    write_flow_network(three_area_net, out / "flows_topic_1910_1915.tsv")
    args = [
        "viz", "--journal-topics", str(tmp_path / "journal_topics.tsv"),
        "--topic-areas", str(tmp_path / "topic_areas.tsv"), "--out", str(out),
        "--level", "topic", "--pair", "1910", "1915",
    ]
    assert main(args) == 0
    svg = render_svg(three_area_net, three_area_table, VizConfig())
    assert (out / "viz_topic_1910_1915.svg").read_text(encoding="utf-8") == svg


# -- config --

def test_viz_config_validation():
    with pytest.raises(UsageError):
        VizConfig(r_first=0.95)  # violates r_zero > r_first ordering? 0.92 > 0.95 fails
    with pytest.raises(UsageError):
        VizConfig(sector_inner=0.9)
    with pytest.raises(UsageError):
        VizConfig(sector_order="random")
    with pytest.raises(UsageError, match="node_radius_min must not exceed node_radius_max"):
        VizConfig(node_radius_min=9.0, node_radius_max=2.0)  # else every node gets r=2


def test_load_viz_config(tmp_path):
    path = write_lines(
        tmp_path / "viz.cfg",
        [
            "# rendering tweaks",
            "canvas_size=500",
            "min_weight = 2.5",
            "show_labels=false",
            "sector_order=strength",
            "a0=#112233",
        ],
    )
    cfg = load_viz_config(path)
    assert cfg.canvas_size == 500
    assert cfg.min_weight == 2.5
    assert cfg.show_labels is False
    assert cfg.sector_order == "strength"
    assert dict(cfg.palette) == {"a0": "#112233"}


def test_load_viz_config_rejects_unknown_key(tmp_path):
    # A key that is no setting reads as a palette override, so the message names both.
    for line in ["mystery=1", "a00=#12345", "a00=red"]:
        key, value = line.split("=")
        path = write_lines(tmp_path / "viz.cfg", [line])
        want = f"viz.cfg:1: unknown setting '{key}', and '{value}' is not a #RRGGBB color"
        with pytest.raises(MalformedLine, match=want):
            load_viz_config(path)


def test_palette_override_used_in_render(three_area_table, three_area_net, tmp_path):
    path = write_lines(tmp_path / "viz.cfg", ["a0=#010203"])
    cfg = load_viz_config(path)
    svg = render_svg(three_area_net, three_area_table, cfg)
    assert "#010203" in svg


# -- wide-network golden: a seeded network at the scale of a real snapshot pair --

WIDE_GOLDEN_SHA256 = {
    "modularity": "3cbd401cf3e34ebd36d3bb486c375969a8465799d589eadcef60f8905ed68034",
    "strength": "b8cebc4b23b7a6925d671c70c03e7617ae3055645f63af603a6b44aa316657b4",
    "min_weight": "92104092cbd15159729e6dedb2b9e52de619c2115c62bd46be45d55ed88bddf1",
}
WIDE_CONFIGS = {
    "modularity": VizConfig(),
    "strength": VizConfig(sector_order="strength"),
    "min_weight": VizConfig(min_weight=3.0),
}


def wide_network(convert=int):
    """About 1,750 cross-area edges over 12 areas and 144 topics, plus
    intra-area edges and self-loops; weights are ``convert(k)`` for ints k."""
    rng = random.Random(1916)
    topic_area = {f"t{i:03d}": f"area{i % 12:02d}" for i in range(144)}
    topics = sorted(topic_area)
    weights = {}
    for _ in range(2000):
        source, target = rng.choice(topics), rng.choice(topics)
        weights[(source, target)] = convert(rng.choice([1, 1, 1, 2, 2, 3, 4, 7, 12, 40]))
    table = ClassificationTable(
        journal_topics={f"j{t}": (t,) for t in topics}, topic_area=topic_area
    )
    return FlowNetwork("topic", 1910, 1915, weights), table


def wide_svg(name, convert=int):
    net, table = wide_network(convert)
    return render_svg(net, table, WIDE_CONFIGS[name])


def test_wide_network_has_the_intended_shape():
    net, table = wide_network()
    areas = {table.topic_area[t] for t in net.nodes()}
    cross = [(s, t) for s, t in net.weights if table.topic_area[s] != table.topic_area[t]]
    assert len(areas) >= 10
    assert len(cross) >= 1000


@pytest.mark.parametrize("name", sorted(WIDE_CONFIGS))
def test_wide_network_golden(name):
    svg = wide_svg(name)
    assert hashlib.sha256(svg.encode("utf-8")).hexdigest() == WIDE_GOLDEN_SHA256[name]


@pytest.mark.parametrize("name", sorted(WIDE_CONFIGS))
def test_wide_network_weight_types_render_identically(name):
    reference = wide_svg(name)
    assert wide_svg(name, float) == reference
    assert wide_svg(name, Fraction) == reference
    # non-integer values: exact halves as floats and as rationals
    assert wide_svg(name, lambda k: k / 2) == wide_svg(name, lambda k: Fraction(k, 2))
