"""Directed arc diagrams over a boundary line, and their resolution.

Arcs are exact semicircles over rational abscissas, so crossing positions
and all ordering predicates are rational arithmetic.  Resolution replaces
each degree-2 boundary sink with a fed internal sink and each crossing
with a source/sink pair joined by an intersection edge, yielding a
planar web together with the bookkeeping (which arcs an edge toggles,
which edge resolves which intersecting pair) needed for arc-set
distances.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .errors import ConcurrentArcs, InvalidBoundaryDegrees, UnknownFace
from .planarweb import ARC, BOUNDARY, INTERSECTION, Edge, PlanarWeb, boundary_face

FIRST = "first"
SECOND = "second"


@dataclass(frozen=True)
class BoundaryVertex:
    label: str
    x: Fraction


@dataclass(frozen=True)
class Arc:
    tail: str
    head: str
    kind: str = FIRST
    crossed: bool = False


@dataclass(frozen=True)
class MDiagram:
    boundary: tuple[BoundaryVertex, ...]
    arcs: tuple[Arc, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "boundary", tuple(self.boundary))
        object.__setattr__(self, "arcs", tuple(self.arcs))
        labels = [b.label for b in self.boundary]
        if len(set(labels)) != len(labels):
            raise ValueError("boundary labels must be unique")
        xs = [b.x for b in self.boundary]
        if any(xs[i] >= xs[i + 1] for i in range(len(xs) - 1)):
            raise ValueError("boundary abscissas must strictly increase")
        known = set(labels)
        for a in self.arcs:
            if a.tail == a.head:
                raise ValueError("arc endpoints must be distinct")
            if a.tail not in known or a.head not in known:
                raise ValueError(f"arc ({a.tail}, {a.head}) leaves the boundary")

    @cached_property
    def positions(self) -> dict[str, int]:
        """Each boundary label's position 1..N, left to right."""
        return {b.label: p for p, b in enumerate(self.boundary, start=1)}

    @cached_property
    def resolution(self) -> Resolution:
        """The resolved web and its bookkeeping, built on first use."""
        return _resolve(self)

    def x_of(self, label: str) -> Fraction:
        try:
            return self.boundary[self.positions[label] - 1].x
        except KeyError:
            raise ValueError(f"no boundary vertex {label}") from None

    def to_dict(self) -> dict:
        return {
            "boundary": [{"label": b.label, "x": str(b.x)} for b in self.boundary],
            "arcs": [
                {
                    "tail": a.tail,
                    "head": a.head,
                    "kind": a.kind,
                    "crossed": a.crossed,
                }
                for a in self.arcs
            ],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "MDiagram":
        boundary = tuple(
            BoundaryVertex(b["label"], Fraction(b["x"])) for b in d["boundary"]
        )
        arcs = tuple(
            Arc(a["tail"], a["head"], a.get("kind", FIRST), a.get("crossed", False))
            for a in d["arcs"]
        )
        return cls(boundary, arcs)


@dataclass(frozen=True)
class Crossing:
    arc_a: Arc
    arc_b: Arc
    x: Fraction


def crossings(m: MDiagram) -> tuple[Crossing, ...]:
    """All transversal crossings, with exact rational abscissas.

    Two semicircles cross iff their endpoint intervals strictly
    interleave; a shared endpoint is a tangency, never a crossing.
    Raises ConcurrentArcs if three arcs pass through one point.
    """
    # abscissas strictly increase, so boundary positions order them exactly
    position = m.positions
    spans = []
    for a in m.arcs:
        p, q = position[a.tail], position[a.head]
        spans.append((p, q) if p < q else (q, p))
    bx = [b.x for b in m.boundary]
    found = []
    for i, (lo1, hi1) in enumerate(spans):
        for j in range(i + 1, len(spans)):
            lo2, hi2 = spans[j]
            if not (lo1 < lo2 < hi1 < hi2 or lo2 < lo1 < hi2 < hi1):
                continue
            # where the two circles' equations agree; centre^2 - radius^2 = lo * hi
            l1, h1, l2, h2 = bx[lo1 - 1], bx[hi1 - 1], bx[lo2 - 1], bx[hi2 - 1]
            x = (l2 * h2 - l1 * h1) / ((l2 + h2) - (l1 + h1))
            found.append((x, i, j))
    per_arc: dict[Arc, list[Fraction]] = {}
    for x, i, j in found:
        per_arc.setdefault(m.arcs[i], []).append(x)
        per_arc.setdefault(m.arcs[j], []).append(x)
    for arc, xs in per_arc.items():
        if len(set(xs)) != len(xs):
            raise ConcurrentArcs(
                f"three arcs meet at one point on ({arc.tail}, {arc.head})"
            )
    return tuple(Crossing(m.arcs[i], m.arcs[j], x) for x, i, j in sorted(found))


@dataclass(frozen=True, eq=False)
class Resolution:
    web: PlanarWeb
    toggles: tuple[frozenset[Arc], ...]
    pair_edges: tuple[tuple[frozenset[Arc], int], ...]

    @cached_property
    def face_arcs(self) -> dict[frozenset[int], frozenset[Arc]]:
        """The arcs passing over each inner face, by a walk from B_0."""
        table = self.web.face_table
        start = table.index[boundary_face(self.web, 0)]
        sets: dict[int, frozenset[Arc]] = {start: frozenset()}
        frontier = [start]
        while frontier:
            nxt = []
            for fi in frontier:
                for d in table.faces[fi]:
                    e = d // 2
                    if self.web.edges[e].tag == BOUNDARY:
                        continue
                    gi = table.face_of[d ^ 1]
                    arcs = sets[fi] ^ self.toggles[e]
                    if gi in sets:
                        if sets[gi] != arcs:
                            raise RuntimeError("inconsistent arc sets across faces")
                        continue
                    sets[gi] = arcs
                    nxt.append(gi)
            frontier = nxt
        return {table.faces[i]: s for i, s in sets.items()}


def _resolve(m: MDiagram) -> Resolution:
    # boundary vertices are named by position 1..n, arcs by index in m.arcs
    n = len(m.boundary)
    position = m.positions
    ends = [(position[a.tail], position[a.head]) for a in m.arcs]
    tails: list[list[int]] = [[] for _ in range(n + 1)]
    heads: list[list[int]] = [[] for _ in range(n + 1)]
    for i, (p, q) in enumerate(ends):
        tails[p].append(i)
        heads[q].append(i)
    for p, b in enumerate(m.boundary, start=1):
        shape = (len(tails[p]), len(heads[p]))
        if shape not in {(1, 0), (0, 2)}:
            raise InvalidBoundaryDegrees(
                f"vertex {b.label} has {shape[0]} outgoing and {shape[1]} incoming arcs"
            )
    sinks = [p for p in range(1, n + 1) if heads[p]]

    # crossings are named by their index t in all_crossings below; they come
    # sorted by abscissa, so each arc meets its own in index order when it
    # points right and in reverse when it points left
    all_crossings = crossings(m)
    # each position is the tail of exactly one arc or of none
    pairs = [
        (tails[position[c.arc_a.tail]][0], tails[position[c.arc_b.tail]][0])
        for c in all_crossings
    ]
    by_arc: list[list[int]] = [[] for _ in m.arcs]
    for t, (i, j) in enumerate(pairs):
        by_arc[i].append(t)
        by_arc[j].append(t)

    sink_vertex = {q: n + 1 + s for s, q in enumerate(sinks)}
    base = n + len(sinks)
    cross_u = [base + 2 * t + 1 for t in range(len(all_crossings))]
    cross_w = [base + 2 * t + 2 for t in range(len(all_crossings))]

    edges: list[Edge] = []
    toggles: list[frozenset[Arc]] = []
    pair_edges: list[tuple[frozenset[Arc], int]] = []

    def add_edge(tail: int, head: int, tag: str, toggle: frozenset[Arc]) -> int:
        edges.append(Edge(tail, head, tag))
        toggles.append(toggle)
        return len(edges) - 1

    source_dart: dict[int, int] = {}
    sink_arc_darts: dict[int, list[tuple[tuple, int]]] = {q: [] for q in sinks}
    in_dart: dict[tuple[int, int], int] = {}
    out_dart: dict[tuple[int, int], int] = {}

    for i, (p, q) in enumerate(ends):
        toggle = frozenset({m.arcs[i]})
        prev_vertex = p
        prev_crossing: int | None = None
        met = by_arc[i] if p < q else by_arc[i][::-1]
        for t in met + [None]:
            head_vertex = cross_u[t] if t is not None else sink_vertex[q]
            e = add_edge(prev_vertex, head_vertex, ARC, toggle)
            if prev_crossing is None:
                source_dart[p] = 2 * e
            else:
                out_dart[(prev_crossing, i)] = 2 * e
            if t is not None:
                in_dart[(t, i)] = 2 * e + 1
                prev_vertex = cross_w[t]
                prev_crossing = t
            else:
                key = (0, p) if p > q else (1, p)
                sink_arc_darts[q].append((key, 2 * e + 1))

    feed_edge = {}
    for q in sinks:
        pair = frozenset(m.arcs[i] for i in heads[q])
        feed_edge[q] = add_edge(q, sink_vertex[q], ARC, pair)
        pair_edges.append((pair, feed_edge[q]))

    int_edge = []
    for t, c in enumerate(all_crossings):
        pair = frozenset({c.arc_a, c.arc_b})
        int_edge.append(add_edge(cross_w[t], cross_u[t], INTERSECTION, pair))
        pair_edges.append((pair, int_edge[t]))

    bnd_next = {}
    bnd_prev = {}
    for k in range(1, n + 1):
        nxt = k + 1 if k < n else 1
        e = add_edge(k, nxt, BOUNDARY, frozenset())
        bnd_next[k] = 2 * e
        bnd_prev[nxt] = 2 * e + 1

    rotation: dict[int, tuple[int, ...]] = {}
    for k in range(1, n + 1):
        web_dart = source_dart[k] if tails[k] else 2 * feed_edge[k]
        rotation[k] = (bnd_next[k], web_dart, bnd_prev[k])
    for q in sinks:
        darts = [d for _, d in sorted(sink_arc_darts[q])]
        rotation[sink_vertex[q]] = (*darts, 2 * feed_edge[q] + 1)
    for t, (a, b) in enumerate(pairs):
        # a starts further left, so (the spans interleave) its centre is left
        # of b's; in and out darts alternate around the crossing, so arcs
        # pointing opposite ways meet u and w in the other order
        if min(ends[b]) < min(ends[a]):
            a, b = b, a
        if (ends[a][0] < ends[a][1]) != (ends[b][0] < ends[b][1]):
            a, b = b, a
        rotation[cross_u[t]] = (in_dart[(t, a)], in_dart[(t, b)], 2 * int_edge[t] + 1)
        rotation[cross_w[t]] = (out_dart[(t, a)], out_dart[(t, b)], 2 * int_edge[t])

    bx = [b.x for b in m.boundary]
    layout: dict[int, tuple[Fraction, Fraction]] = {}
    for k, b in enumerate(m.boundary, start=1):
        layout[k] = (b.x, Fraction(0))
    for q in sinks:
        x = bx[q - 1]
        near = min(abs(bx[ends[i][0] - 1] - x) for i in heads[q])
        layout[sink_vertex[q]] = (x, near / 4)
    for t, c in enumerate(all_crossings):
        p, q = sorted(ends[pairs[t][0]])
        lo, hi = bx[p - 1], bx[q - 1]
        # the height of the crossing on the semicircle over [lo, hi]
        y2 = (hi - c.x) * (c.x - lo)
        y = Fraction(float(y2) ** 0.5).limit_denominator(10**6)
        layout[cross_u[t]] = (c.x, y * Fraction(9, 10))
        layout[cross_w[t]] = (c.x, y * Fraction(11, 10))

    web = PlanarWeb(n, tuple(edges), rotation, layout)
    return Resolution(web, tuple(toggles), tuple(pair_edges))


def resolve(m: MDiagram) -> PlanarWeb:
    """The planar web obtained by the local changes at sinks and crossings."""
    return m.resolution.web


def arcs_above(m: MDiagram, face: frozenset[int]) -> frozenset[Arc]:
    """The arcs passing over the given face of resolve(m)."""
    table = m.resolution.face_arcs
    if face not in table:
        raise UnknownFace("not an inner face of the resolved diagram")
    return table[face]


def arc_distance(m: MDiagram, x: frozenset[int], y: frozenset[int]) -> int:
    return len(arcs_above(m, x) ^ arcs_above(m, y))


def coherent_separators(
    m: MDiagram, x: frozenset[int], y: frozenset[int]
) -> frozenset[frozenset[Arc]]:
    """Intersecting arc pairs whose resolution edge faces X and Y sides.

    A pair {a, b} qualifies when X and Y lie (one each) in the two regions
    that the resolution of the intersection makes adjacent; regions are
    identified by restricting a face's arc set to {a, b}.
    """
    sx, sy = arcs_above(m, x), arcs_above(m, y)
    res = m.resolution
    table = res.face_arcs
    faces, face_of = res.web.face_table.faces, res.web.face_table.face_of
    out = []
    for pair, e in res.pair_edges:
        f1, f2 = faces[face_of[2 * e]], faces[face_of[2 * e + 1]]
        sides = {table[f1] & pair, table[f2] & pair}
        if {sx & pair, sy & pair} == sides:
            out.append(pair)
    return frozenset(out)


def mirror_label(label: str) -> str:
    if label == "0":
        return label
    return label[:-1] if label.endswith("'") else label + "'"


def mirror_arc(a: Arc) -> Arc:
    return Arc(mirror_label(a.tail), mirror_label(a.head), a.kind, a.crossed)


def reflected_face(m: MDiagram, face: frozenset[int]) -> frozenset[int]:
    """The face whose arc set is the mirror image of this one's."""
    table = m.resolution.face_arcs
    if face not in table:
        raise UnknownFace("not an inner face of the resolved diagram")
    want = frozenset(mirror_arc(a) for a in table[face])
    for f, s in table.items():
        if s == want:
            return f
    raise UnknownFace("diagram has no mirror of this face")


def epsilon(m: MDiagram, face: frozenset[int]) -> int:
    """1 if the face is between some vertical pair of crossed arcs."""
    above = arcs_above(m, face)
    present = set(m.arcs)
    for a in m.arcs:
        if not a.crossed:
            continue
        partner = mirror_arc(a)
        if partner not in present:
            continue
        if (a in above) != (partner in above):
            return 1
    return 0
