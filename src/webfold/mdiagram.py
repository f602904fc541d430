"""Directed arc diagrams over a boundary line, and their resolution.

Arcs name their ends by boundary position 1..N, as web vertices do; the
labels are read only by JSON, SVG and error messages.  Arcs are exact
semicircles over rational abscissas, so crossing positions and all
ordering predicates are rational arithmetic.  Resolution replaces each
degree-2 boundary sink with a fed internal sink and each crossing with a
source/sink pair joined by an intersection edge, yielding a planar web
together with the bookkeeping (which arcs an edge toggles, which edge
resolves which intersecting pair) needed for arc-set distances.

A diagram is checked where it enters, by `from_dict`.  `MDiagram(...)`,
like `PlanarWeb(...)`, checks nothing: the builders in `web3` make their
diagrams valid by construction.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, partial

from ._value import Value
from .errors import ConcurrentArcs, InvalidBoundaryDegrees, UnknownFace
from .planarweb import ARC, BOUNDARY, INTERSECTION, PlanarWeb, _rational, boundary_face

FIRST = "first"
SECOND = "second"


class BoundaryVertex(Value):
    __slots__ = _fields = ("label", "x")

    def __init__(self, label: str, x: Fraction | int) -> None:
        self.label = label
        self.x = x


class Arc(Value):
    __slots__ = _fields = ("tail", "head", "kind", "crossed")

    def __init__(self, tail: int, head: int, kind: str = FIRST, crossed: bool = False) -> None:
        # boundary positions 1..N
        self.tail = tail
        self.head = head
        self.kind = kind
        self.crossed = crossed


class MDiagram(Value):
    _fields = ("boundary", "arcs")

    def __init__(self, boundary: tuple[BoundaryVertex, ...], arcs: tuple[Arc, ...]) -> None:
        self.boundary = boundary
        self.arcs = arcs

    @cached_property
    def resolution(self) -> Resolution:
        """The resolved web and its bookkeeping, built on first use."""
        return _resolve(self)

    def to_dict(self) -> dict:
        labels = [b.label for b in self.boundary]
        return {
            "boundary": [{"label": b.label, "x": str(b.x)} for b in self.boundary],
            "arcs": [
                {
                    "tail": labels[a.tail - 1],
                    "head": labels[a.head - 1],
                    "kind": a.kind,
                    "crossed": a.crossed,
                }
                for a in self.arcs
            ],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "MDiagram":
        """The diagram of a JSON form, whose arcs name their ends by label."""
        boundary = tuple(BoundaryVertex(b["label"], _rational("x", b["x"])) for b in d["boundary"])
        ends = [(a["tail"], a["head"], a.get("kind", FIRST), a.get("crossed", False))
                for a in d["arcs"]]
        position = {b.label: p for p, b in enumerate(boundary, start=1)}
        if len(position) != len(boundary):
            raise ValueError("boundary labels must be unique")
        if any(a.x >= b.x for a, b in zip(boundary, boundary[1:])):
            raise ValueError("boundary abscissas must strictly increase")
        for b in boundary:
            if not isinstance(b.label, str):
                raise TypeError(f"label must be a string, got {type(b.label).__name__}")
        arcs = []
        for tail, head, kind, crossed in ends:
            if tail == head:
                raise ValueError("arc endpoints must be distinct")
            if tail not in position or head not in position:
                raise ValueError(f"arc ({tail}, {head}) leaves the boundary")
            if kind not in (FIRST, SECOND):
                raise ValueError(f"arc kind must be {FIRST!r} or {SECOND!r}, got {kind!r}")
            if not isinstance(crossed, bool):
                raise TypeError(f"crossed must be a boolean, got {type(crossed).__name__}")
            arcs.append(Arc(position[tail], position[head], kind, crossed))
        if not boundary:
            raise ValueError("boundary must have at least one vertex")
        return cls(boundary, tuple(arcs))


class Crossing(Value):
    __slots__ = _fields = ("arc_a", "arc_b", "x")

    def __init__(self, arc_a: Arc, arc_b: Arc, x: Fraction) -> None:
        self.arc_a = arc_a
        self.arc_b = arc_b
        self.x = x


def _crossing_pairs(m: MDiagram) -> list[tuple[int, int, int, int]]:
    """Every transversal crossing as (i, j, num, den), i < j: arcs m.arcs[i]
    and m.arcs[j] cross at x = num / den.  Sorted by x, then by (i, j).

    All arithmetic is on integers: each arc's circle
    x**2 - (lo + hi) x + lo hi = 0 is multiplied by its two ends'
    denominators, so a crossing's num and den grow with its own four ends
    only; a common denominator of the whole boundary would grow with the
    number of distinct denominators.  The crossings are ordered by
    floor(x * D**2), where D is the largest |den|.  Two different abscissas
    with denominators of at most D differ by at least 1 / D**2, so these
    keys are equal only for equal abscissas.
    Raises ConcurrentArcs if three arcs pass through one point.
    """
    # abscissas strictly increase, so boundary positions order them exactly
    spans = [(a.tail, a.head) if a.tail < a.head else (a.head, a.tail) for a in m.arcs]
    xs = [(b.x.numerator, b.x.denominator) for b in m.boundary]
    # each arc's circle as integers (q, t, p) with q x**2 - t x + p = 0;
    # its ends are at a / c and b / d
    circles = []
    for lo, hi in spans:
        (a, c), (b, d) = xs[lo - 1], xs[hi - 1]
        circles.append((c * d, a * d + b * c, a * b))
    found = []
    for i, (lo1, hi1) in enumerate(spans):
        for j in range(i + 1, len(spans)):
            lo2, hi2 = spans[j]
            if not (lo1 < lo2 < hi1 < hi2 or lo2 < lo1 < hi2 < hi1):
                continue
            # where the two circles agree; interleaved spans have distinct
            # centres, so den is never 0
            (q1, t1, p1), (q2, t2, p2) = circles[i], circles[j]
            found.append((i, j, p2 * q1 - p1 * q2, t2 * q1 - t1 * q2))
    square = max((den * den for *_, den in found), default=1)
    keys = [num * square // den for *_, num, den in found]
    ranked = sorted((key, i, j, num, den) for key, (i, j, num, den) in zip(keys, found))
    # three arcs through one point make two crossings at one abscissa
    if any(a[0] == b[0] for a, b in zip(ranked, ranked[1:])):
        per_arc: dict[Arc, list[int]] = {}
        for (i, j, _, _), key in zip(found, keys):
            per_arc.setdefault(m.arcs[i], []).append(key)
            per_arc.setdefault(m.arcs[j], []).append(key)
        for arc, xs in per_arc.items():
            if len(set(xs)) != len(xs):
                tail, head = m.boundary[arc.tail - 1].label, m.boundary[arc.head - 1].label
                raise ConcurrentArcs(f"three arcs meet at one point on ({tail}, {head})")
    return [(i, j, num, den) for _, i, j, num, den in ranked]


def crossings(m: MDiagram) -> tuple[Crossing, ...]:
    """All transversal crossings, with exact rational abscissas.

    Two semicircles cross iff their endpoint intervals strictly
    interleave; a shared endpoint is a tangency, never a crossing.
    Raises ConcurrentArcs if three arcs pass through one point.
    """
    return tuple(
        Crossing(m.arcs[i], m.arcs[j], Fraction(num, den))
        for i, j, num, den in _crossing_pairs(m)
    )


class Resolution(Value, eq=False):
    """A resolved web with one arc table: per edge, the indices into arcs of
    the arcs it toggles.  An arc segment holds its arc, a sink feed or an
    intersection the pair it resolves, a boundary edge none.  The arc sets
    themselves are built on first read.
    """

    _fields = ("web", "arcs", "edge_arcs")

    def __init__(
        self, web: PlanarWeb, arcs: tuple[Arc, ...], edge_arcs: tuple[tuple[int, ...], ...]
    ) -> None:
        self.web = web
        self.arcs = arcs
        self.edge_arcs = edge_arcs

    @cached_property
    def toggles(self) -> tuple[frozenset[Arc], ...]:
        """The arcs each edge toggles: its own arc, the pair it resolves, or none."""
        arcs = self.arcs
        return tuple(frozenset([arcs[i] for i in ix]) for ix in self.edge_arcs)

    @cached_property
    def pair_edges(self) -> tuple[tuple[frozenset[Arc], int], ...]:
        """Each sink's or crossing's pair of arcs, with the edge that resolves it."""
        toggles = self.toggles
        return tuple((toggles[e], e) for e, ix in enumerate(self.edge_arcs) if len(ix) == 2)

    @cached_property
    def face_arcs(self) -> dict[int, frozenset[Arc]]:
        """The arcs passing over each inner face, by face number, in the order
        a breadth-first walk from B_0 reaches the faces."""
        table, walls = self.web.face_table, self.web._walls
        start = boundary_face(self.web, 0)
        sets: dict[int, frozenset[Arc]] = {start: frozenset()}
        frontier = [start]
        while frontier:
            nxt = []
            for fi in frontier:
                for d in table.orbits[fi]:
                    e = d // 2
                    if walls[e]:
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
        return sets


def _resolve(m: MDiagram) -> Resolution:
    # boundary vertices are named by position 1..n, arcs by index in m.arcs
    n = len(m.boundary)
    ends = [(a.tail, a.head) for a in m.arcs]
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

    # crossings are named by their index t in found below; they come sorted
    # by abscissa, so each arc meets its own in index order when it points
    # right and in reverse when it points left
    found = _crossing_pairs(m)
    by_arc: list[list[int]] = [[] for _ in m.arcs]
    for t, (i, j, _, _) in enumerate(found):
        by_arc[i].append(t)
        by_arc[j].append(t)

    # vertices: the boundary 1..n, an internal sink per boundary sink, then
    # u = base + 2t + 1 and w = base + 2t + 2 for crossing t
    sink_vertex = {q: n + 1 + s for s, q in enumerate(sinks)}
    base = n + len(sinks)

    # edge e runs origins[2e] -> origins[2e + 1], so a dart is its index in
    # origins; edges are numbered arc segments first, then sink feeds,
    # intersections and the boundary circle, whose edge first_bnd + k - 1
    # runs from k to the next vertex round the circle
    first_int = len(ends) + 2 * len(found) + len(sinks)
    first_bnd = first_int + len(found)

    def ring(k: int, web_dart: int) -> tuple[int, int, int]:
        """Boundary vertex k's darts: out round the circle, into the web, in from the circle."""
        return (2 * (first_bnd + k - 1), web_dart, 2 * (first_bnd + (k - 2) % n) + 1)

    origins: list[int] = []
    rotation: dict[int, tuple[int, ...]] = {}
    edge_arcs: list[tuple[int, ...]] = []
    sink_arc_darts: dict[int, list[tuple[tuple, int]]] = {q: [] for q in sinks}
    # the dart by which arc i enters crossing t at u; it leaves w by the next one
    in_dart: dict[tuple[int, int], int] = {}

    # each arc's path p, (u, w) of every crossing it meets, its sink; the
    # consecutive pairs of the path are its segments
    for i, (p, q) in enumerate(ends):
        met = by_arc[i] if p < q else by_arc[i][::-1]
        rotation[p] = ring(p, len(origins))
        origins.append(p)
        for t in met:
            in_dart[(t, i)] = len(origins)
            origins += (base + 2 * t + 1, base + 2 * t + 2)
        origins.append(sink_vertex[q])
        key = (0, p) if p > q else (1, p)
        sink_arc_darts[q].append((key, len(origins) - 1))
        edge_arcs += [(i,)] * (len(met) + 1)

    for q in sinks:
        rotation[q] = ring(q, len(origins))
        darts = [d for _, d in sorted(sink_arc_darts[q])]
        rotation[sink_vertex[q]] = (*darts, len(origins) + 1)
        origins += (q, sink_vertex[q])
        edge_arcs.append(tuple(heads[q]))

    for t, (a, b, _, _) in enumerate(found):
        edge_arcs.append((a, b))
        # a starts further left, so (the spans interleave) its centre is left
        # of b's; in and out darts alternate around the crossing, so arcs
        # pointing opposite ways meet u and w in the other order
        if min(ends[b]) < min(ends[a]):
            a, b = b, a
        if (ends[a][0] < ends[a][1]) != (ends[b][0] < ends[b][1]):
            a, b = b, a
        da, db, g = in_dart[(t, a)], in_dart[(t, b)], len(origins)
        rotation[base + 2 * t + 1] = (da, db, g + 1)
        rotation[base + 2 * t + 2] = (da + 1, db + 1, g)
        origins += (base + 2 * t + 2, base + 2 * t + 1)

    for k in range(1, n + 1):
        origins += (k, k % n + 1)
    edge_arcs += [()] * n
    tags = [ARC] * first_int + [INTERSECTION] * len(found) + [BOUNDARY] * n

    web = PlanarWeb(
        n, origins, tags, rotation, partial(_layout, m.boundary, ends, heads, sinks, found)
    )
    return Resolution(web, m.arcs, tuple(edge_arcs))


def _layout(
    boundary: tuple[BoundaryVertex, ...],
    ends: list[tuple[int, int]],
    heads: list[list[int]],
    sinks: list[int],
    found: list[tuple[int, int, int, int]],
) -> dict[int, tuple[Fraction, Fraction]]:
    """Drawing coordinates of a resolved web, numbered as `_resolve` numbers
    its vertices: the boundary on the x-axis, each internal sink a quarter of
    its nearest arc's width above its boundary vertex, and each crossing's
    pair straddling the point where the two semicircles meet.
    """
    n = len(boundary)
    bx = [b.x for b in boundary]
    layout: dict[int, tuple[Fraction, Fraction]] = {}
    for k, x in enumerate(bx, start=1):
        layout[k] = (x, Fraction(0))
    for s, q in enumerate(sinks):
        x = bx[q - 1]
        near = min(abs(bx[ends[i][0] - 1] - x) for i in heads[q])
        layout[n + 1 + s] = (x, Fraction(near) / 4)
    base = n + len(sinks)
    for t, (i, _, num, den) in enumerate(found):
        p, q = sorted(ends[i])
        lo, hi, x = bx[p - 1], bx[q - 1], Fraction(num, den)
        # the height of the crossing on the semicircle over [lo, hi]
        y2 = (hi - x) * (x - lo)
        y = Fraction(float(y2) ** 0.5).limit_denominator(10**6)
        layout[base + 2 * t + 1] = (x, y * Fraction(9, 10))
        layout[base + 2 * t + 2] = (x, y * Fraction(11, 10))
    return layout


def resolve(m: MDiagram) -> PlanarWeb:
    """The planar web obtained by the local changes at sinks and crossings."""
    return m.resolution.web


def arcs_above(m: MDiagram, face: int) -> frozenset[Arc]:
    """The arcs passing over inner face number `face` of resolve(m)."""
    table = m.resolution.face_arcs
    if face not in table:
        raise UnknownFace("not an inner face of the resolved diagram")
    return table[face]


def arc_distance(m: MDiagram, x: int, y: int) -> int:
    """How many arcs pass over exactly one of inner faces number x and y."""
    return len(arcs_above(m, x) ^ arcs_above(m, y))


def coherent_separators(m: MDiagram, x: int, y: int) -> frozenset[frozenset[Arc]]:
    """Intersecting arc pairs whose resolution edge faces X and Y sides, for
    inner faces number x and y.

    A pair {a, b} qualifies when X and Y lie (one each) in the two regions
    that the resolution of the intersection makes adjacent; regions are
    identified by restricting a face's arc set to {a, b}.
    """
    sx, sy = arcs_above(m, x), arcs_above(m, y)
    res = m.resolution
    table, face_of = res.face_arcs, res.web.face_table.face_of
    out = []
    for pair, e in res.pair_edges:
        sides = {table[face_of[2 * e]] & pair, table[face_of[2 * e + 1]] & pair}
        if {sx & pair, sy & pair} == sides:
            out.append(pair)
    return frozenset(out)


def mirror_arc(a: Arc, n: int) -> Arc:
    """The mirror image over n boundary points, p to n + 1 - p: k to k' on a crossed diagram."""
    return Arc(n + 1 - a.tail, n + 1 - a.head, a.kind, a.crossed)


def reflected_face(m: MDiagram, face: int) -> int:
    """The number of the face whose arc set is the mirror image of this one's."""
    n = len(m.boundary)
    want = frozenset(mirror_arc(a, n) for a in arcs_above(m, face))
    for f, s in m.resolution.face_arcs.items():
        if s == want:
            return f
    raise UnknownFace("diagram has no mirror of this face")


def epsilon(m: MDiagram, face: int) -> int:
    """1 if face number `face` is between some vertical pair of crossed arcs."""
    above = arcs_above(m, face)
    present = set(m.arcs)
    n = len(m.boundary)
    for a in m.arcs:
        if not a.crossed:
            continue
        partner = mirror_arc(a, n)
        if partner not in present:
            continue
        if (a in above) != (partner in above):
            return 1
    return 0
