"""Directed arc diagrams over a boundary line, and their resolution.

A diagram keeps its boundary as two tuples indexed by position 1..N:
`labels`, read only by JSON, SVG and error messages, and the strictly
increasing abscissas `xs`.  An arc is its (tail, head) pair of boundary
positions, as web vertices are named, and an exact semicircle over those
abscissas, so crossing positions and all ordering predicates are rational
arithmetic: on integers while crossings are found and ordered, and in
`Fraction`s, imported on first use, only where `crossings` or a layout
hands an abscissa out.  Resolving replaces each degree-2 boundary sink
with a fed internal sink and each crossing with a source/sink pair joined
by an intersection edge, and yields a planar web alone.  A diagram keeps
the web as `MDiagram.resolution` with the one table that arc-set distances
need, `edge_arcs`, the arcs each edge toggles, built from its arcs and the
resolver's crossings, and the arcs over each inner face of the web as
`MDiagram.face_arcs`, both on first use.  Arc i is `ends[i]`, and a set of
arcs is an int bitmask, bit i for arc i: so are the arcs of the second
kind, `MDiagram.second`, and the crossed ones, `MDiagram.crossed`.

A diagram is checked where it enters, by `from_dict`, boundary degrees
included.  `MDiagram(...)`, like `PlanarWeb(...)`, checks nothing, but a
diagram's first resolution checks its degrees: the one resolver,
`_resolve`, checks none, and on bad ones can build a web that
`validate_3web` never finishes.  `_resolve` reads `ends` as stored, so
`web3` can resolve a tableau's row pairings without building a diagram.
"""

from __future__ import annotations

from collections.abc import Sequence
from functools import cached_property, partial
from numbers import Rational

from ._value import Value
from .errors import ConcurrentArcs, InvalidBoundaryDegrees, UnknownFace
from .planarweb import ARC, BOUNDARY, INTERSECTION, PlanarWeb, _rational, boundary_face

FIRST = "first"
SECOND = "second"


class MDiagram(Value):
    _fields = ("labels", "xs", "ends", "second", "crossed")

    def __init__(
        self, labels: tuple[str, ...], xs: tuple[Rational, ...],
        ends: tuple[tuple[int, int], ...], second: int = 0, crossed: int = 0,
    ) -> None:
        self.labels = labels
        self.xs = xs
        self.ends = ends
        self.second = second
        self.crossed = crossed

    @cached_property
    def resolution(self) -> tuple[PlanarWeb, tuple[int, ...]]:
        """The resolved web and its arc table `edge_arcs`, built on first use:
        per edge, as `_resolve` numbers them, the bitmask of the arcs it toggles:
        a segment its arc, a sink feed or an intersection its pair, a circle edge none."""
        _check_degrees(self.labels, self.ends)
        web, found = _resolve(self.labels, self.xs, self.ends)
        # arc i once per segment: once more than it meets crossings
        met, fed = [*range(len(self.ends))], [0] * (len(self.labels) + 1)
        for i, (_, q) in enumerate(self.ends):
            fed[q] |= 1 << i
        for i, j, _, _ in found:
            met += i, j
        edge_arcs = [1 << i for i in sorted(met)] + [arcs for arcs in fed if arcs]
        edge_arcs += [1 << i | 1 << j for i, j, _, _ in found] + [0] * len(self.labels)
        return web, tuple(edge_arcs)

    @cached_property
    def face_arcs(self) -> dict[int, int]:
        """The bitmask of the arcs passing over each inner face of the
        resolved web, by face number, in the order a breadth-first walk
        from B_0 reaches the faces."""
        web, edge_arcs = self.resolution
        table, walls = web.face_table, web._walls
        start = boundary_face(web, 0)
        sets = {start: 0}
        frontier = [start]
        while frontier:
            nxt = []
            for fi in frontier:
                for d in table.orbits[fi]:
                    e = d // 2
                    if walls[e]:
                        continue
                    gi = table.face_of[d ^ 1]
                    arcs = sets[fi] ^ edge_arcs[e]
                    if gi in sets:
                        if sets[gi] != arcs:
                            raise RuntimeError("inconsistent arc sets across faces")
                        continue
                    sets[gi] = arcs
                    nxt.append(gi)
            frontier = nxt
        return sets

    @cached_property
    def _mirrors(self) -> tuple[int | None, ...]:
        """Per arc index, the index of its mirror arc, or None if it has none."""
        # p to n + 1 - p, k to k' on a crossed diagram, keeping both bits
        n = len(self.labels)
        keys = [(p, q, self.second >> i & 1, self.crossed >> i & 1)
                for i, (p, q) in enumerate(self.ends)]
        index = {key: i for i, key in enumerate(keys)}
        return tuple(index.get((n + 1 - p, n + 1 - q, s, c)) for p, q, s, c in keys)

    def to_dict(self) -> dict:
        return {
            "boundary": [{"label": label, "x": str(x)} for label, x in zip(self.labels, self.xs)],
            "arcs": [
                {
                    "tail": self.labels[p - 1],
                    "head": self.labels[q - 1],
                    "kind": SECOND if self.second >> i & 1 else FIRST,
                    "crossed": bool(self.crossed >> i & 1),
                }
                for i, (p, q) in enumerate(self.ends)
            ],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "MDiagram":
        """The diagram of a JSON form, whose arcs name their ends by label."""
        boundary = [(b["label"], _rational("x", b["x"])) for b in d["boundary"]]
        arcs = [(a["tail"], a["head"], a.get("kind", FIRST), a.get("crossed", False))
                for a in d["arcs"]]
        labels = tuple(label for label, _ in boundary)
        xs = tuple(x for _, x in boundary)
        for label in labels:
            if not isinstance(label, str):
                raise TypeError(f"label must be a string, got {type(label).__name__}")
        position = {label: p for p, label in enumerate(labels, start=1)}
        if len(position) != len(labels):
            raise ValueError("boundary labels must be unique")
        if any(a >= b for a, b in zip(xs, xs[1:])):
            raise ValueError("boundary abscissas must strictly increase")
        ends, second, crossed = [], 0, 0
        for i, (tail, head, kind, cross) in enumerate(arcs):
            for what, end in (("tail", tail), ("head", head)):
                if not isinstance(end, str):
                    raise TypeError(f"{what} must be a string, got {type(end).__name__}")
            if tail == head:
                raise ValueError("arc endpoints must be distinct")
            if tail not in position or head not in position:
                raise ValueError(f"arc ({tail}, {head}) leaves the boundary")
            if kind not in (FIRST, SECOND):
                raise ValueError(f"arc kind must be {FIRST!r} or {SECOND!r}, got {kind!r}")
            if not isinstance(cross, bool):
                raise TypeError(f"crossed must be a boolean, got {type(cross).__name__}")
            ends.append((position[tail], position[head]))
            second |= (kind == SECOND) << i
            crossed |= cross << i
        if not labels:
            raise ValueError("boundary must have at least one vertex")
        _check_degrees(labels, ends)
        return cls(labels, xs, tuple(ends), second, crossed)


def _check_degrees(labels: Sequence[str], ends: Sequence[tuple[int, int]]) -> None:
    """Raise InvalidBoundaryDegrees naming the first vertex, in label order,
    that is neither a source (1 out, 0 in) nor a sink of two arcs (0 out,
    2 in).  Its code out + big * in, big = len(ends) + 1, is 1 or 2 * big:
    one set test accepts the codes, and only on failure does a loop look."""
    n, big = len(labels), len(ends) + 1
    code = [0] * (n + 1)
    for p, q in ends:
        code[p] += 1
        code[q] += big
    if not {*code[1:]} <= {1, 2 * big}:
        p = next(p for p in range(1, n + 1) if code[p] not in (1, 2 * big))
        ins, outs = divmod(code[p], big)
        raise InvalidBoundaryDegrees(
            f"vertex {labels[p - 1]} has {outs} outgoing and {ins} incoming arcs"
        )


def _crossing_pairs(
    labels: Sequence[str | int], xs: Sequence[Rational], ends: Sequence[tuple[int, int]]
) -> list[tuple[int, int, int, int]]:
    """Every transversal crossing as (i, j, num, den), i < j: the arcs with
    (tail, head) positions ends[i] and ends[j] cross at x = num / den.
    Sorted by x, then by (i, j).

    Arcs are taken by left end, each against the arcs starting inside its
    span.  All arithmetic is on integers: a crossing arc's circle
    x**2 - (lo + hi) x + lo hi = 0 is multiplied by its ends' denominators,
    so a crossing's num and den grow with its own four ends only; a common
    denominator of the whole boundary would grow with the number of
    distinct denominators.  Crossings are ordered by floor(x * D**2), D the
    largest |den|: two different abscissas with denominators of at most D
    differ by at least 1 / D**2, so equal keys mean equal abscissas.
    Raises ConcurrentArcs if three arcs pass through one point.
    """
    # (lo, hi, index) by left end; positions order the abscissas exactly
    spans = sorted((p, q, i) if p < q else (q, p, i) for i, (p, q) in enumerate(ends))
    xs = [(x.numerator, x.denominator) for x in xs]
    found, square = [], 1
    for s, (lo1, hi1, i) in enumerate(spans, start=1):
        for lo2, hi2, j in spans[s:]:
            if lo2 >= hi1:
                break
            # lo1 <= lo2 < hi1, so the spans interleave iff both ends differ
            if lo1 < lo2 and hi1 < hi2:
                # each circle as integers q x**2 - t x + p = 0, ends at a / c and
                # b / d; interleaved spans have distinct centres, so den != 0
                (a, c), (b, d), (e, g), (f, h) = xs[lo1 - 1], xs[hi1 - 1], xs[lo2 - 1], xs[hi2 - 1]
                q1, t1, p1, q2, t2, p2 = c * d, a * d + b * c, a * b, g * h, e * h + f * g, e * f
                num, den = p2 * q1 - p1 * q2, t2 * q1 - t1 * q2
                found.append((i, j, num, den) if i < j else (j, i, -num, -den))
                square = max(square, den * den)
    ranked = sorted([(num * square // den, i, j, num, den) for i, j, num, den in found])
    # three arcs through one point make two crossings at one abscissa; the
    # message names the first such arc met in (i, j) order
    if len({r[0] for r in ranked}) < len(ranked):
        per_arc: dict[int, list[int]] = {}
        for key, i, j, _, _ in sorted(ranked, key=lambda r: r[1:3]):
            per_arc.setdefault(i, []).append(key)
            per_arc.setdefault(j, []).append(key)
        for i, keys in per_arc.items():
            if len(set(keys)) != len(keys):
                tail, head = labels[ends[i][0] - 1], labels[ends[i][1] - 1]
                raise ConcurrentArcs(f"three arcs meet at one point on ({tail}, {head})")
    return [(i, j, num, den) for _, i, j, num, den in ranked]


def crossings(m: MDiagram) -> tuple[tuple[int, int, Rational], ...]:
    """All transversal crossings as (i, j, x), i < j: arcs i and j of m
    cross at the exact rational abscissa x.

    Two semicircles cross iff their endpoint intervals strictly
    interleave; a shared endpoint is a tangency, never a crossing.
    Raises ConcurrentArcs if three arcs pass through one point.
    """
    from fractions import Fraction

    found = _crossing_pairs(m.labels, m.xs, m.ends)
    return tuple((i, j, Fraction(num, den)) for i, j, num, den in found)


def _resolve(
    labels: Sequence[str | int], xs: Sequence[Rational], ends: Sequence[tuple[int, int]]
) -> tuple[PlanarWeb, list[tuple[int, int, int, int]]]:
    """The resolution of the diagram over boundary `labels` at abscissas
    `xs` whose arc i runs from position ends[i][0] to ends[i][1], as the
    pair (web, crossings), the crossings as `_crossing_pairs` lists them.
    Edges are numbered each arc's segments, arc by arc and each from its
    tail, then the sink feeds by sink position, the intersections by
    crossing, and the N circle edges, k to k % N + 1.

    The one resolver: `MDiagram.resolution` passes its `ends`, and builds
    its arc table from them and the crossings; `web3.web_of_tableau` passes
    the two row pairings, with no diagram built and its positions 1..N as
    both labels and abscissas.  Labels are read only by error messages.  It
    checks no degrees: `MDiagram.resolution` checks a diagram's first, and
    a tableau's row pairings are valid by construction.
    """
    # boundary vertices are named by position 1..n, arcs by index in ends
    n = len(labels)

    # crossings are named by their index t in found below; they come sorted
    # by abscissa, so each arc meets its own in index order when it points
    # right and in reverse when it points left.  Arc i enters crossing t by
    # dart enter[s], s = 2t if i is found[t]'s first arc, 2t + 1 if its second
    found = _crossing_pairs(labels, xs, ends)
    by_arc: list[list[int]] = [[] for _ in ends]
    for t, (i, j, _, _) in enumerate(found):
        by_arc[i].append(2 * t)
        by_arc[j].append(2 * t + 1)
    enter = [0] * (2 * len(found))

    # vertices: the boundary 1..n, an internal sink per boundary sink, which
    # takes two arcs, then u = base + 2t + 1 and w = base + 2t + 2 for crossing t
    base = n + len(ends) // 2
    # edge e runs origins[2e] -> origins[2e + 1], so a dart is its index in
    # origins; a sink and a crossing each add three edges before the circle,
    # whose first dart is c.  Vertex k's darts are c + 2k - 2 round the circle,
    # one into the web and c + (2k - 3) % 2n in (the fill gives the last its 1)
    first_bnd = 3 * (len(ends) // 2 + len(found))
    c, circle = 2 * first_bnd, 2 * n
    origins = [1] * (c + circle)
    origins[c::2] = range(1, n + 1)
    origins[c + 1 : -1 : 2] = range(2, n + 1)
    rotation: dict[int, tuple[int, ...]] = {}

    # each arc's path p, (u, w) per crossing met, its sink: consecutive pairs of
    # it are segments, d is the next dart, and feeds takes (sink, tail, dart) of the last
    feeds: list[tuple[int, int, int]] = []
    d = 0
    for i, (p, q) in enumerate(ends):
        rotation[p] = (c + 2 * p - 2, d, c + (2 * p - 3) % circle)
        origins[d] = p
        for s in by_arc[i] if p < q else by_arc[i][::-1]:
            enter[s] = d + 1
            origins[d + 1] = u = base + (s | 1)
            origins[d + 2] = u + 1
            d += 2
        feeds.append((q, p, d + 1))
        d += 2

    feeds.sort()
    for v, ((q, p1, d1), (_, p2, d2)) in enumerate(zip(feeds[::2], feeds[1::2]), start=n + 1):
        # feeds from the right come first, each side left to right
        if p1 < q < p2:
            d1, d2 = d2, d1
        origins[d1] = origins[d2] = v
        rotation[q] = (c + 2 * q - 2, d, c + (2 * q - 3) % circle)
        rotation[v] = (d1, d2, d + 1)
        origins[d : d + 2] = q, v
        d += 2

    u = base + 1
    for (a, b, _, _), da, db in zip(found, enter[::2], enter[1::2]):
        # the arc starting further left (so its centre is left, as the spans
        # interleave) comes first at u, unless the arcs point opposite ways:
        # in and out darts alternate around the crossing
        (pa, qa), (pb, qb) = ends[a], ends[b]
        if (min(pb, qb) < min(pa, qa)) != ((pa < qa) != (pb < qb)):
            da, db = db, da
        rotation[u] = (da, db, d + 1)
        rotation[u + 1] = (da + 1, db + 1, d)
        origins[d : d + 2] = u + 1, u
        u += 2
        d += 2

    tags = [ARC] * (first_bnd - len(found)) + [INTERSECTION] * len(found) + [BOUNDARY] * n
    web = PlanarWeb(n, origins, tags, rotation, partial(_layout, xs, feeds, ends, found))
    # what the web would find on first use, known here: the walls are the last
    # n edges, and vertex k's circle dart, c + 2k - 2, is first in its rotation (B_0 is B_N)
    web._walls = [False] * first_bnd + [True] * n
    web._circle = [c + circle - 2, *range(c, c + circle, 2)]
    return web, found


def _layout(
    xs: Sequence[Rational],
    feeds: list[tuple[int, int, int]],
    ends: Sequence[tuple[int, int]],
    found: list[tuple[int, int, int, int]],
) -> dict[int, tuple[Rational, Rational]]:
    """Drawing coordinates of a resolved web, numbered as `_resolve` numbers
    its vertices: the boundary on the x-axis, each internal sink a quarter of
    its nearest arc's width above its boundary vertex, and each crossing's
    pair straddling the point where the two semicircles meet.
    """
    from fractions import Fraction

    n = len(xs)
    layout = {k: (x, Fraction(0)) for k, x in enumerate(xs, start=1)}
    for v, ((q, p1, _), (_, p2, _)) in enumerate(zip(feeds[::2], feeds[1::2]), start=n + 1):
        x = xs[q - 1]
        layout[v] = (x, Fraction(min(abs(xs[p1 - 1] - x), abs(xs[p2 - 1] - x))) / 4)
    base = n + len(feeds) // 2
    for t, (i, _, num, den) in enumerate(found):
        p, q = sorted(ends[i])
        lo, hi, x = xs[p - 1], xs[q - 1], Fraction(num, den)
        # the height of the crossing on the semicircle over [lo, hi]
        y2 = (hi - x) * (x - lo)
        y = Fraction(float(y2) ** 0.5).limit_denominator(10**6)
        layout[base + 2 * t + 1] = (x, y * Fraction(9, 10))
        layout[base + 2 * t + 2] = (x, y * Fraction(11, 10))
    return layout


def resolve(m: MDiagram) -> PlanarWeb:
    """The planar web obtained by the local changes at sinks and crossings."""
    return m.resolution[0]


def arcs_above(m: MDiagram, face: int) -> int:
    """The bitmask of the arcs passing over inner face number `face` of resolve(m)."""
    table = m.face_arcs
    if face not in table:
        raise UnknownFace("not an inner face of the resolved diagram")
    return table[face]


def arc_distance(m: MDiagram, x: int, y: int) -> int:
    """How many arcs pass over exactly one of inner faces number x and y."""
    return (arcs_above(m, x) ^ arcs_above(m, y)).bit_count()


def coherent_separators(m: MDiagram, x: int, y: int) -> frozenset[int]:
    """Intersecting arc pairs, as two-bit masks, whose resolution edge faces
    X and Y sides, for inner faces number x and y.

    A pair {a, b} qualifies when X and Y lie (one each) in the two regions
    that the resolution of the intersection makes adjacent; regions are
    identified by restricting a face's arc set to {a, b}.  The pairs are
    the sink feeds and intersections: the edges that toggle two arcs.
    """
    sx, sy = arcs_above(m, x), arcs_above(m, y)
    web, edge_arcs = m.resolution
    table, face_of = m.face_arcs, web.face_table.face_of
    out = []
    for e, pair in enumerate(edge_arcs):
        if pair.bit_count() != 2:
            continue
        sides = {table[face_of[2 * e]] & pair, table[face_of[2 * e + 1]] & pair}
        if {sx & pair, sy & pair} == sides:
            out.append(pair)
    return frozenset(out)


def reflected_face(m: MDiagram, face: int) -> int:
    """The number of the face whose arc set is the mirror image of this one's."""
    above = arcs_above(m, face)
    want = 0
    for i, j in enumerate(m._mirrors):
        if above >> i & 1:
            if j is None:
                raise UnknownFace("diagram has no mirror of this face")
            want |= 1 << j
    for f, s in m.face_arcs.items():
        if s == want:
            return f
    raise UnknownFace("diagram has no mirror of this face")


def epsilon(m: MDiagram, face: int) -> int:
    """1 if face number `face` is between some vertical pair of crossed arcs."""
    above = arcs_above(m, face)
    for i, j in enumerate(m._mirrors):
        if m.crossed >> i & 1 and j is not None and (above >> i & 1) != (above >> j & 1):
            return 1
    return 0
