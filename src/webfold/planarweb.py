"""Planar combinatorial maps on a disk, with faces and dual distances.

A web is stored as a rotation system: edge i owns darts 2i (at its tail)
and 2i+1 (at its head), and every vertex lists its darts in
counterclockwise order.  Boundary vertices are labeled 1..N and joined in
a circle by edges tagged "boundary"; those edges close the disk so that
face walks and rotations are total, but they act as walls for distances.

An edge is its index i: the edges are two flat lists, `origins`, the
origin vertex of every dart, and `tags`, one per edge, and no edge object
exists.  A web's face table is one walk over its darts that records each
face's darts, wall contact and dual neighbours.  A face is its number in
that table: `faces`, `exterior_face`, `boundary_face` and `web_distance`
all speak in face numbers.  `validate_3web` checks each condition once,
returns the tuple of every one a web breaks, and reads the same records;
on a web that breaks no local condition, the dual walk from B_0 that
`tableau_of_web` reads next stands in for the connectivity walk.  A web
finds its boundary circle, the dart from each k to k+1, once
(`PlanarWeb._circle`) for `validate_3web`, the boundary faces and
`canonical`, which builds a web's form in one breadth-first walk from
the boundary; `mdiagram._resolve` and `rotate` hand the webs they build
their circle and walls, and `reflect` its walls.  A canonical form
compares and hashes as the nested tuple it is built from; its bytes and
its sha256 digest are computed on first read.

Drawing coordinates are exact: ints, or `Fraction`s where a layout is
computed or read from JSON.  `fractions` is imported on first use, in
`_rational` and `mdiagram._layout`, so building and checking webs never
loads it.
"""

from __future__ import annotations

import sys
from collections.abc import Callable
from functools import cached_property, partial
from numbers import Rational

from ._value import Value
from .errors import UnknownFace, _integer

BOUNDARY = "boundary"
ARC = "arc"
INTERSECTION = "intersection"
TAGS = (ARC, BOUNDARY, INTERSECTION)


class PlanarWeb(Value, eq=False):
    _fields = ("n_boundary", "origins", "tags", "rotation", "_draw")

    def __init__(
        self,
        n_boundary: int,
        origins: list[int],
        tags: list[str],
        rotation: dict[int, tuple[int, ...]],
        _draw: Callable[[], dict[int, tuple[Rational, Rational]] | None] | None = None,
    ) -> None:
        self.n_boundary = n_boundary
        # the origin of every dart: the tail of edge i at 2i, its head at 2i+1
        self.origins = origins
        # one tag per edge: ARC, BOUNDARY or INTERSECTION
        self.tags = tags
        self.rotation = rotation
        # computes the drawing coordinates when `layout` is first read
        self._draw = _draw

    @cached_property
    def layout(self) -> dict[int, tuple[Rational, Rational]] | None:
        """Drawing coordinates per vertex, or None; computed on first read."""
        return self._draw() if self._draw else None

    @cached_property
    def _walls(self) -> list[bool]:
        """Per edge, whether it is a boundary edge (a wall for distances)."""
        return [t == BOUNDARY for t in self.tags]

    @cached_property
    def _circle(self) -> list[int | None]:
        """Per boundary vertex k, the first dart at k, in rotation order, of a
        boundary edge to k % N + 1, or None; entry 0 repeats N's, as B_0 is B_N."""
        n, origins, walls, rotation = self.n_boundary, self.origins, self._walls, self.rotation
        circle: list[int | None] = [None] * (n + 1)
        for k in range(1, n + 1):
            after = k % n + 1
            for d in rotation.get(k, ()):
                if walls[d >> 1] and origins[d ^ 1] == after:
                    circle[k] = d
                    break
        circle[0] = circle[n]
        return circle

    @cached_property
    def face_table(self) -> FaceTable:
        """Faces and dual distances, built on first use and kept with this web."""
        return FaceTable(self)

    def to_dict(self) -> dict:
        origins = self.origins
        d = {
            "n": self.n_boundary,
            "internal": len(self.rotation) - self.n_boundary,
            "edges": [
                {"from": tail, "to": head, "tag": tag}
                for tail, head, tag in zip(origins[0::2], origins[1::2], self.tags)
            ],
            "rotation": {str(v): list(ds) for v, ds in sorted(self.rotation.items())},
        }
        if self.layout:
            d["layout"] = {
                str(v): [str(x), str(y)] for v, (x, y) in sorted(self.layout.items())
            }
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "PlanarWeb":
        """The web of a JSON form, whose rotation system must be a map.

        `n` is an integer of at least 1, every endpoint and dart is an
        integer, every tag is one of TAGS, and every rotation and layout
        key is an integer written as `str` writes it.  Every dart is
        listed once, at its own origin, every boundary vertex is present,
        and a layout places exactly the vertices of the rotation.  Webs
        built in the package skip this check.
        """
        n = _integer("n", d["n"])
        if n < 1:
            raise ValueError(f"n must be at least 1, got {n}")
        origins: list[int] = []
        tags: list[str] = []
        for e in d["edges"]:
            origins.append(_integer("edge endpoint", e["from"]))
            origins.append(_integer("edge endpoint", e["to"]))
            tag = e["tag"]
            if tag not in TAGS:
                raise ValueError(f"unknown edge tag {tag!r}")
            tags.append(tag)
        rotation = {
            _key("rotation", v): tuple(_integer("dart", dart) for dart in ds)
            for v, ds in d["rotation"].items()
        }
        layout = None
        if "layout" in d:
            layout = {
                _key("layout", v): (_rational("x", x), _rational("y", y))
                for v, (x, y) in d["layout"].items()
            }
        seen: dict[int, int] = {}
        for v, darts in rotation.items():
            for dart in darts:
                if dart in seen:
                    raise ValueError(f"dart {dart} listed twice")
                seen[dart] = v
        if sorted(seen) != list(range(len(origins))):
            raise ValueError("rotation darts do not cover the edge list")
        for dart, v in seen.items():
            if origins[dart] != v:
                raise ValueError(f"dart {dart} listed at {v}, not its endpoint")
        for k in range(1, n + 1):
            if k not in rotation:
                raise ValueError(f"boundary vertex {k} missing")
        if layout is not None and layout.keys() != rotation.keys():
            v = min(layout.keys() ^ rotation.keys())
            what = "missing" if v in rotation else "is not a vertex of the web"
            raise ValueError(f"layout vertex {v} {what}")
        # a partial rather than a lambda, so that the web still pickles
        return cls(n, origins, tags, rotation, None if layout is None else partial(dict, layout))


def _rational(what: str, x) -> Rational:
    """x as a Fraction, if it is an int and not a bool, or a string whose
    exponent is at most sys.get_int_max_str_digits() in magnitude; the
    "1e1000000000" that Fraction reads by building 10**1000000000 is a
    ValueError instead."""
    if isinstance(x, bool) or not isinstance(x, (str, int)):
        raise TypeError(f"{what} must be a string or an integer, got {type(x).__name__}")
    limit = sys.get_int_max_str_digits()
    if isinstance(x, str) and abs(int(x.lower().partition("e")[2] or 0)) > limit:
        raise ValueError(f"{what} {x!r} has an exponent of more than {limit}")
    from fractions import Fraction

    return Fraction(x)


def _key(what: str, key) -> int:
    """The vertex a JSON key names; "04", " +1" or "٤" would alias "4" and "1"."""
    v = int(key)
    if str(v) != key:
        raise ValueError(f"{what} key {key!r} must be written {str(v)!r}")
    return v


class FaceTable:
    """The faces of one web and its dual graph, from one walk.

    A face is the orbit of darts met by walking with the face on the left:
    after dart d comes the dart before d's twin in the rotation at the
    twin's origin.  Faces are numbered in order of their smallest dart;
    `orbits` lists each face's darts in walk order and `face_of` names
    each dart's face.  One pass over the edges records, per face, whether
    it touches a wall (`walled`) and its dual neighbours across non-boundary
    edges (`adjacency`); the exterior is the first face all of whose edges
    are walls.  `boundary[k]` is the side of the web's boundary-circle dart
    from k to k+1 (`PlanarWeb._circle`) that is not the exterior, or None.
    Breadth-first distances are kept per source face once computed.
    """

    def __init__(self, w: PlanarWeb) -> None:
        origins, wall = w.origins, w._walls
        # the face successor of every dart: the dart before its twin in the
        # twin's rotation; a 3-web's rotations are all 3-tuples
        nxt = [0] * len(origins)
        for rot in w.rotation.values():
            if len(rot) == 3:
                a, b, c = rot
                nxt[a ^ 1], nxt[b ^ 1], nxt[c ^ 1] = c, a, b
                continue
            before = rot[-1]
            for d in rot:
                nxt[d ^ 1] = before
                before = d
        face_of = [-1] * len(origins)
        orbits: list[list[int]] = []
        for d0, seen in enumerate(face_of):
            if seen < 0:
                fi = len(orbits)
                face_of[d0] = fi
                orbit = [d0]
                d = nxt[d0]
                while d != d0:
                    face_of[d] = fi
                    orbit.append(d)
                    d = nxt[d]
                orbits.append(orbit)
        self.orbits = orbits
        self.face_of = face_of
        walled = [False] * len(orbits)
        webbed = walled[:]
        adjacency: list[list[int]] = [[] for _ in orbits]
        for a, b, is_wall in zip(face_of[0::2], face_of[1::2], wall):
            if is_wall:
                walled[a] = walled[b] = True
            else:
                webbed[a] = webbed[b] = True
                adjacency[a].append(b)
                adjacency[b].append(a)
        self.walled = walled
        self.adjacency = adjacency
        self.exterior = ext = next((f for f, x in enumerate(walled) if x and not webbed[f]), None)
        boundary: list[int | None] = []
        for d in w._circle:
            a, b = (ext, ext) if d is None else (face_of[d], face_of[d ^ 1])
            boundary.append(a if a != ext else b if b != ext else None)
        self.boundary = tuple(boundary)
        self._distances: dict[int, list[int | None]] = {}

    def distances(self, source: int) -> list[int | None]:
        """Dual distance from face `source` to every face (None if unreachable)."""
        dist = self._distances.get(source)
        if dist is None:
            adjacency = self.adjacency
            dist = [None] * len(adjacency)
            dist[source] = 0
            frontier = [source]
            step = 0
            while frontier:
                step += 1
                nxt = []
                for f in frontier:
                    for g in adjacency[f]:
                        if dist[g] is None:
                            dist[g] = step
                            nxt.append(g)
                frontier = nxt
            self._distances[source] = dist
        return dist


def faces(w: PlanarWeb) -> range:
    """Every face, as its number: faces are numbered in order of their smallest dart."""
    return range(len(w.face_table.orbits))


def exterior_face(w: PlanarWeb) -> int:
    """The number of the face outside the boundary circle, all of whose darts
    are boundary darts."""
    return _with_exterior(w).exterior


def boundary_face(w: PlanarWeb, k: int) -> int:
    """The number of B_k, the inner face touching boundary vertices k and
    k+1 (B_0 = B_N)."""
    n = w.n_boundary
    if not (0 <= k <= n):
        raise UnknownFace(f"boundary face index {k} outside 0..{n}")
    f = _with_exterior(w).boundary[k]
    if f is None:
        pair = {k, k + 1} if 1 <= k < n else {n, 1}
        raise UnknownFace(f"no boundary edge between {sorted(pair)}")
    return f


def _with_exterior(w: PlanarWeb) -> FaceTable:
    """The face table of a web with an exterior face; UnknownFace says why there is none."""
    table = w.face_table
    if table.exterior is None:
        if None in w._circle:
            why = "boundary circle is broken"
        elif len(w.rotation) - len(w.tags) + len(table.orbits) != 2:
            why = "rotation system is not planar"
        else:
            why = "web has edges on both sides of the boundary circle"
        raise UnknownFace(f"no exterior face; {why}")
    return table


def web_distance(w: PlanarWeb, x: int, y: int) -> int:
    """Fewest non-boundary edges separating faces number x and y in the dual."""
    table = w.face_table
    count = len(table.orbits)
    if not (0 <= x < count and 0 <= y < count):
        raise UnknownFace("argument is not a face of this web")
    d = table.distances(x)[y]
    if d is None:
        raise UnknownFace("faces lie in different dual components")
    return d


def validate_3web(w: PlanarWeb) -> tuple[str, ...]:
    """Every violated defining condition, each named, in order; an empty
    tuple means the web is valid.  Violations are returned, not raised.

    The boundary edges must be exactly the circle 1 -> 2 -> ... -> N -> 1:
    each k has one to k+1 (`PlanarWeb._circle`), and there are N of them.
    A connected web must also lie in the plane: its rotation system then
    has V - E + F = 2.  The face count, and each face's size and wall
    contact for the short-face check, are read off the face table.  A web
    must also lie on one side of its circle, so that the other side is the
    exterior face; a web with edges on both sides is named as such.

    Once every vertex, wall and circle test passes, a face all of whose
    edges are walls is one whole side of the circle, and the dual walk from
    B_0, which `tableau_of_web` reads next, reaches every face but it
    exactly when the web is connected and lies on the other side: the walk
    then stands in for the vertex walk.  A connected web whose walk failed
    and that breaks nothing else has edges on both sides of the circle.
    """
    bad: list[str] = []
    n = w.n_boundary
    origins, walls, rotation, circle = w.origins, w._walls, w.rotation, w._circle
    if n % 3 != 0 or n == 0:
        bad.append(f"boundary count {n} is not a positive multiple of 3")
    for k in range(1, n + 1):
        degree = 0
        for d in rotation.get(k, ()):
            if not walls[d >> 1]:
                degree += 1
                dart = d
        if degree != 1:
            bad.append(f"boundary vertex {k} has web-degree {degree}")
        elif dart & 1:
            bad.append(f"boundary vertex {k} is not a source")
        if circle[k] is None:
            bad.append(f"boundary circle has no edge from {k} to {k % n + 1}")
    if (count := walls.count(True)) != n:
        bad.append(f"{count} boundary edges, not {n}")
    for v, rot in rotation.items():
        if 1 <= v <= n:
            continue
        # three web darts, all leaving (even) or all arriving (odd)
        if len(rot) != 3:
            bad.append(f"internal vertex {v} has degree {len(rot)}")
        elif walls[rot[0] >> 1] or walls[rot[1] >> 1] or walls[rot[2] >> 1]:
            bad.append(f"internal vertex {v} touches a boundary edge")
        elif not rot[0] & 1 == rot[1] & 1 == rot[2] & 1:
            bad.append(f"internal vertex {v} is neither a source nor a sink")
    walked = False
    if not bad:
        table = w.face_table
        # the exterior has no web edge, so B_0 never reaches it
        walked = table.exterior is not None and table.distances(table.boundary[0]).count(None) == 1
    if not walked:
        stack = [min(rotation)] if rotation else []
        seen = set(stack)
        while stack:
            for d in rotation[stack.pop()]:
                u = origins[d ^ 1]
                if u not in seen:
                    seen.add(u)
                    stack.append(u)
        if seen != rotation.keys():
            bad.append("web is not connected")
            return tuple(bad)
    table = w.face_table
    if (euler := len(rotation) - len(walls) + len(table.orbits)) != 2:
        bad.append(f"rotation system is not planar: V - E + F = {euler}, not 2")
    else:
        for orbit, walled in zip(table.orbits, table.walled):
            if len(orbit) < 6 and not walled:
                bad.append(f"internal face with {len(orbit)} sides: darts {sorted(orbit)}")
    if not (bad or walked):
        bad.append("web has edges on both sides of the boundary circle")
    return tuple(bad)


class CanonicalWebForm(Value):
    """A canonical form; it compares and hashes as its nested tuple `key`.

    `repr` is injective on tuples of ints and the strings 'b' and 'w', so
    two forms are equal exactly when their serializations are.
    """

    _fields = ("key",)

    def __init__(self, key: tuple) -> None:
        self.key = key

    @cached_property
    def serialization(self) -> bytes:
        """The bytes of repr(key), computed on first read."""
        return repr(self.key).encode()

    @cached_property
    def digest(self) -> str:
        """The sha256 of the serialization, in hex, computed on first read."""
        import hashlib

        return hashlib.sha256(self.serialization).hexdigest()

    def __repr__(self) -> str:
        return f"CanonicalWebForm(serialization={self.serialization!r}, digest={self.digest!r})"


def canonical(w: PlanarWeb) -> CanonicalWebForm:
    """Byte-stable form equal for boundary-label-preserving isomorphic webs.

    One breadth-first walk names each vertex when it is first reached and
    writes its row, from its start dart, when it is visited.  A boundary
    vertex starts at its circle dart to the next (`PlanarWeb._circle`); any
    other vertex starts at the twin of the dart it was first reached by.
    A vertex's row is turned, and its darts' positions in it recorded, when
    the vertex is named.
    """
    n = w.n_boundary
    origins, walls, rotation, circle = w.origins, w._walls, w.rotation, w._circle
    if None in circle[1:]:
        k = circle.index(None, 1)
        raise ValueError(f"no boundary edge from {k} to {k % n + 1}")
    position = [0] * len(origins)
    order = list(range(1, n + 1))
    names = dict(zip(order, order))
    rows = {k: _row(rotation[k], circle[k], position) for k in order}
    entries = []
    # order grows while it is walked, so this is a breadth-first visit
    for v in order:
        row = []
        for d in rows[v]:
            e = d ^ 1
            u = origins[e]
            name = names.get(u)
            if name is None:
                name = names[u] = len(names) + 1
                order.append(u)
                rows[u] = _row(rotation[u], e, position)
            # arc and intersection edges are interchangeable drawing artifacts,
            # so only the boundary/web distinction is serialized
            p = position[e]
            row.append((name, "b", 0, p) if walls[d >> 1] else (name, "w", d % 2 + 1, p))
        entries.append((names[v], tuple(row)))
    if len(names) != len(rotation):
        raise ValueError("web is not connected; canonical form undefined")
    return CanonicalWebForm((n, tuple(entries)))


def _row(rot: tuple[int, ...], first: int, position: list[int]) -> tuple[int, ...]:
    """rot turned to start at dart first; each dart's index in it goes to position."""
    if i := rot.index(first):
        rot = rot[i:] + rot[:i]
    if len(rot) == 3:  # position[first] is still 0, as no other row holds it
        position[rot[1]], position[rot[2]] = 1, 2
    else:
        for i, d in enumerate(rot):
            position[d] = i
    return rot


def rotate(w: PlanarWeb) -> PlanarWeb:
    """Relabel boundary vertices k to k-1 (label 1 wraps to N); tags and
    walls are shared, and vertex k's circle dart becomes vertex k-1's."""
    n = w.n_boundary
    # only 1..N move: vertices read from JSON may be 0 or negative
    get = {k: k - 1 if k > 1 else n for k in range(1, n + 1)}.get
    origins = [get(v, v) for v in w.origins]
    rotation = {get(v, v): rot for v, rot in w.rotation.items()}
    r = PlanarWeb(n, origins, w.tags, rotation)
    c = w._circle
    r._walls, r._circle = w._walls, [*c[1:], c[1]] if n else c
    return r


def reflect(w: PlanarWeb) -> PlanarWeb:
    """Mirror: relabel k to N+1-k and reverse every rotation order; tags and
    walls are shared, but the circle darts sit at the other edge ends."""
    n = w.n_boundary
    get = {k: n + 1 - k for k in range(1, n + 1)}.get
    origins = [get(v, v) for v in w.origins]
    rotation = {get(v, v): rot[::-1] for v, rot in w.rotation.items()}
    r = PlanarWeb(n, origins, w.tags, rotation)
    r._walls = w._walls
    return r
