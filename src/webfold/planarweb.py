"""Planar combinatorial maps on a disk, with faces and dual distances.

A web is stored as a rotation system: edge i owns darts 2i (at its tail)
and 2i+1 (at its head), and every vertex lists its darts in
counterclockwise order.  Boundary vertices are labeled 1..N and joined in
a circle by edges tagged "boundary"; those edges close the disk so that
face walks and rotations are total, but they act as walls for distances.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .errors import UnknownFace

BOUNDARY = "boundary"
ARC = "arc"
INTERSECTION = "intersection"


@dataclass(frozen=True)
class Edge:
    tail: int
    head: int
    tag: str = ARC


@dataclass(frozen=True, eq=False)
class PlanarWeb:
    n_boundary: int
    edges: tuple[Edge, ...]
    rotation: dict[int, tuple[int, ...]]
    layout: dict[int, tuple[Fraction, Fraction]] | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "edges", tuple(self.edges))
        seen: dict[int, int] = {}
        for v, darts in self.rotation.items():
            for d in darts:
                if d in seen:
                    raise ValueError(f"dart {d} listed twice")
                seen[d] = v
        if sorted(seen) != list(range(2 * len(self.edges))):
            raise ValueError("rotation darts do not cover the edge list")
        for d, v in seen.items():
            if self.origin(d) != v:
                raise ValueError(f"dart {d} listed at {v}, not its endpoint")
        for k in range(1, self.n_boundary + 1):
            if k not in self.rotation:
                raise ValueError(f"boundary vertex {k} missing")

    def origin(self, d: int) -> int:
        e = self.edges[d // 2]
        return e.tail if d % 2 == 0 else e.head

    def dart_edge(self, d: int) -> Edge:
        return self.edges[d // 2]

    @cached_property
    def face_table(self) -> FaceTable:
        """Faces and dual distances, built on first use and kept with this web."""
        return FaceTable(self)

    @property
    def vertices(self) -> list[int]:
        return sorted(self.rotation)

    @property
    def internal_count(self) -> int:
        return len(self.rotation) - self.n_boundary

    def to_dict(self) -> dict:
        d = {
            "n": self.n_boundary,
            "internal": self.internal_count,
            "edges": [
                {"from": e.tail, "to": e.head, "tag": e.tag} for e in self.edges
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
        edges = tuple(Edge(e["from"], e["to"], e["tag"]) for e in d["edges"])
        rotation = {int(v): tuple(ds) for v, ds in d["rotation"].items()}
        layout = None
        if "layout" in d:
            layout = {
                int(v): (Fraction(x), Fraction(y))
                for v, (x, y) in d["layout"].items()
            }
        return cls(d["n"], edges, rotation, layout)


class FaceTable:
    """The faces of one web and its dual graph.

    A face is the set of darts met by walking with the face on the left:
    after dart d comes the dart before d's twin in the rotation at the
    twin's origin.  Faces are listed in order of their smallest dart.
    Dual adjacency crosses only non-boundary edges, and breadth-first
    distances are kept per source face once computed.
    """

    def __init__(self, w: PlanarWeb) -> None:
        darts = 2 * len(w.edges)
        prev = [0] * darts
        for rot in w.rotation.values():
            for i, d in enumerate(rot):
                prev[d] = rot[i - 1]
        face_of = [-1] * darts
        faces: list[frozenset[int]] = []
        for d0 in range(darts):
            if face_of[d0] >= 0:
                continue
            orbit = []
            d = d0
            while face_of[d] < 0:
                face_of[d] = len(faces)
                orbit.append(d)
                d = prev[d ^ 1]
            faces.append(frozenset(orbit))
        wall = [e.tag == BOUNDARY for e in w.edges]
        self.faces = tuple(faces)
        self.face_of = face_of
        self.index = {f: i for i, f in enumerate(faces)}
        self.exterior = next(
            (i for i, f in enumerate(faces) if all(wall[d // 2] for d in f)), None
        )
        # the non-exterior side of the first boundary edge joining each pair
        inner_side: dict[frozenset[int], int] = {}
        self.adjacency: list[set[int]] = [set() for _ in faces]
        for i, e in enumerate(w.edges):
            a, b = face_of[2 * i], face_of[2 * i + 1]
            if not wall[i]:
                self.adjacency[a].add(b)
                self.adjacency[b].add(a)
                continue
            key = frozenset((e.tail, e.head))
            side = a if a != self.exterior else b
            if key not in inner_side and side != self.exterior:
                inner_side[key] = side
        n = w.n_boundary
        self.boundary = tuple(
            inner_side.get(frozenset((k, k + 1) if 1 <= k < n else (n, 1)))
            for k in range(n + 1)
        )
        self._distances: dict[int, list[int | None]] = {}

    def distances(self, source: int) -> list[int | None]:
        """Dual distance from face `source` to every face (None if unreachable)."""
        dist = self._distances.get(source)
        if dist is None:
            dist = [None] * len(self.faces)
            dist[source] = 0
            frontier = [source]
            step = 0
            while frontier:
                step += 1
                nxt = []
                for f in frontier:
                    for g in self.adjacency[f]:
                        if dist[g] is None:
                            dist[g] = step
                            nxt.append(g)
                frontier = nxt
            self._distances[source] = dist
        return dist


def faces(w: PlanarWeb) -> list[frozenset[int]]:
    """Every face, as its dart set, in order of each face's smallest dart."""
    return list(w.face_table.faces)


def exterior_face(w: PlanarWeb) -> frozenset[int]:
    """The face outside the boundary circle: all its darts are boundary darts."""
    table = w.face_table
    if table.exterior is None:
        raise UnknownFace("no exterior face; boundary circle is broken")
    return table.faces[table.exterior]


def boundary_face(w: PlanarWeb, k: int) -> frozenset[int]:
    """B_k, the inner face touching boundary vertices k and k+1 (B_0 = B_N)."""
    n = w.n_boundary
    if not (0 <= k <= n):
        raise UnknownFace(f"boundary face index {k} outside 0..{n}")
    table = w.face_table
    if table.exterior is None:
        raise UnknownFace("no exterior face; boundary circle is broken")
    f = table.boundary[k]
    if f is None:
        pair = {k, k + 1} if 1 <= k < n else {n, 1}
        raise UnknownFace(f"no boundary edge between {sorted(pair)}")
    return table.faces[f]


def web_distance(w: PlanarWeb, x: frozenset[int], y: frozenset[int]) -> int:
    """Fewest non-boundary edges separating faces x and y in the dual."""
    table = w.face_table
    i, j = table.index.get(x), table.index.get(y)
    if i is None or j is None:
        raise UnknownFace("argument is not a face of this web")
    d = table.distances(i)[j]
    if d is None:
        raise UnknownFace("faces lie in different dual components")
    return d


@dataclass(frozen=True)
class WebReport:
    ok: bool
    violations: tuple[str, ...]


def validate_3web(w: PlanarWeb) -> WebReport:
    """Check the defining conditions; violations are reported, not raised."""
    bad: list[str] = []
    n = w.n_boundary
    if n % 3 != 0 or n == 0:
        bad.append(f"boundary count {n} is not a positive multiple of 3")
    for k in range(1, n + 1):
        darts = [d for d in w.rotation.get(k, ()) if w.dart_edge(d).tag != BOUNDARY]
        if len(darts) != 1:
            bad.append(f"boundary vertex {k} has web-degree {len(darts)}")
        elif darts[0] % 2 != 0:
            bad.append(f"boundary vertex {k} is not a source")
    for v, rot in w.rotation.items():
        if 1 <= v <= n:
            continue
        web_darts = [d for d in rot if w.dart_edge(d).tag != BOUNDARY]
        if len(rot) != 3 or len(web_darts) != 3:
            bad.append(f"internal vertex {v} has degree {len(rot)}")
            continue
        outs = {d % 2 == 0 for d in web_darts}
        if len(outs) != 1:
            bad.append(f"internal vertex {v} is neither a source nor a sink")
    reachable = set()
    stack = [min(w.rotation)] if w.rotation else []
    while stack:
        v = stack.pop()
        if v in reachable:
            continue
        reachable.add(v)
        for d in w.rotation[v]:
            stack.append(w.origin(d ^ 1))
    if reachable != set(w.rotation):
        bad.append("web is not connected")
    else:
        for f in faces(w):
            if any(w.dart_edge(d).tag == BOUNDARY for d in f):
                continue
            if len(f) < 6:
                bad.append(
                    f"internal face with {len(f)} sides: darts {sorted(f)}"
                )
    return WebReport(not bad, tuple(bad))


@dataclass(frozen=True)
class CanonicalWebForm:
    serialization: bytes
    digest: str


def _canonical_order(w: PlanarWeb) -> tuple[list[int], dict[int, int], dict[int, int]]:
    """Visit order, canonical names, and start darts for every vertex."""
    n = w.n_boundary
    names = {k: k for k in range(1, n + 1)}
    start: dict[int, int] = {}
    for k in range(1, n + 1):
        nxt = k + 1 if k < n else 1
        for d in w.rotation[k]:
            e = w.dart_edge(d)
            if e.tag == BOUNDARY and {e.tail, e.head} == {k, nxt}:
                start[k] = d
                break
        else:
            raise ValueError(f"no boundary edge from {k} to {nxt}")
    order = list(range(1, n + 1))
    queue = list(order)
    while queue:
        v = queue.pop(0)
        rot = w.rotation[v]
        i = rot.index(start[v])
        for d in rot[i:] + rot[:i]:
            u = w.origin(d ^ 1)
            if u not in names:
                names[u] = len(names) + 1
                start[u] = d ^ 1
                order.append(u)
                queue.append(u)
    if len(names) != len(w.rotation):
        raise ValueError("web is not connected; canonical form undefined")
    return order, names, start


def canonical(w: PlanarWeb) -> CanonicalWebForm:
    """Byte-stable form equal for boundary-label-preserving isomorphic webs."""
    order, names, start = _canonical_order(w)
    rotated: dict[int, tuple[int, ...]] = {}
    for v in order:
        rot = w.rotation[v]
        i = rot.index(start[v])
        rotated[v] = rot[i:] + rot[:i]
    position = {d: i for v in order for i, d in enumerate(rotated[v])}
    entries = []
    for v in order:
        row = []
        for d in rotated[v]:
            e = w.dart_edge(d)
            # arc and intersection edges are interchangeable drawing artifacts,
            # so only the boundary/web distinction is serialized
            kind = "b" if e.tag == BOUNDARY else "w"
            out = 0 if e.tag == BOUNDARY else (1 if d % 2 == 0 else 2)
            row.append((names[w.origin(d ^ 1)], kind, out, position[d ^ 1]))
        entries.append((names[v], tuple(row)))
    blob = repr((w.n_boundary, tuple(entries))).encode()
    return CanonicalWebForm(blob, hashlib.sha256(blob).hexdigest())


def rotate(w: PlanarWeb) -> PlanarWeb:
    """Relabel boundary vertices k to k-1 (label 1 wraps to N)."""
    n = w.n_boundary

    def m(v: int) -> int:
        if 1 <= v <= n:
            return v - 1 if v > 1 else n
        return v

    edges = tuple(Edge(m(e.tail), m(e.head), e.tag) for e in w.edges)
    rotation = {m(v): rot for v, rot in w.rotation.items()}
    return PlanarWeb(n, edges, rotation)


def reflect(w: PlanarWeb) -> PlanarWeb:
    """Mirror: relabel k to N+1-k and reverse every rotation order."""
    n = w.n_boundary

    def m(v: int) -> int:
        return n + 1 - v if 1 <= v <= n else v

    edges = tuple(Edge(m(e.tail), m(e.head), e.tag) for e in w.edges)
    rotation = {m(v): tuple(reversed(rot)) for v, rot in w.rotation.items()}
    return PlanarWeb(n, edges, rotation)


def is_symmetrical(w: PlanarWeb) -> bool:
    return canonical(reflect(w)) == canonical(w)
