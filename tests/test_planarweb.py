import pytest

from webfold.errors import UnknownFace
from webfold.planarweb import (
    ARC,
    BOUNDARY,
    Edge,
    PlanarWeb,
    boundary_face,
    canonical,
    exterior_face,
    faces,
    is_symmetrical,
    reflect,
    rotate,
    validate_3web,
    web_distance,
)
from webs import checked_web, tripod


def square_web() -> PlanarWeb:
    # Four internal square corners (two sources, two sinks) create a
    # 4-sided internal face; stems attach everything to six boundary
    # vertices.  Degrees and orientations are all legal.
    edges = (
        Edge(1, 7), Edge(2, 8), Edge(3, 8), Edge(10, 8),
        Edge(10, 7), Edge(10, 9), Edge(4, 9), Edge(11, 9),
        Edge(11, 7), Edge(11, 12), Edge(5, 12), Edge(6, 12),
        Edge(1, 2, BOUNDARY), Edge(2, 3, BOUNDARY), Edge(3, 4, BOUNDARY),
        Edge(4, 5, BOUNDARY), Edge(5, 6, BOUNDARY), Edge(6, 1, BOUNDARY),
    )
    rotation = {
        1: (24, 0, 35),
        2: (26, 2, 25),
        3: (28, 4, 27),
        4: (30, 12, 29),
        5: (32, 20, 31),
        6: (34, 22, 33),
        7: (9, 17, 1),
        8: (5, 7, 3),
        9: (13, 15, 11),
        10: (6, 10, 8),
        11: (14, 18, 16),
        12: (19, 21, 23),
    }
    return checked_web(6, edges, rotation)


def test_tripod_is_valid():
    report = validate_3web(tripod())
    assert report.ok
    assert report.violations == ()


def test_tripod_faces_and_euler():
    w = tripod()
    assert len(faces(w)) == 4
    assert len(w.rotation) - len(w.edges) + len(faces(w)) == 2
    ext = exterior_face(w)
    assert all(w.dart_edge(d).tag == BOUNDARY for d in ext)


def test_tripod_distances():
    w = tripod()
    b0 = boundary_face(w, 0)
    assert boundary_face(w, 3) == b0
    assert web_distance(w, b0, b0) == 0
    assert web_distance(w, b0, boundary_face(w, 1)) == 1
    assert web_distance(w, b0, boundary_face(w, 2)) == 1


def test_unknown_faces():
    w = tripod()
    with pytest.raises(UnknownFace):
        boundary_face(w, 7)
    with pytest.raises(UnknownFace):
        web_distance(w, frozenset({0, 1}), boundary_face(w, 0))


def test_square_web_is_rejected():
    report = validate_3web(square_web())
    assert not report.ok
    assert any("4 sides" in v for v in report.violations)
    w = square_web()
    assert len(w.rotation) - len(w.edges) + len(faces(w)) == 2


def flip_edge(w: PlanarWeb, i: int) -> PlanarWeb:
    e = w.edges[i]
    edges = w.edges[:i] + (Edge(e.head, e.tail, e.tag),) + w.edges[i + 1:]
    swap = {2 * i: 2 * i + 1, 2 * i + 1: 2 * i}
    rotation = {
        v: tuple(swap.get(d, d) for d in rot) for v, rot in w.rotation.items()
    }
    return checked_web(w.n_boundary, edges, rotation)


def test_degree_violations_reported():
    report = validate_3web(flip_edge(tripod(), 0))
    assert not report.ok
    assert any("not a source" in v for v in report.violations)
    assert any("neither" in v for v in report.violations)


def test_canonical_is_stable():
    a = canonical(tripod())
    b = canonical(tripod())
    assert a == b
    assert a.digest == a.digest.lower()
    assert len(a.digest) == 64


def test_canonical_sees_orientation():
    w = tripod()
    assert canonical(flip_edge(w, 0)) != canonical(w)


def test_rotate_order_three():
    w = tripod()
    out = w
    for _ in range(3):
        out = rotate(out)
    assert canonical(out) == canonical(w)


def test_reflect_involution():
    w = square_web()
    assert canonical(reflect(reflect(w))) == canonical(w)


def test_tripod_symmetrical():
    assert is_symmetrical(tripod())


def test_json_round_trip():
    w = square_web()
    again = PlanarWeb.from_dict(w.to_dict())
    assert canonical(again) == canonical(w)
