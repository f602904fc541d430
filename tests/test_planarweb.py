import hashlib

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
from webs import (
    broken_webs,
    checked_web,
    golden_webs,
    open_circle_web,
    tripod,
    twisted_web,
    walled_stem_web,
)

# sha256 over the repr of validate_3web(w).violations for each web of
# broken_webs(), one per line, and the number of webs
BROKEN_VIOLATIONS_SHA256 = "b7e4194f5c447ed21b6ce94b6ace901ad2e343186552d71e1d45a9b7064f4aa0"
BROKEN_WEB_COUNT = 2036

# sha256 over serialization + digest of the canonical forms of golden_webs(),
# in order, and the repr of the tripod's form
GOLDEN_FORMS_SHA256 = "ca273287400d653171b327efad7df71080598f8acc71c1655142869c0794b8de"
TRIPOD_FORM_REPR = (
    "CanonicalWebForm(serialization=b\"(3, ((1, ((2, 'b', 0, 2), (4, 'w', 1, 0), "
    "(3, 'b', 0, 0))), (2, ((3, 'b', 0, 2), (4, 'w', 1, 1), (1, 'b', 0, 0))), "
    "(3, ((1, 'b', 0, 2), (4, 'w', 1, 2), (2, 'b', 0, 0))), "
    "(4, ((1, 'w', 2, 1), (2, 'w', 2, 1), (3, 'w', 2, 1)))))\", "
    "digest='7520e7813055ce64f61df3ece8784b7ed711b172146d19c6fc3583349b2a4a4a')"
)


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
    assert faces(w) == range(4)
    assert len(w.rotation) - len(w.edges) + len(faces(w)) == 2
    ext = exterior_face(w)
    assert all(w.edges[d // 2].tag == BOUNDARY for d in w.face_table.orbits[ext])


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
    for bad in (-1, 4):
        with pytest.raises(UnknownFace, match="not a face of this web"):
            web_distance(w, bad, boundary_face(w, 0))


def test_square_web_is_rejected():
    report = validate_3web(square_web())
    assert not report.ok
    assert any("4 sides" in v for v in report.violations)
    w = square_web()
    assert len(w.rotation) - len(w.edges) + len(faces(w)) == 2


def test_non_planar_rotation_is_rejected():
    w = PlanarWeb.from_dict(twisted_web())
    assert len(w.rotation) - len(w.edges) + len(faces(w)) == 0
    report = validate_3web(w)
    assert not report.ok
    assert report.violations == ("rotation system is not planar: V - E + F = 0, not 2",)


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


def test_internal_vertex_on_a_wall_is_named():
    report = validate_3web(PlanarWeb.from_dict(walled_stem_web()))
    assert report.violations == (
        "boundary vertex 2 has web-degree 0",
        "7 boundary edges, not 6",
        "internal vertex 7 touches a boundary edge",
    )


def test_open_boundary_circle_is_named():
    # this web used to pass validation, and reading it raised UnknownFace
    report = validate_3web(PlanarWeb.from_dict(open_circle_web()))
    assert report.violations == (
        "boundary circle has no edge from 6 to 1",
        "5 boundary edges, not 6",
    )


def test_broken_web_violations_are_pinned():
    rows = [validate_3web(w).violations for _, w in broken_webs()]
    assert len(rows) == BROKEN_WEB_COUNT
    pinned = hashlib.sha256("\n".join(map(repr, rows)).encode()).hexdigest()
    assert pinned == BROKEN_VIOLATIONS_SHA256


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


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda d: d["rotation"].update({"5": []}), "web is not connected; canonical form undefined"),
        (lambda d: d["edges"][3].update(tag=ARC), "no boundary edge from 1 to 2"),
    ],
)
def test_canonical_error_paths(edit, message):
    d = tripod().to_dict()
    assert d["edges"][3] == {"from": 1, "to": 2, "tag": BOUNDARY}
    edit(d)
    w = PlanarWeb.from_dict(d)
    with pytest.raises(ValueError) as info:
        canonical(w)
    assert str(info.value) == message


def test_canonical_bytes_are_pinned():
    forms = [canonical(w) for w in golden_webs()]
    pinned = hashlib.sha256()
    for f in forms:
        pinned.update(f.serialization + f.digest.encode())
    assert pinned.hexdigest() == GOLDEN_FORMS_SHA256
    assert repr(canonical(tripod())) == TRIPOD_FORM_REPR
    # neighbours in golden_webs(): a web, its rotation, its reflection, its
    # JSON round trip (equal to the web), then the next web
    pairs = [(a, b) for k in range(1, 5) for a, b in zip(forms, forms[k:])]
    assert any(a == b for a, b in pairs) and any(a != b for a, b in pairs)
    for a, b in pairs:
        assert (a == b) == (a.serialization == b.serialization)
        if a == b:
            assert hash(a) == hash(b)
