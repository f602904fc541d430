import json
from fractions import Fraction as F

import pytest

from webfold.errors import ConcurrentArcs, InvalidBoundaryDegrees, UnknownFace
from webfold.mdiagram import (
    FIRST,
    SECOND,
    Arc,
    BoundaryVertex,
    MDiagram,
    arc_distance,
    arcs_above,
    coherent_separators,
    crossings,
    epsilon,
    mirror_arc,
    mirror_label,
    reflected_face,
    resolve,
)
from webfold.oracle import enumerate_words
from webfold.planarweb import (
    boundary_face,
    canonical,
    exterior_face,
    faces,
    is_symmetrical,
    validate_3web,
    web_distance,
)
from webfold.tableaux import fold, from_word, is_rotationally_symmetric
from webfold.web3 import crossed_mdiagram, mdiagram_of_tableau
from webs import tripod


def bv(label, x):
    return BoundaryVertex(label, F(x))


def tripod_diagram():
    return MDiagram(
        (bv("1", 1), bv("2", 2), bv("3", 3)),
        (Arc("1", "2", FIRST), Arc("3", "2", SECOND)),
    )


def hex_diagram():
    # one crossing: (1,4) x (6,3); tangencies at sinks 3 and 4
    return MDiagram(
        tuple(bv(str(i), i) for i in range(1, 7)),
        (
            Arc("1", "4", FIRST),
            Arc("2", "3", FIRST),
            Arc("5", "4", SECOND),
            Arc("6", "3", SECOND),
        ),
    )


def mirrored_tripods():
    return MDiagram(
        (bv("3'", -3), bv("2'", -2), bv("1'", -1), bv("1", 1), bv("2", 2), bv("3", 3)),
        (
            Arc("1", "2", FIRST),
            Arc("3", "2", SECOND),
            Arc("1'", "2'", FIRST),
            Arc("3'", "2'", SECOND),
        ),
    )


def test_resolve_tripod_matches_hand_built_web():
    w = resolve(tripod_diagram())
    assert validate_3web(w).ok
    assert canonical(w).digest == canonical(tripod()).digest


def test_crossings_exclude_shared_endpoints():
    cs = crossings(hex_diagram())
    assert len(cs) == 1
    c = cs[0]
    assert {(c.arc_a.tail, c.arc_a.head), (c.arc_b.tail, c.arc_b.head)} == {
        ("1", "4"),
        ("6", "3"),
    }
    assert c.x == F(7, 2)


def test_hex_resolution_is_a_web_with_expected_distances():
    m = hex_diagram()
    w = resolve(m)
    assert validate_3web(w).ok
    assert len(w.rotation) - len(w.edges) + len(faces(w)) == 2
    d = [web_distance(w, boundary_face(w, 0), boundary_face(w, i)) for i in range(7)]
    assert d == [0, 1, 2, 2, 2, 1, 0]


def test_arcs_above_boundary_faces():
    m = hex_diagram()
    w = resolve(m)
    assert arcs_above(m, boundary_face(w, 0)) == frozenset()
    above1 = {(a.tail, a.head) for a in arcs_above(m, boundary_face(w, 1))}
    assert above1 == {("1", "4")}
    above4 = {(a.tail, a.head) for a in arcs_above(m, boundary_face(w, 4))}
    assert above4 == {("5", "4"), ("6", "3")}
    with pytest.raises(UnknownFace):
        arcs_above(m, exterior_face(w))
    with pytest.raises(UnknownFace):
        arc_distance(m, frozenset({999}), boundary_face(w, 0))


def test_coherent_separators_and_distance_bound():
    m = hex_diagram()
    w = resolve(m)
    b0, b1, b3, b4 = (boundary_face(w, k) for k in (0, 1, 3, 4))
    assert coherent_separators(m, b0, b3) == frozenset()
    assert web_distance(w, b0, b3) == arc_distance(m, b0, b3) == 2
    cs = coherent_separators(m, b1, b4)
    named = {frozenset((a.tail, a.head) for a in p) for p in cs}
    assert named == {
        frozenset({("1", "4"), ("6", "3")}),
        frozenset({("1", "4"), ("5", "4")}),
    }
    assert arc_distance(m, b1, b4) == 3
    assert web_distance(w, b1, b4) >= arc_distance(m, b1, b4) - len(cs)


def test_mirrored_tripods_are_symmetric():
    m = mirrored_tripods()
    w = resolve(m)
    assert validate_3web(w).ok
    assert is_symmetrical(w)
    b2, b4 = boundary_face(w, 2), boundary_face(w, 4)
    assert reflected_face(m, b4) == b2
    assert reflected_face(m, b2) == b4
    assert epsilon(m, b2) == 0 and epsilon(m, b4) == 0


def test_mirror_labels():
    assert mirror_label("3") == "3'"
    assert mirror_label("3'") == "3"
    assert mirror_label("0") == "0"
    a = Arc("2", "1'", SECOND, crossed=True)
    assert mirror_arc(a) == Arc("2'", "1", SECOND, crossed=True)


def test_between_vertical_pair_uses_exactly_one_side():
    m = hex_diagram()
    w = resolve(m)
    a, b = Arc("1", "4", FIRST), Arc("2", "3", FIRST)

    def between(face):
        above = arcs_above(m, face)
        return (a in above) != (b in above)

    assert between(boundary_face(w, 1))
    assert not between(boundary_face(w, 2))


def test_concurrent_arcs_detected():
    conc = MDiagram(
        (bv("a", -4), bv("b", -2), bv("c", -1), bv("d", 1), bv("e", 2), bv("f", 4)),
        (Arc("b", "e"), Arc("c", "f"), Arc("a", "d")),
    )
    with pytest.raises(ConcurrentArcs):
        crossings(conc)


def test_bad_boundary_degrees():
    m = MDiagram(
        (bv("1", 1), bv("2", 2), bv("3", 3)),
        (Arc("1", "2"), Arc("2", "3")),
    )
    with pytest.raises(InvalidBoundaryDegrees):
        resolve(m)


def test_diagram_validation():
    with pytest.raises(ValueError):
        MDiagram((bv("1", 1), bv("1", 2)), ())
    with pytest.raises(ValueError):
        MDiagram((bv("1", 2), bv("2", 1)), ())
    with pytest.raises(ValueError):
        MDiagram((bv("1", 1), bv("2", 2)), (Arc("1", "9"),))
    with pytest.raises(ValueError):
        MDiagram((bv("1", 1), bv("2", 2)), (Arc("1", "1"),))


def test_json_round_trip():
    m = hex_diagram()
    blob = json.dumps(m.to_dict())
    assert MDiagram.from_dict(json.loads(blob)) == m
    half = MDiagram((bv("1", F(1, 2)), bv("2", 2)), ())
    assert MDiagram.from_dict(json.loads(json.dumps(half.to_dict()))) == half


def test_resolution_bookkeeping():
    m = hex_diagram()
    res = m.resolution
    assert m.positions == {str(i): i for i in range(1, 7)}
    # 3 pairs resolve to an edge: two sinks, one crossing
    assert len(res.pair_edges) == 3
    for pair, e in res.pair_edges:
        assert res.toggles[e] == pair
        assert len(pair) == 2


def test_resolution_is_kept_per_diagram_object():
    m = hex_diagram()
    assert m.resolution is m.resolution
    assert resolve(m) is m.resolution.web
    assert m.resolution.face_arcs is m.resolution.face_arcs
    twin = hex_diagram()
    assert twin == m and twin is not m
    # equal diagrams share nothing: no cache outlives the diagram object
    assert twin.resolution is not m.resolution
    assert canonical(resolve(twin)) == canonical(resolve(m))


def test_crossing_abscissa_matches_circle_intersection():
    # semicircles over [0, 3] and [1, 5] meet at x = 5/3, y^2 = 20/9
    m = MDiagram(
        (bv("a", 0), bv("b", 1), bv("c", 3), bv("d", 5)),
        (Arc("a", "c"), Arc("b", "d")),
    )
    (c,) = crossings(m)
    assert c.x == F(5, 3)
    assert (c.x - F(3, 2)) ** 2 + F(20, 9) == F(3, 2) ** 2
    assert (c.x - 3) ** 2 + F(20, 9) == 2 ** 2


def test_resolution_depends_on_boundary_order_not_spacing():
    diagrams = []
    for n in range(1, 5):
        for word in enumerate_words((n, n, n)):
            t = from_word(word)
            diagrams.append((word, mdiagram_of_tableau(t)))
            if is_rotationally_symmetric(t):
                diagrams.append((f"crossed {word}", crossed_mdiagram(fold(t))))
    for name, m in diagrams:
        # strictly increasing, but neither evenly spaced nor integral
        boundary = tuple(
            BoundaryVertex(b.label, F(p * p, 3) + F(p % 3, 7))
            for p, b in enumerate(m.boundary, start=1)
        )
        moved = MDiagram(boundary, m.arcs)
        assert canonical(resolve(moved)) == canonical(resolve(m)), name
        assert validate_3web(resolve(moved)).ok, name
