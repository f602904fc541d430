import hashlib
import json
import random
import time
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from webfold import oracle
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
from webfold.render import svg_of_mdiagram
from webfold.tableaux import fold, from_word, is_rotationally_symmetric
from webfold.web3 import crossed_mdiagram, mdiagram_of_tableau
from webs import tripod

ODD_FOLD = "111232323"


def bv(label, x):
    return BoundaryVertex(label, F(x))


def tripod_diagram():
    return MDiagram(
        (bv("1", 1), bv("2", 2), bv("3", 3)),
        (Arc(1, 2, FIRST), Arc(3, 2, SECOND)),
    )


def hex_diagram():
    # one crossing: (1,4) x (6,3); tangencies at sinks 3 and 4
    return MDiagram(
        tuple(bv(str(i), i) for i in range(1, 7)),
        (
            Arc(1, 4, FIRST),
            Arc(2, 3, FIRST),
            Arc(5, 4, SECOND),
            Arc(6, 3, SECOND),
        ),
    )


def mirrored_tripods():
    return MDiagram(
        (bv("3'", -3), bv("2'", -2), bv("1'", -1), bv("1", 1), bv("2", 2), bv("3", 3)),
        (
            # 1 -> 2, 3 -> 2, 1' -> 2' and 3' -> 2'
            Arc(4, 5, FIRST),
            Arc(6, 5, SECOND),
            Arc(3, 2, FIRST),
            Arc(1, 2, SECOND),
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
        (1, 4),
        (6, 3),
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
    assert above1 == {(1, 4)}
    above4 = {(a.tail, a.head) for a in arcs_above(m, boundary_face(w, 4))}
    assert above4 == {(5, 4), (6, 3)}
    with pytest.raises(UnknownFace):
        arcs_above(m, exterior_face(w))
    for bad in (-1, len(faces(w))):
        with pytest.raises(UnknownFace, match="not an inner face"):
            arc_distance(m, bad, boundary_face(w, 0))


def test_coherent_separators_and_distance_bound():
    m = hex_diagram()
    w = resolve(m)
    b0, b1, b3, b4 = (boundary_face(w, k) for k in (0, 1, 3, 4))
    assert coherent_separators(m, b0, b3) == frozenset()
    assert web_distance(w, b0, b3) == arc_distance(m, b0, b3) == 2
    cs = coherent_separators(m, b1, b4)
    named = {frozenset((a.tail, a.head) for a in p) for p in cs}
    assert named == {
        frozenset({(1, 4), (6, 3)}),
        frozenset({(1, 4), (5, 4)}),
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
    # 4', ..., 1', 0, 1, ..., 4: the position mirror maps k to k' and fixes 0
    labels = [b.label for b in crossed_mdiagram(from_word(ODD_FOLD)).boundary]
    mirror = {labels[p - 1]: labels[9 - p] for p in range(1, 10)}
    assert mirror["3"] == "3'" and mirror["3'"] == "3" and mirror["0"] == "0"
    # 2 -> 1', crossed, on the six points of mirrored_tripods()
    a = Arc(5, 3, SECOND, crossed=True)
    assert mirror_arc(a, 6) == Arc(2, 4, SECOND, crossed=True)


def test_between_vertical_pair_uses_exactly_one_side():
    m = hex_diagram()
    w = resolve(m)
    a, b = Arc(1, 4, FIRST), Arc(2, 3, FIRST)

    def between(face):
        above = arcs_above(m, face)
        return (a in above) != (b in above)

    assert between(boundary_face(w, 1))
    assert not between(boundary_face(w, 2))


def test_concurrent_arcs_detected():
    conc = MDiagram(
        (bv("a", -4), bv("b", -2), bv("c", -1), bv("d", 1), bv("e", 2), bv("f", 4)),
        # b -> e, c -> f, a -> d
        (Arc(2, 5), Arc(3, 6), Arc(1, 4)),
    )
    with pytest.raises(ConcurrentArcs):
        crossings(conc)


def test_bad_boundary_degrees():
    m = MDiagram(
        (bv("1", 1), bv("2", 2), bv("3", 3)),
        (Arc(1, 2), Arc(2, 3)),
    )
    with pytest.raises(InvalidBoundaryDegrees):
        resolve(m)


def test_diagram_validation():
    """MDiagram(...) does not check; from_dict checks the boundary."""
    with pytest.raises(ValueError):
        MDiagram.from_dict({"boundary": vertices(("1", "1"), ("1", "2")), "arcs": []})
    with pytest.raises(ValueError):
        MDiagram.from_dict({"boundary": vertices(("1", "2"), ("2", "1")), "arcs": []})


def test_json_round_trip():
    m = hex_diagram()
    blob = json.dumps(m.to_dict())
    assert MDiagram.from_dict(json.loads(blob)) == m
    half = MDiagram((bv("1", F(1, 2)), bv("2", 2)), ())
    assert MDiagram.from_dict(json.loads(json.dumps(half.to_dict()))) == half


def test_resolution_bookkeeping():
    m = hex_diagram()
    res = m.resolution
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
        # a -> c, b -> d
        (Arc(1, 3), Arc(2, 4)),
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


def reference_crossings(m):
    """Crossings as Fraction arithmetic computes them: abscissa by the circle
    formula, order by sorted((x, i, j)), concurrency grouped by arc value."""
    x_of = [F(b.x) for b in m.boundary]
    spans = [sorted((x_of[a.tail - 1], x_of[a.head - 1])) for a in m.arcs]
    found = []
    for i, (l1, h1) in enumerate(spans):
        for j in range(i + 1, len(spans)):
            l2, h2 = spans[j]
            if l1 < l2 < h1 < h2 or l2 < l1 < h2 < h1:
                found.append(((l2 * h2 - l1 * h1) / ((l2 + h2) - (l1 + h1)), i, j))
    per_arc = {}
    for x, i, j in found:
        per_arc.setdefault(m.arcs[i], []).append(x)
        per_arc.setdefault(m.arcs[j], []).append(x)
    for arc, xs in per_arc.items():
        if len(set(xs)) != len(xs):
            tail, head = m.boundary[arc.tail - 1].label, m.boundary[arc.head - 1].label
            raise ConcurrentArcs(f"three arcs meet at one point on ({tail}, {head})")
    return [(m.arcs[i], m.arcs[j], x) for x, i, j in sorted(found)]


@st.composite
def rational_diagrams(draw):
    """Diagram JSON over 2..10 strictly increasing rational abscissas, with
    random arcs, some of them repeated."""
    k = draw(st.integers(2, 10))
    xs = draw(
        st.lists(
            st.builds(F, st.integers(-24, 24), st.integers(1, 4)),
            min_size=k, max_size=k, unique=True,
        )
    )
    # a random matching, plus up to two arcs that share an end with it
    order = draw(st.permutations(range(k)))
    ends = list(zip(order[::2], order[1::2]))
    if k > 2:
        shared = st.tuples(st.sampled_from(order[:2]), st.sampled_from(order[2:]))
        ends += draw(st.lists(shared, max_size=2))
    arcs = [
        {"tail": f"v{p}", "head": f"v{q}", "kind": draw(st.sampled_from([FIRST, SECOND]))}
        for p, q in ends
    ]
    if arcs and draw(st.booleans()):
        arcs.insert(draw(st.integers(0, len(arcs))), draw(st.sampled_from(arcs)))
    boundary = [{"label": f"v{p}", "x": str(x)} for p, x in enumerate(sorted(xs))]
    return {"boundary": boundary, "arcs": arcs}


SIX = [{"label": str(k), "x": x} for k, x in enumerate(["-4", "-2", "-1", "1", "2", "4"])]


@settings(max_examples=150, deadline=None)
@given(rational_diagrams())
# three distinct arcs through one point
@example({"boundary": SIX, "arcs": [
    {"tail": "1", "head": "4"}, {"tail": "2", "head": "5"}, {"tail": "0", "head": "3"}]})
# a repeated arc crossed by another: the repeated arc is named
@example({"boundary": SIX, "arcs": [
    {"tail": "0", "head": "2"}, {"tail": "1", "head": "3"}, {"tail": "0", "head": "2"}]})
# two crossings of four distinct arcs, both at x = 0: (i, j) breaks the tie
@example({"boundary": [{"label": str(k), "x": x} for k, x in enumerate(
    ["-5", "-3", "-2", "-1", "1", "2", "3", "5"])], "arcs": [
    {"tail": "1", "head": "4"}, {"tail": "0", "head": "5"},
    {"tail": "3", "head": "6"}, {"tail": "2", "head": "7"}]})
def test_crossings_match_fraction_reference(payload):
    m = MDiagram.from_dict(payload)
    try:
        expected = reference_crossings(m)
    except ConcurrentArcs as exc:
        with pytest.raises(ConcurrentArcs) as info:
            crossings(m)
        assert str(info.value) == str(exc)
        return
    got = [(c.arc_a, c.arc_b, c.x) for c in crossings(m)]
    assert got == expected
    assert all(type(c.x) is F for c in crossings(m))


def test_crossing_order_stays_fast_on_large_diagrams():
    # 800 arcs over 1,600 integer abscissas below 10**6, 106,483 crossings:
    # a common denominator of every crossing would have 349,808 bits
    rng = random.Random(1)
    xs = sorted(rng.sample(range(10**6), 1600))
    order = list(range(1600))
    rng.shuffle(order)
    m = MDiagram(
        tuple(BoundaryVertex(str(k), x) for k, x in enumerate(xs)),
        tuple(Arc(p + 1, q + 1) for p, q in zip(order[::2], order[1::2])),
    )
    start = time.process_time()
    found = crossings(m)
    assert time.process_time() - start < 5
    assert len(found) == 106483
    assert all(a.x <= b.x for a, b in zip(found, found[1:]))


def test_crossing_order_is_exact_and_fast_on_rational_diagrams():
    # 200 arcs over 400 abscissas n/d with n, d below 10**6: a common
    # denominator of the boundary would have thousands of bits
    rng = random.Random(1)
    xs = set()
    while len(xs) < 400:
        xs.add(F(rng.randrange(1, 10**6), rng.randrange(1, 10**6)))
    xs = sorted(xs)
    order = list(range(400))
    rng.shuffle(order)
    m = MDiagram(
        tuple(BoundaryVertex(str(k), x) for k, x in enumerate(xs)),
        tuple(Arc(p + 1, q + 1) for p, q in zip(order[::2], order[1::2])),
    )
    start = time.process_time()
    found = crossings(m)
    assert time.process_time() - start < 2
    expected = []
    for i, a in enumerate(m.arcs):
        l1, h1 = sorted((xs[a.tail - 1], xs[a.head - 1]))
        for j, b in enumerate(m.arcs[i + 1 :], start=i + 1):
            l2, h2 = sorted((xs[b.tail - 1], xs[b.head - 1]))
            if l1 < l2 < h1 < h2 or l2 < l1 < h2 < h1:
                expected.append(((l2 * h2 - l1 * h1) / (l2 + h2 - l1 - h1), i, j))
    expected.sort()
    assert len(expected) == 6539
    got = [(c.arc_a, c.arc_b, c.x) for c in found]
    assert got == [(m.arcs[i], m.arcs[j], x) for x, i, j in expected]


# sha256 over the sorted-key JSON and the SVG of every diagram of golden_diagrams(), in order
GOLDEN_DIAGRAM_BYTES_SHA256 = "b8c36e442c09cfcff51d30c426dba80a7a69d59515965cf845ca1f9536ce400e"


def symmetric_tableaux(max_n):
    """The rotationally symmetric 3-row tableaux with n <= max_n, in word
    order; test_oracle checks this generator against the filtered walk."""
    for n in range(1, max_n + 1):
        for word in oracle._symmetric_words((n, n, n)):
            yield from_word(word)


def golden_diagrams():
    """The diagram of every 3-row word with n <= 4, then the crossed diagram
    of the fold of every symmetric 3-row word with n <= 5: 620 diagrams."""
    for n in range(1, 5):
        for word in enumerate_words((n, n, n)):
            yield mdiagram_of_tableau(from_word(word))
    for t in symmetric_tableaux(5):
        yield crossed_mdiagram(fold(t))


def test_diagram_json_and_svg_bytes_are_pinned():
    pinned = hashlib.sha256()
    count = 0
    for m in golden_diagrams():
        count += 1
        n = len(m.boundary)
        for a in m.arcs:
            assert type(a.tail) is int and type(a.head) is int
            assert 1 <= a.tail <= n and 1 <= a.head <= n
        blob = json.dumps(m.to_dict(), sort_keys=True)
        assert MDiagram.from_dict(json.loads(blob)) == m
        pinned.update(blob.encode())
        pinned.update(svg_of_mdiagram(m).encode())
    assert count == 620
    assert pinned.hexdigest() == GOLDEN_DIAGRAM_BYTES_SHA256


# sha256 over every resolution of golden_resolutions(), in order; see the test
GOLDEN_RESOLUTIONS_SHA256 = "705fa7d496499dcb3821f790fc7e228d31e298a3a0afc18cc581977e64741761"


def golden_resolutions():
    """The diagram of every 3-row word with n <= 5, then the crossed diagram
    of the fold of every symmetric 3-row word with n <= 6: 7,046 diagrams,
    each with whether it is a crossed diagram."""
    for n in range(1, 6):
        for word in enumerate_words((n, n, n)):
            yield mdiagram_of_tableau(from_word(word)), False
    for t in symmetric_tableaux(6):
        yield crossed_mdiagram(fold(t)), True


def test_resolutions_are_pinned():
    def arc(a):
        return (a.tail, a.head, a.kind, a.crossed)

    def arc_set(s):
        return sorted(map(arc, s))

    pinned = hashlib.sha256()
    count = 0
    for m, crossed in golden_resolutions():
        count += 1
        res = m.resolution
        orbits = res.web.face_table.orbits
        for part in (
            json.dumps(res.web.to_dict(), sort_keys=True),
            repr(res.edge_arcs),
            repr([(arc_set(pair), e) for pair, e in res.pair_edges]),
            # faces by their darts, in an order that does not depend on the walk
            repr(sorted((sorted(orbits[f]), arc_set(s)) for f, s in res.face_arcs.items())),
            repr([(arc(c.arc_a), arc(c.arc_b), str(c.x)) for c in crossings(m)]),
        ):
            pinned.update(part.encode())
        # no two faces have one arc set, so reflected_face's first match is
        # its only match, whatever order face_arcs lists the faces in
        assert len(set(res.face_arcs.values())) == len(res.face_arcs)
        if crossed:
            for f in res.face_arcs:
                assert reflected_face(m, reflected_face(m, f)) == f
    assert count == 7046
    assert pinned.hexdigest() == GOLDEN_RESOLUTIONS_SHA256


def test_position_mirror_is_the_label_mirror():
    def label_mirror(label):
        if label == "0":
            return label
        return label[:-1] if label.endswith("'") else label + "'"

    for t in symmetric_tableaux(6):
        m = crossed_mdiagram(fold(t))
        n = len(m.boundary)
        label = [b.label for b in m.boundary]
        for a in m.arcs:
            b = mirror_arc(a, n)
            assert (label[b.tail - 1], label[b.head - 1]) == (
                label_mirror(label[a.tail - 1]),
                label_mirror(label[a.head - 1]),
            )
            assert (b.kind, b.crossed) == (a.kind, a.crossed)


def vertices(*pairs):
    return [{"label": label, "x": x} for label, x in pairs]


TWO = vertices(("1", "1"), ("2", "2"))


@pytest.mark.parametrize(
    "payload, error, message",
    [
        ({"boundary": vertices(("1", "1"), ("1", "2")), "arcs": [{"tail": "1", "head": "1"}]},
         ValueError, "boundary labels must be unique"),
        ({"boundary": vertices(("1", "2"), ("2", "1")), "arcs": [{"tail": "1", "head": "9"}]},
         ValueError, "boundary abscissas must strictly increase"),
        ({"boundary": TWO, "arcs": [{"tail": "1", "head": "1"}]},
         ValueError, "arc endpoints must be distinct"),
        ({"boundary": TWO, "arcs": [{"tail": "1", "head": "9"}]},
         ValueError, "arc (1, 9) leaves the boundary"),
        ({"boundary": TWO, "arcs": [{"tail": "2", "head": "2"}, {"tail": "1", "head": "9"}]},
         ValueError, "arc endpoints must be distinct"),
        ({"boundary": TWO, "arcs": [{"tail": "x", "head": "1"}, {"tail": "2", "head": "2"}]},
         ValueError, "arc (x, 1) leaves the boundary"),
        ({"boundary": vertices(*zip("abcdef", ["-4", "-2", "-1", "1", "2", "4"])),
          "arcs": [{"tail": "b", "head": "e"}, {"tail": "c", "head": "f"},
                   {"tail": "a", "head": "d"}]},
         ConcurrentArcs, "three arcs meet at one point on (b, e)"),
        ({"boundary": vertices(("x", "1"), ("y", "2"), ("z", "3")),
          "arcs": [{"tail": "x", "head": "y"}, {"tail": "y", "head": "z"}]},
         InvalidBoundaryDegrees, "vertex y has 1 outgoing and 1 incoming arcs"),
        ({"boundary": [{"label": 1, "x": "1"}], "arcs": []},
         TypeError, "label must be a string, got int"),
        ({"boundary": [{"label": "1", "x": True}], "arcs": []},
         TypeError, "x must be a string or an integer, got bool"),
        ({"boundary": [{"label": "1", "x": 1.5}], "arcs": []},
         TypeError, "x must be a string or an integer, got float"),
        ({"boundary": TWO, "arcs": [{"tail": "1", "head": "2", "kind": "zigzag"}]},
         ValueError, "arc kind must be 'first' or 'second', got 'zigzag'"),
        ({"boundary": TWO, "arcs": [{"tail": "1", "head": "2", "crossed": "no"}]},
         TypeError, "crossed must be a boolean, got str"),
        ({"boundary": [], "arcs": []}, ValueError, "boundary must have at least one vertex"),
    ],
)
def test_diagram_json_errors(payload, error, message):
    with pytest.raises(error) as info:
        m = MDiagram.from_dict(payload)
        crossings(m)
        resolve(m)
    assert str(info.value) == message
