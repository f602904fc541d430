import hashlib
import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction as F
from itertools import islice
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from webfold.errors import ConcurrentArcs, InvalidBoundaryDegrees, UnknownFace
from webfold.mdiagram import (
    FIRST,
    SECOND,
    MDiagram,
    _check_degrees,
    _crossing_pairs,
    arc_distance,
    arcs_above,
    coherent_separators,
    crossings,
    epsilon,
    reflected_face,
    resolve,
)
from webfold.oracle import _domino_tableaux, enumerate_words
from webfold.planarweb import (
    BOUNDARY,
    PlanarWeb,
    boundary_face,
    canonical,
    exterior_face,
    faces,
    validate_3web,
    web_distance,
)
from webfold.render import svg_of_mdiagram
from webfold.tableaux import fold, from_word, is_rotationally_symmetric
from webfold.web3 import crossed_mdiagram, decompose_blocks, mdiagram_of_tableau
from reference import arc_table, is_symmetrical, symmetric_words
from webs import tripod

ODD_FOLD = "111232323"


def diagram(points, ends, second=0, crossed=0):
    """The diagram over (label, abscissa) points, unchecked."""
    labels, xs = zip(*points)
    return MDiagram(labels, tuple(map(F, xs)), ends, second, crossed)


def bits(mask):
    """The indices of the set bits of `mask`, ascending."""
    found = []
    while mask:
        low = mask & -mask
        found.append(low.bit_length() - 1)
        mask ^= low
    return tuple(found)


def arcs_of(m, mask):
    """The (tail, head) ends of the arcs of bitmask `mask`, bit i for arc i,
    in index order."""
    return tuple(m.ends[i] for i in bits(mask))


def arc_fields(m, i):
    """Arc i of m as (tail, head, kind, crossed), kind FIRST or SECOND."""
    return (*m.ends[i], SECOND if m.second >> i & 1 else FIRST, bool(m.crossed >> i & 1))


def arc_set(m, mask):
    """The arcs of bitmask `mask` as sorted field tuples."""
    return sorted(arc_fields(m, i) for i in bits(mask))


def tripod_diagram():
    return diagram(
        (("1", 1), ("2", 2), ("3", 3)),
        # 1 -> 2 of the first kind, 3 -> 2 of the second
        ((1, 2), (3, 2)),
        0b10,
    )


def hex_diagram():
    # one crossing: (1,4) x (6,3); tangencies at sinks 3 and 4
    return diagram(
        tuple((str(i), i) for i in range(1, 7)),
        # (1, 4) and (2, 3) of the first kind, (5, 4) and (6, 3) of the second
        ((1, 4), (2, 3), (5, 4), (6, 3)),
        0b1100,
    )


def mirrored_tripods():
    return diagram(
        (("3'", -3), ("2'", -2), ("1'", -1), ("1", 1), ("2", 2), ("3", 3)),
        # 1 -> 2, 3 -> 2, 1' -> 2' and 3' -> 2', of the first kind out of
        # 1 and 1' and of the second out of 3 and 3'
        ((4, 5), (6, 5), (3, 2), (1, 2)),
        0b1010,
    )


def test_resolve_tripod_matches_hand_built_web():
    w = resolve(tripod_diagram())
    assert validate_3web(w) == ()
    assert canonical(w).digest == canonical(tripod()).digest


def test_crossings_exclude_shared_endpoints():
    m = hex_diagram()
    ((i, j, x),) = crossings(m)
    assert {m.ends[i], m.ends[j]} == {
        (1, 4),
        (6, 3),
    }
    assert x == F(7, 2)


def test_hex_resolution_is_a_web_with_expected_distances():
    m = hex_diagram()
    w = resolve(m)
    assert validate_3web(w) == ()
    assert len(w.rotation) - len(w.tags) + len(faces(w)) == 2
    d = [web_distance(w, boundary_face(w, 0), boundary_face(w, i)) for i in range(7)]
    assert d == [0, 1, 2, 2, 2, 1, 0]


def test_arcs_above_boundary_faces():
    m = hex_diagram()
    w = resolve(m)
    assert arcs_above(m, boundary_face(w, 0)) == 0
    above1 = set(arcs_of(m, arcs_above(m, boundary_face(w, 1))))
    assert above1 == {(1, 4)}
    above4 = set(arcs_of(m, arcs_above(m, boundary_face(w, 4))))
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
    named = {frozenset(arcs_of(m, p)) for p in cs}
    assert named == {
        frozenset({(1, 4), (6, 3)}),
        frozenset({(1, 4), (5, 4)}),
    }
    assert arc_distance(m, b1, b4) == 3
    assert web_distance(w, b1, b4) >= arc_distance(m, b1, b4) - len(cs)


def test_mirrored_tripods_are_symmetric():
    m = mirrored_tripods()
    w = resolve(m)
    assert validate_3web(w) == ()
    assert is_symmetrical(w)
    b2, b4 = boundary_face(w, 2), boundary_face(w, 4)
    assert reflected_face(m, b4) == b2
    assert reflected_face(m, b2) == b4
    assert epsilon(m, b2) == 0 and epsilon(m, b4) == 0


def test_mirror_labels():
    # 4', ..., 1', 0, 1, ..., 4: the position mirror maps k to k' and fixes 0
    labels = crossed_mdiagram(decompose_blocks(from_word(ODD_FOLD))).labels
    mirror = {labels[p - 1]: labels[9 - p] for p in range(1, 10)}
    assert mirror["3"] == "3'" and mirror["3'"] == "3" and mirror["0"] == "0"
    # 2 -> 1' and 2' -> 1, crossed and of the second kind, on the six
    # points of mirrored_tripods(), mirror each other
    points = (("3'", -3), ("2'", -2), ("1'", -1), ("1", 1), ("2", 2), ("3", 3))
    assert diagram(points, ((5, 3), (2, 4)), 0b11, 0b11)._mirrors == (1, 0)


def test_between_vertical_pair_uses_exactly_one_side():
    m = hex_diagram()
    w = resolve(m)
    a, b = (1, 4), (2, 3)

    def between(face):
        above = arcs_of(m, arcs_above(m, face))
        return (a in above) != (b in above)

    assert between(boundary_face(w, 1))
    assert not between(boundary_face(w, 2))


def test_concurrent_arcs_detected():
    conc = diagram(
        (("a", -4), ("b", -2), ("c", -1), ("d", 1), ("e", 2), ("f", 4)),
        # b -> e, c -> f, a -> d
        ((2, 5), (3, 6), (1, 4)),
    )
    with pytest.raises(ConcurrentArcs):
        crossings(conc)


def test_bad_boundary_degrees():
    m = diagram(
        (("1", 1), ("2", 2), ("3", 3)),
        ((1, 2), (2, 3)),
    )
    with pytest.raises(InvalidBoundaryDegrees):
        MDiagram.from_dict(m.to_dict())


def degree_error(m):
    """The message naming the first vertex, in label order, that is neither
    a source (1 out, 0 in) nor a sink (0 out, 2 in); None if there is none."""
    for p, label in enumerate(m.labels, start=1):
        out = sum(tail == p for tail, _ in m.ends)
        into = sum(head == p for _, head in m.ends)
        if (out, into) not in {(1, 0), (0, 2)}:
            return f"vertex {label} has {out} outgoing and {into} incoming arcs"
    return None


def degree_family(rng, count):
    """Seeded diagrams over n <= 6 points: arbitrary arcs (an arc may start
    where it ends); diagrams whose vertices are all sources or sinks of two
    arcs, as they are and with one end moved, an arc added or one removed;
    and such diagrams with 3 or 4 more arcs out of one vertex."""
    for _ in range(count):
        kind = rng.randrange(5)
        if kind == 0:
            n = rng.randint(1, 6)
            arcs = [(rng.randint(1, n), rng.randint(1, n)) for _ in range(rng.randint(0, 8))]
        else:
            n = rng.choice((3, 6))
            points = rng.sample(range(1, n + 1), n)
            sinks, sources = points[: n // 3], points[n // 3 :]
            arcs = [(p, sinks[k // 2]) for k, p in enumerate(sources)]
            if kind == 1:
                k = rng.randrange(len(arcs))
                (tail, head), end = arcs[k], rng.randint(1, n)
                arcs[k] = (end, head) if rng.random() < 0.5 else (tail, end)
            elif kind == 2:
                arcs.append((rng.randint(1, n), rng.randint(1, n)))
            elif kind == 3:
                del arcs[rng.randrange(len(arcs))]
            elif rng.random() < 0.5:
                p = rng.randint(1, n)
                arcs += [(p, rng.randint(1, n)) for _ in range(rng.choice((3, 4)))]
        yield diagram([(chr(ord("a") + k), k + 1) for k in range(n)], tuple(arcs))


def test_degree_check_names_the_first_bad_vertex():
    """from_dict's degree check raises InvalidBoundaryDegrees exactly when
    some vertex is neither a source nor a sink of two arcs, naming the first
    such vertex.  The check is called directly, since from_dict refuses the
    family's self-loops before it counts degrees; the good diagrams resolve."""
    seen = {"bad": 0, "good": 0, "wide": 0}
    for m in degree_family(random.Random(2022), 3000):
        expected = degree_error(m)
        outs = [sum(tail == p for tail, _ in m.ends) for p in range(1, len(m.labels) + 1)]
        seen["wide"] += max(outs) >= 3
        if expected is None:
            seen["good"] += 1
            _check_degrees(m.labels, m.ends)
            try:
                resolve(m)
            except ConcurrentArcs:
                pass
        else:
            seen["bad"] += 1
            with pytest.raises(InvalidBoundaryDegrees) as info:
                _check_degrees(m.labels, m.ends)
            assert str(info.value) == expected
    assert min(seen.values()) >= 300, seen


# resolves two diagrams built with bad degrees and validates each web it gets,
# in 1 GB of address space
BAD_DEGREE_PROBE = """
import resource
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

from webfold.mdiagram import MDiagram, resolve
from webfold.planarweb import validate_3web

for n, ends in ((5, ((1, 3), (2, 3), (3, 5), (4, 5))), (4, ((1, 4), (2, 4), (3, 4)))):
    try:
        validate_3web(resolve(MDiagram(tuple("abcde"[:n]), tuple(range(1, n + 1)), ends)))
    except Exception as exc:
        print(type(exc).__name__, exc)
"""


def test_diagrams_with_bad_degrees_raise_on_resolution():
    """A diagram built with bad degrees raises InvalidBoundaryDegrees on its
    first resolution.  Unchecked, a sink with an outgoing arc resolves to a
    web that validate_3web never finishes, and a sink of three arcs raises a
    bare ValueError; run in a subprocess with a memory cap, so that a hang
    fails the test instead of stalling it."""
    proc = subprocess.run(
        [sys.executable, "-c", BAD_DEGREE_PROBE],
        env=dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src")),
        capture_output=True, text=True, timeout=10,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.splitlines() == [
        "InvalidBoundaryDegrees vertex c has 1 outgoing and 2 incoming arcs",
        "InvalidBoundaryDegrees vertex d has 0 outgoing and 3 incoming arcs",
    ]


def test_built_diagrams_pass_the_degree_check():
    """web_of_tableau resolves its row pairings with no degree check, so the
    web3 builders must make the degrees valid:
    every diagram of a 3-row tableau with n <= 5, and every crossed diagram
    of fold(T) for a symmetric T with n <= 6."""
    count = 0
    for n in range(1, 6):
        for word in enumerate_words((n, n, n)):
            m = mdiagram_of_tableau(from_word(word))
            _check_degrees(m.labels, m.ends)
            count += 1
    for n in range(1, 7):
        for word in symmetric_words((n, n, n)):
            m = crossed_mdiagram(decompose_blocks(fold(from_word(word))))
            _check_degrees(m.labels, m.ends)
            count += 1
    assert count == 6516 + 530


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
    half = diagram((("1", F(1, 2)), ("2", 2), ("3", 3)), ((1, 3), (2, 3)))
    assert MDiagram.from_dict(json.loads(json.dumps(half.to_dict()))) == half


def test_resolution_bookkeeping():
    m = hex_diagram()
    web, edge_arcs = m.resolution, arc_table(m)
    # a boundary edge toggles no arc, an arc segment its arc, and each of the
    # 3 pairs that resolve to an edge, two sinks and one crossing, both arcs
    toggled = [list(arcs_of(m, mask)) for mask in edge_arcs]
    for t, tag in zip(toggled, web.tags):
        assert (len(t) == 0) == (tag == BOUNDARY) and len(t) <= 2
    assert sorted(t for t in toggled if len(t) == 2) == [
        [(1, 4), (5, 4)],
        [(1, 4), (6, 3)],
        [(2, 3), (6, 3)],
    ]


def test_resolution_is_kept_per_diagram_object():
    m = hex_diagram()
    assert m.resolution is m.resolution
    assert resolve(m) is m.resolution
    assert m.face_arcs is m.face_arcs
    twin = hex_diagram()
    assert twin == m and twin is not m
    # equal diagrams share nothing: no cache outlives the diagram object
    assert twin.resolution is not m.resolution
    assert canonical(resolve(twin)) == canonical(resolve(m))


def test_resolving_builds_no_arc_data():
    """A diagram's resolution is its web alone: the arc sets of its faces
    wait for the first arc function, and the separator list for the first
    coherent_separators, on the crossed diagram of each domino tableau with
    n <= 5, block-patterns' family."""
    count = 0
    for n in range(1, 6):
        for d in _domino_tableaux((n, n, n)):
            m = crossed_mdiagram(decompose_blocks(d))
            count += 1
            assert resolve(m) is m.resolution
            assert type(m.resolution) is PlanarWeb
            assert not {"face_arcs", "_separators"} & vars(m).keys()
            b0 = boundary_face(m.resolution, 0)
            arcs_above(m, b0)
            assert "face_arcs" in vars(m) and "_separators" not in vars(m)
            coherent_separators(m, b0, b0)
            assert "_separators" in vars(m)
    assert count == 110


def test_crossing_abscissa_matches_circle_intersection():
    # semicircles over [0, 3] and [1, 5] meet at x = 5/3, y^2 = 20/9
    m = diagram(
        (("a", 0), ("b", 1), ("c", 3), ("d", 5)),
        # a -> c, b -> d
        ((1, 3), (2, 4)),
    )
    ((_, _, x),) = crossings(m)
    assert x == F(5, 3)
    assert (x - F(3, 2)) ** 2 + F(20, 9) == F(3, 2) ** 2
    assert (x - 3) ** 2 + F(20, 9) == 2 ** 2


def test_resolution_depends_on_boundary_order_not_spacing():
    diagrams = []
    for n in range(1, 5):
        for word in enumerate_words((n, n, n)):
            t = from_word(word)
            diagrams.append((word, mdiagram_of_tableau(t)))
            if is_rotationally_symmetric(t):
                diagrams.append((f"crossed {word}", crossed_mdiagram(decompose_blocks(fold(t)))))
    for name, m in diagrams:
        # strictly increasing, but neither evenly spaced nor integral
        xs = tuple(F(p * p, 3) + F(p % 3, 7) for p in range(1, len(m.xs) + 1))
        moved = MDiagram(m.labels, xs, m.ends, m.second, m.crossed)
        assert canonical(resolve(moved)) == canonical(resolve(m)), name
        assert validate_3web(resolve(moved)) == (), name


def reference_crossings(m):
    """Crossings as Fraction arithmetic computes them: abscissa by the circle
    formula, order by sorted((x, i, j)), concurrency grouped by arc index."""
    x_of = [F(x) for x in m.xs]
    spans = [sorted((x_of[p - 1], x_of[q - 1])) for p, q in m.ends]
    found = []
    for i, (l1, h1) in enumerate(spans):
        for j in range(i + 1, len(spans)):
            l2, h2 = spans[j]
            if l1 < l2 < h1 < h2 or l2 < l1 < h2 < h1:
                found.append(((l2 * h2 - l1 * h1) / ((l2 + h2) - (l1 + h1)), i, j))
    per_arc = {}
    for x, i, j in found:
        per_arc.setdefault(i, []).append(x)
        per_arc.setdefault(j, []).append(x)
    for i, xs in per_arc.items():
        if len(set(xs)) != len(xs):
            tail, head = (m.labels[p - 1] for p in m.ends[i])
            raise ConcurrentArcs(f"three arcs meet at one point on ({tail}, {head})")
    return [(i, j, x) for x, i, j in sorted(found)]


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


def unchecked(payload):
    """The diagram of a JSON form without `from_dict`'s checks, so that its
    vertices may have any degrees: crossings do not read them."""
    points = [(b["label"], b["x"]) for b in payload["boundary"]]
    position = {label: p for p, (label, _) in enumerate(points, start=1)}
    ends = tuple((position[a["tail"]], position[a["head"]]) for a in payload["arcs"])
    second = sum(1 << i for i, a in enumerate(payload["arcs"]) if a.get("kind") == SECOND)
    return diagram(points, ends, second)


SIX = [{"label": str(k), "x": x} for k, x in enumerate(["-4", "-2", "-1", "1", "2", "4"])]


@settings(max_examples=150, deadline=None)
@given(rational_diagrams())
# three distinct arcs through one point
@example({"boundary": SIX, "arcs": [
    {"tail": "1", "head": "4"}, {"tail": "2", "head": "5"}, {"tail": "0", "head": "3"}]})
# a repeated arc crossed by another: the crossing arc, which meets both
# copies at one point, is named
@example({"boundary": SIX, "arcs": [
    {"tail": "0", "head": "2"}, {"tail": "1", "head": "3"}, {"tail": "0", "head": "2"}]})
# two crossings of four distinct arcs, both at x = 0: (i, j) breaks the tie
@example({"boundary": [{"label": str(k), "x": x} for k, x in enumerate(
    ["-5", "-3", "-2", "-1", "1", "2", "3", "5"])], "arcs": [
    {"tail": "1", "head": "4"}, {"tail": "0", "head": "5"},
    {"tail": "3", "head": "6"}, {"tail": "2", "head": "7"}]})
def test_crossings_match_fraction_reference(payload):
    m = unchecked(payload)
    try:
        expected = reference_crossings(m)
    except ConcurrentArcs as exc:
        with pytest.raises(ConcurrentArcs) as info:
            crossings(m)
        assert str(info.value) == str(exc)
        return
    got = crossings(m)
    assert list(got) == expected
    assert all(type(x) is F for _, _, x in got)


def test_crossing_order_stays_fast_on_large_diagrams():
    # 800 arcs over 1,600 integer abscissas below 10**6, 106,483 crossings:
    # a common denominator of every crossing would have 349,808 bits
    rng = random.Random(1)
    xs = sorted(rng.sample(range(10**6), 1600))
    order = list(range(1600))
    rng.shuffle(order)
    m = MDiagram(
        tuple(map(str, range(len(xs)))),
        tuple(xs),
        tuple((p + 1, q + 1) for p, q in zip(order[::2], order[1::2])),
    )
    start = time.process_time()
    found = crossings(m)
    assert time.process_time() - start < 5
    assert len(found) == 106483
    assert all(a[2] <= b[2] for a, b in zip(found, found[1:]))


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
        tuple(map(str, range(len(xs)))),
        tuple(xs),
        tuple((p + 1, q + 1) for p, q in zip(order[::2], order[1::2])),
    )
    start = time.process_time()
    found = crossings(m)
    assert time.process_time() - start < 2
    expected = []
    for i, (p1, q1) in enumerate(m.ends):
        l1, h1 = sorted((xs[p1 - 1], xs[q1 - 1]))
        for j, (p2, q2) in enumerate(m.ends[i + 1 :], start=i + 1):
            l2, h2 = sorted((xs[p2 - 1], xs[q2 - 1]))
            if l1 < l2 < h1 < h2 or l2 < l1 < h2 < h1:
                expected.append(((l2 * h2 - l1 * h1) / (l2 + h2 - l1 - h1), i, j))
    expected.sort()
    assert len(expected) == 6539
    assert list(found) == [(i, j, x) for x, i, j in expected]


# sha256 over the sorted-key JSON and the SVG of every diagram of golden_diagrams(), in order
GOLDEN_DIAGRAM_BYTES_SHA256 = "b8c36e442c09cfcff51d30c426dba80a7a69d59515965cf845ca1f9536ce400e"


def symmetric_tableaux(max_n):
    """The rotationally symmetric 3-row tableaux with n <= max_n, in word
    order; test_oracle checks this generator against the filtered walk."""
    for n in range(1, max_n + 1):
        for word in symmetric_words((n, n, n)):
            yield from_word(word)


def golden_diagrams():
    """The diagram of every 3-row word with n <= 4, then the crossed diagram
    of the fold of every symmetric 3-row word with n <= 5: 620 diagrams."""
    for n in range(1, 5):
        for word in enumerate_words((n, n, n)):
            yield mdiagram_of_tableau(from_word(word))
    for t in symmetric_tableaux(5):
        yield crossed_mdiagram(decompose_blocks(fold(t)))


def test_resolved_webs_are_given_the_walls_and_circle_they_would_find():
    """_resolve hands each web its walls and boundary-circle darts; a copy
    of the web that is not given them finds the same ones."""
    for m in (*golden_diagrams(), hex_diagram(), mirrored_tripods()):
        w = resolve(m)
        bare = PlanarWeb(w.n_boundary, w.origins, w.tags, w.rotation)
        assert (w._walls, w._circle) == (bare._walls, bare._circle), m


def test_diagram_json_and_svg_bytes_are_pinned():
    pinned = hashlib.sha256()
    count = 0
    for m in golden_diagrams():
        count += 1
        n = len(m.labels)
        for p, q in m.ends:
            assert type(p) is int and type(q) is int
            assert 1 <= p <= n and 1 <= q <= n
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
        yield crossed_mdiagram(decompose_blocks(fold(t))), True


def test_resolutions_are_pinned():
    pinned = hashlib.sha256()
    count = 0
    for m, crossed in golden_resolutions():
        count += 1
        web, edge_arcs = m.resolution, arc_table(m)
        orbits, face_of = web.face_table.orbits, web.face_table.face_of
        # crossing an edge toggles its arcs: the table is the XOR of the arc
        # sets of the edge's two faces, and 0 on the circle
        sets = m.face_arcs
        assert list(edge_arcs) == [
            0 if tag == BOUNDARY else sets[face_of[2 * e]] ^ sets[face_of[2 * e + 1]]
            for e, tag in enumerate(web.tags)
        ]
        for part in (
            json.dumps(web.to_dict(), sort_keys=True),
            repr(tuple(map(bits, edge_arcs))),
            repr([(arc_set(m, pair), e) for e, pair in enumerate(edge_arcs)
                  if pair.bit_count() == 2]),
            # faces by their darts, in an order that does not depend on the walk
            repr(sorted((sorted(orbits[f]), arc_set(m, s)) for f, s in m.face_arcs.items())),
            repr([(arc_fields(m, i), arc_fields(m, j), str(x))
                  for i, j, x in crossings(m)]),
        ):
            pinned.update(part.encode())
        # no two faces have one arc set, so reflected_face's first match is
        # its only match, whatever order face_arcs lists the faces in
        assert len(set(m.face_arcs.values())) == len(m.face_arcs)
        if crossed:
            for f in m.face_arcs:
                assert reflected_face(m, reflected_face(m, f)) == f
    assert count == 7046
    assert pinned.hexdigest() == GOLDEN_RESOLUTIONS_SHA256


# sha256 over the resolutions of every 50th 3x6 diagram; see the test
GOLDEN_3X6_RESOLUTIONS_SHA256 = "42fcb8cb90ba2c4d63351497b292f29c58e466e7d924bb7b4f577d41f0e078e0"


def test_3x6_resolutions_are_pinned():
    """Dart and vertex numbering, rotation insertion order, the arc table and
    the crossing order of the diagram of every 50th 3-row word with n = 6:
    past the straight n <= 5 of the resolution golden, up to 15 crossings."""
    pinned = hashlib.sha256()
    count = most = 0
    for word in islice(enumerate_words((6, 6, 6)), 0, None, 50):
        m = mdiagram_of_tableau(from_word(word))
        w, edge_arcs = m.resolution, arc_table(m)
        found = _crossing_pairs(m.labels, m.xs, m.ends)
        pinned.update(
            repr((w.origins, w.tags, list(w.rotation.items()), edge_arcs, found)).encode()
        )
        count, most = count + 1, max(most, len(found))
    assert (count, most) == (1751, 15)
    assert pinned.hexdigest() == GOLDEN_3X6_RESOLUTIONS_SHA256


# sha256 over the values of the arc-distance functions; see the test
GOLDEN_ARC_FUNCTIONS_SHA256 = "8af07b325851bb5ca4c810a545c297d52d69f11ba782fb0ab19e7a23c0d11338"


def test_arc_functions_are_pinned():
    """arc_distance and the coherent separators of every pair of inner faces,
    and reflected_face and epsilon of every inner face, of the crossed
    diagram of the fold of every symmetric 3-row word with n <= 5.  A face
    is named by its smallest dart, so the digest does not depend on how the
    faces are numbered."""
    pinned = hashlib.sha256()
    count = pairs = 0
    for t in symmetric_tableaux(5):
        m = crossed_mdiagram(decompose_blocks(fold(t)))
        count += 1
        w = resolve(m)
        name = [min(orbit) for orbit in w.face_table.orbits]
        ext = exterior_face(w)
        inner = sorted((f for f in range(len(name)) if f != ext), key=name.__getitem__)
        rows = []
        for i, x in enumerate(inner):
            for y in inner[i + 1 :]:
                pairs += 1
                seps = sorted(arc_set(m, p) for p in coherent_separators(m, x, y))
                rows.append((name[x], name[y], arc_distance(m, x, y), seps))
        for x in inner:
            rows.append((name[x], name[reflected_face(m, x)], epsilon(m, x)))
        pinned.update(repr(rows).encode())
    assert (count, pairs) == (110, 8763)
    assert pinned.hexdigest() == GOLDEN_ARC_FUNCTIONS_SHA256


def test_a_face_without_a_mirror():
    # B_0 has no arcs over it, so it is its own mirror; the mirror of the
    # first-kind arc (1, 4) over B_1 would be (6, 3) of the first kind, and
    # hex_diagram()'s (6, 3) is of the second
    m = hex_diagram()
    w = resolve(m)
    assert reflected_face(m, boundary_face(w, 0)) == boundary_face(w, 0)
    with pytest.raises(UnknownFace, match="^diagram has no mirror of this face$"):
        reflected_face(m, boundary_face(w, 1))


def test_epsilon_skips_a_crossed_arc_without_its_mirror():
    def crossed_hex(kind):
        # (1, 4) and (6, 3) crossed; they mirror each other only if of one
        # kind, and (1, 4) is of the first
        return diagram(
            tuple((str(i), i) for i in range(1, 7)),
            ((1, 4), (2, 3), (5, 4), (6, 3)),
            0b0100 | (kind == SECOND) << 3,
            0b1001,
        )

    paired, unpaired = crossed_hex(FIRST), crossed_hex(SECOND)
    # B_1 is under (1, 4) and not under (6, 3)
    assert epsilon(paired, boundary_face(resolve(paired), 1)) == 1
    assert all(epsilon(unpaired, f) == 0 for f in unpaired.face_arcs)


def test_position_mirror_is_the_label_mirror():
    def label_mirror(label):
        if label == "0":
            return label
        return label[:-1] if label.endswith("'") else label + "'"

    # every arc of a crossed diagram has a mirror, another arc, whose ends
    # carry the mirrored labels and whose kind and crossed flag are its own
    count = 0
    for t in symmetric_tableaux(6):
        m = crossed_mdiagram(decompose_blocks(fold(t)))
        label, mirrors = m.labels, m._mirrors
        count += 1
        for i, j in enumerate(mirrors):
            assert j is not None and j != i and mirrors[j] == i
            (p, q), (pj, qj) = m.ends[i], m.ends[j]
            assert (label[pj - 1], label[qj - 1]) == (
                label_mirror(label[p - 1]),
                label_mirror(label[q - 1]),
            )
            assert arc_fields(m, j)[2:] == arc_fields(m, i)[2:]
    assert count == 530


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
        # the three arcs through one point, each sink fed once more from the right
        ({"boundary": vertices(*zip("abcdefghi", "-4 -2 -1 1 2 4 5 6 7".split())),
          "arcs": [{"tail": "b", "head": "e"}, {"tail": "c", "head": "f"},
                   {"tail": "a", "head": "d"}, {"tail": "g", "head": "d"},
                   {"tail": "h", "head": "e"}, {"tail": "i", "head": "f"}]},
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
        ({"boundary": [{"label": ["a"], "x": "1"}, {"label": "b", "x": "2"}], "arcs": []},
         TypeError, "label must be a string, got list"),
        ({"boundary": TWO, "arcs": [{"tail": ["1"], "head": "2"}]},
         TypeError, "tail must be a string, got list"),
        ({"boundary": TWO, "arcs": [{"tail": "1", "head": ["2"]}]},
         TypeError, "head must be a string, got list"),
    ],
)
def test_diagram_json_errors(payload, error, message):
    with pytest.raises(error) as info:
        m = MDiagram.from_dict(payload)
        crossings(m)
        resolve(m)
    assert str(info.value) == message
