"""The per-web face table against an independent naive face walk and BFS.

The naive walk names a face by its dart set; the face table names it by
number, so each number is compared through `frozenset(orbits[f])`.
"""

import pytest

from webfold.errors import UnknownFace
from webfold.oracle import enumerate_words
from webfold.planarweb import (
    BOUNDARY,
    Edge,
    boundary_face,
    exterior_face,
    faces,
    web_distance,
)
from webfold.tableaux import fold, from_word, is_rotationally_symmetric
from webfold.web3 import crossed_web, web_of_tableau
from webs import broken_webs, checked_web, tripod


def naive_faces(w):
    def next_dart(d):
        t = d ^ 1
        # the tail of an even dart's edge, the head of an odd one's
        e = w.edges[t // 2]
        rot = w.rotation[e.head if t % 2 else e.tail]
        return rot[rot.index(t) - 1]

    out = []
    unseen = set(range(2 * len(w.edges)))
    while unseen:
        d0 = min(unseen)
        orbit = [d0]
        unseen.discard(d0)
        d = next_dart(d0)
        while d != d0:
            orbit.append(d)
            unseen.discard(d)
            d = next_dart(d)
        out.append(frozenset(orbit))
    return out


def is_wall(w, d):
    return w.edges[d // 2].tag == BOUNDARY


def naive_boundary_faces(w, all_faces, ext):
    """Per k, the side of the first boundary edge joining k and k+1 that is
    not the exterior, the even dart's side first; None if there is none."""
    n = w.n_boundary
    out = []
    for k in range(n + 1):
        pair = {k, k + 1} if 1 <= k < n else {n, 1}
        found = None
        for i, e in enumerate(w.edges):
            if e.tag == BOUNDARY and {e.tail, e.head} == pair:
                a = next(f for f in all_faces if 2 * i in f)
                b = next(f for f in all_faces if 2 * i + 1 in f)
                side = a if a != ext else b
                if side != ext:
                    found = side
                    break
        out.append(found)
    return out


def naive_distances(w, all_faces):
    """All-pairs dual distances over non-boundary edges, by BFS from every face."""
    def neighbours(f):
        for d in f:
            if not is_wall(w, d):
                yield next(g for g in all_faces if d ^ 1 in g)

    out = {}
    for x in all_faces:
        seen = {x: 0}
        frontier = [x]
        while frontier:
            nxt = []
            for f in frontier:
                for g in neighbours(f):
                    if g not in seen:
                        seen[g] = seen[f] + 1
                        nxt.append(g)
            frontier = nxt
        for y, dist in seen.items():
            out[x, y] = dist
    return out


def sample_webs():
    for n in range(1, 5):
        for word in enumerate_words((n, n, n)):
            t = from_word(word)
            yield word, web_of_tableau(t)
            if is_rotationally_symmetric(t):
                yield f"crossed {word}", crossed_web(fold(t))


def check_faces(name, w):
    """Check the walk's faces, face sizes, wall contact, exterior and
    boundary faces against the naive walk, and return the naive faces."""
    all_faces = naive_faces(w)
    table = w.face_table

    def dart_set(f):
        return frozenset(table.orbits[f])

    assert [dart_set(f) for f in faces(w)] == all_faces, name
    assert [len(orbit) for orbit in table.orbits] == [len(f) for f in all_faces], name
    assert table.walled == [any(is_wall(w, d) for d in f) for f in all_faces], name
    ext = next((f for f in all_faces if all(is_wall(w, d) for d in f)), None)
    want = naive_boundary_faces(w, all_faces, ext)
    if ext is None:
        for k in range(w.n_boundary + 1):
            with pytest.raises(UnknownFace, match="boundary circle is broken"):
                boundary_face(w, k)
        with pytest.raises(UnknownFace, match="boundary circle is broken"):
            exterior_face(w)
        return all_faces
    assert dart_set(exterior_face(w)) == ext, name
    for k, f in enumerate(want):
        if f is None:
            with pytest.raises(UnknownFace, match="no boundary edge between"):
                boundary_face(w, k)
        else:
            assert dart_set(boundary_face(w, k)) == f, name
    return all_faces


def test_face_table_matches_naive_walk():
    checked = 0
    for name, w in sample_webs():
        all_faces = check_faces(name, w)
        dist = naive_distances(w, all_faces)
        # check_faces showed that face number i is the dart set all_faces[i]
        for i, x in enumerate(all_faces):
            for j, y in enumerate(all_faces):
                if (x, y) in dist:
                    assert web_distance(w, i, j) == dist[x, y], name
                else:
                    with pytest.raises(UnknownFace):
                        web_distance(w, i, j)
        checked += 1
    assert checked == 510 + 40


def test_face_table_matches_naive_walk_on_broken_webs():
    # validate_3web reads the face table on exactly these webs
    exterior_missing = set()
    for name, w in broken_webs():
        check_faces(name, w)
        exterior_missing.add(w.face_table.exterior is None)
    assert exterior_missing == {False, True}


def test_face_of_another_web_is_unknown():
    w = tripod()
    other = web_of_tableau(from_word("112233"))
    # the last face number of a larger web, which the tripod does not have
    foreign = faces(other)[-1]
    assert foreign not in faces(w)
    for bad in (-1, len(w.face_table.orbits), foreign):
        with pytest.raises(UnknownFace, match="not a face of this web"):
            web_distance(w, bad, boundary_face(w, 0))
        with pytest.raises(UnknownFace, match="not a face of this web"):
            web_distance(w, boundary_face(w, 0), bad)


def test_boundary_index_outside_range():
    w = tripod()
    for k in (-1, 4):
        with pytest.raises(UnknownFace, match="outside 0..3"):
            boundary_face(w, k)


def test_broken_boundary_circle():
    # the tripod without its boundary edge from 3 back to 1
    edges = (
        Edge(1, 4), Edge(2, 4), Edge(3, 4),
        Edge(1, 2, BOUNDARY), Edge(2, 3, BOUNDARY),
    )
    rotation = {1: (6, 0), 2: (8, 2, 7), 3: (4, 9), 4: (1, 3, 5)}
    w = checked_web(3, edges, rotation)
    assert len(faces(w)) == 3
    with pytest.raises(UnknownFace, match="boundary circle is broken"):
        exterior_face(w)
    with pytest.raises(UnknownFace, match="boundary circle is broken"):
        boundary_face(w, 1)


def test_exterior_face_is_walled_off():
    w = tripod()
    with pytest.raises(UnknownFace, match="different dual components"):
        web_distance(w, exterior_face(w), boundary_face(w, 0))


def test_table_is_built_once_per_web():
    w = web_of_tableau(from_word("112233"))
    assert w.face_table is w.face_table
    again = web_of_tableau(from_word("112233"))
    assert again.face_table is not w.face_table
