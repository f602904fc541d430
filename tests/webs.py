"""Hand-built webs for the tests, and the fixed set of webs whose bytes are pinned.

Hand-built webs are read through `PlanarWeb.from_dict`, as a web file
would be, so their rotation systems are checked.
"""

from random import Random

from webfold.oracle import enumerate_words
from webfold.planarweb import ARC, BOUNDARY, PlanarWeb, reflect, rotate
from webfold.tableaux import fold, from_word
from webfold.web3 import crossed_web, web_of_tableau
from reference import symmetric_words


def checked_web(n: int, edges, rotation: dict[int, tuple[int, ...]]) -> PlanarWeb:
    """The web of (tail, head, tag) edge triples and a rotation system."""
    return PlanarWeb.from_dict(
        {
            "n": n,
            "edges": [{"from": tail, "to": head, "tag": tag} for tail, head, tag in edges],
            "rotation": {str(v): ds for v, ds in rotation.items()},
        }
    )


def tripod() -> PlanarWeb:
    edges = (
        (1, 4, ARC), (2, 4, ARC), (3, 4, ARC),
        (1, 2, BOUNDARY), (2, 3, BOUNDARY), (3, 1, BOUNDARY),
    )
    return checked_web(3, edges, {1: (6, 0, 11), 2: (8, 2, 7), 3: (10, 4, 9), 4: (1, 3, 5)})


def twisted_web() -> dict:
    """The JSON form of the web of 111222333 with the rotation of internal
    vertex 10 reversed: every degree and orientation is legal and the map is
    connected, but it does not lie in the plane (V - E + F = 0)."""
    d = web_of_tableau(from_word("111222333")).to_dict()
    del d["layout"]
    d["rotation"]["10"].reverse()
    return d


def walled_stem_web() -> dict:
    """The JSON form of the web of 112233 with edge 0, from boundary vertex 2
    to internal vertex 7, tagged as a boundary edge: vertex 7 keeps degree 3
    but touches a wall, and vertex 2 has no web edge left."""
    d = web_of_tableau(from_word("112233")).to_dict()
    del d["layout"]
    assert d["edges"][0] == {"from": 2, "to": 7, "tag": ARC}
    d["edges"][0]["tag"] = BOUNDARY
    return d


def open_circle_web() -> dict:
    """The JSON form of the web of 112233 without its boundary edge from 6
    to 1, the last edge, whose darts 28 and 29 leave the rotation too: every
    vertex keeps its web edges, but the boundary circle is open."""
    d = web_of_tableau(from_word("112233")).to_dict()
    del d["layout"]
    assert d["edges"].pop() == {"from": 6, "to": 1, "tag": BOUNDARY}
    for v, ds in d["rotation"].items():
        d["rotation"][v] = [x for x in ds if x < 28]
    return d


def torus_component_web() -> dict:
    """The JSON form of the web of 123 with a second component: K_{3,3}
    drawn on a torus, three sources each joined to three sinks, with three
    hexagonal faces.  Every vertex, wall and face is legal and V - E + F =
    2 + 0, but the map is not connected."""
    d = web_of_tableau(from_word("123")).to_dict()
    del d["layout"]
    first, dart = max(map(int, d["rotation"])) + 1, 2 * len(d["edges"])
    # edge 3i + j runs from source first + i to sink first + 3 + j
    d["edges"] += [
        {"from": first + i, "to": first + 3 + j, "tag": ARC} for i in range(3) for j in range(3)
    ]
    for i in range(3):
        d["rotation"][str(first + i)] = [dart + 2 * (3 * i + j) for j in range(3)]
        d["rotation"][str(first + 3 + i)] = [dart + 2 * (3 * j + i) + 1 for j in range(3)]
    return d


def low_labels_web(layout: bool = False) -> dict:
    """The JSON form of the web of 112233 with its internal vertices
    7, 8, ... relabeled 0, -1, ...: labels outside 1..N name internal
    vertices, whatever their sign.  With layout, the resolved web's
    drawing coordinates are kept and relabeled too."""
    d = web_of_tableau(from_word("112233")).to_dict()
    relabel = {v: 7 - v if v > 6 else v for v in map(int, d["rotation"])}
    for e in d["edges"]:
        e["from"], e["to"] = relabel[e["from"]], relabel[e["to"]]
    for key in ("rotation", "layout"):
        d[key] = {str(relabel[int(v)]): value for v, value in d[key].items()}
    if not layout:
        del d["layout"]
    return d


def two_sided_web() -> PlanarWeb:
    """Two tripods on opposite sides of the boundary circle 1..6: the one
    on 1, 2, 3 inside it and the one on 4, 5, 6 outside.  Each vertex and
    face is legal and the map is connected and planar, but no face lies
    outside all web edges, so there is no exterior face."""
    edges = (
        (1, 7, ARC), (2, 7, ARC), (3, 7, ARC), (4, 8, ARC), (5, 8, ARC), (6, 8, ARC),
        *((k, k % 6 + 1, BOUNDARY) for k in range(1, 7)),
    )
    rotation = {
        1: (0, 12, 23), 2: (2, 14, 13), 3: (4, 16, 15),
        4: (6, 17, 18), 5: (8, 19, 20), 6: (10, 21, 22),
        7: (1, 5, 3), 8: (7, 9, 11),
    }
    return checked_web(6, edges, rotation)


def golden_webs():
    """Every 3-row web with n <= 4, each followed by its rotation, its
    reflection and its JSON round trip; then the crossed web of the fold
    of every rotationally symmetric 3-row tableau with n <= 5.  2,150 webs.
    """
    for n in range(1, 5):
        for word in enumerate_words((n, n, n)):
            w = web_of_tableau(from_word(word))
            yield from (w, rotate(w), reflect(w), PlanarWeb.from_dict(w.to_dict()))
    for n in range(1, 6):
        for word in symmetric_words((n, n, n)):
            yield crossed_web(fold(from_word(word)))


def broken_webs():
    """Four seeded mutations of the JSON form of every 3-row web with
    2 <= n <= 4, each read back through `PlanarWeb.from_dict`: one edge's
    tag flipped between arc and boundary, one vertex's rotation shuffled,
    one edge reversed, and one dart moved to a new vertex of its own.
    Each is still a rotation system, but most are not 3-webs.  2,036 webs,
    the same on every run.
    """
    rng = Random(20)
    for n in range(2, 5):
        for word in enumerate_words((n, n, n)):
            d = web_of_tableau(from_word(word)).to_dict()
            del d["layout"]
            for mutant in _mutants(d, rng):
                yield word, PlanarWeb.from_dict(mutant)


def _mutants(d: dict, rng: Random):
    edges, rotation = d["edges"], d["rotation"]

    def with_edge(i, e, rot):
        return dict(d, edges=edges[:i] + [e] + edges[i + 1:], rotation=rot)

    i = rng.randrange(len(edges))
    e = edges[i]
    yield with_edge(i, dict(e, tag=ARC if e["tag"] == BOUNDARY else BOUNDARY), rotation)

    v = rng.choice(list(rotation))
    shuffled = list(rotation[v])
    rng.shuffle(shuffled)
    yield dict(d, rotation=dict(rotation, **{v: shuffled}))

    i = rng.randrange(len(edges))
    e = edges[i]
    swap = {2 * i: 2 * i + 1, 2 * i + 1: 2 * i}
    reversed_rotation = {u: [swap.get(x, x) for x in ds] for u, ds in rotation.items()}
    yield with_edge(i, dict(e, **{"from": e["to"], "to": e["from"]}), reversed_rotation)

    dart = rng.randrange(2 * len(edges))
    owner = next(u for u, ds in rotation.items() if dart in ds)
    new = max(map(int, rotation)) + 1
    moved = dict(rotation, **{owner: [x for x in rotation[owner] if x != dart], str(new): [dart]})
    e = edges[dart // 2]
    yield with_edge(dart // 2, dict(e, **{"to" if dart & 1 else "from": new}), moved)
