"""Hand-built webs for the tests, and the fixed set of webs whose bytes are pinned.

Hand-built webs are read through `PlanarWeb.from_dict`, as a web file
would be, so their rotation systems are checked.
"""

from webfold.oracle import enumerate_words
from webfold.planarweb import BOUNDARY, Edge, PlanarWeb, reflect, rotate
from webfold.tableaux import fold, from_word, is_rotationally_symmetric
from webfold.web3 import crossed_web, web_of_tableau


def checked_web(n: int, edges, rotation: dict[int, tuple[int, ...]]) -> PlanarWeb:
    return PlanarWeb.from_dict(
        {
            "n": n,
            "edges": [{"from": e.tail, "to": e.head, "tag": e.tag} for e in edges],
            "rotation": {str(v): ds for v, ds in rotation.items()},
        }
    )


def tripod() -> PlanarWeb:
    edges = (
        Edge(1, 4), Edge(2, 4), Edge(3, 4),
        Edge(1, 2, BOUNDARY), Edge(2, 3, BOUNDARY), Edge(3, 1, BOUNDARY),
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
        for word in enumerate_words((n, n, n)):
            t = from_word(word)
            if is_rotationally_symmetric(t):
                yield crossed_web(fold(t))
