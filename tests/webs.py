"""Hand-built webs for the tests.

They are read through `PlanarWeb.from_dict`, as a web file would be, so
their rotation systems are checked.
"""

from webfold.planarweb import BOUNDARY, Edge, PlanarWeb


def checked_web(n: int, edges, rotation: dict[int, tuple[int, ...]]) -> PlanarWeb:
    return PlanarWeb.from_dict(
        {
            "n": n,
            "edges": [{"from": e.tail, "to": e.head, "tag": e.tag} for e in edges],
            "rotation": rotation,
        }
    )


def tripod() -> PlanarWeb:
    edges = (
        Edge(1, 4), Edge(2, 4), Edge(3, 4),
        Edge(1, 2, BOUNDARY), Edge(2, 3, BOUNDARY), Edge(3, 1, BOUNDARY),
    )
    return checked_web(3, edges, {1: (6, 0, 11), 2: (8, 2, 7), 3: (10, 4, 9), 4: (1, 3, 5)})
