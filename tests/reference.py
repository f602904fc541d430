"""Reference implementations that only the tests call.

Each is a slower or more direct form of something the package computes
another way, kept here so that the tests can compare the two.
"""

from collections.abc import Iterator
from random import Random

from webfold.errors import NonLatticeWord, NotSymmetrical
from webfold.oracle import _symmetric_tableaux
from webfold.planarweb import PlanarWeb, boundary_face, canonical, reflect, web_distance
from webfold.tableaux import Tableau
from webfold.web3 import _LAMBDA


def is_symmetrical(w: PlanarWeb) -> bool:
    """Whether w equals its mirror image, compared by canonical form."""
    return canonical(reflect(w)) == canonical(w)


def symmetric_words(shape: tuple[int, ...]) -> Iterator[str]:
    """The words of the rotationally symmetric tableaux of a rectangle, in order."""
    return (t.word for t in _symmetric_tableaux(shape))


def mirror_word(w: PlanarWeb) -> str:
    """The word of the mirror distances h_j = webdist(B_j, B_(N-j)) of a
    valid 3-web that equals its mirror image by canonical form: for odd N
    a 1 first, then the two letters of each step h_j - h_(j-1), j from
    N/2 down to 1."""
    if not is_symmetrical(w):
        raise NotSymmetrical("web differs from its mirror image")
    n = w.n_boundary
    h = [web_distance(w, boundary_face(w, j), boundary_face(w, n - j)) for j in range(n // 2 + 1)]
    steps = []
    for j in range(1, n // 2 + 1):
        z = h[j] - h[j - 1]
        if z not in _LAMBDA:
            raise NonLatticeWord(f"mirror distance step {z} outside -2..2")
        steps.append(_LAMBDA[z])
    return "1" * (n % 2) + "".join(reversed(steps))


def rectify_by_slides(t: Tableau, rng: Random | None = None) -> Tableau:
    """Jeu de taquin: slide inner corners out until the shape is straight.

    The result does not depend on the corner order; pass an rng to pick
    corners at random instead of always the topmost one.  Each slide moves
    the hole right or down into the smaller neighbour until none is left.
    """
    inner = list(t.shape.inner) + [0] * (len(t.rows) - len(t.shape.inner))
    grid = {
        (r, c): v
        for r, (x, row) in enumerate(zip(inner, t.rows), start=1)
        for c, v in enumerate(row, start=x + 1)
    }
    while any(inner):
        # rows whose last inner cell has no inner cell below it, topmost first
        corners = [r for r, (x, y) in enumerate(zip(inner, inner[1:] + [0]), start=1) if x > y]
        r = rng.choice(corners) if rng else corners[0]
        hole = (r, inner[r - 1])
        inner[r - 1] -= 1
        while True:
            right, below = (hole[0], hole[1] + 1), (hole[0] + 1, hole[1])
            rv, bv = grid.get(right), grid.get(below)
            if rv is None and bv is None:
                break
            nxt = right if bv is None or (rv is not None and rv < bv) else below
            grid[hole] = grid.pop(nxt)
            hole = nxt
    # the shape is straight now: rows below the last one holding a cell go
    rows: list[list[int]] = [[] for _ in range(max([r for r, _ in grid], default=0))]
    for (r, _), v in sorted(grid.items()):
        rows[r - 1].append(v)
    return Tableau.from_rows(rows)
