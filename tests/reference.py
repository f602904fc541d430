"""Reference implementations that only the tests call.

Each is a slower or more direct form of something the package computes
another way, kept here so that the tests can compare the two.
"""

from collections.abc import Iterator

from webfold.errors import NonLatticeWord, NotSymmetrical
from webfold.oracle import _symmetric_tableaux
from webfold.planarweb import PlanarWeb, boundary_face, canonical, reflect, web_distance
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
