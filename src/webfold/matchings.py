"""2-webs: noncrossing perfect matchings on 1..2n.

Arcs are stored sorted by left endpoint so equal matchings compare equal.
A matching is checked where it enters, by `from_dict`; `Matching2(...)`
only sorts, since the operators build valid matchings.
Rotation, reflection, and folding act by pure relabeling; the bijection
with two-row rectangular tableaux sends row-1 entries to left endpoints.
"""

from __future__ import annotations

from ._value import Value
from .errors import NotSymmetrical, WrongShape, _integer
from .tableaux import Tableau, _pair


class Matching2(Value):
    __slots__ = _fields = ("n_pairs", "arcs")

    def __init__(self, n_pairs: int, arcs: tuple[tuple[int, int], ...]) -> None:
        self.n_pairs = n_pairs
        self.arcs = tuple(sorted((min(a, b), max(a, b)) for a, b in arcs))

    def to_dict(self) -> dict:
        return {"n": self.n_pairs, "arcs": [list(arc) for arc in self.arcs]}

    @classmethod
    def from_dict(cls, d: dict) -> "Matching2":
        """The matching of a JSON form: a noncrossing partition of 1..2n, n >= 1."""
        n, arcs = d["n"], tuple((a, b) for a, b in d["arcs"])
        if _integer("n", n) < 1:
            raise ValueError(f"n must be at least 1, got {n}")
        for arc in arcs:
            for v in arc:
                _integer("arc endpoint", v)
        m = cls(n, arcs)
        ends = [v for arc in m.arcs for v in arc]
        # compare sizes first, so a huge n never builds a list of 2n entries
        if len(ends) != 2 * n or sorted(ends) != list(range(1, 2 * n + 1)):
            raise ValueError("arcs must partition 1..2n")
        partner = dict(m.arcs)
        partner.update((b, a) for a, b in m.arcs)
        stack: list[int] = []
        for k in range(1, 2 * n + 1):
            if partner[k] > k:
                stack.append(k)
            elif not stack or stack.pop() != partner[k]:
                raise ValueError("matching has crossing arcs")
        return m


def web2_of_tableau(t: Tableau) -> Matching2:
    """Arcs pair each row-2 entry with the nearest unmatched row-1 entry."""
    sh = t.shape
    if not (sh.is_rectangular and sh.row_count == 2):
        raise WrongShape("2-webs correspond to tableaux of shape (n, n)")
    return Matching2(t.size // 2, tuple(_pair(*t.rows)))


def tableau_of_web2(m: Matching2) -> Tableau:
    row1 = sorted(a for a, b in m.arcs)
    row2 = sorted(b for a, b in m.arcs)
    return Tableau.from_rows([row1, row2])


def rotate2(m: Matching2) -> Matching2:
    """Relabel k to k-1 cyclically (1 wraps to 2n)."""
    size = 2 * m.n_pairs

    def shift(k: int) -> int:
        return k - 1 if k > 1 else size

    return Matching2(m.n_pairs, tuple((shift(a), shift(b)) for a, b in m.arcs))


def reflect2(m: Matching2) -> Matching2:
    """Relabel k to 2n+1-k."""
    size = 2 * m.n_pairs
    return Matching2(m.n_pairs, tuple((size + 1 - a, size + 1 - b) for a, b in m.arcs))


def is_symmetrical2(m: Matching2) -> bool:
    return reflect2(m) == m


def fold2(m: Matching2) -> Matching2:
    """Fold a symmetrical matching onto its right half.

    A mirror pair {a,b}, {a',b'} with b <= n becomes the two arcs
    {2a', 2b'+1} and {2a'+1, 2b'}; a self-mirror arc {a, a'} becomes
    {2a', 2a'+1}, where x' denotes 2n+1-x.
    """
    if not is_symmetrical2(m):
        raise NotSymmetrical("fold2 needs a reflection-symmetric matching")
    n = m.n_pairs
    size = 2 * n

    def comp(k: int) -> int:
        return size + 1 - k

    arcs = []
    for a, b in m.arcs:
        if b == comp(a):
            arcs.append((comp(2 * a), comp(2 * a) + 1))
        elif b <= n:
            arcs.append((comp(2 * a), comp(2 * b) + 1))
            arcs.append((comp(2 * a) + 1, comp(2 * b)))
    return Matching2(n, tuple(arcs))
