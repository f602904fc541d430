"""Bijections between 3-row rectangular tableaux and planar 3-webs.

Tableau to web goes through an arc diagram: first arcs match the top
two rows left to right, second arcs match the bottom two rows right to
left, and the diagram resolves to a web.  Both diagram builders take the
arcs' (tail, head) positions from one end-list builder, `_ends`, and
mark the second kind in a bitmask; `web_of_tableau` hands the same ends
to the resolver, which builds the web alone: no diagram, no arc table.
Web to tableau reads the word off boundary-face distances.  The
symmetric variants read mirror distances off a web whose distance word
is its own reverse with 1 and 3 swapped, and rebuild the web from a
domino tableau via block decomposition, compression, and a reflected
diagram whose vertical-pair arcs are crossed over the axis, each pair
found by its index among the compression's ends.  The decomposition
reads the domino tableau once; an odd tableau's compression is skew over (1, 1).
"""

from __future__ import annotations

from collections.abc import Callable
from itertools import combinations

from ._value import Value
from .errors import (
    NotAWeb,
    NotDomino,
    NotSymmetrical,
    NonLatticeWord,
    UnrecognizedBlock,
    VerticalPairNotAnArc,
    WrongShape,
)
from .mdiagram import MDiagram, _resolve, resolve
from .planarweb import PlanarWeb, validate_3web
from .tableaux import Tableau, _pair, from_word, is_domino

_PHI = {-1: "1", 0: "2", 1: "3"}
_LAMBDA = {-2: "11", -1: "12", 0: "22", 1: "23", 2: "33"}
_MIRROR = str.maketrans("123", "321")


def _require_3xn(t: Tableau) -> int:
    outer = t.shape.outer
    if t.shape.inner != () or len(outer) != 3 or len(set(outer)) != 1:
        raise WrongShape(f"need a 3-row rectangle, got {outer} / {t.shape.inner}")
    return outer[0]


def _ends(
    rows: tuple[tuple[int, ...], ...], low: tuple[int, ...], shift: int
) -> list[tuple[int, int]]:
    """(tail, head) positions of the first arcs, from rows 1-2 pointing
    right, then of the second arcs, from `low` (row 2 as the second arcs
    see it) to row 3 pointing left; entry k sits at position k + shift."""
    ends = _pair(rows[0], rows[1]) + [(c, o) for o, c in _pair(low, rows[2])]
    return [(p + shift, q + shift) for p, q in ends] if shift else ends


def mdiagram_of_tableau(t: Tableau) -> MDiagram:
    """First arcs from rows 1-2 pointing right, second arcs from rows 2-3 pointing left."""
    n = _require_3xn(t)
    xs = tuple(range(1, 3 * n + 1))
    ends = tuple(_ends(t.rows, t.rows[1], 0))
    # the last n of the 2n arcs are of the second kind
    return MDiagram(tuple(map(str, xs)), xs, ends, (1 << 2 * n) - (1 << n))


def web_of_tableau(t: Tableau) -> PlanarWeb:
    """resolve(mdiagram_of_tableau(t)) from the row pairings, with no diagram and no arc table."""
    n = _require_3xn(t)
    # position p has abscissa p and label str(p), which messages print as p
    xs = range(1, 3 * n + 1)
    return _resolve(xs, xs, _ends(t.rows, t.rows[1], 0))[0]


def _read_rectangle(w: PlanarWeb, read: Callable[[PlanarWeb], str], what: str) -> Tableau:
    """The tableau of the word read(w) off a checked 3-web; NotAWeb names a
    word that fills no 3-row rectangle as what.format(word)."""
    violations = validate_3web(w)
    if violations:
        raise NotAWeb("; ".join(violations))
    word = read(w)
    t = from_word(word)
    if t.shape.outer != (w.n_boundary // 3,) * 3:
        raise NotAWeb(f"{what.format(word)} does not fill a 3-row rectangle")
    return t


def tableau_of_web(w: PlanarWeb) -> Tableau:
    """Read the word from distances to the outer boundary face."""
    return _read_rectangle(w, _distance_word, "distance word {}")


def _distance_word(w: PlanarWeb) -> str:
    # distances from B_0 off the walk of the dual that validate_3web took,
    # which reaches every B_k of a web it accepts
    table = w.face_table
    dist = table.distances(table.boundary[0])
    d = [dist[f] for f in table.boundary]
    return "".join([_PHI[a - b] for a, b in zip(d, d[1:])])


def domino_of_symmetric_web(w: PlanarWeb) -> Tableau:
    """Read the word from mirror distances h_j = webdist(B_j, B_(N-j)) of a symmetric web."""
    return _read_rectangle(w, _mirror_word, "mirror distance word")


def _mirror_word(w: PlanarWeb) -> str:
    """NotSymmetrical unless the distance word u is its own evacuation,
    u[N+1-i] = 4 - u[i] for every i, as reflecting a web evacuates its tableau."""
    word = _distance_word(w)
    if word != word[::-1].translate(_MIRROR):
        raise NotSymmetrical("web differs from its mirror image")
    n = w.n_boundary
    half = n // 2
    # a web that validate_3web accepts reaches every B_k from every other
    table, b = w.face_table, w.face_table.boundary
    h = [table.distances(b[j])[b[n - j]] for j in range(half + 1)]
    letters = [""] * (n + 1)
    if n % 2 == 1:
        letters[1] = "1"
    for j in range(1, half + 1):
        z = h[j] - h[j - 1]
        if z not in _LAMBDA:
            raise NonLatticeWord(f"mirror distance step {z} outside -2..2")
        letters[n + 1 - 2 * j], letters[n + 2 - 2 * j] = _LAMBDA[z]
    return "".join(letters[1:])


class Block(Value):
    __slots__ = _fields = ("btype", "columns", "verticals")

    def __init__(self, btype: int, columns: tuple[int, int], verticals: tuple[int, ...]) -> None:
        self.btype = btype
        self.columns = columns
        self.verticals = verticals


class DominoDecomposition(Value):
    __slots__ = _fields = ("blocks", "vertical_pairs", "compression")

    def __init__(
        self,
        blocks: tuple[Block, ...],
        vertical_pairs: tuple[tuple[int, int], ...],
        compression: Tableau,
    ) -> None:
        self.blocks = blocks
        self.vertical_pairs = vertical_pairs
        self.compression = compression


# block type by (holds the lone cell, upper rows (0-based) of its vertical dominoes)
_BLOCK_TYPES = {(True, (1,)): 0, (False, (0, 0)): 1, (False, (1, 1)): 2, (False, ()): 3}


def _classify_block(has_lone: bool, vertical_rows: tuple[int, ...], span: str) -> int:
    """Block type from the upper rows (0-based) of its vertical dominoes."""
    if (has_lone, vertical_rows) in _BLOCK_TYPES:
        return _BLOCK_TYPES[has_lone, vertical_rows]
    raise UnrecognizedBlock(
        f"block at {span} has vertical dominoes in rows {vertical_rows}"
        + (" next to the lone cell" if has_lone else "")
    )


def decompose_blocks(d: Tableau) -> DominoDecomposition:
    """Split a 3-row domino tableau into typed blocks and compress it.

    Columns are cut at every internal boundary no horizontal domino
    spans.  Each piece must have either no verticals (type 3), two in
    rows 1-2 (type 1), two in rows 2-3 (type 2), or, first piece of an
    odd tableau, the lone cell plus one vertical in rows 2-3 (type 0).
    Domino k is entry k of the compression, in the row of its first cell,
    one lower if it is the later vertical of a typed block.
    """
    n = _require_3xn(d)
    if not is_domino(d):
        raise NotDomino("consecutive entries do not pair into dominoes")
    odd = n % 2 == 1
    m = (3 * n) // 2
    # domino k holds entries 2k and 2k+1 of an odd tableau (0 is the lone
    # cell), and 2k-1 and 2k of an even one
    offset = 0 if odd else 1
    first: dict[int, tuple[int, int]] = {}
    vertical: dict[int, tuple[int, int]] = {}
    spanned: set[int] = set()
    for r, row in enumerate(d.rows):
        for c, e in enumerate(row):
            k = (e + offset) // 2
            if k not in first:
                first[k] = (r, c)
            elif first[k][0] == r:
                spanned.add(c - 1)
            else:
                vertical[k] = first[k]

    blocks: list[Block] = []
    pairs: list[tuple[int, int]] = []
    second: set[int] = set()
    start = 0
    for stop in range(1, n + 1):
        if stop < n and (stop - 1) in spanned:
            continue
        verts = sorted(
            k for k, (r, c) in vertical.items() if start <= c < stop
        )
        has_lone = odd and start == 0
        vertical_rows = tuple(vertical[k][0] for k in verts)
        btype = _classify_block(
            has_lone, vertical_rows, f"columns {start + 1}..{stop}"
        )
        if btype == 0:
            pairs.append((verts[0], 0))
        elif btype == 1:
            pairs.append((verts[0], verts[1]))
        elif btype == 2:
            pairs.append((verts[1], verts[0]))
        if btype != 3:
            second.add(verts[-1])
        blocks.append(Block(btype, (start + 1, stop), tuple(verts)))
        start = stop

    vword = "".join(str(first[k][0] + 1 + (k in second)) for k in range(1, m + 1))
    half = (n + 1) // 2
    compression = from_word(vword, inner=(1, 1) if odd else ())
    if compression.shape.outer != (half,) * 3:
        raise UnrecognizedBlock(
            f"compression shape {compression.shape.outer} is not ({half},)*3"
        )
    return DominoDecomposition(
        blocks=tuple(blocks),
        vertical_pairs=tuple(pairs),
        compression=compression,
    )


def crossed_mdiagram(dec: DominoDecomposition) -> MDiagram:
    """The reflected compression diagram of a domino decomposition, with
    each vertical pair's arcs crossed."""
    # labels m', ..., 1', then "0" for an odd tableau, then 1, ..., m, at
    # abscissas -m..m; entry k of the compression is at position n - m + k
    c, m = dec.compression, dec.compression.size
    odd = c.shape.inner != ()
    xs = tuple(x for x in range(-m, m + 1) if x or odd)
    labels = tuple(f"{-x}'" if x < 0 else str(x) for x in xs)
    n, shift = len(xs), len(xs) - m
    # the lone cell, at label "0", opens a second arc below row 2
    low = (0, *c.rows[1]) if odd else c.rows[1]
    ends = _ends(c.rows, low, shift)
    # arc i < base of the compression is mirrored by arc i + base; both are
    # of the second kind from i = first on
    base, first = len(ends), len(c.rows[1])
    ends += [(n + 1 - p, n + 1 - q) for p, q in ends]
    index = {e: i for i, e in enumerate(ends[:base])}

    chosen = []
    for k1, k2 in dec.vertical_pairs:
        i = index.get((k1 + shift, k2 + shift))
        if i is None:
            raise VerticalPairNotAnArc(
                f"vertical pair ({k1}, {k2}) is not a directed arc of the compression"
            )
        chosen.append(i)

    def named(i: int) -> str:
        p, q = ends[i]
        return f"({labels[p - 1]}, {labels[q - 1]})"

    spans = [(p, q) if p < q else (q, p) for p, q in ends]
    for i in chosen:
        lo, hi = spans[i]
        for j, (olo, ohi) in enumerate(spans):
            if (j % base < first) == (i < first) and olo < lo and hi < ohi:
                raise VerticalPairNotAnArc(
                    f"{named(i)} is not maximal: {named(j)} passes above it"
                )
    for i, j in combinations(chosen, 2):
        (a1, b1), (a2, b2) = spans[i], spans[j]
        if a1 < a2 < b1 < b2 or a2 < a1 < b2 < b1:
            raise VerticalPairNotAnArc("vertical pair arcs intersect each other")

    # each pair's two crossed arcs, then every arc that no pair replaces;
    # `kinds` names the compression arc whose kind each of them has
    final, kinds = [], []
    for i in chosen:
        p, q = ends[i]
        final += [(p, n + 1 - q), (n + 1 - p, q)]
        kinds += [i, i]
    replaced = {*chosen, *(i + base for i in chosen)}
    for i, e in enumerate(ends):
        if i not in replaced:
            final.append(e)
            kinds.append(i % base)
    second = sum(1 << k for k, i in enumerate(kinds) if i >= first)
    return MDiagram(labels, xs, tuple(final), second, (1 << 2 * len(chosen)) - 1)


def crossed_web(d: Tableau) -> PlanarWeb:
    return resolve(crossed_mdiagram(decompose_blocks(d)))
