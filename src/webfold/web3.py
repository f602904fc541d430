"""Bijections between 3-row rectangular tableaux and planar 3-webs.

Tableau to web goes through an arc diagram: first arcs match the top
two rows left to right, second arcs match the bottom two rows right to
left, and the diagram resolves to a web.  Web to tableau reads the word
off boundary-face distances.  The symmetric variants swap the distance
origin for mirror distances and rebuild the web from a domino tableau
via block decomposition, compression, and a reflected diagram whose
vertical-pair arcs are crossed over the axis.  The decomposition reads
the domino tableau once; an odd tableau's compression is skew over (1, 1).
"""

from __future__ import annotations

from collections.abc import Callable

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
from .matchings import _pair
from .mdiagram import (
    FIRST,
    SECOND,
    Arc,
    BoundaryVertex,
    MDiagram,
    mirror_arc,
    resolve,
)
from .planarweb import PlanarWeb, boundary_face, is_symmetrical, validate_3web, web_distance
from .tableaux import Tableau, from_word, is_domino

_PHI = {-1: "1", 0: "2", 1: "3"}
_LAMBDA = {-2: "11", -1: "12", 0: "22", 1: "23", 2: "33"}


def _require_3xn(t: Tableau) -> int:
    outer = t.shape.outer
    if t.shape.inner != () or len(outer) != 3 or len(set(outer)) != 1:
        raise WrongShape(f"need a 3-row rectangle, got {outer} / {t.shape.inner}")
    return outer[0]


def _arcs(rows: tuple[tuple[int, ...], ...], low: tuple[int, ...], shift: int) -> list[Arc]:
    """First arcs from rows 1-2 pointing right, then second arcs from `low`
    (row 2 as the second arcs see it) to row 3 pointing left; entry k sits
    at boundary position k + shift.
    """
    r1, r2, r3 = (set(row) for row in rows)
    arcs = [Arc(o + shift, c + shift, FIRST) for o, c in _pair(r1, r2)]
    arcs += [Arc(c + shift, o + shift, SECOND) for o, c in _pair(set(low), r3)]
    return arcs


def mdiagram_of_tableau(t: Tableau) -> MDiagram:
    """First arcs from rows 1-2 pointing right, second arcs from rows 2-3 pointing left."""
    n = _require_3xn(t)
    boundary = tuple(BoundaryVertex(str(i), i) for i in range(1, 3 * n + 1))
    return MDiagram(boundary, tuple(_arcs(t.rows, t.rows[1], 0)))


def web_of_tableau(t: Tableau) -> PlanarWeb:
    return resolve(mdiagram_of_tableau(t))


def _read_rectangle(w: PlanarWeb, read: Callable[[PlanarWeb], str], what: str) -> Tableau:
    """The tableau of the word read(w) off a checked 3-web; NotAWeb names a
    word that fills no 3-row rectangle as what.format(word)."""
    report = validate_3web(w)
    if not report.ok:
        raise NotAWeb("; ".join(report.violations))
    word = read(w)
    t = from_word(word)
    if t.shape.outer != (w.n_boundary // 3,) * 3:
        raise NotAWeb(f"{what.format(word)} does not fill a 3-row rectangle")
    return t


def tableau_of_web(w: PlanarWeb) -> Tableau:
    """Read the word from distances to the outer boundary face."""
    return _read_rectangle(w, _distance_word, "distance word {}")


def _distance_word(w: PlanarWeb) -> str:
    n = w.n_boundary
    base = boundary_face(w, 0)
    d = [web_distance(w, base, boundary_face(w, i)) for i in range(n + 1)]
    return "".join(_PHI[d[i - 1] - d[i]] for i in range(1, n + 1))


def domino_of_symmetric_web(w: PlanarWeb) -> Tableau:
    """Read the word from mirror distances h_j = webdist(B_j, B_(N-j))."""
    return _read_rectangle(w, _mirror_word, "mirror distance word")


def _mirror_word(w: PlanarWeb) -> str:
    if not is_symmetrical(w):
        raise NotSymmetrical("web differs from its mirror image")
    n = w.n_boundary
    half = n // 2
    h = [web_distance(w, boundary_face(w, j), boundary_face(w, n - j)) for j in range(half + 1)]
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


def _classify_block(has_lone: bool, vertical_rows: tuple[int, ...], span: str) -> int:
    """Block type from the upper rows (0-based) of its vertical dominoes."""
    if has_lone:
        if vertical_rows == (1,):
            return 0
    elif vertical_rows == ():
        return 3
    elif vertical_rows == (0, 0):
        return 1
    elif vertical_rows == (1, 1):
        return 2
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


def crossed_mdiagram(d: Tableau) -> MDiagram:
    """The reflected compression diagram with each vertical pair's arcs crossed."""
    return crossed_mdiagram_of_decomposition(decompose_blocks(d))


def crossed_mdiagram_of_decomposition(dec: DominoDecomposition) -> MDiagram:
    # labels m', ..., 1', then "0" for an odd tableau, then 1, ..., m, at
    # abscissas -m..m; entry k of the compression is at position n - m + k
    c, m = dec.compression, dec.compression.size
    odd = c.shape.inner != ()
    xs = [x for x in range(-m, m + 1) if x or odd]
    labels = [f"{-x}'" if x < 0 else str(x) for x in xs]
    n, shift = len(xs), len(xs) - m
    # the lone cell, at label "0", opens a second arc below row 2
    low = (0, *c.rows[1]) if odd else c.rows[1]
    base = _arcs(c.rows, low, shift)
    arcs = base + [mirror_arc(a, n) for a in base]
    by_ends = {(a.tail, a.head): a for a in base}

    chosen = []
    for k1, k2 in dec.vertical_pairs:
        arc = by_ends.get((k1 + shift, k2 + shift))
        if arc is None:
            raise VerticalPairNotAnArc(
                f"vertical pair ({k1}, {k2}) is not a directed arc of the compression"
            )
        chosen.append(arc)

    def named(a: Arc) -> str:
        return f"({labels[a.tail - 1]}, {labels[a.head - 1]})"

    spans = {a: (min(a.tail, a.head), max(a.tail, a.head)) for a in arcs}
    for arc in chosen:
        lo, hi = spans[arc]
        for other in arcs:
            olo, ohi = spans[other]
            if other.kind == arc.kind and olo < lo and hi < ohi:
                raise VerticalPairNotAnArc(
                    f"{named(arc)} is not maximal: {named(other)} passes above it"
                )
    for i in range(len(chosen)):
        for j in range(i + 1, len(chosen)):
            (a1, b1), (a2, b2) = spans[chosen[i]], spans[chosen[j]]
            if a1 < a2 < b1 < b2 or a2 < a1 < b2 < b1:
                raise VerticalPairNotAnArc(
                    "vertical pair arcs intersect each other"
                )

    final = []
    replaced = set()
    for arc in chosen:
        replaced.add(arc)
        replaced.add(mirror_arc(arc, n))
        final.append(Arc(arc.tail, n + 1 - arc.head, arc.kind, True))
        final.append(Arc(n + 1 - arc.tail, arc.head, arc.kind, True))
    final.extend(a for a in arcs if a not in replaced)
    return MDiagram(tuple(map(BoundaryVertex, labels, xs)), tuple(final))


def crossed_web(d: Tableau) -> PlanarWeb:
    return resolve(crossed_mdiagram(d))
