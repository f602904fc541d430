"""Bijections between 3-row rectangular tableaux and planar 3-webs.

Tableau to web goes through an arc diagram: first arcs match the top
two rows left to right, second arcs match the bottom two rows right to
left, and the diagram resolves to a web.  Web to tableau reads the word
off boundary-face distances.  The symmetric variants swap the distance
origin for mirror distances and rebuild the web from a domino tableau
via block decomposition, compression, and a reflected diagram whose
vertical-pair arcs are crossed over the axis.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

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
    mirror_label,
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


def mdiagram_of_tableau(t: Tableau) -> MDiagram:
    """First arcs from rows 1-2 pointing right, second arcs from rows 2-3 pointing left."""
    n = _require_3xn(t)
    r1, r2, r3 = (set(row) for row in t.rows)
    arcs = [Arc(str(o), str(c), FIRST) for o, c in _pair(r1, r2)]
    arcs += [Arc(str(c), str(o), SECOND) for o, c in _pair(r2, r3)]
    boundary = tuple(BoundaryVertex(str(i), Fraction(i)) for i in range(1, 3 * n + 1))
    return MDiagram(boundary, tuple(arcs))


def web_of_tableau(t: Tableau) -> PlanarWeb:
    return resolve(mdiagram_of_tableau(t))


def tableau_of_web(w: PlanarWeb) -> Tableau:
    """Read the word from distances to the outer boundary face."""
    report = validate_3web(w)
    if not report.ok:
        raise NotAWeb("; ".join(report.violations))
    n = w.n_boundary
    base = boundary_face(w, 0)
    d = [web_distance(w, base, boundary_face(w, i)) for i in range(n + 1)]
    word = "".join(_PHI[d[i - 1] - d[i]] for i in range(1, n + 1))
    t = from_word(word)
    if t.shape.outer != (n // 3,) * 3:
        raise NotAWeb(f"distance word {word} does not fill a 3-row rectangle")
    return t


def domino_of_symmetric_web(w: PlanarWeb) -> Tableau:
    """Read the word from mirror distances h_j = webdist(B_j, B_(N-j))."""
    report = validate_3web(w)
    if not report.ok:
        raise NotAWeb("; ".join(report.violations))
    if not is_symmetrical(w):
        raise NotSymmetrical("web differs from its mirror image")
    n = w.n_boundary
    half = n // 2
    h = [
        web_distance(w, boundary_face(w, j), boundary_face(w, n - j))
        for j in range(half + 1)
    ]
    letters = [""] * (n + 1)
    if n % 2 == 1:
        letters[1] = "1"
    for j in range(1, half + 1):
        z = h[j] - h[j - 1]
        if z not in _LAMBDA:
            raise NonLatticeWord(f"mirror distance step {z} outside -2..2")
        letters[n + 1 - 2 * j], letters[n + 2 - 2 * j] = _LAMBDA[z]
    t = from_word("".join(letters[1:]))
    if t.shape.outer != (n // 3,) * 3:
        raise NotAWeb("mirror distance word does not fill a 3-row rectangle")
    return t


@dataclass(frozen=True)
class Block:
    btype: int
    columns: tuple[int, int]
    verticals: tuple[int, ...]


@dataclass(frozen=True)
class DominoDecomposition:
    blocks: tuple[Block, ...]
    vertical_pairs: tuple[tuple[int, int], ...]
    compression: Tableau
    compression0: tuple[tuple[int, ...], ...] | None


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
    """
    n = _require_3xn(d)
    if not is_domino(d):
        raise NotDomino("consecutive entries do not pair into dominoes")
    odd = n % 2 == 1
    m = (3 * n) // 2

    def label(e: int) -> int:
        return e // 2 if odd else (e + 1) // 2

    grid = tuple(tuple(label(e) for e in row) for row in d.rows)
    cells: dict[int, list[tuple[int, int]]] = {}
    for r in range(3):
        for c in range(n):
            cells.setdefault(grid[r][c], []).append((r, c))

    horizontal: dict[int, tuple[int, int]] = {}
    vertical: dict[int, tuple[int, int]] = {}
    for k, cc in cells.items():
        if k == 0:
            continue
        (r1, c1), (r2, c2) = cc
        if r1 == r2:
            horizontal[k] = (r1, c1)
        else:
            vertical[k] = (r1, c1)

    spanned = {c for _, c in horizontal.values()}
    blocks: list[Block] = []
    pairs: list[tuple[int, int]] = []
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
        blocks.append(Block(btype, (start + 1, stop), tuple(verts)))
        start = stop

    second_verticals = {max(p) for p in pairs if 0 not in p}
    second_verticals |= {k for k, z in pairs if z == 0}
    v_letter = {}
    for k in range(1, m + 1):
        if k in horizontal:
            v_letter[k] = horizontal[k][0] + 1
        elif k in second_verticals:
            v_letter[k] = vertical[k][0] + 2
        else:
            v_letter[k] = vertical[k][0] + 1
    vword = "".join(str(v_letter[k]) for k in range(1, m + 1))

    if odd:
        half = (n + 1) // 2
        compression = from_word(vword, inner=(1, 1))
        if compression.shape.outer != (half,) * 3:
            raise UnrecognizedBlock(
                f"compression shape {compression.shape.outer} is not ({half},)*3"
            )
        rows = compression.rows
        compression0 = (rows[0], (0, *rows[1]), rows[2])
    else:
        compression = from_word(vword)
        if compression.shape.outer != (n // 2,) * 3:
            raise UnrecognizedBlock(
                f"compression shape {compression.shape.outer} is not ({n // 2},)*3"
            )
        compression0 = None

    return DominoDecomposition(
        blocks=tuple(blocks),
        vertical_pairs=tuple(pairs),
        compression=compression,
        compression0=compression0,
    )


def _base_reflected_arcs(dec: DominoDecomposition) -> list[Arc]:
    c = dec.compression
    r1, r2 = set(c.rows[0]), set(c.rows[1])
    if dec.compression0 is not None:
        r2_low, r3 = set(dec.compression0[1]), set(dec.compression0[2])
    else:
        r2_low, r3 = r2, set(c.rows[2])
    arcs = [Arc(str(o), str(h), FIRST) for o, h in _pair(r1, r2)]
    arcs += [Arc(str(h), str(o), SECOND) for o, h in _pair(r2_low, r3)]
    return arcs + [mirror_arc(a) for a in arcs]


def crossed_mdiagram(d: Tableau) -> MDiagram:
    """The reflected compression diagram with each vertical pair's arcs crossed."""
    return crossed_mdiagram_of_decomposition(decompose_blocks(d))


def crossed_mdiagram_of_decomposition(dec: DominoDecomposition) -> MDiagram:
    arcs = _base_reflected_arcs(dec)
    by_ends = {(a.tail, a.head): a for a in arcs}

    chosen = []
    for k1, k2 in dec.vertical_pairs:
        arc = by_ends.get((str(k1), str(k2)))
        if arc is None:
            raise VerticalPairNotAnArc(
                f"vertical pair ({k1}, {k2}) is not a directed arc of the compression"
            )
        chosen.append(arc)

    # (label, abscissa): k' mirrors k at -k, and "0" sits on the axis
    m = dec.compression.size
    placed = [(f"{k}'", -k) for k in range(m, 0, -1)]
    if dec.compression0 is not None:
        placed.append(("0", 0))
    placed += [(str(k), k) for k in range(1, m + 1)]
    position = dict(placed)
    spans = {}
    for a in arcs:
        lo, hi = sorted((position[a.tail], position[a.head]))
        spans[a] = (lo, hi)
    for arc in chosen:
        lo, hi = spans[arc]
        for other in arcs:
            if other.kind == arc.kind and other is not arc:
                olo, ohi = spans[other]
                if olo < lo and hi < ohi:
                    raise VerticalPairNotAnArc(
                        f"({arc.tail}, {arc.head}) is not maximal: "
                        f"({other.tail}, {other.head}) passes above it"
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
        replaced.add(mirror_arc(arc))
        final.append(Arc(arc.tail, mirror_label(arc.head), arc.kind, True))
        final.append(Arc(mirror_label(arc.tail), arc.head, arc.kind, True))
    final.extend(a for a in arcs if a not in replaced)

    boundary = tuple(BoundaryVertex(lab, Fraction(x)) for lab, x in placed)
    return MDiagram(boundary, tuple(final))


def crossed_web(d: Tableau) -> PlanarWeb:
    return resolve(crossed_mdiagram(d))
