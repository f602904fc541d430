"""Skew shapes, standard Young tableaux, and the slide-based operators.

Cells are addressed (row, column) with both indices starting at 1.  A
tableau stores its entries row by row; row r occupies the columns
inner(r)+1 .. outer(r).  All values are immutable and the operators are
pure functions returning new tableaux.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .errors import NonLatticeWord, NotACorner, NotRectangular, OutOfRange, WrongShape

Cell = tuple[int, int]


@dataclass(frozen=True)
class Shape:
    """A skew shape outer/inner; inner may be empty for straight shapes."""

    outer: tuple[int, ...]
    inner: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        outer = tuple(self.outer)
        inner = tuple(self.inner)
        while inner and inner[-1] == 0:
            inner = inner[:-1]
        object.__setattr__(self, "outer", outer)
        object.__setattr__(self, "inner", inner)
        if any(x <= 0 for x in outer):
            raise ValueError("outer rows must be positive")
        if any(outer[i] < outer[i + 1] for i in range(len(outer) - 1)):
            raise ValueError("outer must be weakly decreasing")
        if any(x < 0 for x in inner):
            raise ValueError("inner rows must be nonnegative")
        if any(inner[i] < inner[i + 1] for i in range(len(inner) - 1)):
            raise ValueError("inner must be weakly decreasing")
        if len(inner) > len(outer):
            raise ValueError("inner has more rows than outer")
        if any(inner[i] > outer[i] for i in range(len(inner))):
            raise ValueError("inner does not fit inside outer")

    def inner_at(self, r: int) -> int:
        return self.inner[r - 1] if 1 <= r <= len(self.inner) else 0

    def outer_at(self, r: int) -> int:
        return self.outer[r - 1] if 1 <= r <= len(self.outer) else 0

    @property
    def row_count(self) -> int:
        return len(self.outer)

    @property
    def size(self) -> int:
        return sum(self.outer) - sum(self.inner)

    @property
    def is_straight(self) -> bool:
        return not self.inner

    @property
    def is_rectangular(self) -> bool:
        return self.is_straight and len(set(self.outer)) <= 1


@dataclass(frozen=True)
class Tableau:
    """A standard filling of a skew shape with 1..N."""

    shape: Shape
    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        rows = tuple(tuple(row) for row in self.rows)
        object.__setattr__(self, "rows", rows)
        sh = self.shape
        if len(rows) != sh.row_count:
            raise ValueError("row count does not match shape")
        for r in range(1, sh.row_count + 1):
            if len(rows[r - 1]) != sh.outer_at(r) - sh.inner_at(r):
                raise ValueError(f"row {r} length does not match shape")
        entries = [v for row in rows for v in row]
        if sorted(entries) != list(range(1, len(entries) + 1)):
            raise ValueError("entries are not a bijection onto 1..N")
        for row in rows:
            if any(row[i] >= row[i + 1] for i in range(len(row) - 1)):
                raise ValueError("rows must strictly increase")
        for r in range(1, sh.row_count):
            upper, lower = rows[r - 1], rows[r]
            # lower[i + shift] is the cell below upper[i]
            shift = sh.inner_at(r) - sh.inner_at(r + 1)
            for i in range(min(len(upper), len(lower) - shift)):
                if upper[i] >= lower[i + shift]:
                    raise ValueError("columns must strictly increase")

    @classmethod
    def from_rows(cls, rows, inner=()) -> "Tableau":
        rows = tuple(tuple(row) for row in rows)
        inner = tuple(inner)
        outer = tuple(
            len(rows[i]) + (inner[i] if i < len(inner) else 0)
            for i in range(len(rows))
        )
        return cls(Shape(outer, inner), rows)

    @property
    def size(self) -> int:
        return self.shape.size

    @property
    def is_straight(self) -> bool:
        return self.shape.is_straight

    @property
    def word(self) -> str:
        rows = [0] * (self.size + 1)
        for r, row in enumerate(self.rows, start=1):
            for v in row:
                rows[v] = r
        return "".join(str(rows[v]) for v in range(1, self.size + 1))

    def to_dict(self) -> dict:
        d = {"outer": list(self.shape.outer), "word": self.word}
        if self.shape.inner:
            d["inner"] = list(self.shape.inner)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "Tableau":
        t = from_word(d["word"], tuple(d.get("inner", ())))
        if t.shape.outer != tuple(d["outer"]):
            raise ValueError(f"outer {d['outer']} is not the word's shape {list(t.shape.outer)}")
        return t

    def __str__(self) -> str:
        lines = []
        for r, row in enumerate(self.rows, start=1):
            pad = [" ."] * self.shape.inner_at(r)
            lines.append(" ".join(pad + [f"{v:2d}" for v in row]))
        return "\n".join(lines)


def from_word(word: str, inner=()) -> Tableau:
    """Decode a row-index word, optionally against an explicit inner shape.

    Straight-shape words must satisfy the lattice condition.  Any word that
    fails to encode a standard tableau raises NonLatticeWord.
    """
    inner = tuple(inner)
    if not all(ch.isdigit() and ch != "0" for ch in word):
        raise NonLatticeWord("word must consist of digits 1-9")
    letters = [int(ch) for ch in word]
    row_count = max(letters, default=0)
    if not inner:
        counts = [0] * (row_count + 1)
        for j, r in enumerate(letters):
            counts[r] += 1
            if r > 1 and counts[r] > counts[r - 1]:
                raise NonLatticeWord(f"lattice condition fails at position {j + 1}")
    row_count = max(row_count, len(inner))
    rows: list[list[int]] = [[] for _ in range(row_count)]
    for j, r in enumerate(letters, start=1):
        rows[r - 1].append(j)
    try:
        return Tableau.from_rows(rows, inner)
    except ValueError as e:
        raise NonLatticeWord(f"word does not encode a standard tableau: {e}") from None


def _grid(t: Tableau) -> dict[Cell, int]:
    sh = t.shape
    return {
        (r, sh.inner_at(r) + 1 + i): v
        for r, row in enumerate(t.rows, start=1)
        for i, v in enumerate(row)
    }


def _from_grid(grid: dict[Cell, int], inner: list[int]) -> Tableau:
    """The tableau of grid's cells over inner, validated once.

    A bottom row with neither a cell nor an inner cell is dropped.
    """
    height = max([r for r, _ in grid] + [r for r, x in enumerate(inner, start=1) if x], default=0)
    rows: list[list[int]] = [[] for _ in range(height)]
    for (r, _), v in sorted(grid.items()):
        rows[r - 1].append(v)
    outer = [len(row) + (inner[i] if i < len(inner) else 0) for i, row in enumerate(rows)]
    return Tableau(Shape(tuple(outer), tuple(inner)), tuple(tuple(row) for row in rows))


def _slide_out(grid: dict[Cell, int], hole: Cell) -> None:
    """Move the hole right or down into the smaller neighbour until none is left, in place."""
    while True:
        right = (hole[0], hole[1] + 1)
        below = (hole[0] + 1, hole[1])
        rv = grid.get(right)
        bv = grid.get(below)
        if rv is None and bv is None:
            return
        nxt = right if bv is None or (rv is not None and rv < bv) else below
        grid[hole] = grid.pop(nxt)
        hole = nxt


def slide(t: Tableau, corner: Cell) -> Tableau:
    """One jeu-de-taquin slide from a removable inner corner."""
    sh = t.shape
    r, c = corner
    if not (1 <= r <= len(sh.inner)) or c != sh.inner_at(r) or c == 0:
        raise NotACorner(f"({r}, {c}) is not a cell on the inner boundary")
    if sh.inner_at(r + 1) >= c:
        raise NotACorner(f"({r}, {c}) has an inner cell below it")
    grid = _grid(t)
    _slide_out(grid, corner)
    inner = list(sh.inner)
    inner[r - 1] -= 1
    return _from_grid(grid, inner)


def rectify(t: Tableau, rng: random.Random | None = None) -> Tableau:
    """Slide until the shape is straight.

    The result does not depend on the corner order; pass an rng to pick
    corners at random instead of always the topmost one.  The slides run
    on one copy of the cells, and only the straight result is validated.
    """
    grid = _grid(t)
    inner = list(t.shape.inner)
    while any(inner):
        # rows whose last inner cell has no inner cell below it, topmost first
        corners = [r for r, (x, y) in enumerate(zip(inner, inner[1:] + [0]), start=1) if x > y]
        r = rng.choice(corners) if rng else corners[0]
        _slide_out(grid, (r, inner[r - 1]))
        inner[r - 1] -= 1
    return _from_grid(grid, inner)


def _require_straight(t: Tableau) -> None:
    if not t.is_straight:
        raise WrongShape("operation requires a straight shape")


def restrict_le(t: Tableau, k: int) -> Tableau:
    """The subtableau on entries 1..k (same inner shape)."""
    if not (0 <= k <= t.size):
        raise OutOfRange(f"k={k} outside 0..{t.size}")
    sh = t.shape
    outer = []
    rows = []
    for r in range(1, sh.row_count + 1):
        kept = tuple(v for v in t.rows[r - 1] if v <= k)
        outer.append(sh.inner_at(r) + len(kept))
        rows.append(kept)
    while rows and not rows[-1]:
        outer.pop()
        rows.pop()
    inner = sh.inner[: len(outer)]
    return Tableau(Shape(tuple(outer), inner), tuple(rows))


def restrict_gt(t: Tableau, k: int) -> Tableau:
    """The subtableau on entries k+1..N, relabeled by subtracting k."""
    if not (0 <= k <= t.size):
        raise OutOfRange(f"k={k} outside 0..{t.size}")
    sh = t.shape
    inner = []
    rows = []
    for r in range(1, sh.row_count + 1):
        kept = tuple(v - k for v in t.rows[r - 1] if v > k)
        inner.append(sh.outer_at(r) - len(kept))
        rows.append(kept)
    while rows and not rows[-1]:
        rows.pop()
        inner.pop()
    outer = sh.outer[: len(rows)]
    return Tableau(Shape(outer, tuple(inner)), tuple(rows))


def _slide_forward(t: Tableau, bounds: range | list[int]) -> Tableau:
    """Bounded promotions of a straight tableau, one per bound k in turn.

    For each k the hole left by 1 slides right or down into the smaller
    neighbour among entries <= k; the hole then takes k and entries 2..k
    drop by one.  The steps work on plain lists; one Tableau is validated.
    """
    rows = [list(row) for row in t.rows]
    for k in bounds:
        r = c = 0
        while True:
            right = rows[r][c + 1] if c + 1 < len(rows[r]) else k + 1
            below = rows[r + 1][c] if r + 1 < len(rows) and c < len(rows[r + 1]) else k + 1
            if min(right, below) > k:
                break
            rows[r][c] = min(right, below)
            r, c = (r, c + 1) if right < below else (r + 1, c)
        rows = [[v - 1 if v <= k else v for v in row] for row in rows]
        rows[r][c] = k
    return Tableau(t.shape, tuple(rows))


def _slide_back(t: Tableau, bounds: range | list[int]) -> Tableau:
    """Inverse bounded promotions of a straight tableau, one per bound k in turn.

    For each k the hole left by k slides up or left into the larger
    neighbour until it reaches (1, 1); entries below k rise by one and 1
    goes to (1, 1).  The steps work on plain lists, as in _slide_forward.
    """
    rows = [list(row) for row in t.rows]
    for k in bounds:
        r, c = next((r, row.index(k)) for r, row in enumerate(rows) if k in row)
        while (r, c) != (0, 0):
            up = rows[r - 1][c] if r > 0 else 0
            left = rows[r][c - 1] if c > 0 else 0
            rows[r][c] = max(up, left)
            r, c = (r - 1, c) if up > left else (r, c - 1)
        rows = [[v + 1 if v < k else v for v in row] for row in rows]
        rows[0][0] = 1
    return Tableau(t.shape, tuple(rows))


def promote(t: Tableau) -> Tableau:
    """Promotion: delete 1, rectify the rest minus one, append N."""
    _require_straight(t)
    return _slide_forward(t, [t.size] if t.size else [])


def promote_inverse(t: Tableau) -> Tableau:
    """Inverse promotion: delete N, reverse-slide to (1,1), prepend 1."""
    _require_straight(t)
    return _slide_back(t, [t.size] if t.size else [])


def promote_bounded(t: Tableau, k: int) -> Tableau:
    """Promotion acting on entries 1..k only; entries above k stay put."""
    _require_straight(t)
    if not (1 <= k <= t.size):
        raise OutOfRange(f"k={k} outside 1..{t.size}")
    return _slide_forward(t, [k])


def promote_bounded_inverse(t: Tableau, k: int) -> Tableau:
    _require_straight(t)
    if not (1 <= k <= t.size):
        raise OutOfRange(f"k={k} outside 1..{t.size}")
    return _slide_back(t, [k])


def evacuate(t: Tableau) -> Tableau:
    """Evacuation: bounded promotions with bounds N, N-1, ..., 1."""
    _require_straight(t)
    return _slide_forward(t, range(t.size, 0, -1))


def partial_fold(t: Tableau, j: int) -> Tableau:
    """Bounded promotions with bounds N, N-2, ..., N-2j+2."""
    _require_straight(t)
    n = t.size
    if not (1 <= j <= n // 2):
        raise OutOfRange(f"j={j} outside 1..{n // 2}")
    return _slide_forward(t, range(n, n - 2 * j, -2))


def fold(t: Tableau) -> Tableau:
    """The full folding operator: bounds N, N-2, ..., down to 2 or 3."""
    _require_straight(t)
    return _slide_forward(t, range(t.size, 1, -2))


def unfold(d: Tableau) -> Tableau:
    """Inverse of fold: undo the bounded promotions in reverse order."""
    _require_straight(d)
    return _slide_back(d, range(2 + d.size % 2, d.size + 1, 2))


def rotate180_complement(t: Tableau) -> Tableau:
    """Rotate the rectangle by 180 degrees and complement every entry."""
    if not t.shape.is_rectangular:
        raise NotRectangular("rotate-complement needs a rectangular shape")
    n = t.size
    rows = tuple(
        tuple(n + 1 - v for v in reversed(row)) for row in reversed(t.rows)
    )
    return Tableau(t.shape, rows)


def is_rotationally_symmetric(t: Tableau) -> bool:
    return t == rotate180_complement(t)


def is_domino(t: Tableau) -> bool:
    """Whether consecutive entries pair up into adjacent cells.

    For even N the pairs are (1,2), (3,4), ...; for odd N the entry 1 is
    alone and the pairs are (2,3), (4,5), ....
    """
    _require_straight(t)
    n = t.size
    cells = {v: (r, c) for r, row in enumerate(t.rows) for c, v in enumerate(row)}
    first = 1 if n % 2 == 0 else 2
    for a in range(first, n, 2):
        (r1, c1) = cells[a]
        (r2, c2) = cells[a + 1]
        if abs(r1 - r2) + abs(c1 - c2) != 1:
            return False
    return True
