"""Skew shapes, standard Young tableaux, and the promotion operators.

Cells are addressed (row, column) with both indices starting at 1.  A
tableau stores its entries row by row; row r occupies the columns
inner(r)+1 .. outer(r).  Shapes and tableaux are plain classes, read-only
by convention: nothing stops an assignment to a field, but the package
never makes one, and the operators are pure functions returning new
tableaux.

Shapes and tableaux are checked where they enter: `Shape(...)`,
`Tableau(...)`, `Tableau.from_rows`, `from_word` and `from_dict`.  A
straight word's check is the lattice condition alone, since every
lattice word encodes a standard tableau; a skew word gets the Shape and
Tableau checks.  The operators and `rectify` build their results
standard by construction and do not check them again.

The package slides only inside straight shapes, in the forward promotion
operators; the one inverse, `unfold`, swaps entries by Bender-Knuth
involutions, so `unfold(fold(T)) == T` sets two algorithms against each
other.  `rectify` straightens a skew tableau by row-inserting its reading
word, which reaches the one straight tableau that jeu-de-taquin slides
reach (Fulton, Young Tableaux, ch. 2-3); the tests check it against a
reference that slides.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import chain
from operator import add, ge, gt, lt, sub

from ._value import Value
from .errors import NonLatticeWord, NotRectangular, OutOfRange, WrongShape, _integer

# the letters of a word, and the row index each names; nothing else is a letter
_LETTERS = "123456789"
_ROW_OF = {letter: r for r, letter in enumerate(_LETTERS, start=1)}


class Shape(Value):
    """A skew shape outer/inner; inner may be empty for straight shapes.

    `size`, the number of cells, is neither compared nor shown.
    """

    __slots__ = ("outer", "inner", "size")
    _fields = ("outer", "inner")

    def __init__(self, outer: tuple[int, ...], inner: tuple[int, ...] = ()) -> None:
        outer = tuple(outer)
        inner = tuple(inner)
        while inner and inner[-1] == 0:
            inner = inner[:-1]
        if outer and min(outer) <= 0:
            raise ValueError("outer rows must be positive")
        if any(map(lt, outer, outer[1:])):
            raise ValueError("outer must be weakly decreasing")
        if inner and min(inner) < 0:
            raise ValueError("inner rows must be nonnegative")
        if any(map(lt, inner, inner[1:])):
            raise ValueError("inner must be weakly decreasing")
        if len(inner) > len(outer):
            raise ValueError("inner has more rows than outer")
        if any(map(gt, inner, outer)):
            raise ValueError("inner does not fit inside outer")
        self.outer = outer
        self.inner = inner
        self.size = sum(outer) - sum(inner)

    @property
    def row_count(self) -> int:
        return len(self.outer)

    @property
    def is_straight(self) -> bool:
        return not self.inner

    @property
    def is_rectangular(self) -> bool:
        return self.is_straight and len(set(self.outer)) <= 1


class Tableau(Value):
    """A standard filling of a skew shape with 1..N."""

    __slots__ = _fields = ("shape", "rows")

    def __init__(self, shape: Shape, rows: tuple[tuple[int, ...], ...]) -> None:
        rows = tuple(map(tuple, rows))
        outer = shape.outer
        if len(rows) != len(outer):
            raise ValueError("row count does not match shape")
        inner = shape.inner + (0,) * (len(outer) - len(shape.inner))
        lengths = list(map(len, rows))
        wanted = list(map(sub, outer, inner))
        if lengths != wanted:
            r = next(r for r, (m, w) in enumerate(zip(lengths, wanted), start=1) if m != w)
            raise ValueError(f"row {r} length does not match shape")
        if sorted(chain.from_iterable(rows)) != list(range(1, sum(lengths) + 1)):
            raise ValueError("entries are not a bijection onto 1..N")
        for row in rows:
            if any(map(ge, row, row[1:])):
                raise ValueError("rows must strictly increase")
        # lower[i + shift] is the cell below upper[i]
        for upper, lower, shift in zip(rows, rows[1:], map(sub, inner, inner[1:])):
            if any(map(ge, upper, lower[shift:])):
                raise ValueError("columns must strictly increase")
        self.shape = shape
        self.rows = rows

    @classmethod
    def from_rows(cls, rows, inner=()) -> "Tableau":
        rows = tuple(map(tuple, rows))
        inner = tuple(inner)
        # a negative pad would shrink an outer row: name the inner row first
        if inner and min(inner) < 0:
            raise ValueError("inner rows must be nonnegative")
        pad = inner + (0,) * (len(rows) - len(inner))
        return cls(Shape(tuple(map(add, map(len, rows), pad)), inner), rows)

    @property
    def size(self) -> int:
        return self.shape.size

    @property
    def is_straight(self) -> bool:
        return self.shape.is_straight

    @property
    def word(self) -> str:
        letters = [0] * (self.size + 1)
        for r, row in enumerate(self.rows, start=1):
            for v in row:
                letters[v] = r
        return "".join(map(str, letters[1:]))

    def to_dict(self) -> dict:
        d = {"outer": list(self.shape.outer), "word": self.word}
        if self.shape.inner:
            d["inner"] = list(self.shape.inner)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "Tableau":
        """The tableau of a JSON form, whose outer and inner rows are integers."""
        outer = tuple(_integer("outer row", x) for x in d["outer"])
        t = from_word(d["word"], tuple(_integer("inner row", x) for x in d.get("inner", ())))
        if t.shape.outer != outer:
            raise ValueError(f"outer {list(outer)} is not the word's shape {list(t.shape.outer)}")
        return t


def from_word(word: str, inner=()) -> Tableau:
    """Decode a row-index word, optionally against an explicit inner shape.

    A straight-shape word is checked by the lattice condition alone: a
    lattice word always encodes a standard tableau.  A skew word gets the
    full Shape and Tableau checks instead.  Any word that fails to encode a
    standard tableau raises NonLatticeWord; so does any letter other than
    the ASCII digits 1-9.  A word that is not a string raises TypeError.
    """
    if not isinstance(word, str):
        raise TypeError(f"word must be a string, not {type(word).__name__}")
    inner = tuple(inner)
    try:
        letters = list(map(_ROW_OF.__getitem__, word))
    except KeyError:
        raise NonLatticeWord("word must consist of digits 1-9") from None
    row_count = max(max(letters, default=0), len(inner))
    rows: list[list[int]] = [[] for _ in range(row_count)]
    for j, r in enumerate(letters, start=1):
        if r > 1 and not inner and len(rows[r - 1]) >= len(rows[r - 2]):
            raise NonLatticeWord(f"lattice condition fails at position {j}")
        rows[r - 1].append(j)
    if inner:
        try:
            return Tableau.from_rows(rows, inner)
        except ValueError as e:
            raise NonLatticeWord(f"word does not encode a standard tableau: {e}") from None
    return _unchecked(rows)


def _unchecked(rows, inner=(), shape: Shape | None = None) -> Tableau:
    """Tableau.from_rows without its checks, for a filling standard by
    construction; a caller whose rows fill a shape it holds passes it."""
    rows = tuple(map(tuple, rows))
    if shape is None:
        inner = tuple(inner)
        outer = tuple(map(add, map(len, rows), inner + (0,) * (len(rows) - len(inner))))
        while inner and inner[-1] == 0:
            inner = inner[:-1]
        shape = object.__new__(Shape)
        shape.outer, shape.inner, shape.size = outer, inner, sum(outer) - sum(inner)
    t = object.__new__(Tableau)
    t.shape, t.rows = shape, rows
    return t


def rectify(t: Tableau) -> Tableau:
    """The rectification of t, as the row-insertion tableau of its reading word.

    The reading word lists the rows from the bottom row up, each left to
    right; it is Knuth equivalent to t, so inserting it gives the one
    straight tableau that jeu de taquin reaches (Fulton, Young Tableaux,
    ch. 2-3).  Each letter bumps the least larger entry of a row into the
    next row down, or ends a row.
    """
    rows: list[list[int]] = []
    for v in chain.from_iterable(reversed(t.rows)):
        for row in rows:
            i = bisect_right(row, v)
            if i == len(row):
                row.append(v)
                break
            row[i], v = v, row[i]
        else:
            rows.append([v])
    return _unchecked(rows)


def _require_straight(t: Tableau) -> None:
    if not t.is_straight:
        raise WrongShape("operation requires a straight shape")


def restrict_le(t: Tableau, k: int) -> Tableau:
    """The subtableau on entries 1..k (same inner shape)."""
    if not (0 <= k <= t.size):
        raise OutOfRange(f"k={k} outside 0..{t.size}")
    # rows increase, so each keeps a prefix
    rows = [row[: bisect_right(row, k)] for row in t.rows]
    inner = t.shape.inner
    # a bottom row with neither a cell nor an inner cell is dropped
    while len(rows) > len(inner) and not rows[-1]:
        rows.pop()
    return _unchecked(rows, inner)


def restrict_gt(t: Tableau, k: int) -> Tableau:
    """The subtableau on entries k+1..N, relabeled by subtracting k (same
    outer shape: every row keeps a cell or becomes inner cells)."""
    if not (0 <= k <= t.size):
        raise OutOfRange(f"k={k} outside 0..{t.size}")
    rows = [tuple([v - k for v in row[bisect_right(row, k) :]]) for row in t.rows]
    return _unchecked(rows, tuple(map(sub, t.shape.outer, map(len, rows))))


def _slide_forward(t: Tableau, bounds: range | list[int]) -> Tableau:
    """Bounded promotions of a straight tableau, one per bound k in turn.

    For each k the hole left by 1 slides right or down into the smaller
    neighbour among entries <= k; the hole then takes k and entries 2..k
    drop by one.  The bounds must strictly decrease, so an entry slides at
    step s (from 0) exactly when its original value is at most k + s, a
    threshold that never grows: the steps compare original values and each
    entry drops once, at the end, by the number of thresholds >= it.  The
    padding is N + 1 and a placed k is N + 1 + k, above every threshold.
    """
    n = t.size
    outer = t.shape.outer
    wall = [n + 1] * (outer[0] + 1 if outer else 1)
    grid = [list(row) + wall[len(row) :] for row in t.rows] + [wall]
    thresholds = []
    for s, k in enumerate(bounds):
        last = k + s
        r = c = 0
        while True:
            right = grid[r][c + 1]
            below = grid[r + 1][c]
            if right < below:
                if right > last:
                    break
                grid[r][c] = right
                c += 1
            else:
                if below > last:
                    break
                grid[r][c] = below
                r += 1
        grid[r][c] = n + 1 + k
        thresholds.append(last)
    # one range per threshold, the smallest first; then N + 1 + k -> k
    table = [0]
    drop = len(thresholds)
    for last in reversed(thresholds):
        table += range(len(table) - drop, last + 1 - drop)
        drop -= 1
    table += range(len(table), n + 1)
    table += range(n + 1)
    relabel = table.__getitem__
    return _unchecked([map(relabel, row[:m]) for row, m in zip(grid, outer)], shape=t.shape)


def _bender_knuth(t: Tableau, steps: range | list[int]) -> Tableau:
    """The Bender-Knuth involutions tau_i of a straight tableau, one per i
    in turn: tau_i swaps the cells of i and i + 1 unless they share a row or
    a column.  The bounded promotion with bound k is tau_1, ..., tau_{k-1}
    (Stanley, "Promotion and evacuation", 2009), so the steps k - 1, ..., 1
    undo it.  The swaps move a row and a column per entry in two tables."""
    n = t.size
    row_of = [0] * (n + 1)
    col_of = [0] * (n + 1)
    for r, row in enumerate(t.rows):
        for c, v in enumerate(row):
            row_of[v], col_of[v] = r, c
    for i in steps:
        j = i + 1
        if row_of[i] != row_of[j] and col_of[i] != col_of[j]:
            row_of[i], row_of[j] = row_of[j], row_of[i]
            col_of[i], col_of[j] = col_of[j], col_of[i]
    rows = [[0] * len(row) for row in t.rows]
    for v in range(1, n + 1):
        rows[row_of[v]][col_of[v]] = v
    return _unchecked(rows, shape=t.shape)


def promote(t: Tableau) -> Tableau:
    """Promotion: delete 1, rectify the rest minus one, append N."""
    _require_straight(t)
    return _slide_forward(t, [t.size] if t.size else [])


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
    """Inverse of fold: its bounds k = 2 or 3, ..., N in turn, each undone
    by the swaps tau_{k-1}, ..., tau_1."""
    _require_straight(d)
    n = d.size
    return _bender_knuth(d, [i for k in range(2 + n % 2, n + 1, 2) for i in range(k - 1, 0, -1)])


def _require_rectangle(t: Tableau) -> None:
    if not t.shape.is_rectangular:
        raise NotRectangular("rotate-complement needs a rectangular shape")


def rotate180_complement(t: Tableau) -> Tableau:
    """Rotate the rectangle by 180 degrees and complement every entry."""
    _require_rectangle(t)
    top = t.size + 1
    return _unchecked(
        [[top - v for v in reversed(row)] for row in reversed(t.rows)], shape=t.shape
    )


# the tableau predicates `enumerate --filter` and the sweeps select by name
PREDICATES = ("all", "rotationally-symmetric", "domino")


def is_rotationally_symmetric(t: Tableau) -> bool:
    """Whether rotate180_complement(t) == t; a non-rectangle raises NotRectangular.

    Row r must be the rotated complement of row R+1-r, a relation both rows
    share, so each row of the top half is compared with its mirror row, up
    to the first that differs.  When those match, the entries they hold are
    closed under v -> N+1-v, and so are those a middle row of odd R holds:
    it is its own rotated complement.
    """
    _require_rectangle(t)
    rows = t.rows
    top = t.size + 1
    for r in range(len(rows) // 2):
        if rows[r] != tuple([top - v for v in reversed(rows[~r])]):
            return False
    return True


def is_domino(t: Tableau) -> bool:
    """Whether consecutive entries pair up into adjacent cells.

    For even N the pairs are (1,2), (3,4), ...; for odd N the entry 1 is
    alone and the pairs are (2,3), (4,5), ....
    """
    _require_straight(t)
    n = t.size
    rows = t.rows
    row_of = [0] * (n + 1)
    for r, row in enumerate(rows):
        for v in row:
            row_of[v] = r
    # a and a + 1 in one row are neighbours; across rows, a + 1 must be right below a
    for a in range(1 + n % 2, n, 2):
        r, s = row_of[a], row_of[a + 1]
        if s != r and (s != r + 1 or rows[r].index(a) != rows[s].index(a + 1)):
            return False
    return True


def _pair(openers: tuple[int, ...], closers: tuple[int, ...]) -> list[tuple[int, int]]:
    """Nearest-unmatched matching of two increasing sequences, in one merge:
    each closer takes the latest opener still open.  Both web builders pair
    a tableau's rows with it, the 2-row matching and the 3-row arcs; it
    lives here, which both import, so building a 3-row web loads no
    `matchings`."""
    stack: list[int] = []
    pairs = []
    k, n = 0, len(openers)
    for c in closers:
        while k < n and openers[k] < c:
            stack.append(openers[k])
            k += 1
        pairs.append((stack.pop(), c))
    return pairs
