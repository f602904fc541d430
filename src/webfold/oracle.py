"""Brute-force enumeration and verification drivers.

Enumeration and counting are deliberately independent of the fancier
constructions in the rest of the package: enumeration is one walk over
row-index words with a lattice prefix check, and counting uses the hook
length formula.  The walk keeps each row's entries as it places letters,
so a tableau is built from its rows at each word, standard by
construction, and no word it generates is decoded again.  `_FAMILIES`
maps each tableau family a suite or `enumerate --filter` names to the
generator of one shape's tableaux; the verify sweeps then cross-check
the package's operators and bijections tableau by tableau, and name
each failure by the word of the tableau it checked.

Each check imports the web-layer functions it reads (from `matchings`,
`mdiagram`, `planarweb` or `web3`) when it runs, as each CLI command
does, so a suite loads only the modules its check imports:
promotion-order, fold-domino and enumeration load none of them.  A check
reads each such name from its home module as it runs, so a replacement
that a test patches into that module reaches every check that reads it.
"""

from __future__ import annotations

import math
import os
from collections.abc import Callable, Iterable, Iterator
from functools import partial
from itertools import chain, islice

from ._value import Value
from .errors import BoundTooLarge, InvalidWorkerCount, NotRectangular, UnknownTheorem
from .tableaux import (
    _LETTERS,
    PREDICATES,
    Shape,
    Tableau,
    _unchecked,
    evacuate,
    fold,
    is_domino,
    is_rotationally_symmetric,
    partial_fold,
    promote,
    rectify,
    restrict_gt,
    restrict_le,
    rotate180_complement,
    unfold,
)

def _check_rows(rows: int) -> None:
    """Raise ValueError if words of this many rows need more than one digit a letter."""
    if rows > len(_LETTERS):
        raise ValueError("words use single digits, at most 9 rows")


def enumerate_words(shape: tuple[int, ...]) -> Iterator[str]:
    """Yield row-index words of all standard Young tableaux of `shape`.

    Words come out in lexicographic order.  Letter r may extend a prefix
    iff row r still has room and row r-1 currently holds strictly more
    entries (the lattice condition).
    """
    _check_rows(len(shape))
    return _lattice_prefixes(shape, sum(shape))


def _lattice_prefixes(
    shape: tuple[int, ...], length: int, entries: list[list[int]] | None = None
) -> Iterator[str]:
    """The lattice words of `length` letters whose row counts fit in shape,
    in lexicographic order; at length sum(shape), the words of shape.

    Given `entries`, one empty list per row, the walk keeps in entries[r]
    the positions of letter r + 1 in its current word: while a word is
    yielded they are its tableau's rows, until the walk moves on.
    """
    rows = len(shape)
    counts = [0] * rows
    word: list[str] = []
    # nxt[k] is the next row to try at position k; the last entry is the
    # free position, so len(nxt) == len(word) + 1 while the walk runs
    nxt = [0]
    while nxt:
        r = nxt[-1]
        if len(word) == length:
            yield "".join(word)
            r = rows
        while r < rows and (
            counts[r] >= shape[r] or (r > 0 and counts[r - 1] <= counts[r])
        ):
            r += 1
        if r < rows:
            nxt[-1] = r + 1
            counts[r] += 1
            word.append(_LETTERS[r])
            if entries is not None:
                entries[r].append(len(word))
            nxt.append(0)
        else:
            nxt.pop()
            if nxt:
                r = nxt[-1] - 1
                counts[r] -= 1
                word.pop()
                if entries is not None:
                    entries[r].pop()


def _lattice_tableaux(shape: tuple[int, ...]) -> Iterator[Tableau]:
    """Yield every standard tableau of a straight shape, in word order;
    each is the walk's rows, standard by construction."""
    _check_rows(len(shape))
    entries: list[list[int]] = [[] for _ in shape]
    full = Shape(shape)
    for _ in _lattice_prefixes(shape, sum(shape), entries):
        yield _unchecked(entries, shape=full)


def _symmetric_tableaux(shape: tuple[int, ...]) -> Iterator[Tableau]:
    """Yield the rotationally symmetric tableaux of a rectangle, in word
    order.

    rotate180_complement sends entry i of row r to entry N+1-i of row R+1-r,
    so T is symmetric iff row r holds N+1-i for each entry i <= N/2 of row
    R+1-r.  Each such T completes the rows of a lattice prefix of length
    ceil(N/2) by that rule; for odd N, which forces R odd, the middle entry
    must lie in the middle row.  A completion is kept if its rows have the
    rectangle's length C, and it is then standard: the prefix fills a
    straight shape mu; its entries up to N/2, rotated and complemented,
    fill the 180-degree turn of their cells, which full rows make exactly
    lambda/mu; both parts are standard, and mu holds the smaller entries.
    """
    rows = len(shape)
    _check_rows(rows)
    if len(set(shape)) > 1:
        raise NotRectangular("rotate-complement needs a rectangular shape")
    total = sum(shape)
    half = total // 2
    top = total + 1
    cols = shape[0] if shape else 0
    entries: list[list[int]] = [[] for _ in shape]
    full = Shape(shape)
    for prefix in _lattice_prefixes(shape, total - half, entries):
        # for odd N the middle entry, half + 1, is its own mirror: letter R//2 + 1
        if prefix[half:] not in ("", _LETTERS[rows // 2]):
            continue
        done = [
            row + [top - i for i in reversed(other) if i <= half]
            for row, other in zip(entries, entries[::-1])
        ]
        if all(len(row) == cols for row in done):
            yield _unchecked(done, shape=full)


def _domino_tableaux(shape: tuple[int, ...]) -> Iterator[Tableau]:
    """Yield the domino tableaux of shape, in word order; the walk visits
    every tableau of the shape to keep them."""
    return filter(is_domino, _lattice_tableaux(shape))


# the tableaux of one shape in each family `enumerate --filter` and the
# suites name; the values are the functions themselves, which tracers swap
# by identity
_FAMILIES: dict[str, Callable[[tuple[int, ...]], Iterator[Tableau]]] = {
    "all": _lattice_tableaux,
    "rotationally-symmetric": _symmetric_tableaux,
    "domino": _domino_tableaux,
}


def hook_length_count(shape: tuple[int, ...]) -> int:
    """Number of standard Young tableaux of a straight shape."""
    total = sum(shape)
    cols = [0] * (shape[0] if shape else 0)
    for length in shape:
        for c in range(length):
            cols[c] += 1
    product = 1
    for r, length in enumerate(shape):
        for c in range(length):
            product *= (length - c) + (cols[c] - r) - 1
    return math.factorial(total) // product


def _self_evacuating_count(rows: int, cols: int) -> int:
    """|f(-1)| for f(q) = prod_{k <= N} (1 - q^k) / prod_hooks (1 - q^h), the
    q-hook length formula; Stembridge (Duke Math. J., 1996) counts the
    self-evacuating tableaux with it.  Near q = -1, 1 - q^k tends to 2 for
    odd k and is k (1 + q) to first order for even k; a rectangle has as
    many even hooks as even k <= N, so the factors 1 + q cancel."""
    hooks = [(cols - c) + (rows - r) - 1 for r in range(rows) for c in range(cols)]
    top = [k for k in range(1, rows * cols + 1) if k % 2 == 0]
    bottom = [h for h in hooks if h % 2 == 0]
    assert len(top) == len(bottom)
    return math.prod(top) // math.prod(bottom)


class EnumerationFilter(Value):
    __slots__ = _fields = ("shape", "predicate")

    def __init__(self, shape: Shape, predicate: str = "all") -> None:
        if predicate not in PREDICATES:
            raise ValueError(f"predicate must be one of {PREDICATES}")
        if not shape.is_straight:
            raise ValueError("enumeration needs a straight shape")
        self.shape = shape
        self.predicate = predicate


def enumerate_tableaux(filt: EnumerationFilter) -> Iterator[Tableau]:
    """All standard tableaux of the filter's shape in its family, in word order."""
    return _FAMILIES[filt.predicate](filt.shape.outer)


class Failure(Value):
    __slots__ = _fields = ("word", "identity", "lhs", "rhs")

    def __init__(self, word: str, identity: str, lhs: str, rhs: str) -> None:
        self.word = word
        self.identity = identity
        self.lhs = lhs
        self.rhs = rhs

    def to_dict(self) -> dict:
        return dict(zip(self._fields, self._astuple(self)))


class VerificationReport(Value):
    __slots__ = _fields = ("theorem", "instances", "failures")

    def __init__(self, theorem: str, instances: int, failures: tuple[Failure, ...]) -> None:
        self.theorem = theorem
        self.instances = instances
        self.failures = failures

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_dict(self) -> dict:
        return {
            "theorem": self.theorem,
            "instances": self.instances,
            "passed": self.passed,
            "failures": [f.to_dict() for f in self.failures],
        }

    def text(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        count = len(self.failures)
        lines = [f"{self.theorem}: {status}, {self.instances} instances, {count} failures"]
        for f in self.failures:
            lines.append(f"  {f.word}: {f.identity}")
            lines.append(f"    left:  {f.lhs}")
            lines.append(f"    right: {f.rhs}")
        return "\n".join(lines)


# a failed comparison: (identity, shown lhs, shown rhs)
_Found = tuple[str, str, str]


def _rows(t: Tableau) -> str:
    """A tableau by its rows, which tell apart fillings with the same word."""
    return str(t.rows)


def _json(m) -> str:
    """A 2-row matching as JSON."""
    import json

    return json.dumps(m.to_dict())


def _violations(w) -> str:
    """The violations validate_3web finds in a web, joined."""
    from . import planarweb

    return "; ".join(planarweb.validate_3web(w))


def _holds(name: str, lhs, rhs, show: Callable = _rows, ok: bool | None = None) -> list[_Found]:
    """No failure if ok, by default lhs == rhs; else (identity, lhs, rhs)
    with both sides shown.  Every comparison of a check goes through here."""
    if ok is None:
        ok = lhs == rhs
    return [] if ok else [(name, show(lhs), show(rhs))]


def _first(steps: Iterable[list[_Found]]) -> Iterator[_Found]:
    """The first failure of a family of steps; the steps after it are not run."""
    return islice(chain.from_iterable(steps), 1)


# Checks take one tableau and yield the failures of their _holds
# comparisons.  A check may also yield the identity of the structural step it
# takes next; a raise is then reported under that name instead of _COMPLETES.
_COMPLETES = "check completes without raising"
_VERTICAL_PAIRS = "vertical pairs are maximal non-intersecting arcs"


def _check_fw1(t: Tableau):
    from . import web3

    lhs = web3.domino_of_symmetric_web(web3.web_of_tableau(t))
    return _holds("domino_of_symmetric_web(web_of_tableau(T)) = fold(T)", lhs, fold(t))


def _check_fw2(t: Tableau):
    from . import planarweb, web3

    lhs = planarweb.canonical(web3.crossed_web(fold(t)))
    rhs = planarweb.canonical(web3.web_of_tableau(t))
    return _holds("crossed_web(fold(T)) = web_of_tableau(T)", lhs, rhs, repr)


def _check_roundtrip(t: Tableau):
    from . import web3

    lhs = web3.tableau_of_web(web3.web_of_tableau(t))
    return _holds("tableau_of_web(web_of_tableau(T)) = T", lhs, t)


def _check_web_map(op: str, op2: str, op3: str | None, t: Tableau):
    """Web operator op2 (2 rows) or op3 (3 rows) on the web of T is the web of
    tableau operator op(T); op names a global of this module, op2 a function
    of matchings and op3 one of planarweb, each read as the check runs."""
    ops = globals()
    if t.shape.row_count == 2:
        from . import matchings

        web2 = matchings.web2_of_tableau
        lhs, rhs = getattr(matchings, op2)(web2(t)), web2(ops[op](t))
        return _holds(f"{op2}(web2(T)) = web2({op}(T))", lhs, rhs, _json)
    from . import planarweb, web3

    canonical, web = planarweb.canonical, web3.web_of_tableau
    lhs, rhs = canonical(getattr(planarweb, op3)(web(t))), canonical(web(ops[op](t)))
    return _holds(f"{op3}(web_of_tableau(T)) = web_of_tableau({op}(T))", lhs, rhs, repr)


# (tableau operator, 2-row web operator, 3-row web operator) of each suite
# that checks a web map; partials of one function, so a pool can pickle them
_WEB_MAPS = {
    "thm-2byn": partial(_check_web_map, "fold", "fold2", None),
    "promotion-rotation": partial(_check_web_map, "promote", "rotate2", "rotate"),
    "evacuation-reflection": partial(_check_web_map, "evacuate", "reflect2", "reflect"),
}


def _check_operator_algebra(t: Tableau):
    total = t.size
    powers = [t]
    for _ in range(total):
        powers.append(promote(powers[-1]))
    yield from _holds("promote^N(T) = T", powers[-1], t)
    e = evacuate(t)
    yield from _holds("evacuate(evacuate(T)) = T", evacuate(e), t)
    yield from _holds("evacuate(T) = rotate180_complement(T)", e, rotate180_complement(t))
    yield from _holds("unfold(fold(T)) = T", unfold(fold(t)), t)
    # the right side rectifies by row insertion, which shares no code with
    # the slides of promote
    yield from _first(
        _holds(
            f"restrict_le(promote^{k}(T), N-{k}) = rectify(restrict_gt(T, {k}))",
            restrict_le(powers[k], total - k),
            rectify(restrict_gt(t, k)),
        )
        for k in range(total + 1)
    )
    yield from _first(
        _holds(
            f"restrict_le(partial_fold(T, {j}), N+1-{2 * j}) = "
            f"restrict_le(promote^{j}(T), N+1-{2 * j})",
            restrict_le(partial_fold(t, j), total + 1 - 2 * j),
            restrict_le(powers[j], total + 1 - 2 * j),
        )
        for j in range(1, total // 2 + 1)
    )


def _check_fold_domino(t: Tableau):
    symmetric = is_rotationally_symmetric(t)
    folded = fold(t)
    name = "T rotationally symmetric iff fold(T) is a domino tableau"
    yield from _holds(name, symmetric, is_domino(folded), str)
    if symmetric:
        yield from _holds("unfold(fold(T)) = T", unfold(folded), t)
    if is_domino(t):
        s = unfold(t)
        ok = is_rotationally_symmetric(s)
        yield from _holds("unfold(D) is rotationally symmetric", s.word, t.word, str, ok)
        if ok:
            yield from _holds("fold(unfold(D)) = D", fold(s), t)


def _check_distance_lemmas(t: Tableau):
    from .mdiagram import arc_distance, coherent_separators, epsilon, reflected_face, resolve
    from .planarweb import boundary_face, exterior_face, faces, web_distance
    from .web3 import crossed_mdiagram, decompose_blocks, web_of_tableau

    yield from _holds("resolution is a valid web", _violations(web_of_tableau(t)), "", str)
    if not is_rotationally_symmetric(t):
        return
    yield _VERTICAL_PAIRS
    dec = decompose_blocks(fold(t))
    m = crossed_mdiagram(dec)
    yield _COMPLETES
    wx = resolve(m)
    invalid = _holds("crossed resolution is a valid web", _violations(wx), "", str)
    yield from invalid
    if invalid:
        return
    ext = exterior_face(wx)
    interior = [f for f in faces(wx) if f != ext]
    for i, x in enumerate(interior):
        for y in interior[i + 1 :]:
            dw = web_distance(wx, x, y)
            da = arc_distance(m, x, y)
            cs = len(coherent_separators(m, x, y))
            name = "webdist(X, Y) >= arcdist(X, Y) - |CS(X, Y)|"
            right = f"arcdist={da}, separators={cs}"
            yield from _holds(name, f"webdist={dw}", right, str, dw >= da - cs)
    for x in interior:
        xr = reflected_face(m, x)
        lhs = web_distance(wx, x, xr)
        rhs = arc_distance(m, x, xr) - epsilon(m, x)
        name = "webdist(X, X') = arcdist(X, X') - epsilon(X)"
        yield from _holds(name, f"webdist={lhs}", f"arcdist-epsilon={rhs}", str, lhs == rhs)
    if t.size % 2 == 0:
        # mirror gap distances against the compression web; the identity
        # needs the compression to be a straight rectangle, so even sizes only
        wc = web_of_tableau(dec.compression)
        half = dec.compression.size
        for k in range(half + 1):
            # A_k is B_{half + k}; at k = half that is B_N, which is B_0
            a = boundary_face(wx, half + k)
            ar = boundary_face(wx, half - k)
            lhs = arc_distance(m, a, ar)
            rhs = 2 * web_distance(wc, boundary_face(wc, k), boundary_face(wc, 0))
            name = f"arcdist(A_{k}, A_{k}') = 2 webdist(B_{k}, B_0)"
            yield from _holds(name, f"arcdist={lhs}", f"2*webdist={rhs}", str, lhs == rhs)


def _check_block_patterns(t: Tableau):
    from . import mdiagram, web3

    yield "domino tableau decomposes into typed blocks"
    dec = web3.decompose_blocks(t)
    columns = [c for b in dec.blocks for c in range(b.columns[0], b.columns[1] + 1)]
    n = t.shape.outer[0]
    yield from _holds("block columns tile 1..n left to right", columns, [*range(1, n + 1)], str)
    for i, b in enumerate(dec.blocks):
        ok = b.btype != 0 or (i == 0 and t.size % 2 == 1)
        name = "lone-cell block only leads an odd tableau"
        yield from _holds(name, f"block {i} has type 0", "", str, ok)
    yield _VERTICAL_PAIRS
    # crossed_web(D) from the diagram just built; the reader decides symmetry
    # from the distance word, so its NotSymmetrical is reported under the identity
    crossed = mdiagram.resolve(web3.crossed_mdiagram(dec))
    name = "domino_of_symmetric_web(crossed_web(D)) = D"
    yield name
    yield from _holds(name, web3.domino_of_symmetric_web(crossed), t)


def _failures(check: Callable[[Tableau], Iterable], t: Tableau) -> list[Failure]:
    """Every failure of one tableau, each named by its word, which is
    spelled only for a failure; an exception ends it as one more failure."""
    failures: list[_Found] = []
    step = _COMPLETES
    try:
        for found in check(t):
            if isinstance(found, str):
                step = found
            else:
                failures.append(found)
    except Exception as exc:
        failures.append((step, f"{type(exc).__name__}: {exc}", ""))
    return [Failure(t.word, *f) for f in failures]


# id: (default bound, the families swept as (rows, cap on n or None, family),
# check); the 2-row bound is the suite's bound, the 3-row one may be capped
_SUITES: dict[str, tuple[int, tuple[tuple[int, int | None, str], ...], Callable]] = {
    "thm-2byn": (16, ((2, None, "rotationally-symmetric"),), _WEB_MAPS["thm-2byn"]),
    "thm-fw1": (8, ((3, None, "rotationally-symmetric"),), _check_fw1),
    "thm-fw2": (8, ((3, None, "rotationally-symmetric"),), _check_fw2),
    "roundtrip-3web": (5, ((3, None, "all"),), _check_roundtrip),
    # 3-row instances build webs or run N promotions per tableau, so they stay capped at 4
    "promotion-rotation": (8, ((2, None, "all"), (3, 4, "all")), _WEB_MAPS["promotion-rotation"]),
    "evacuation-reflection": (
        8, ((2, None, "all"), (3, 4, "all")), _WEB_MAPS["evacuation-reflection"]
    ),
    "promotion-order": (8, ((2, None, "all"), (3, 4, "all")), _check_operator_algebra),
    "fold-domino": (8, ((2, None, "all"), (3, 5, "all")), _check_fold_domino),
    "distance-lemmas": (4, ((3, None, "all"),), _check_distance_lemmas),
    "block-patterns": (5, ((3, None, "domino"),), _check_block_patterns),
}

THEOREMS = tuple(sorted(_SUITES))

# words a sweep or an enumeration may list, summed over its rectangles;
# all words of 3-row n <= 7 and 2-row n <= 13 fit, the symmetric ones of
# 3-row n <= 11 and 2-row n <= 22 do, and every default bound walks at most
# 26,364 words
_MAX_WORDS = 2_000_000
# letters in the one word of a one-row rectangle
_MAX_LETTERS = 2_000_000


def _check_word_limit(rectangles: Iterable[tuple[int, int, str]], what: str) -> None:
    """Raise BoundTooLarge, before any word is listed, if the (rows, cols,
    family) rectangles hold more than _MAX_WORDS words in all, or one row
    holds more than _MAX_LETTERS letters.  A taller rectangle that long
    holds too many words, or too many rows for `_check_rows`.  The
    rotationally symmetric family counts its own words, by their closed
    form; the others count every word, which they all walk.
    """
    total = 0
    for rows, cols, family in rectangles:
        if rows == 1 and cols > _MAX_LETTERS:
            raise BoundTooLarge(f"{what} a word of more than {_MAX_LETTERS:,} letters")
        if min(rows, cols) == 1:
            total += 1
        elif family == "rotationally-symmetric":
            # the sweeps list n = 1, 2, ... in turn, so the total passes the
            # limit at 2x23 or 3x12, long before a count is slow to take
            total += _self_evacuating_count(rows, cols)
        elif max(rows, cols) >= 14:
            # it contains a 2x14 or 14x2 rectangle, and each of that one's
            # Catalan(14) = 2,674,440 tableaux extends to one of its own; so
            # hook_length_count never meets a shape too long to count
            total = _MAX_WORDS + 1
        else:
            total += hook_length_count((cols,) * rows)
        if total > _MAX_WORDS:
            raise BoundTooLarge(f"{what} more than {_MAX_WORDS:,} words")


def worker_count() -> int:
    """Processes a sweep may use: WEBFOLD_WORKERS, 1 if unset, at most os.cpu_count()."""
    text = os.environ.get("WEBFOLD_WORKERS", "")
    if not text:
        return 1
    try:
        workers = int(text)
    except ValueError:
        raise InvalidWorkerCount(
            f"WEBFOLD_WORKERS must be an integer, got {text!r}"
        ) from None
    return max(1, min(workers, os.cpu_count() or 1))


def _checked(
    check: Callable[[Tableau], list[Failure]], tableaux: Iterator[Tableau], workers: int
) -> Iterator[list[Failure]]:
    """check(t) of each tableau in turn, over a pool of `workers` processes
    if there is more than one; serially, each tableau is read as it is
    checked."""
    if workers == 1:
        yield from map(check, tableaux)
        return
    # loaded here, so a serial sweep never imports multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        yield from pool.map(check, tableaux, chunksize=64)


def verify(theorem_id: str, max_n: int | None = None) -> VerificationReport:
    """Run one exhaustive suite and report every failing instance.

    The suite's entry in `_SUITES` gives its default bound and families,
    and one walk over their rectangles n = 1..max_n (3-row n capped where
    the entry says) counts them against the word limit, raising
    BoundTooLarge before any word is listed; a second streams their
    tableaux to the checks, and no list of them is built.  Each check gets
    the tableau the walk built, and its failures are named by that
    tableau's word.  An instance that raises is reported as a failure
    naming the exception class.  The report depends on the arguments
    alone.  Set WEBFOLD_WORKERS to fan the tableaux out over that many
    processes, at most one per CPU.
    """
    if theorem_id not in _SUITES:
        raise UnknownTheorem(
            f"unknown theorem id {theorem_id!r}; known: {', '.join(THEOREMS)}"
        )
    default_n, families, check_one = _SUITES[theorem_id]
    bound = default_n if max_n is None else max_n
    if bound < 1:
        raise ValueError("max_n must be at least 1")

    def rectangles() -> Iterator[tuple[int, int, str]]:
        for rows, cap, family in families:
            for n in range(1, min(bound, cap or bound) + 1):
                yield rows, n, family

    _check_word_limit(rectangles(), f"{theorem_id} up to n={bound} would sweep")
    tableaux = (t for rows, n, family in rectangles() for t in _FAMILIES[family]((n,) * rows))
    failures: list[Failure] = []
    instances = 0
    for found in _checked(partial(_failures, check_one), tableaux, worker_count()):
        instances += 1
        failures.extend(found)
    failures.sort(key=lambda f: (f.word, f.identity))
    return VerificationReport(theorem_id, instances, tuple(failures))
