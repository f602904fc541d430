"""Brute-force enumeration and verification drivers.

Enumeration and counting are deliberately independent of the fancier
constructions in the rest of the package: enumeration works on row-index
words with a lattice prefix check, and counting uses the hook length
formula.  The verify drivers then cross-check the package's operators and
bijections instance by instance.
"""

from __future__ import annotations

import json
import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass
from functools import partial
from itertools import chain, islice
from operator import attrgetter
from typing import Callable, Iterable, Iterator

from .errors import BoundTooLarge, InvalidWorkerCount, UnknownTheorem
from .matchings import Matching2, fold2, reflect2, rotate2, web2_of_tableau
from .mdiagram import (
    arc_distance,
    coherent_separators,
    epsilon,
    reflected_face,
    resolve,
)
from .planarweb import (
    PlanarWeb,
    boundary_face,
    canonical,
    exterior_face,
    faces,
    reflect,
    rotate,
    validate_3web,
    web_distance,
)
from .tableaux import (
    Shape,
    Tableau,
    evacuate,
    fold,
    from_word,
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
from .web3 import (
    crossed_mdiagram,
    crossed_mdiagram_of_decomposition,
    crossed_web,
    decompose_blocks,
    domino_of_symmetric_web,
    tableau_of_web,
    web_of_tableau,
)


def enumerate_words(shape: tuple[int, ...]) -> Iterator[str]:
    """Yield row-index words of all standard Young tableaux of `shape`.

    Words come out in lexicographic order.  Letter r may extend a prefix
    iff row r still has room and row r-1 currently holds strictly more
    entries (the lattice condition).
    """
    rows = len(shape)
    if rows >= 10:
        raise ValueError("words use single digits, at most 9 rows")
    total = sum(shape)
    counts = [0] * rows
    word: list[str] = []

    def extend() -> Iterator[str]:
        if len(word) == total:
            yield "".join(word)
            return
        for r in range(rows):
            if counts[r] >= shape[r]:
                continue
            if r > 0 and counts[r - 1] <= counts[r]:
                continue
            counts[r] += 1
            word.append(str(r + 1))
            yield from extend()
            word.pop()
            counts[r] -= 1

    return extend()


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


PREDICATES = ("all", "rotationally-symmetric", "domino")


@dataclass(frozen=True)
class EnumerationFilter:
    shape: Shape
    predicate: str = "all"

    def __post_init__(self) -> None:
        if self.predicate not in PREDICATES:
            raise ValueError(f"predicate must be one of {PREDICATES}")
        if not self.shape.is_straight:
            raise ValueError("enumeration needs a straight shape")

    def keep(self, t: Tableau) -> bool:
        if self.predicate == "rotationally-symmetric":
            return is_rotationally_symmetric(t)
        if self.predicate == "domino":
            return is_domino(t)
        return True


def enumerate_tableaux(filt: EnumerationFilter) -> Iterator[Tableau]:
    """All standard tableaux of the filter's shape passing its predicate."""
    for word in enumerate_words(filt.shape.outer):
        t = from_word(word)
        if filt.keep(t):
            yield t


@dataclass(frozen=True)
class Failure:
    word: str
    identity: str
    lhs: str
    rhs: str

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class VerificationReport:
    theorem: str
    instances: int
    failures: tuple[Failure, ...]
    elapsed: float

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_dict(self) -> dict:
        return {
            "theorem": self.theorem,
            "instances": self.instances,
            "passed": self.passed,
            "failures": [f.to_dict() for f in self.failures],
            "elapsed": self.elapsed,
        }

    def text(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        lines = [
            f"{self.theorem}: {status}, {self.instances} instances, "
            f"{len(self.failures)} failures, {self.elapsed:.2f}s"
        ]
        for f in self.failures:
            lines.append(f"  {f.word}: {f.identity}")
            lines.append(f"    left:  {f.lhs}")
            lines.append(f"    right: {f.rhs}")
        return "\n".join(lines)


# a failed comparison: (identity, shown lhs, shown rhs)
_Found = tuple[str, str, str]


def _words(rows: int, max_n: int, keep: str | None = None) -> list[str]:
    """Words of the rows x n rectangles for n <= max_n, those passing predicate keep if given."""
    shapes = [(n,) * rows for n in range(1, max_n + 1)]
    if keep is None:
        return [w for shape in shapes for w in enumerate_words(shape)]
    filters = [EnumerationFilter(Shape(shape), keep) for shape in shapes]
    return [t.word for filt in filters for t in enumerate_tableaux(filt)]


def _json(m: Matching2) -> str:
    return json.dumps(m.to_dict())


def _violations(w: PlanarWeb) -> str:
    return "; ".join(validate_3web(w).violations)


def _holds(name: str, lhs, rhs, show: Callable = attrgetter("word")) -> list[_Found]:
    """No failure if lhs == rhs, else (identity, lhs, rhs) with both sides shown."""
    return [] if lhs == rhs else [(name, show(lhs), show(rhs))]


def _first(steps: Iterable[list[_Found]]) -> Iterator[_Found]:
    """The first failure of a family of steps; the steps after it are not run."""
    return islice(chain.from_iterable(steps), 1)


# Checks take one tableau and yield (identity, lhs, rhs) for each failed
# comparison.  A check may also yield the identity of the structural step it
# takes next; a raise is then reported under that name instead of _COMPLETES.
_COMPLETES = "check completes without raising"
_VERTICAL_PAIRS = "vertical pairs are maximal non-intersecting arcs"


def _check_2byn(t: Tableau):
    lhs = fold2(web2_of_tableau(t))
    rhs = web2_of_tableau(fold(t))
    return _holds("fold2(web2(T)) = web2(fold(T))", lhs, rhs, _json)


def _check_fw1(t: Tableau):
    lhs = domino_of_symmetric_web(web_of_tableau(t))
    return _holds("domino_of_symmetric_web(web_of_tableau(T)) = fold(T)", lhs, fold(t))


def _check_fw2(t: Tableau):
    lhs = canonical(crossed_web(fold(t)))
    rhs = canonical(web_of_tableau(t))
    return _holds("crossed_web(fold(T)) = web_of_tableau(T)", lhs, rhs, repr)


def _check_roundtrip(t: Tableau):
    return _holds("tableau_of_web(web_of_tableau(T)) = T", tableau_of_web(web_of_tableau(t)), t)


def _check_rotation(t: Tableau):
    if t.shape.row_count == 2:
        lhs2 = rotate2(web2_of_tableau(t))
        rhs2 = web2_of_tableau(promote(t))
        return _holds("rotate2(web2(T)) = web2(promote(T))", lhs2, rhs2, _json)
    lhs = canonical(rotate(web_of_tableau(t)))
    rhs = canonical(web_of_tableau(promote(t)))
    return _holds("rotate(web_of_tableau(T)) = web_of_tableau(promote(T))", lhs, rhs, repr)


def _check_reflection(t: Tableau):
    if t.shape.row_count == 2:
        lhs2 = reflect2(web2_of_tableau(t))
        rhs2 = web2_of_tableau(evacuate(t))
        return _holds("reflect2(web2(T)) = web2(evacuate(T))", lhs2, rhs2, _json)
    lhs = canonical(reflect(web_of_tableau(t)))
    rhs = canonical(web_of_tableau(evacuate(t)))
    return _holds("reflect(web_of_tableau(T)) = web_of_tableau(evacuate(T))", lhs, rhs, repr)


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
        if not is_rotationally_symmetric(s):
            yield ("unfold(D) is rotationally symmetric", s.word, t.word)
        else:
            yield from _holds("fold(unfold(D)) = D", fold(s), t)


def _check_distance_lemmas(t: Tableau):
    yield from _holds("resolution is a valid web", _violations(web_of_tableau(t)), "", str)
    if not is_rotationally_symmetric(t):
        return
    d = fold(t)
    yield _VERTICAL_PAIRS
    m = crossed_mdiagram(d)
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
            if dw < da - cs:
                name = "webdist(X, Y) >= arcdist(X, Y) - |CS(X, Y)|"
                yield (name, f"webdist={dw}", f"arcdist={da}, separators={cs}")
    for x in interior:
        xr = reflected_face(m, x)
        lhs = web_distance(wx, x, xr)
        rhs = arc_distance(m, x, xr) - epsilon(m, x)
        if lhs != rhs:
            name = "webdist(X, X') = arcdist(X, X') - epsilon(X)"
            yield (name, f"webdist={lhs}", f"arcdist-epsilon={rhs}")
    if t.size % 2 == 0:
        # mirror gap distances against the compression web; the identity
        # needs the compression to be a straight rectangle, so even sizes only
        dec = decompose_blocks(d)
        wc = web_of_tableau(dec.compression)
        half = dec.compression.size
        for k in range(half + 1):
            if k == 0:
                a = boundary_face(wx, half)
            elif k == half:
                a = boundary_face(wx, 0)
            else:
                a = boundary_face(wx, half + k)
            ar = boundary_face(wx, half - k)
            lhs = arc_distance(m, a, ar)
            rhs = 2 * web_distance(wc, boundary_face(wc, k), boundary_face(wc, 0))
            if lhs != rhs:
                name = f"arcdist(A_{k}, A_{k}') = 2 webdist(B_{k}, B_0)"
                yield (name, f"arcdist={lhs}", f"2*webdist={rhs}")


def _check_block_patterns(t: Tableau):
    yield "domino tableau decomposes into typed blocks"
    dec = decompose_blocks(t)
    for i, b in enumerate(dec.blocks):
        if b.btype == 0 and (i != 0 or t.size % 2 == 0):
            yield ("lone-cell block only leads an odd tableau", f"block {i} has type 0", "")
    yield _VERTICAL_PAIRS
    crossed_mdiagram_of_decomposition(dec)


def _failures(check: Callable[[Tableau], Iterable], word: str) -> list[Failure]:
    """Every failure of one instance; an exception ends it as one more failure."""
    failures: list[Failure] = []
    step = _COMPLETES
    try:
        for found in check(from_word(word)):
            if isinstance(found, str):
                step = found
            else:
                failures.append(Failure(word, *found))
    except Exception as exc:
        failures.append(Failure(word, step, f"{type(exc).__name__}: {exc}", ""))
    return failures


# id: (default bound, rows of the rectangles swept, cap on the 3-row bound when
# 2-row rectangles are swept too, predicate every word passes, check)
_SUITES: dict[str, tuple[int, tuple[int, ...], int | None, str | None, Callable]] = {
    "thm-2byn": (8, (2,), None, "rotationally-symmetric", _check_2byn),
    "thm-fw1": (5, (3,), None, "rotationally-symmetric", _check_fw1),
    "thm-fw2": (5, (3,), None, "rotationally-symmetric", _check_fw2),
    "roundtrip-3web": (5, (3,), None, None, _check_roundtrip),
    # 3-row instances build webs or run N promotions per tableau, so they stay capped at 4
    "promotion-rotation": (8, (2, 3), 4, None, _check_rotation),
    "evacuation-reflection": (8, (2, 3), 4, None, _check_reflection),
    "promotion-order": (8, (2, 3), 4, None, _check_operator_algebra),
    "fold-domino": (8, (2, 3), 5, None, _check_fold_domino),
    "distance-lemmas": (4, (3,), None, None, _check_distance_lemmas),
    "block-patterns": (5, (3,), None, "domino", _check_block_patterns),
}

THEOREMS = tuple(sorted(_SUITES))

# words a sweep or an enumeration may list, summed over its rectangles;
# 3-row n <= 7 and 2-row n <= 13 fit, and every default bound walks at
# most 8,571 words
_MAX_WORDS = 2_000_000


def _check_word_limit(rectangles: Iterable[tuple[int, int]], what: str) -> None:
    """Raise BoundTooLarge, before any word is listed, if the (rows, cols)
    rectangles hold more than _MAX_WORDS words in all.
    """
    total = 0
    for rows, cols in rectangles:
        if min(rows, cols) == 1:
            total += 1
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


def verify(theorem_id: str, max_n: int | None = None) -> VerificationReport:
    """Run one exhaustive suite and report every failing instance.

    Suites covering both 2-row and 3-row families read max_n as the 2-row
    bound and cap the 3-row side (4 where webs are built or N promotions
    run per tableau, 5 for fold-domino) so default runs stay within a
    minute.  A bound whose families hold more than 2,000,000 words in all
    raises BoundTooLarge before any word is enumerated.  An instance that
    raises is reported as a failure naming the exception class.  Set
    WEBFOLD_WORKERS to fan instances out over that many processes, at
    most one per CPU.
    """
    if theorem_id not in _SUITES:
        raise UnknownTheorem(
            f"unknown theorem id {theorem_id!r}; known: {', '.join(THEOREMS)}"
        )
    default_n, rows_swept, cap3, keep, check_one = _SUITES[theorem_id]
    bound = default_n if max_n is None else max_n
    if bound < 1:
        raise ValueError("max_n must be at least 1")
    caps = {2: bound, 3: bound if cap3 is None else min(bound, cap3)}
    _check_word_limit(
        ((rows, n) for rows in rows_swept for n in range(1, caps[rows] + 1)),
        f"{theorem_id} up to n={bound} would sweep",
    )
    start = time.perf_counter()
    words = [w for rows in rows_swept for w in _words(rows, caps[rows], keep)]
    check = partial(_failures, check_one)
    failures: list[Failure] = []
    workers = worker_count()
    if workers > 1 and len(words) > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for found in pool.map(check, words, chunksize=64):
                failures.extend(found)
    else:
        for word in words:
            failures.extend(check(word))
    failures.sort(key=lambda f: (f.word, f.identity))
    return VerificationReport(
        theorem=theorem_id,
        instances=len(words),
        failures=tuple(failures),
        elapsed=time.perf_counter() - start,
    )
