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
from dataclasses import dataclass
from typing import Callable, Iterator

from .errors import InvalidWorkerCount, UnknownTheorem, WebfoldError
from .matchings import fold2, reflect2, rotate2, web2_of_tableau
from .mdiagram import (
    arc_distance,
    coherent_separators,
    epsilon,
    reflected_face,
    resolve,
)
from .planarweb import (
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
        return {
            "word": self.word,
            "identity": self.identity,
            "lhs": self.lhs,
            "rhs": self.rhs,
        }


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


def _rect_words(rows: int, max_n: int) -> list[str]:
    out: list[str] = []
    for n in range(1, max_n + 1):
        out.extend(enumerate_words((n,) * rows))
    return out


def _symmetric_only(words: list[str]) -> list[str]:
    return [w for w in words if is_rotationally_symmetric(from_word(w))]


def _words_2row_symmetric(max_n: int) -> list[str]:
    return _symmetric_only(_rect_words(2, max_n))


def _words_3row_symmetric(max_n: int) -> list[str]:
    return _symmetric_only(_rect_words(3, max_n))


def _words_3row(max_n: int) -> list[str]:
    return _rect_words(3, max_n)


def _words_2row_3row(max_n: int) -> list[str]:
    # 3-row instances build webs or run N promotions per tableau, so they stay capped at 4
    return _rect_words(2, max_n) + _rect_words(3, min(max_n, 4))


def _words_fold_domino(max_n: int) -> list[str]:
    return _rect_words(2, max_n) + _rect_words(3, min(max_n, 5))


def _words_3row_domino(max_n: int) -> list[str]:
    return [w for w in _rect_words(3, max_n) if is_domino(from_word(w))]


def _check_2byn(word: str) -> list[Failure]:
    t = from_word(word)
    lhs = fold2(web2_of_tableau(t))
    rhs = web2_of_tableau(fold(t))
    if lhs != rhs:
        return [
            Failure(
                word,
                "fold2(web2(T)) = web2(fold(T))",
                json.dumps(lhs.to_dict()),
                json.dumps(rhs.to_dict()),
            )
        ]
    return []


def _check_fw1(word: str) -> list[Failure]:
    t = from_word(word)
    lhs = domino_of_symmetric_web(web_of_tableau(t))
    rhs = fold(t)
    if lhs != rhs:
        return [
            Failure(
                word,
                "domino_of_symmetric_web(web_of_tableau(T)) = fold(T)",
                lhs.word,
                rhs.word,
            )
        ]
    return []


def _check_fw2(word: str) -> list[Failure]:
    t = from_word(word)
    lhs = canonical(crossed_web(fold(t)))
    rhs = canonical(web_of_tableau(t))
    if lhs != rhs:
        return [
            Failure(
                word,
                "crossed_web(fold(T)) = web_of_tableau(T)",
                repr(lhs),
                repr(rhs),
            )
        ]
    return []


def _check_roundtrip(word: str) -> list[Failure]:
    t = from_word(word)
    back = tableau_of_web(web_of_tableau(t))
    if back != t:
        return [
            Failure(word, "tableau_of_web(web_of_tableau(T)) = T", back.word, word)
        ]
    return []


def _check_rotation(word: str) -> list[Failure]:
    t = from_word(word)
    if t.shape.row_count == 2:
        lhs2 = rotate2(web2_of_tableau(t))
        rhs2 = web2_of_tableau(promote(t))
        if lhs2 != rhs2:
            return [
                Failure(
                    word,
                    "rotate2(web2(T)) = web2(promote(T))",
                    json.dumps(lhs2.to_dict()),
                    json.dumps(rhs2.to_dict()),
                )
            ]
        return []
    lhs = canonical(rotate(web_of_tableau(t)))
    rhs = canonical(web_of_tableau(promote(t)))
    if lhs != rhs:
        return [
            Failure(
                word,
                "rotate(web_of_tableau(T)) = web_of_tableau(promote(T))",
                repr(lhs),
                repr(rhs),
            )
        ]
    return []


def _check_reflection(word: str) -> list[Failure]:
    t = from_word(word)
    if t.shape.row_count == 2:
        lhs2 = reflect2(web2_of_tableau(t))
        rhs2 = web2_of_tableau(evacuate(t))
        if lhs2 != rhs2:
            return [
                Failure(
                    word,
                    "reflect2(web2(T)) = web2(evacuate(T))",
                    json.dumps(lhs2.to_dict()),
                    json.dumps(rhs2.to_dict()),
                )
            ]
        return []
    lhs = canonical(reflect(web_of_tableau(t)))
    rhs = canonical(web_of_tableau(evacuate(t)))
    if lhs != rhs:
        return [
            Failure(
                word,
                "reflect(web_of_tableau(T)) = web_of_tableau(evacuate(T))",
                repr(lhs),
                repr(rhs),
            )
        ]
    return []


def _check_operator_algebra(word: str) -> list[Failure]:
    fails: list[Failure] = []
    t = from_word(word)
    total = t.size
    chain = [t]
    for _ in range(total):
        chain.append(promote(chain[-1]))
    if chain[-1] != t:
        fails.append(Failure(word, "promote^N(T) = T", chain[-1].word, t.word))
    e = evacuate(t)
    if evacuate(e) != t:
        fails.append(Failure(word, "evacuate(evacuate(T)) = T", evacuate(e).word, word))
    if e != rotate180_complement(t):
        fails.append(
            Failure(
                word,
                "evacuate(T) = rotate180_complement(T)",
                e.word,
                rotate180_complement(t).word,
            )
        )
    if unfold(fold(t)) != t:
        fails.append(Failure(word, "unfold(fold(T)) = T", unfold(fold(t)).word, word))
    for k in range(total + 1):
        lhs = restrict_le(chain[k], total - k)
        rhs = rectify(restrict_gt(t, k))
        if lhs != rhs:
            fails.append(
                Failure(
                    word,
                    f"restrict_le(promote^{k}(T), N-{k}) = rectify(restrict_gt(T, {k}))",
                    lhs.word,
                    rhs.word,
                )
            )
            break
    for j in range(1, total // 2 + 1):
        bound = total + 1 - 2 * j
        lhs = restrict_le(partial_fold(t, j), bound)
        rhs = restrict_le(chain[j], bound)
        if lhs != rhs:
            fails.append(
                Failure(
                    word,
                    f"restrict_le(partial_fold(T, {j}), N+1-{2 * j}) = "
                    f"restrict_le(promote^{j}(T), N+1-{2 * j})",
                    lhs.word,
                    rhs.word,
                )
            )
            break
    return fails


def _check_fold_domino(word: str) -> list[Failure]:
    fails: list[Failure] = []
    t = from_word(word)
    symmetric = is_rotationally_symmetric(t)
    folded = fold(t)
    if symmetric != is_domino(folded):
        fails.append(
            Failure(
                word,
                "T rotationally symmetric iff fold(T) is a domino tableau",
                str(symmetric),
                str(is_domino(folded)),
            )
        )
    if symmetric:
        back = unfold(folded)
        if back != t:
            fails.append(Failure(word, "unfold(fold(T)) = T", back.word, word))
    if is_domino(t):
        s = unfold(t)
        if not is_rotationally_symmetric(s):
            fails.append(
                Failure(word, "unfold(D) is rotationally symmetric", s.word, word)
            )
        elif fold(s) != t:
            fails.append(Failure(word, "fold(unfold(D)) = D", fold(s).word, word))
    return fails


def _check_distance_lemmas(word: str) -> list[Failure]:
    fails: list[Failure] = []
    t = from_word(word)
    w = web_of_tableau(t)
    report = validate_3web(w)
    if report.violations:
        fails.append(
            Failure(word, "resolution is a valid web", "; ".join(report.violations), "")
        )
    if not is_rotationally_symmetric(t):
        return fails
    d = fold(t)
    try:
        m = crossed_mdiagram(d)
    except WebfoldError as exc:
        fails.append(
            Failure(
                word,
                "vertical pairs are maximal non-intersecting arcs",
                f"{type(exc).__name__}: {exc}",
                "",
            )
        )
        return fails
    wx = resolve(m)
    report = validate_3web(wx)
    if report.violations:
        fails.append(
            Failure(
                word,
                "crossed resolution is a valid web",
                "; ".join(report.violations),
                "",
            )
        )
        return fails
    ext = exterior_face(wx)
    interior = [f for f in faces(wx) if f != ext]
    for i, x in enumerate(interior):
        for y in interior[i + 1 :]:
            dw = web_distance(wx, x, y)
            da = arc_distance(m, x, y)
            cs = len(coherent_separators(m, x, y))
            if dw < da - cs:
                fails.append(
                    Failure(
                        word,
                        "webdist(X, Y) >= arcdist(X, Y) - |CS(X, Y)|",
                        f"webdist={dw}",
                        f"arcdist={da}, separators={cs}",
                    )
                )
    for x in interior:
        xr = reflected_face(m, x)
        lhs = web_distance(wx, x, xr)
        rhs = arc_distance(m, x, xr) - epsilon(m, x)
        if lhs != rhs:
            fails.append(
                Failure(
                    word,
                    "webdist(X, X') = arcdist(X, X') - epsilon(X)",
                    f"webdist={lhs}",
                    f"arcdist-epsilon={rhs}",
                )
            )
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
                fails.append(
                    Failure(
                        word,
                        f"arcdist(A_{k}, A_{k}') = 2 webdist(B_{k}, B_0)",
                        f"arcdist={lhs}",
                        f"2*webdist={rhs}",
                    )
                )
    return fails


def _check_block_patterns(word: str) -> list[Failure]:
    t = from_word(word)
    try:
        dec = decompose_blocks(t)
    except WebfoldError as exc:
        return [
            Failure(
                word,
                "domino tableau decomposes into typed blocks",
                f"{type(exc).__name__}: {exc}",
                "",
            )
        ]
    fails: list[Failure] = []
    for i, b in enumerate(dec.blocks):
        if b.btype == 0 and (i != 0 or t.size % 2 == 0):
            fails.append(
                Failure(
                    word,
                    "lone-cell block only leads an odd tableau",
                    f"block {i} has type 0",
                    "",
                )
            )
    try:
        crossed_mdiagram_of_decomposition(dec)
    except WebfoldError as exc:
        fails.append(
            Failure(
                word,
                "vertical pairs are maximal non-intersecting arcs",
                f"{type(exc).__name__}: {exc}",
                "",
            )
        )
    return fails


_SUITES: dict[str, tuple[int, Callable[[int], list[str]], Callable[[str], list[Failure]]]] = {
    "thm-2byn": (8, _words_2row_symmetric, _check_2byn),
    "thm-fw1": (5, _words_3row_symmetric, _check_fw1),
    "thm-fw2": (5, _words_3row_symmetric, _check_fw2),
    "roundtrip-3web": (5, _words_3row, _check_roundtrip),
    "promotion-rotation": (8, _words_2row_3row, _check_rotation),
    "evacuation-reflection": (8, _words_2row_3row, _check_reflection),
    "promotion-order": (8, _words_2row_3row, _check_operator_algebra),
    "fold-domino": (8, _words_fold_domino, _check_fold_domino),
    "distance-lemmas": (4, _words_3row, _check_distance_lemmas),
    "block-patterns": (5, _words_3row_domino, _check_block_patterns),
}

THEOREMS = tuple(sorted(_SUITES))


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
    minute.  Set WEBFOLD_WORKERS to fan instances out over that many
    processes, at most one per CPU.
    """
    if theorem_id not in _SUITES:
        raise UnknownTheorem(
            f"unknown theorem id {theorem_id!r}; known: {', '.join(THEOREMS)}"
        )
    default_n, build, check = _SUITES[theorem_id]
    bound = default_n if max_n is None else max_n
    if bound < 1:
        raise ValueError("max_n must be at least 1")
    start = time.perf_counter()
    words = build(bound)
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
