import hashlib
import random
from itertools import product
from operator import le, sub

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from webfold.errors import (
    NonLatticeWord,
    NotRectangular,
    OutOfRange,
    WrongShape,
)
from webfold.oracle import enumerate_words
from webfold.tableaux import (
    Shape,
    Tableau,
    _bender_knuth,
    _slide_forward,
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
from reference import rectify_by_slides, symmetric_words

SKEW = Tableau.from_rows(
    [(1, 9), (2, 3, 11, 12), (4, 6, 7, 13), (5, 8, 10, 14)], inner=(3, 1)
)


def inverse_promotion(t):
    """Inverse promotion as the swap product tau_{N-1}, ..., tau_1, which
    undoes promotion's tau_1, ..., tau_{N-1}."""
    return _bender_knuth(t, range(t.size - 1, 0, -1))


def test_operators_run_no_tableau_checks(monkeypatch):
    """Results are built standard by construction, so no operator runs the
    Shape or Tableau checks; test_operator_results_pass_the_checks runs them."""
    straight = Tableau.from_rows([(1, 2, 5), (3, 4, 8), (6, 7, 9)])
    expected = from_word("12134213122134")
    for rng in (None, random.Random(3)):
        assert rectify_by_slides(SKEW, rng) == expected
    checks = []
    for cls in (Shape, Tableau):
        monkeypatch.setattr(cls, "__init__", lambda value, *_: checks.append(type(value).__name__))
    assert rectify(SKEW) == expected
    for op in (promote, inverse_promotion, evacuate, fold, unfold, rotate180_complement):
        op(straight)
    partial_fold(straight, 2)
    restrict_le(SKEW, 7)
    restrict_gt(SKEW, 7)
    # a straight word's lattice check is its entry check
    assert from_word(expected.word) == expected
    assert checks == []
    Tableau.from_rows([(1, 2)])
    assert checks == ["Shape", "Tableau"]


def _assert_checked(t):
    """t is what the Shape and Tableau checks build from its shape and rows."""
    again = Tableau(Shape(t.shape.outer, t.shape.inner), t.rows)
    assert (again, hash(again), repr(again), again.size) == (t, hash(t), repr(t), t.size)


def test_operator_results_pass_the_checks():
    """Every straight tableau of size <= 8 and every 3-row rectangle with n <= 4."""
    shapes = [shape for n in range(9) for shape in _partitions(n, n)] + [(3, 3, 3), (4, 4, 4)]
    for shape in shapes:
        for word in enumerate_words(shape):
            t = from_word(word)
            n = t.size
            results = [promote(t), inverse_promotion(t), evacuate(t), fold(t), unfold(t)]
            results += [partial_fold(t, j) for j in range(1, n // 2 + 1)]
            results += [op(t, k) for op in (restrict_le, restrict_gt) for k in range(n + 1)]
            if t.shape.is_rectangular:
                results.append(rotate180_complement(t))
            for result in results:
                _assert_checked(result)


def _skew_fillings(outer, inner):
    """The rows of every standard filling of outer/inner, a cell at a time."""
    filled = list(inner) + [0] * (len(outer) - len(inner))
    rows = [[] for _ in outer]
    n = sum(outer) - sum(inner)

    def fill(v):
        if v > n:
            yield [list(row) for row in rows]
            return
        for r in range(len(outer)):
            if filled[r] < outer[r] and (r == 0 or filled[r] < filled[r - 1]):
                filled[r] += 1
                rows[r].append(v)
                yield from fill(v + 1)
                filled[r] -= 1
                rows[r].pop()

    yield from fill(1)


def test_slide_and_rectify_results_pass_the_checks():
    """Every skew filling with outer size <= 9 and at most 6 cells: rectify
    passes the checks and equals the rectification by slides."""
    count = 0
    for size in range(1, 10):
        for outer in _partitions(size, size):
            inners = [
                inner
                for k in range(max(0, size - 6), size + 1)
                for inner in _partitions(k, outer[0])
                if len(inner) <= len(outer) and all(map(le, inner, outer))
            ]
            for inner in inners:
                for rows in _skew_fillings(outer, inner):
                    skew = Tableau.from_rows(rows, inner)
                    inserted = rectify(skew)
                    _assert_checked(inserted)
                    assert inserted == rectify_by_slides(skew)
                    count += 1
    assert count == 7369


def test_restrictions_keep_the_skew_shape():
    """restrict_le keeps the inner shape, restrict_gt the outer one, and
    the two meet: every skew filling of outer size <= 7, straight ones too."""
    count = 0
    for size in range(1, 8):
        for outer in _partitions(size, size):
            inners = [
                inner
                for k in range(size)
                for inner in _partitions(k, outer[0])
                if len(inner) <= len(outer) and all(map(le, inner, outer))
            ]
            for inner in inners:
                for rows in _skew_fillings(outer, inner):
                    t = Tableau.from_rows(rows, inner)
                    for k in range(t.size + 1):
                        low, high = restrict_le(t, k), restrict_gt(t, k)
                        assert low.shape.inner == t.shape.inner
                        assert high.shape.outer == t.shape.outer
                        assert high.shape.inner == low.shape.outer
                        _assert_checked(low)
                        _assert_checked(high)
                    count += 1
    assert count == 1537


def test_restrictions_keep_inner_cells_in_an_empty_bottom_row():
    # the bottom row holds an inner cell and, at most, entries above k
    t = Tableau.from_rows([(1,), (2,)], inner=(1, 1))
    assert restrict_le(t, 1) == Tableau.from_rows([(1,), ()], inner=(1, 1))
    assert restrict_le(t, 1) == from_word("1", inner=(1, 1))
    assert restrict_gt(from_word("1121"), 3) == Tableau.from_rows([(1,), ()], inner=(2, 1))


def test_rectify_agrees_with_slides():
    """Every restrict_gt(T, k) of the straight shapes below, each distinct one
    once: row insertion of the reading word equals jeu de taquin, topmost or
    random corners first."""
    rng = random.Random(20261019)
    shapes = ((4, 3, 2, 1), (5, 3, 2), (3, 3, 3), (4, 4, 4), (3, 3, 3, 3), (6, 6))
    straight = [from_word(w) for shape in shapes for w in enumerate_words(shape)]
    skews = [restrict_gt(t, k) for t in straight for k in range(t.size + 1)]
    assert len(skews) == 27546
    distinct = dict.fromkeys(skews)
    assert len(distinct) == 10257
    for skew in distinct:
        inserted = rectify(skew)
        _assert_checked(inserted)
        assert inserted == rectify_by_slides(skew) == rectify_by_slides(skew, rng)


def test_rectify_fixes_straight():
    t = from_word("112233")
    assert rectify(t) == t


def test_rectify_order_independent():
    rng = random.Random(20260814)
    base = rectify(SKEW)
    for _ in range(20):
        assert rectify_by_slides(SKEW, rng) == base


def test_rectify_matches_promotion():
    t = Tableau.from_rows([(1, 2, 5), (3, 4, 8), (6, 7, 9)])
    assert rectify(restrict_gt(t, 1)) == restrict_le(promote(t), 8)


PROMOTE_BEFORE = Tableau.from_rows([(1, 2, 5), (3, 4, 8), (6, 7, 9)])
PROMOTE_AFTER = Tableau.from_rows([(1, 3, 4), (2, 6, 7), (5, 8, 9)])


def test_promote_example():
    assert promote(PROMOTE_BEFORE) == PROMOTE_AFTER


def test_promote_fixes_column():
    t = Tableau.from_rows([(1,), (2,), (3,), (4,)])
    assert promote(t) == t
    assert inverse_promotion(t) == t


def test_promote_order_divides_cell_count():
    for word in enumerate_words((3, 3)):
        t = from_word(word)
        p = t
        for _ in range(6):
            p = promote(p)
        assert p == t


def test_promote_inverse_example():
    assert inverse_promotion(PROMOTE_AFTER) == PROMOTE_BEFORE


def test_promote_round_trip_exhaustive():
    for word in enumerate_words((4, 4)):
        t = from_word(word)
        assert inverse_promotion(promote(t)) == t
        assert promote(inverse_promotion(t)) == t


FOLD_CHAIN = [
    Tableau.from_rows([(1, 3, 4, 7), (2, 5, 6, 8)]),
    Tableau.from_rows([(1, 2, 3, 6), (4, 5, 7, 8)]),
    Tableau.from_rows([(1, 2, 5, 6), (3, 4, 7, 8)]),
    Tableau.from_rows([(1, 3, 5, 6), (2, 4, 7, 8)]),
    Tableau.from_rows([(1, 3, 5, 6), (2, 4, 7, 8)]),
]


def test_bounded_promotion_chain():
    """The partial folds of FOLD_CHAIN[0], bounds 8, 6, 4, 2 one more at a time."""
    for j in range(1, 5):
        assert partial_fold(FOLD_CHAIN[0], j) == FOLD_CHAIN[j]


def test_fold_example():
    assert fold(FOLD_CHAIN[0]) == FOLD_CHAIN[4]
    assert fold(FOLD_CHAIN[0]).word == "12121122"


def test_fold_chain_word():
    t = from_word("111122213132223333")
    assert fold(t).word == "112212121133332323"


def test_fold_fixes_column():
    t = Tableau.from_rows([(1,), (2,), (3,)])
    assert fold(t) == t


def test_partial_fold_bounds():
    with pytest.raises(OutOfRange):
        partial_fold(FOLD_CHAIN[0], 0)
    with pytest.raises(OutOfRange):
        partial_fold(FOLD_CHAIN[0], 5)


def test_unfold_round_trip():
    for word in enumerate_words((3, 3, 3)):
        t = from_word(word)
        assert unfold(fold(t)) == t
        assert fold(unfold(t)) == t


def test_evacuate_self_example():
    t = Tableau.from_rows([(1, 3, 4, 7), (2, 5, 6, 8)])
    assert evacuate(t) == t


def test_evacuate_involution():
    for word in enumerate_words((3, 3, 3)):
        t = from_word(word)
        assert evacuate(evacuate(t)) == t


def test_evacuate_is_rotate_complement():
    for word in enumerate_words((2, 2, 2)):
        t = from_word(word)
        assert evacuate(t) == rotate180_complement(t)


def test_rotate_complement_fixed_points():
    assert is_rotationally_symmetric(Tableau.from_rows([(1, 3, 4, 7), (2, 5, 6, 8)]))
    assert is_rotationally_symmetric(Tableau.from_rows([(1, 2), (3, 4)]))
    # the row-by-row test agrees with the rotated tableau, middle rows included
    for rows, top in ((1, 4), (2, 6), (3, 4), (4, 3), (5, 2)):
        for n in range(1, top + 1):
            for word in enumerate_words((n,) * rows):
                t = from_word(word)
                assert is_rotationally_symmetric(t) == (rotate180_complement(t) == t), word


def test_rotate_complement_involution():
    for word in enumerate_words((3, 3, 3)):
        t = from_word(word)
        assert rotate180_complement(rotate180_complement(t)) == t


def test_rotate_complement_needs_rectangle():
    t = from_word("11212")
    with pytest.raises(NotRectangular):
        rotate180_complement(t)
    with pytest.raises(NotRectangular):
        is_rotationally_symmetric(t)


def test_symmetric_iff_domino_fold():
    for word in enumerate_words((4, 4)):
        t = from_word(word)
        assert is_rotationally_symmetric(t) == is_domino(fold(t))


def test_is_domino_examples():
    assert is_domino(Tableau.from_rows([(1, 3, 5, 6), (2, 4, 7, 8)]))
    assert is_domino(from_word("111232323"))
    assert not is_domino(Tableau.from_rows([(1, 2, 3), (4, 5, 6)]))
    with pytest.raises(WrongShape):
        is_domino(SKEW)


def test_is_domino_matches_the_cell_distance():
    """Every straight tableau of size <= 8 and its fold, against the pairs'
    cells at distance one; for odd N the entry 1 stands alone."""
    count = 0
    for shape in [shape for n in range(9) for shape in _partitions(n, n)]:
        for straight in map(from_word, enumerate_words(shape)):
            for t in (straight, fold(straight)):
                cells = {v: (r, c) for r, row in enumerate(t.rows) for c, v in enumerate(row)}
                pairs = range(1 + t.size % 2, t.size, 2)
                adjacent = [sum(map(abs, map(sub, cells[a], cells[a + 1]))) == 1 for a in pairs]
                assert is_domino(t) == all(adjacent)
                count += all(adjacent)
    assert count == 268


def test_promotion_rectification_lemma():
    for word in enumerate_words((2, 2, 2)):
        t = from_word(word)
        pk = t
        for k in range(0, 7):
            assert restrict_le(pk, 6 - k) == rectify(restrict_gt(t, k))
            assert restrict_le(t, k) == rectify(restrict_gt(pk, 6 - k))
            pk = promote(pk)


def test_promotion_folding_lemma():
    for word in enumerate_words((4, 4)):
        t = from_word(word)
        pj = t
        for j in range(1, 5):
            pj = promote(pj)
            bound = 8 + 1 - 2 * j
            assert restrict_le(partial_fold(t, j), bound) == restrict_le(pj, bound)


def test_promotion_folding_symmetric_lemma():
    checked = 0
    for word in symmetric_words((4, 4)):
        t = from_word(word)
        checked += 1
        folded = fold(t)
        previous = t
        for j in range(1, 5):
            value = (8 + 1 - 2 * j) + 1
            cells = [
                next((r, row.index(value)) for r, row in enumerate(u.rows) if value in row)
                for u in (folded, previous)
            ]
            assert cells[0] == cells[1]
            previous = promote(previous)
    assert checked == 6


def test_word_round_trip():
    for word in enumerate_words((3, 3, 3)):
        assert from_word(word).word == word


def test_from_word_rejects_non_lattice():
    with pytest.raises(NonLatticeWord):
        from_word("2112")
    with pytest.raises(NonLatticeWord):
        from_word("1212x")


def _is_lattice(word):
    """Whether every prefix holds at least as many r - 1 as r, for each letter r."""
    for k in range(1, len(word) + 1):
        counts = [word[:k].count(letter) for letter in "123456789"]
        if counts != sorted(counts, reverse=True):
            return False
    return True


def test_from_word_accepts_exactly_the_lattice_words():
    """Every word over 1-4 of length 1 to 8; the accepted ones decode to
    what the Shape and Tableau checks build."""
    count = accepted = 0
    for length in range(1, 9):
        for word in map("".join, product("1234", repeat=length)):
            count += 1
            try:
                t = from_word(word)
            except NonLatticeWord:
                assert not _is_lattice(word), word
                continue
            assert _is_lattice(word), word
            _assert_checked(t)
            assert t.word == word
            accepted += 1
    # 896 = the standard tableaux of at most 4 rows and size 1 to 8, by hook lengths
    assert (count, accepted) == (87380, 896)


@pytest.mark.parametrize("word", ["\u0660", "\u0661\u0662\u0663", "\u00b2", "1\u0662", "12a", "0", "1 2", "\uff11"])
def test_from_word_reads_only_ascii_digits(word):
    with pytest.raises(NonLatticeWord, match="^word must consist of digits 1-9$"):
        from_word(word)
    with pytest.raises(NonLatticeWord, match="^word must consist of digits 1-9$"):
        from_word(word, inner=(1,))


@pytest.mark.parametrize("word", [12, None, ["1", "2"], b"12"])
def test_from_word_needs_a_string(word):
    with pytest.raises(TypeError, match="^word must be a string"):
        from_word(word)


@pytest.mark.parametrize("word, inner", [("12", (-1,)), ("1", (-2,)), ("112", (1, -1)), ("11", (0, -1))])
def test_a_negative_inner_row_is_named(word, inner):
    """The inner rows are checked before the outer rows are computed from
    them, so a negative one is not reported as a nonpositive outer row."""
    message = "^word does not encode a standard tableau: inner rows must be nonnegative$"
    with pytest.raises(NonLatticeWord, match=message):
        from_word(word, inner)


def test_skew_word_needs_inner():
    again = from_word(SKEW.word, inner=SKEW.shape.inner)
    assert again == SKEW


def test_json_round_trip():
    t = PROMOTE_BEFORE
    assert Tableau.from_dict(t.to_dict()) == t
    s = SKEW
    assert Tableau.from_dict(s.to_dict()) == s


def test_restrict_bounds():
    with pytest.raises(OutOfRange):
        restrict_le(PROMOTE_BEFORE, 10)
    with pytest.raises(OutOfRange):
        restrict_gt(PROMOTE_BEFORE, -1)


def test_shape_validation():
    with pytest.raises(ValueError):
        Shape((2, 3))
    with pytest.raises(ValueError):
        Shape((3, 2), (1, 2))
    with pytest.raises(ValueError):
        Tableau.from_rows([(1, 3), (2, 2)])


@given(st.sampled_from(sorted(enumerate_words((4, 4)))))
def test_promotion_conjugates_evacuation(word):
    t = from_word(word)
    assert promote(evacuate(promote(t))) == evacuate(t)


def _partitions(n, largest):
    if n == 0:
        yield ()
    for first in range(min(n, largest), 0, -1):
        for rest in _partitions(n - first, first):
            yield (first,) + rest


def test_bounded_promotion_on_straight_shapes():
    """Every straight tableau of size <= 8 and bound k, slid forward with
    that one bound against the skew jeu-de-taquin, and brought back by the
    swaps tau_{k-1}, ..., tau_1."""
    shapes = [shape for n in range(1, 9) for shape in _partitions(n, n)]
    assert len(shapes) == 1 + 2 + 3 + 5 + 7 + 11 + 15 + 22
    for shape in shapes:
        for word in enumerate_words(shape):
            t = from_word(word)
            for k in range(1, t.size + 1):
                p = _slide_forward(t, [k])
                assert restrict_le(p, k - 1) == rectify(restrict_gt(restrict_le(t, k), 1))
                for row, moved in zip(t.rows, p.rows):
                    assert [v if v > k else 0 for v in row] == [v if v > k else 0 for v in moved]
                assert _bender_knuth(p, range(k - 1, 0, -1)) == t


def _slide_forward_per_step(t, bounds):
    """The rows of the forward slides as first written: after each bound k
    the whole grid is relabelled, entries 2..k dropping by one."""
    n = t.size
    outer = t.shape.outer
    wall = [n + 1] * (outer[0] + 1 if outer else 1)
    grid = [list(row) + wall[len(row) :] for row in t.rows] + [wall]
    for k in bounds:
        r = c = 0
        while True:
            right = grid[r][c + 1]
            below = grid[r + 1][c]
            if right < below:
                if right > k:
                    break
                grid[r][c] = right
                c += 1
            else:
                if below > k:
                    break
                grid[r][c] = below
                r += 1
        relabel = (list(range(-1, k)) + list(range(k + 1, n + 2))).__getitem__
        grid = [list(map(relabel, row)) for row in grid]
        grid[r][c] = k
    return tuple(tuple(row[:m]) for row, m in zip(grid, outer))


def _forward_bounds(n):
    """Every bound sequence the operators pass to _slide_forward at size n
    (promote, evacuate, partial_fold and fold), and each single bound."""
    yield [n] if n else []
    yield from ([k] for k in range(1, n + 1))
    yield range(n, 0, -1)
    yield from (range(n, n - 2 * j, -2) for j in range(1, n // 2 + 1))
    yield range(n, 1, -2)


def _sampled_tableaux():
    """Every straight shape with at most 10 cells (at most 40 tableaux of
    each, all of them up to 7 cells), and long single rows and columns."""
    # a word names at most nine rows, so the 10-cell column goes in by its rows
    shapes = [shape for n in range(11) for shape in _partitions(n, n) if len(shape) <= 9]
    tableaux = []
    for shape in shapes:
        words = list(enumerate_words(shape))
        tableaux += map(from_word, words[:: len(words) // 40 + 1])
    tableaux += [Tableau.from_rows([(v,) for v in range(1, n + 1)]) for n in (10, 11, 16)]
    tableaux += [from_word("1" * n) for n in (11, 16)]
    return tableaux


def test_forward_slides_match_the_per_step_relabelling():
    """_slide_forward relabels once, after the last bound, on every sampled tableau."""
    count = 0
    for t in _sampled_tableaux():
        for bounds in _forward_bounds(t.size):
            assert _slide_forward(t, bounds).rows == _slide_forward_per_step(t, bounds)
            count += 1
    assert count == 48934


def _slide_back_per_step(t, bounds):
    """The rows of the inverse bounded promotions by backward slides, the
    reference for the swap products: for each bound k the hole left by k
    slides up or left into the larger neighbour until it reaches (1, 1),
    then the whole grid is relabelled, entries below k rising by one, and
    1 goes to (1, 1)."""
    n = t.size
    outer = t.shape.outer
    grid = [[0] * (outer[0] + 1 if outer else 1)] + [[0, *row] for row in t.rows]
    for k in bounds:
        for r, row in enumerate(grid):
            if k in row:
                c = row.index(k)
                break
        while True:
            up = grid[r - 1][c]
            left = grid[r][c - 1]
            if up > left:
                grid[r][c] = up
                r -= 1
            elif left:
                grid[r][c] = left
                c -= 1
            else:
                break
        relabel = ([0] + list(range(2, k + 1)) + list(range(k, n + 1))).__getitem__
        grid = [list(map(relabel, row)) for row in grid]
        grid[1][1] = 1
    return tuple(tuple(row[1:]) for row in grid[1:])


def _backward_bounds(n):
    """Every bound sequence that inverse promotion and unfold undo at size n,
    and each single bound."""
    yield [n] if n else []
    yield from ([k] for k in range(1, n + 1))
    yield range(2 + n % 2, n + 1, 2)


def _backward_steps(bounds):
    """The swaps that undo the bounded promotions of `bounds`, the first
    bound first: tau_{k-1}, ..., tau_1 for each k."""
    return [i for k in bounds for i in range(k - 1, 0, -1)]


def test_swap_products_match_the_backward_slides():
    """The reversed swap products equal the backward slides on every
    sampled tableau, for every bound sequence the inverse operators undo."""
    count = 0
    for t in _sampled_tableaux():
        for bounds in _backward_bounds(t.size):
            assert _bender_knuth(t, _backward_steps(bounds)).rows == _slide_back_per_step(t, bounds)
            count += 1
    assert count == 32977


def test_inverse_operators_match_the_backward_slides_past_ten_cells():
    """unfold and inverse promotion against the backward slides at N = 15
    and 16, past the sampled tableaux: every 10th tableau of 2x8 and 3x5
    and every 50th of 4x4."""
    count = 0
    for shape, every in (((8, 8), 10), ((5, 5, 5), 10), ((4, 4, 4, 4), 50)):
        for word in list(enumerate_words(shape))[::every]:
            t = from_word(word)
            n = t.size
            assert unfold(t).rows == _slide_back_per_step(t, range(2 + n % 2, n + 1, 2))
            assert inverse_promotion(t).rows == _slide_back_per_step(t, [n])
            count += 1
    assert count == 143 + 601 + 481


# the shapes of the operator golden and the sha256 of its lines; the lines'
# images are those the straight-shape operators gave before the slide loops
# were padded
GOLDEN_SHAPES = [(n, n) for n in range(1, 7)] + [(n, n, n) for n in range(1, 5)] + [(4, 2, 1), (3, 3, 2)]
GOLDEN_SHA256 = "1fd2fd716cf912ea8b79ce1ba28c7586f2aa8e4f9d5426b6f2edc078eaa4329c"


def test_operator_golden():
    """One line per tableau: its word and the words of its images under the
    six straight-shape operators, every j included."""
    digest = hashlib.sha256()
    count = 0
    for shape in GOLDEN_SHAPES:
        for word in enumerate_words(shape):
            t = from_word(word)
            n = t.size
            images = [promote(t), inverse_promotion(t), evacuate(t), fold(t), unfold(t)]
            images += [partial_fold(t, j) for j in range(1, n // 2 + 1)]
            digest.update((" ".join([word] + [u.word for u in images]) + "\n").encode())
            count += 1
    assert (count, digest.hexdigest()) == (783, GOLDEN_SHA256)


def _reference_tableau(outer, inner, rows):
    """The Shape and Tableau checks as first written, cell by cell: the
    normalised (outer, inner, rows), or the first check's ValueError."""
    outer, inner = tuple(outer), tuple(inner)
    while inner and inner[-1] == 0:
        inner = inner[:-1]
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

    def inner_at(r):
        return inner[r - 1] if 1 <= r <= len(inner) else 0

    def outer_at(r):
        return outer[r - 1] if 1 <= r <= len(outer) else 0

    rows = tuple(tuple(row) for row in rows)
    if len(rows) != len(outer):
        raise ValueError("row count does not match shape")
    for r in range(1, len(outer) + 1):
        if len(rows[r - 1]) != outer_at(r) - inner_at(r):
            raise ValueError(f"row {r} length does not match shape")
    entries = [v for row in rows for v in row]
    if sorted(entries) != list(range(1, len(entries) + 1)):
        raise ValueError("entries are not a bijection onto 1..N")
    for row in rows:
        if any(row[i] >= row[i + 1] for i in range(len(row) - 1)):
            raise ValueError("rows must strictly increase")
    for r in range(1, len(outer)):
        upper, lower = rows[r - 1], rows[r]
        shift = inner_at(r) - inner_at(r + 1)
        for i in range(min(len(upper), len(lower) - shift)):
            if upper[i] >= lower[i + shift]:
                raise ValueError("columns must strictly increase")
    return outer, inner, rows, sum(outer) - sum(inner)


def _validated(outer, inner, rows):
    t = Tableau(Shape(outer, inner), rows)
    return t.shape.outer, t.shape.inner, t.rows, t.size


def _outcome(build, *args):
    try:
        return build(*args)
    except Exception as exc:
        return type(exc).__name__, str(exc)


@st.composite
def fillings(draw):
    """A shape and rows: mostly a skew or straight standard filling with up to
    two edits, sometimes a shape or rows drawn at random."""
    if draw(st.integers(0, 4)) == 0:
        outer = draw(st.lists(st.integers(-1, 5), max_size=4))
        inner = draw(st.lists(st.integers(-1, 5), max_size=5))
    else:
        outer = sorted(draw(st.lists(st.integers(1, 5), max_size=4)), reverse=True)
        inner = []
        if draw(st.booleans()):
            inner = sorted(draw(st.lists(st.integers(0, 5), max_size=len(outer))), reverse=True)
            inner = [min(x, o) for x, o in zip(inner, outer)]
    try:
        Shape(outer, inner)
    except ValueError:
        rows = draw(st.lists(st.lists(st.integers(-1, 12), max_size=5), max_size=5))
        return outer, inner, rows
    # a random standard filling: each step fills the next cell of a row
    # whose cell above is already filled or not in the shape
    pad = inner + [0] * (len(outer) - len(inner))
    rows = [[] for _ in outer]
    n = sum(outer) - sum(inner)
    for v in range(1, n + 1):
        ready = [
            r for r in range(len(outer))
            if pad[r] + len(rows[r]) < outer[r]
            and (r == 0 or pad[r] + len(rows[r]) < pad[r - 1] + len(rows[r - 1]))
        ]
        rows[draw(st.sampled_from(ready))].append(v)
    for _ in range(draw(st.integers(0, 2))):
        edit = draw(st.sampled_from(["swap", "column", "value", "drop", "add", "row", "shape"]))
        cells = [(r, c) for r, row in enumerate(rows) for c in range(len(row))]
        # (r, c, d): rows[r + 1][d] is the cell below rows[r][c]
        stacked = [
            (r, c, c + pad[r] - pad[r + 1])
            for r in range(min(len(rows), len(pad)) - 1)
            for c in range(len(rows[r]))
            if 0 <= c + pad[r] - pad[r + 1] < len(rows[r + 1])
        ]
        if edit == "column" and stacked:
            r, c, d = draw(st.sampled_from(stacked))
            rows[r][c], rows[r + 1][d] = rows[r + 1][d], rows[r][c]
        elif edit == "swap" and len(cells) > 1:
            (r1, c1), (r2, c2) = draw(st.permutations(cells))[:2]
            rows[r1][c1], rows[r2][c2] = rows[r2][c2], rows[r1][c1]
        elif edit == "value" and cells:
            r, c = draw(st.sampled_from(cells))
            rows[r][c] = draw(st.integers(-1, n + 2))
        elif edit == "drop" and cells:
            r, c = draw(st.sampled_from(cells))
            del rows[r][c]
        elif edit == "add" and rows:
            draw(st.sampled_from(rows)).append(draw(st.integers(0, n + 2)))
        elif edit == "row":
            rows.append([]) if draw(st.booleans()) or not rows else rows.pop()
        elif edit == "shape" and outer:
            outer = list(outer)
            outer[draw(st.integers(0, len(outer) - 1))] += draw(st.sampled_from([-1, 1]))
    return outer, inner, rows


@settings(max_examples=1000, deadline=None)
@given(fillings())
def test_validators_match_the_cell_by_cell_reference(case):
    outer, inner, rows = case
    assert _outcome(_validated, outer, inner, rows) == _outcome(_reference_tableau, outer, inner, rows)
