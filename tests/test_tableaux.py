import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from webfold.errors import (
    NonLatticeWord,
    NotACorner,
    NotRectangular,
    OutOfRange,
)
from webfold.oracle import enumerate_words
from webfold.tableaux import (
    Shape,
    Tableau,
    evacuate,
    fold,
    from_word,
    is_domino,
    is_rotationally_symmetric,
    partial_fold,
    promote,
    promote_bounded,
    promote_bounded_inverse,
    promote_inverse,
    rectify,
    restrict_gt,
    restrict_le,
    rotate180_complement,
    slide,
    unfold,
)

SKEW = Tableau.from_rows(
    [(1, 9), (2, 3, 11, 12), (4, 6, 7, 13), (5, 8, 10, 14)], inner=(3, 1)
)


def test_slide_moves_path_forward():
    result = slide(SKEW, (2, 1))
    assert result == Tableau.from_rows(
        [(1, 9), (2, 3, 7, 11, 12), (4, 6, 10, 13), (5, 8, 14)], inner=(3,)
    )


def test_slide_rejects_straight_shape():
    t = from_word("1122")
    with pytest.raises(NotACorner):
        slide(t, (1, 1))


def test_slide_rejects_non_corner():
    # (1, 1) is inside the inner shape but not removable: (1, 2) and
    # (2, 1) are both inner cells too.
    with pytest.raises(NotACorner):
        slide(SKEW, (1, 1))


def test_slide_single_cell():
    t = Tableau.from_rows([(1,)], inner=(1,))
    assert slide(t, (1, 1)) == Tableau.from_rows([(1,)])


def test_rectify_fixes_straight():
    t = from_word("112233")
    assert rectify(t) == t


def test_rectify_order_independent():
    rng = random.Random(20260814)
    base = rectify(SKEW)
    for _ in range(20):
        assert rectify(SKEW, rng) == base


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
    assert promote_inverse(t) == t


def test_promote_order_divides_cell_count():
    for word in enumerate_words((3, 3)):
        t = from_word(word)
        p = t
        for _ in range(6):
            p = promote(p)
        assert p == t


def test_promote_inverse_example():
    assert promote_inverse(PROMOTE_AFTER) == PROMOTE_BEFORE


def test_promote_round_trip_exhaustive():
    for word in enumerate_words((4, 4)):
        t = from_word(word)
        assert promote_inverse(promote(t)) == t
        assert promote(promote_inverse(t)) == t


def test_promote_bounded_edges():
    t = PROMOTE_BEFORE
    assert promote_bounded(t, 1) == t
    assert promote_bounded(t, 9) == promote(t)
    with pytest.raises(OutOfRange):
        promote_bounded(t, 0)
    with pytest.raises(OutOfRange):
        promote_bounded(t, 10)
    with pytest.raises(OutOfRange):
        promote_bounded_inverse(t, 10)


FOLD_CHAIN = [
    Tableau.from_rows([(1, 3, 4, 7), (2, 5, 6, 8)]),
    Tableau.from_rows([(1, 2, 3, 6), (4, 5, 7, 8)]),
    Tableau.from_rows([(1, 2, 5, 6), (3, 4, 7, 8)]),
    Tableau.from_rows([(1, 3, 5, 6), (2, 4, 7, 8)]),
    Tableau.from_rows([(1, 3, 5, 6), (2, 4, 7, 8)]),
]


def test_bounded_promotion_chain():
    t = FOLD_CHAIN[0]
    for step, k in enumerate((8, 6, 4, 2), start=1):
        t = promote_bounded(t, k)
        assert t == FOLD_CHAIN[step]


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


def test_rotate_complement_involution():
    for word in enumerate_words((3, 3, 3)):
        t = from_word(word)
        assert rotate180_complement(rotate180_complement(t)) == t


def test_rotate_complement_needs_rectangle():
    t = from_word("11212")
    with pytest.raises(NotRectangular):
        rotate180_complement(t)


def test_symmetric_iff_domino_fold():
    for word in enumerate_words((4, 4)):
        t = from_word(word)
        assert is_rotationally_symmetric(t) == is_domino(fold(t))


def test_is_domino_examples():
    assert is_domino(Tableau.from_rows([(1, 3, 5, 6), (2, 4, 7, 8)]))
    assert is_domino(from_word("111232323"))
    assert not is_domino(Tableau.from_rows([(1, 2, 3), (4, 5, 6)]))


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
    for word in enumerate_words((4, 4)):
        t = from_word(word)
        if not is_rotationally_symmetric(t):
            continue
        folded = fold(t)
        previous = t
        for j in range(1, 5):
            value = (8 + 1 - 2 * j) + 1
            assert folded.cell_of(value) == previous.cell_of(value)
            previous = promote(previous)


def test_word_round_trip():
    for word in enumerate_words((3, 3, 3)):
        assert from_word(word).word == word


def test_from_word_rejects_non_lattice():
    with pytest.raises(NonLatticeWord):
        from_word("2112")
    with pytest.raises(NonLatticeWord):
        from_word("1212x")


def test_skew_word_needs_inner():
    t = slide(SKEW, (2, 1))
    again = from_word(t.word, inner=t.shape.inner)
    assert again == t


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
    assert evacuate(promote(t)) == promote_inverse(evacuate(t))


def _partitions(n, largest):
    if n == 0:
        yield ()
    for first in range(min(n, largest), 0, -1):
        for rest in _partitions(n - first, first):
            yield (first,) + rest


def test_bounded_promotion_on_straight_shapes():
    """Every straight tableau of size <= 8 against the skew jeu-de-taquin."""
    shapes = [shape for n in range(1, 9) for shape in _partitions(n, n)]
    assert len(shapes) == 1 + 2 + 3 + 5 + 7 + 11 + 15 + 22
    for shape in shapes:
        for word in enumerate_words(shape):
            t = from_word(word)
            for k in range(1, t.size + 1):
                p = promote_bounded(t, k)
                assert restrict_le(p, k - 1) == rectify(restrict_gt(restrict_le(t, k), 1))
                for row, moved in zip(t.rows, p.rows):
                    assert [v if v > k else 0 for v in row] == [v if v > k else 0 for v in moved]
                assert promote_bounded_inverse(p, k) == t
