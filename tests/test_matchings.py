import pytest

from webfold.errors import NotSymmetrical, WrongShape
from webfold.matchings import (
    Matching2,
    fold2,
    is_symmetrical2,
    reflect2,
    rotate2,
    tableau_of_web2,
    web2_of_tableau,
)
from webfold.oracle import enumerate_words
from webfold.tableaux import (
    Tableau,
    _pair,
    evacuate,
    fold,
    from_word,
    promote,
)
from webfold.web3 import decompose_blocks
from reference import symmetric_words

SELF_EVAC = Tableau.from_rows([(1, 3, 4, 7), (2, 5, 6, 8)])


def test_web2_example():
    assert web2_of_tableau(SELF_EVAC).arcs == ((1, 2), (3, 6), (4, 5), (7, 8))


def test_web2_single_pair():
    t = Tableau.from_rows([(1,), (2,)])
    assert web2_of_tableau(t).arcs == ((1, 2),)


def test_web2_wrong_shape():
    with pytest.raises(WrongShape):
        web2_of_tableau(from_word("123123"))
    with pytest.raises(WrongShape):
        web2_of_tableau(from_word("11212"))


def test_round_trip_exhaustive():
    for word in enumerate_words((4, 4)):
        t = from_word(word)
        assert tableau_of_web2(web2_of_tableau(t)) == t


def test_matching_validation():
    with pytest.raises(ValueError):
        Matching2.from_dict({"n": 2, "arcs": [[1, 3], [2, 4]]})
    with pytest.raises(ValueError):
        Matching2.from_dict({"n": 2, "arcs": [[1, 2], [3, 3]]})
    for n in (0, -1):
        with pytest.raises(ValueError, match="n must be at least 1"):
            Matching2.from_dict({"n": n, "arcs": []})
    for n in (True, 2.0, "2", None):
        with pytest.raises(TypeError, match="n must be an integer"):
            Matching2.from_dict({"n": n, "arcs": [[1, 2], [3, 4]]})
    # equal to integers, so only the type check rejects them
    for n, arcs, kind in [(2, [[1.0, 2], [3, 4]], "float"), (1, [[True, 2]], "bool")]:
        with pytest.raises(TypeError, match=f"^arc endpoint must be an integer, got {kind}$"):
            Matching2.from_dict({"n": n, "arcs": arcs})


def test_built_matchings_pass_the_json_checks():
    """Matching2(...) does not check; every matching the operators build
    reads back through from_dict unchanged (2-row n <= 7)."""
    for n in range(1, 8):
        for word in enumerate_words((n, n)):
            w = web2_of_tableau(from_word(word))
            built = [w, rotate2(w), reflect2(w)] + ([fold2(w)] if is_symmetrical2(w) else [])
            for m in built:
                again = Matching2.from_dict(m.to_dict())
                assert (again, hash(again), repr(again)) == (m, hash(m), repr(m))


def test_reflect_fixes_symmetric_example():
    w = web2_of_tableau(SELF_EVAC)
    assert reflect2(w) == w
    assert is_symmetrical2(w)


def test_rotate_order():
    for word in enumerate_words((4, 4)):
        w = web2_of_tableau(from_word(word))
        out = w
        for _ in range(8):
            out = rotate2(out)
        assert out == w


def test_rotate_single_arc():
    w = Matching2(1, ((1, 2),))
    assert rotate2(w) == w


def test_rotation_matches_promotion():
    for word in enumerate_words((5, 5)):
        t = from_word(word)
        assert rotate2(web2_of_tableau(t)) == web2_of_tableau(promote(t))


def test_reflection_matches_evacuation():
    for word in enumerate_words((5, 5)):
        t = from_word(word)
        assert reflect2(web2_of_tableau(t)) == web2_of_tableau(evacuate(t))


def test_fold2_example():
    w = web2_of_tableau(SELF_EVAC)
    assert fold2(w) == Matching2(4, ((1, 2), (3, 4), (6, 7), (5, 8)))


def test_fold2_single_arc():
    w = Matching2(1, ((1, 2),))
    assert fold2(w) == w


def test_fold2_needs_symmetry():
    w = Matching2(3, ((1, 2), (3, 6), (4, 5)))
    assert not is_symmetrical2(w)
    with pytest.raises(NotSymmetrical):
        fold2(w)


def test_folding_commutes_with_web():
    checked = 0
    for n in range(1, 7):
        for word in symmetric_words((n, n)):
            t = from_word(word)
            assert fold2(web2_of_tableau(t)) == web2_of_tableau(fold(t))
            checked += 1
    assert checked == 1 + 2 + 3 + 6 + 10 + 20


def test_json_round_trip():
    w = web2_of_tableau(SELF_EVAC)
    assert Matching2.from_dict(w.to_dict()) == w


def pair_by_sets(openers, closers):
    """Nearest-unmatched matching read off the sorted union of two sets: the
    reference that `_pair`'s merge must equal."""
    openers = set(openers)
    stack, pairs = [], []
    for k in sorted(openers | set(closers)):
        if k in openers:
            stack.append(k)
        else:
            pairs.append((stack.pop(), k))
    return pairs


def test_pair_merge_equals_the_set_matching():
    """Rows 1-2 and 2-3 of every 2-row tableau with n <= 8 and every 3-row
    tableau with n <= 5, and rows 1-2 and (0, *row 2) against row 3 of the
    compression of every odd symmetric 3-row tableau with n <= 7."""
    sequences = []
    for shape in [(n, n) for n in range(1, 9)] + [(n, n, n) for n in range(1, 6)]:
        for word in enumerate_words(shape):
            rows = from_word(word).rows
            sequences += zip(rows, rows[1:])
    for n in (1, 3, 5, 7):
        for word in symmetric_words((n, n, n)):
            rows = decompose_blocks(fold(from_word(word))).compression.rows
            sequences += [(rows[0], rows[1]), ((0, *rows[1]), rows[2])]
    # 2,055 2-row and 6,516 3-row tableaux, 1,127 compressions
    assert len(sequences) == 2055 + 2 * 6516 + 2 * 1127
    for openers, closers in sequences:
        assert _pair(openers, closers) == pair_by_sets(openers, closers)
