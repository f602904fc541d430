import hashlib
import json
from functools import cached_property

import pytest

from webfold.errors import (
    NotAWeb,
    NotDomino,
    NotSymmetrical,
    UnrecognizedBlock,
    VerticalPairNotAnArc,
    WrongShape,
)
from webfold import mdiagram, oracle
from webfold.mdiagram import crossings
from webfold.oracle import enumerate_words
from webfold.planarweb import (
    BOUNDARY,
    CanonicalWebForm,
    Edge,
    PlanarWeb,
    boundary_face,
    canonical,
    is_symmetrical,
    reflect,
    rotate,
    validate_3web,
    web_distance,
)
from webfold.tableaux import evacuate, fold, from_word, is_rotationally_symmetric, promote, unfold
from webfold.web3 import (
    DominoDecomposition,
    _classify_block,
    _LAMBDA,
    _PHI,
    crossed_mdiagram,
    crossed_mdiagram_of_decomposition,
    crossed_web,
    decompose_blocks,
    domino_of_symmetric_web,
    mdiagram_of_tableau,
    tableau_of_web,
    web_of_tableau,
)
from webs import checked_web

# 3x6 running example: a symmetric tableau, its folded domino tableau,
# and the sha256 of the canonical form of its web.
CHAIN_WORD = "111122213132223333"
CHAIN_FOLD = "112212121133332323"
CHAIN_DIGEST = "7a09aa484c71b17e7bad53ef0bb317f5bc1970e747784fd8c2f195f95b552b25"
ODD_FOLD = "111232323"
# sha256 over repr((blocks, vertical_pairs, compression)) of the decomposition
# of fold(T), then the sorted-key JSON of its crossed diagram, for every
# rotationally symmetric 3-row T with n <= 6 in word order
DECOMPOSITIONS_SHA256 = "001b403a43c567b79d0fa482bb9e12c3a7fdf08317b3cba0ced6636c67a7e77b"


def not_a_web() -> PlanarWeb:
    # two boundary vertices, so no chance of being a 3-web
    edges = (Edge(1, 2), Edge(1, 2, BOUNDARY), Edge(2, 1, BOUNDARY))
    rotation = {1: (0, 2, 5), 2: (1, 3, 4)}
    return checked_web(2, edges, rotation)


def test_tripod_both_directions():
    t = from_word("123")
    w = web_of_tableau(t)
    assert validate_3web(w).violations == ()
    assert tableau_of_web(w).word == "123"
    assert domino_of_symmetric_web(w).word == "123"


def test_chain_word_roundtrip_and_canonical_form():
    w = web_of_tableau(from_word(CHAIN_WORD))
    assert validate_3web(w).violations == ()
    assert tableau_of_web(w).word == CHAIN_WORD
    form = canonical(w)
    assert form.digest == CHAIN_DIGEST
    assert hashlib.sha256(form.serialization).hexdigest() == form.digest


def test_chain_mirror_distances():
    w = web_of_tableau(from_word(CHAIN_WORD))
    n = w.n_boundary
    h = [
        web_distance(w, boundary_face(w, j), boundary_face(w, n - j))
        for j in range(n // 2 + 1)
    ]
    assert h == [0, 1, 2, 4, 6, 4, 3, 2, 2, 0]


def test_chain_domino_extraction():
    t = from_word(CHAIN_WORD)
    w = web_of_tableau(t)
    d = domino_of_symmetric_web(w)
    assert d.word == CHAIN_FOLD
    assert d == fold(t)


def test_chain_block_decomposition():
    dec = decompose_blocks(from_word(CHAIN_FOLD))
    assert [(b.btype, b.columns, b.verticals) for b in dec.blocks] == [
        (3, (1, 2), ()),
        (1, (3, 4), (3, 4)),
        (2, (5, 6), (8, 9)),
    ]
    assert dec.vertical_pairs == ((3, 4), (9, 8))
    assert dec.compression.word == "121213323"


def test_odd_block_decomposition():
    dec = decompose_blocks(from_word(ODD_FOLD))
    assert [(b.btype, b.columns, b.verticals) for b in dec.blocks] == [
        (0, (1, 1), (2,)),
        (2, (2, 3), (3, 4)),
    ]
    assert dec.vertical_pairs == ((2, 0), (4, 3))
    assert dec.compression.rows == ((1,), (3,), (2, 4))
    assert dec.compression.shape.inner == (1, 1)


def test_all_horizontal_is_one_block():
    dec = decompose_blocks(from_word("112233"))
    assert [(b.btype, b.columns) for b in dec.blocks] == [(3, (1, 2))]
    assert dec.vertical_pairs == ()
    assert dec.compression.word == "123"


def test_spanned_verticals_merge_into_one_block():
    dec = decompose_blocks(from_word("112323"))
    assert [(b.btype, b.columns, b.verticals) for b in dec.blocks] == [
        (2, (1, 2), (2, 3)),
    ]
    assert dec.vertical_pairs == ((3, 2),)
    assert dec.compression.word == "123"


def test_decompositions_are_pinned():
    pinned = hashlib.sha256()
    count = 0
    # test_oracle checks this generator against the filtered walk of all words
    for n in range(1, 7):
        for word in oracle._symmetric_words((n, n, n)):
            dec = decompose_blocks(fold(from_word(word)))
            pinned.update(repr((dec.blocks, dec.vertical_pairs, dec.compression)).encode())
            diagram = crossed_mdiagram_of_decomposition(dec).to_dict()
            pinned.update(json.dumps(diagram, sort_keys=True).encode())
            count += 1
    assert count == 530
    assert pinned.hexdigest() == DECOMPOSITIONS_SHA256


def test_crossed_mdiagram_even():
    m = crossed_mdiagram(from_word(CHAIN_FOLD))
    assert [b.label for b in m.boundary] == [
        "9'", "8'", "7'", "6'", "5'", "4'", "3'", "2'", "1'",
        "1", "2", "3", "4", "5", "6", "7", "8", "9",
    ]
    label = [b.label for b in m.boundary]
    crossed = sorted((label[a.tail - 1], label[a.head - 1]) for a in m.arcs if a.crossed)
    assert crossed == [("3", "4'"), ("3'", "4"), ("9", "8'"), ("9'", "8")]
    assert len(crossings(m)) == 10


def test_crossed_mdiagram_odd():
    m = crossed_mdiagram(from_word(ODD_FOLD))
    assert [b.label for b in m.boundary] == [
        "4'", "3'", "2'", "1'", "0", "1", "2", "3", "4",
    ]
    label = [b.label for b in m.boundary]
    crossed = sorted((label[a.tail - 1], label[a.head - 1]) for a in m.arcs if a.crossed)
    assert crossed == [("2", "0"), ("2'", "0"), ("4", "3'"), ("4'", "3")]
    assert len(crossings(m)) == 3


def test_crossed_web_equals_web_of_unfolded():
    d = from_word(CHAIN_FOLD)
    assert canonical(crossed_web(d)) == canonical(web_of_tableau(unfold(d)))
    d = from_word(ODD_FOLD)
    assert canonical(crossed_web(d)) == canonical(web_of_tableau(unfold(d)))


def test_small_exhaustive_roundtrip_and_symmetry():
    for n in (1, 2, 3):
        for word in enumerate_words((n, n, n)):
            t = from_word(word)
            w = web_of_tableau(t)
            assert validate_3web(w).violations == ()
            assert tableau_of_web(w) == t
            assert is_symmetrical(w) == is_rotationally_symmetric(t)
            if is_rotationally_symmetric(t):
                assert domino_of_symmetric_web(w) == fold(t)
                assert canonical(crossed_web(fold(t))) == canonical(w)


def test_small_exhaustive_rotation_and_reflection():
    for n in (2, 3):
        for word in enumerate_words((n, n, n)):
            t = from_word(word)
            w = web_of_tableau(t)
            assert canonical(rotate(w)) == canonical(web_of_tableau(promote(t)))
            assert canonical(reflect(w)) == canonical(web_of_tableau(evacuate(t)))


def test_letter_tables_are_consistent():
    # a mirror-pair distance step splits into two one-sided steps
    inv_phi = {v: k for k, v in _PHI.items()}
    for z, pair in _LAMBDA.items():
        assert inv_phi[pair[0]] + inv_phi[pair[1]] == z
    assert sorted(_LAMBDA) == [-2, -1, 0, 1, 2]


def test_wrong_shape_rejected():
    with pytest.raises(WrongShape):
        web_of_tableau(from_word("1122"))
    with pytest.raises(WrongShape):
        mdiagram_of_tableau(from_word("1212"))
    with pytest.raises(WrongShape):
        decompose_blocks(from_word("111222333444"))


def test_non_domino_rejected():
    with pytest.raises(NotDomino):
        decompose_blocks(from_word("123123"))


def test_invalid_web_rejected():
    with pytest.raises(NotAWeb):
        tableau_of_web(not_a_web())
    with pytest.raises(NotAWeb):
        domino_of_symmetric_web(not_a_web())


def test_asymmetric_web_rejected():
    w = web_of_tableau(from_word("112323"))
    with pytest.raises(NotSymmetrical):
        domino_of_symmetric_web(w)


def test_tampered_vertical_pairs_are_rejected():
    dec = decompose_blocks(from_word(CHAIN_FOLD))
    # compression arcs: first (1,2),(3,4),(5,8); second (6,4),(7,2),(9,8)
    cases = [
        (((1, 6),), "not a directed arc"),
        (((6, 4),), "not maximal"),
        (((5, 8), (7, 2)), "intersect"),
    ]
    for pairs, fragment in cases:
        bad = DominoDecomposition(dec.blocks, pairs, dec.compression)
        with pytest.raises(VerticalPairNotAnArc, match=fragment):
            crossed_mdiagram_of_decomposition(bad)


@pytest.mark.parametrize(
    "word, pairs, message",
    [
        (CHAIN_FOLD, ((1, 3),), "vertical pair (1, 3) is not a directed arc of the compression"),
        (CHAIN_FOLD, ((6, 4),), "(6, 4) is not maximal: (7, 2) passes above it"),
        (ODD_FOLD, ((1, 3), (2, 0)), "vertical pair arcs intersect each other"),
    ],
)
def test_tampered_vertical_pair_messages(word, pairs, message):
    dec = decompose_blocks(from_word(word))
    dec = DominoDecomposition(dec.blocks, pairs, dec.compression)
    with pytest.raises(VerticalPairNotAnArc) as info:
        crossed_mdiagram_of_decomposition(dec)
    assert str(info.value) == message


def test_block_classifier():
    assert _classify_block(True, (1,), "s") == 0
    assert _classify_block(False, (), "s") == 3
    assert _classify_block(False, (0, 0), "s") == 1
    assert _classify_block(False, (1, 1), "s") == 2
    for has_lone, rows in [
        (False, (0, 1)),
        (False, (0,)),
        (False, (1, 1, 1)),
        (True, (0,)),
        (True, ()),
    ]:
        with pytest.raises(UnrecognizedBlock):
            _classify_block(has_lone, rows, "columns 1..2")


# web_of_tableau(from_word("111223233")).to_dict(): two crossings, three
# sinks a quarter arc-width up, and one crossing height from limit_denominator
GOLDEN_EDGES = [
    (3, 10, "a"), (2, 13, "a"), (14, 11, "a"), (1, 15, "a"), (16, 12, "a"), (6, 11, "a"),
    (8, 12, "a"), (9, 15, "a"), (16, 13, "a"), (14, 10, "a"), (4, 10, "a"), (5, 11, "a"),
    (7, 12, "a"), (14, 13, "i"), (16, 15, "i"), (1, 2, "b"), (2, 3, "b"), (3, 4, "b"),
    (4, 5, "b"), (5, 6, "b"), (6, 7, "b"), (7, 8, "b"), (8, 9, "b"), (9, 1, "b"),
]
GOLDEN_ROTATION = {
    1: (30, 6, 47), 2: (32, 2, 31), 3: (34, 0, 33), 4: (36, 20, 35), 5: (38, 22, 37),
    6: (40, 10, 39), 7: (42, 24, 41), 8: (44, 12, 43), 9: (46, 14, 45), 10: (19, 1, 21),
    11: (11, 5, 23), 12: (13, 9, 25), 13: (17, 3, 27), 14: (18, 4, 26), 15: (15, 7, 29),
    16: (16, 8, 28),
}
GOLDEN_LAYOUT = {
    **{k: (str(k), "0") for k in range(1, 10)},
    10: ("4", "1/4"), 11: ("5", "1/4"), 12: ("7", "1/4"),
    13: ("13/3", "8154729/7264810"), 14: ("13/3", "9966891/7264810"),
    15: ("29/5", "54/25"), 16: ("29/5", "66/25"),
}


def test_layout_is_computed_on_first_read(monkeypatch):
    drawn = []
    real_layout = mdiagram._layout

    def counting_layout(*args):
        drawn.append(args)
        return real_layout(*args)

    monkeypatch.setattr(mdiagram, "_layout", counting_layout)
    t = from_word("111223233")
    w = web_of_tableau(t)
    canonical(w)
    assert validate_3web(w).ok
    assert tableau_of_web(w) == t
    assert drawn == []
    tags = {"a": "arc", "i": "intersection", "b": BOUNDARY}
    assert w.to_dict() == {
        "n": 9,
        "internal": 7,
        "edges": [{"from": a, "to": b, "tag": tags[c]} for a, b, c in GOLDEN_EDGES],
        "rotation": {str(v): list(ds) for v, ds in GOLDEN_ROTATION.items()},
        "layout": {str(v): list(xy) for v, xy in GOLDEN_LAYOUT.items()},
    }
    assert w.to_dict() == w.to_dict()
    assert len(drawn) == 1
    for moved in (rotate(w), reflect(w)):
        assert moved.layout is None and "layout" not in moved.to_dict()
    assert PlanarWeb.from_dict(w.to_dict()).to_dict() == w.to_dict()


def test_edges_and_form_bytes_are_built_on_first_read(monkeypatch):
    built = {"edges": 0, "serialization": 0, "digest": 0}
    real_init = Edge.__init__

    def counting_init(self, *args):
        built["edges"] += 1
        real_init(self, *args)

    monkeypatch.setattr(Edge, "__init__", counting_init)
    for name in ("serialization", "digest"):
        real = getattr(CanonicalWebForm, name).func

        def counting(form, real=real, name=name):
            built[name] += 1
            return real(form)

        prop = cached_property(counting)
        prop.__set_name__(CanonicalWebForm, name)
        monkeypatch.setattr(CanonicalWebForm, name, prop)
    t = from_word("111223233")
    w = web_of_tableau(t)
    assert validate_3web(reflect(w)).ok
    assert tableau_of_web(w) == t
    a, b = canonical(rotate(w)), canonical(web_of_tableau(promote(t)))
    assert a == b and a != canonical(w)
    assert built == {"edges": 0, "serialization": 0, "digest": 0}
    assert w.edges is w.edges and len(w.edges) == len(w.tags)
    assert a.digest == a.digest and a.serialization == a.serialization
    assert built == {"edges": len(w.tags), "serialization": 1, "digest": 1}
