import hashlib
import json
import xml.etree.ElementTree as ET

import pytest

from webfold.matchings import web2_of_tableau
from webfold.mdiagram import MDiagram
from webfold.planarweb import PlanarWeb
from webfold.render import svg_of_json, svg_of_matching2, svg_of_mdiagram, svg_of_web
from webfold.tableaux import fold, from_word
from webfold.web3 import crossed_mdiagram, decompose_blocks, mdiagram_of_tableau, web_of_tableau
from webs import golden_webs

CHAIN_WORD = "111122213132223333"
# sha256 over the sorted-key JSON and the SVG of every web of golden_webs(), in order
GOLDEN_WEB_BYTES_SHA256 = "b009b95cb26e096f14d14db4f3279e0a5f7c2f2d0528614f5dcbc314d79baa2f"


def test_mdiagram_svg_marks_crossings():
    m = crossed_mdiagram(decompose_blocks(fold(from_word(CHAIN_WORD))))
    svg = svg_of_mdiagram(m)
    assert svg.startswith("<svg") and svg.endswith("</svg>\n")
    # ten crossings, each drawn as a hollow red circle
    assert svg.count('stroke="#c0392b"') == 10
    assert svg.count("stroke-dasharray") == 4  # the four crossed arcs
    assert "9'" in svg


def test_diagram_markers_match_crossing_count():
    svg = svg_of_mdiagram(mdiagram_of_tableau(from_word("123")))
    assert 'stroke="#c0392b"' not in svg
    svg = svg_of_mdiagram(mdiagram_of_tableau(from_word("112233")))
    assert svg.count('stroke="#c0392b"') == 1


def test_web_svg_uses_stored_layout_and_fallback():
    w = web_of_tableau(from_word("112233"))
    with_layout = svg_of_web(w)
    stripped = PlanarWeb(w.n_boundary, w.origins, w.tags, w.rotation)
    relaxed = svg_of_web(stripped)
    for svg in (with_layout, relaxed):
        assert svg.count("<line") == len(w.tags)
        assert svg == svg_of_web(w if svg is with_layout else stripped)


def test_matching_svg():
    svg = svg_of_matching2(web2_of_tableau(from_word("112212")))
    assert svg.count("marker-end") == 3
    assert svg.count("<circle") == 6


def test_json_dispatch():
    m = mdiagram_of_tableau(from_word("123"))
    w = web_of_tableau(from_word("123"))
    m2 = web2_of_tableau(from_word("1122"))
    assert svg_of_json(m.to_dict()) == svg_of_mdiagram(m)
    assert svg_of_json(w.to_dict()) == svg_of_web(w)
    assert svg_of_json(m2.to_dict()) == svg_of_matching2(m2)
    with pytest.raises(ValueError):
        svg_of_json({"rows": [[1, 2]]})


def test_web_json_and_svg_bytes_are_pinned():
    pinned = hashlib.sha256()
    for w in golden_webs():
        pinned.update(json.dumps(w.to_dict(), sort_keys=True).encode())
        pinned.update(svg_of_web(w).encode())
    assert pinned.hexdigest() == GOLDEN_WEB_BYTES_SHA256


def test_diagram_labels_are_escaped():
    m = MDiagram.from_dict({
        "boundary": [{"label": "<b>", "x": "1"}, {"label": "a&b", "x": "2"}, {"label": ">", "x": "3"}],
        "arcs": [{"tail": "<b>", "head": "a&b"}, {"tail": ">", "head": "a&b"}],
    })
    root = ET.fromstring(svg_of_mdiagram(m))
    texts = [e.text for e in root.iter("{http://www.w3.org/2000/svg}text")]
    assert texts == ["<b>", "a&b", ">"]
