"""End-to-end acceptance checks, one numbered criterion per test.

Each test prints a single pass/fail line on the real stdout so the
summary survives pytest's capture.
"""

import functools
import hashlib
import json
import time
from pathlib import Path

import pytest

from webfold.errors import ConcurrentArcs, UnrecognizedBlock, VerticalPairNotAnArc
from webfold.mdiagram import MDiagram, crossings
from webfold.oracle import enumerate_words, hook_length_count, verify
from webfold.planarweb import boundary_face, web_distance
from webfold.tableaux import fold, from_word, partial_fold
from webfold.web3 import (
    DominoDecomposition,
    _classify_block,
    crossed_mdiagram,
    decompose_blocks,
    web_of_tableau,
)

CHAIN_WORD = "111122213132223333"
CHAIN_FOLD = "112212121133332323"
ODD_FOLD = "111232323"
GUARD_NAMES = ("ConcurrentArcs", "UnrecognizedBlock", "VerticalPairNotAnArc")


def _report(capfd, num: int, ok: bool, text: str) -> None:
    line = f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} - {text}"
    with capfd.disabled():
        print(line)


@functools.cache
def _verified(theorem: str, max_n: int):
    """The suite's report, and the seconds its verify call took."""
    start = time.perf_counter()
    report = verify(theorem, max_n)
    return report, time.perf_counter() - start


_SUITE_RUNS = [
    ("thm-2byn", 16),
    ("thm-fw1", 8),
    ("thm-fw2", 8),
    ("roundtrip-3web", 5),
    ("promotion-rotation", 8),
    ("evacuation-reflection", 8),
    ("distance-lemmas", 4),
    ("block-patterns", 5),
    ("promotion-order", 8),
    ("fold-domino", 8),
]

# sha256 of json.dumps(report.to_dict(), sort_keys=True)
# for each suite above, at its default bound
REPORT_SHA256 = {
    "block-patterns": "a252e266148a38dbd342239c4ba2ccf3f9c1369ad3ccafd3fbd3f63ab195c2fd",
    "distance-lemmas": "178bdc83c41db1517cfcdaaa979c8145b5afdef5527a927a27bf2d39c6ec32cd",
    "evacuation-reflection": "16aae5b0da1250f6b37513b679e911e89417a8333d2ccb6beee57fa72b43c66d",
    "fold-domino": "b012b38aaca1fde6350db11ef86466515968b4ac55ca939afa523dc27f43c174",
    "promotion-order": "3e38edd6974d013dce1e75f9c1444d0348a9dc0e5b1d4241373ab63a76f1baaf",
    "promotion-rotation": "1b2a9894a929043c80a1f49ae9ba539837ec5c72cb4e055c23b7abef4584eedb",
    "roundtrip-3web": "a3502d42571d9bef9f26a142160e805e3dcf7adea237bc5cbd9661a852471ae7",
    "thm-2byn": "5e3a3c757704190d95c6bd3fe8bfb5d437cc20e913b81f399a1036979e262926",
    "thm-fw1": "1c194fb9d14b672b8188c71d324330b3ed14228c815c2bdabedc59957f279125",
    "thm-fw2": "eb3f365179936dc217ecdb4434c3ea14c36782f1bf3eec55a4d4c8685e36f099",
}


def test_criterion_01_two_row_folding(capfd):
    r, seconds = _verified("thm-2byn", 16)
    ok = r.passed and seconds < 5.0
    _report(capfd, 1, ok, f"2-row folding theorem, n<=16 ({r.instances} instances, {seconds:.2f}s)")
    assert r.passed, r.text()
    assert seconds < 5.0


def test_criterion_02_domino_extraction(capfd):
    r, seconds = _verified("thm-fw1", 8)
    ok = r.passed and seconds < 60.0
    _report(capfd, 2, ok, f"symmetric web to domino tableau, n<=8 ({r.instances} instances, {seconds:.2f}s)")
    assert r.passed, r.text()
    assert seconds < 60.0


def test_criterion_03_crossed_web(capfd):
    r, seconds = _verified("thm-fw2", 8)
    ok = r.passed and seconds < 60.0
    _report(capfd, 3, ok, f"crossed web equals original web, n<=8 ({r.instances} instances, {seconds:.2f}s)")
    assert r.passed, r.text()
    assert seconds < 60.0


def test_criterion_04_roundtrip(capfd):
    r, seconds = _verified("roundtrip-3web", 5)
    _report(capfd, 4, r.passed, f"3-row web round trip, n<=5 ({r.instances} instances, {seconds:.2f}s)")
    assert r.passed, r.text()


def test_criterion_05_regression_fixtures(capfd):
    t = from_word(CHAIN_WORD)
    checks = [fold(t).word == CHAIN_FOLD]
    w = web_of_tableau(t)
    n = w.n_boundary
    h = [
        web_distance(w, boundary_face(w, j), boundary_face(w, n - j))
        for j in range(n // 2 + 1)
    ]
    checks.append(h == [0, 1, 2, 4, 6, 4, 3, 2, 2, 0])
    checks.append(decompose_blocks(from_word(CHAIN_FOLD)).vertical_pairs == ((3, 4), (9, 8)))
    checks.append(decompose_blocks(from_word(ODD_FOLD)).vertical_pairs == ((2, 0), (4, 3)))
    chain = from_word("12112212")
    seen = [partial_fold(chain, j).word for j in range(1, 5)]
    checks.append(seen == ["11122122", "11221122", "12121122", "12121122"])
    ok = all(checks)
    _report(capfd, 5, ok, "regression fixtures (words, mirror distances, vertical pairs, fold chain)")
    assert ok, checks


def test_criterion_06_correspondence(capfd):
    r1, _ = _verified("promotion-rotation", 8)
    r2, _ = _verified("evacuation-reflection", 8)
    ok = r1.passed and r2.passed
    _report(capfd, 6, ok, f"rotation/reflection vs promotion/evacuation ({r1.instances + r2.instances} instances)")
    assert r1.passed, r1.text()
    assert r2.passed, r2.text()


def test_criterion_07_structural_lemmas(capfd):
    r1, _ = _verified("distance-lemmas", 4)
    r2, _ = _verified("block-patterns", 5)
    ok = r1.passed and r2.passed
    _report(capfd, 7, ok, f"web validity, vertical pairs, distance bounds ({r1.instances + r2.instances} instances)")
    assert r1.passed, r1.text()
    assert r2.passed, r2.text()


def test_criterion_08_operator_algebra(capfd):
    r1, _ = _verified("promotion-order", 8)
    r2, _ = _verified("fold-domino", 8)
    ok = r1.passed and r2.passed
    _report(capfd, 8, ok, f"operator identities ({r1.instances + r2.instances} instances)")
    assert r1.passed, r1.text()
    assert r2.passed, r2.text()


def test_criterion_09_enumeration_counts(capfd):
    two_row = [1, 2, 5, 14, 42, 132, 429, 1430]
    three_row = [1, 5, 42, 462, 6006]
    ok = True
    for n, expected in zip(range(1, 9), two_row):
        ok = ok and hook_length_count((n, n)) == expected
        ok = ok and sum(1 for _ in enumerate_words((n, n))) == expected
    for n, expected in zip(range(1, 6), three_row):
        ok = ok and hook_length_count((n, n, n)) == expected
        ok = ok and sum(1 for _ in enumerate_words((n, n, n))) == expected
    _report(capfd, 9, ok, "enumeration counts match the hook length formula")
    assert ok


def test_criterion_10_error_paths(capfd):
    quiet = True
    for theorem, max_n in _SUITE_RUNS:
        report, _ = _verified(theorem, max_n)
        quiet = quiet and report.passed
        for failure in report.failures:
            if any(name in failure.lhs for name in GUARD_NAMES):
                quiet = False

    concurrent = MDiagram(
        ("a", "b", "c", "d", "e", "f"),
        (-4, -2, -1, 1, 2, 4),
        # b -> e, c -> f, a -> d
        ((2, 5), (3, 6), (1, 4)),
    )
    with pytest.raises(ConcurrentArcs):
        crossings(concurrent)

    with pytest.raises(UnrecognizedBlock):
        _classify_block(False, (0, 1), "columns 1..2")
    dec = decompose_blocks(from_word(CHAIN_FOLD))
    with pytest.raises(VerticalPairNotAnArc):
        crossed_mdiagram(
            DominoDecomposition(dec.blocks, ((1, 6),), dec.compression)
        )

    _report(capfd, 10, quiet, "guard errors silent on valid input, raised on invalid input")
    assert quiet


def test_default_reports_are_pinned():
    """Each default report, instance count and failures included, has its
    pinned digest."""
    digests = {}
    for theorem, max_n in _SUITE_RUNS:
        d = _verified(theorem, max_n)[0].to_dict()
        digests[theorem] = hashlib.sha256(json.dumps(d, sort_keys=True).encode()).hexdigest()
    assert digests == REPORT_SHA256


def test_benchmark_sweep_digests_hold():
    """Every sweep suite in perfbench/spec.json pins its report's digest: a
    suite run above at that bound must pin its REPORT_SHA256, and any other
    is run here.  The benchmark hashes the report JSON as above, with an
    `elapsed` key dropped that the report does not carry."""
    spec = Path(__file__).resolve().parents[1] / "perfbench" / "spec.json"
    workloads = json.loads(spec.read_text())["workloads"].values()
    suites = [suite for w in workloads for suite in w.get("suites", [])]
    moved = {}
    for suite in suites:
        run = (suite["theorem"], suite["max_n"])
        if run in _SUITE_RUNS:
            digest = REPORT_SHA256[run[0]]
        else:
            report = json.dumps(_verified(*run)[0].to_dict(), sort_keys=True)
            digest = hashlib.sha256(report.encode()).hexdigest()
        if digest != suite["digest"]:
            moved[run] = digest
    assert suites
    assert moved == {}
