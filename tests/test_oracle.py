import ast
import hashlib
import json
import os
import re
from itertools import combinations_with_replacement
from pathlib import Path

import pytest

from webfold import matchings, mdiagram, oracle, planarweb, tableaux, web3
from webfold.errors import (
    BoundTooLarge,
    InvalidWorkerCount,
    NotAWeb,
    NotRectangular,
    UnknownTheorem,
)
from webfold.oracle import (
    THEOREMS,
    EnumerationFilter,
    Failure,
    VerificationReport,
    _self_evacuating_count,
    enumerate_tableaux,
    enumerate_words,
    hook_length_count,
    verify,
    worker_count,
)
from webfold.tableaux import Shape, evacuate, from_word, is_rotationally_symmetric
from webfold.web3 import DominoDecomposition
from reference import symmetric_words

TWO_ROW_COUNTS = [1, 2, 5, 14, 42, 132, 429, 1430]
THREE_ROW_COUNTS = [1, 5, 42, 462, 6006]
SYMMETRIC_3ROW_COUNTS = [1, 3, 6, 30]


def test_two_row_counts():
    for n, expected in zip(range(1, 9), TWO_ROW_COUNTS):
        assert len(list(enumerate_words((n, n)))) == expected
        assert hook_length_count((n, n)) == expected


def test_three_row_counts():
    for n, expected in zip(range(1, 6), THREE_ROW_COUNTS):
        assert len(list(enumerate_words((n, n, n)))) == expected
        assert hook_length_count((n, n, n)) == expected


def test_words_are_sorted_and_unique():
    words = list(enumerate_words((3, 3, 3)))
    assert words == sorted(words)
    assert len(set(words)) == len(words)


def test_words_are_lattice():
    for word in enumerate_words((4, 4)):
        ones = twos = 0
        for ch in word:
            if ch == "1":
                ones += 1
            else:
                twos += 1
            assert ones >= twos


def test_staircase_shape():
    assert hook_length_count((3, 2, 1)) == 16
    assert len(list(enumerate_words((3, 2, 1)))) == 16


def test_filtered_enumeration():
    for n, expected in zip(range(1, 5), SYMMETRIC_3ROW_COUNTS):
        filt = EnumerationFilter(Shape((n, n, n)), "rotationally-symmetric")
        assert sum(1 for _ in enumerate_tableaux(filt)) == expected
    everything = list(enumerate_tableaux(EnumerationFilter(Shape((2, 2, 2)))))
    assert [t.word for t in everything] == sorted(enumerate_words((2, 2, 2)))
    dominoes = list(enumerate_tableaux(EnumerationFilter(Shape((2, 2, 2)), "domino")))
    assert len(dominoes) == 3
    lopsided = enumerate_tableaux(EnumerationFilter(Shape((3, 2)), "rotationally-symmetric"))
    with pytest.raises(NotRectangular, match="rectangular shape"):
        next(lopsided)


def test_symmetric_words_are_the_filtered_walk():
    """The symmetric walk keeps exactly the symmetric tableaux of the full
    walk, in its order; the taller rectangles have two or more mirror pairs
    of rows."""
    for rows, top in ((2, 10), (3, 6), (4, 3), (5, 3), (6, 2), (7, 2), (8, 2)):
        for n in range(1, top + 1):
            shape = (n,) * rows
            words = enumerate_words(shape)
            filtered = [w for w in words if is_rotationally_symmetric(from_word(w))]
            assert list(symmetric_words(shape)) == filtered, shape


def test_symmetric_counts_match_the_closed_form():
    pinned = {(2, 3): 3, (2, 4): 6, (2, 6): 20, (3, 3): 6, (3, 4): 30, (3, 5): 70, (3, 6): 420}
    counts = {}
    for rows, top in ((2, 10), (3, 6), (4, 4), (5, 3)):
        for n in range(1, top + 1):
            counts[rows, n] = sum(1 for _ in symmetric_words((n,) * rows))
            assert counts[rows, n] == _self_evacuating_count(rows, n), (rows, n)
    assert {key: counts[key] for key in pinned} == pinned
    # domino tableaux of a rectangle are as many as its self-evacuating ones
    for rows, top in ((2, 10), (3, 5), (4, 3), (5, 3)):
        for n in range(1, top + 1):
            dominoes = sum(1 for _ in oracle._FAMILIES["domino"]((n,) * rows))
            assert dominoes == _self_evacuating_count(rows, n), (rows, n)


def half_shape_count(rows: int, cols: int) -> int:
    """The rotationally symmetric tableaux of a rows x cols rectangle with
    an even number N of boxes: Σ f^μ over the straight shapes μ inside it
    whose 180° complement in it is μ, μ_i + μ_{R+1-i} = C, so |μ| = N/2.
    Such a tableau is its entries up to N/2, a standard tableau of shape μ,
    and the rotated complement of those entries."""
    assert rows * cols % 2 == 0
    total = 0
    # every partition with at most `rows` parts, each at most `cols`
    for mu in combinations_with_replacement(range(cols, -1, -1), rows):
        if all(a + b == cols for a, b in zip(mu, mu[::-1])):
            total += hook_length_count(tuple(part for part in mu if part))
    return total


def test_symmetric_counts_at_even_n_match_the_half_shape_sum():
    """A second closed form, sharing no code with _self_evacuating_count
    or the walk, against both where the walk is small and against
    |f^λ(-1)| alone on larger rectangles."""
    walked = [(2, n) for n in range(1, 9)] + [(3, 2), (3, 4), (3, 6)]
    walked += [(4, n) for n in range(1, 5)] + [(5, 2)]
    for rows, cols in walked:
        count = half_shape_count(rows, cols)
        assert count == _self_evacuating_count(rows, cols), (rows, cols)
        symmetric = oracle._FAMILIES["rotationally-symmetric"]((cols,) * rows)
        assert count == sum(1 for _ in symmetric), (rows, cols)
    for rows, cols in ((2, 20), (3, 10), (4, 6), (6, 4), (4, 8)):
        assert half_shape_count(rows, cols) == _self_evacuating_count(rows, cols), (rows, cols)
    pinned = {(3, 6): 420, (3, 10): 126_126, (4, 8): 2_522_520}
    assert {key: half_shape_count(*key) for key in pinned} == pinned


# every rectangle up to 3-row n <= 5, 2-row n <= 8 and 4-row n <= 3, with
# 5x2, 1x7 and 7x1
RECTANGLES = [
    (n,) * rows for rows, top in ((3, 5), (2, 8), (4, 3)) for n in range(1, top + 1)
] + [(2,) * 5, (7,), (1,) * 7]


def test_families_pair_each_word_with_its_decoded_tableau():
    """Each family lists the tableaux of the full walk that its predicate
    keeps, in the walk's order, and each is the tableau from_word decodes
    from its word."""
    keep = {
        "all": lambda t: True,
        "rotationally-symmetric": is_rotationally_symmetric,
        "domino": tableaux.is_domino,
    }
    assert set(keep) == set(oracle._FAMILIES)
    for shape in RECTANGLES:
        decoded = [from_word(w) for w in enumerate_words(shape)]
        for family, walk in oracle._FAMILIES.items():
            listed = list(walk(shape))
            assert [t.word for t in listed] == [t.word for t in decoded if keep[family](t)]
            for t in listed:
                expected = from_word(t.word)
                assert (t.rows, t.shape) == (expected.rows, expected.shape), (family, t.word)


def test_sweeps_decode_no_word(monkeypatch):
    """A sweep checks the tableaux its walk builds: with from_word raising
    everywhere but web3, whose read-back decodes the word it reads off a
    web, these reports are the ones pinned before the walk built tableaux
    (6,580, 532, 110, 40 and 48 instances, all passing)."""
    monkeypatch.delenv("WEBFOLD_WORKERS", raising=False)

    def no_decoding(word, inner=()):
        raise AssertionError(f"decoded {word}")

    for module in (oracle, tableaux):
        monkeypatch.setattr(module, "from_word", no_decoding, raising=False)
    reports = [
        verify(theorem, bound).to_dict()
        for theorem, bound in (
            ("fold-domino", 5),
            ("promotion-order", 4),
            ("block-patterns", 5),
            ("thm-fw1", 4),
            ("roundtrip-3web", 3),
        )
    ]
    digest = hashlib.sha256(json.dumps(reports, sort_keys=True).encode()).hexdigest()
    assert digest == "5ab801d97dc17dff751cd027462635bb3a93a21623dcaf0b4059376cfa21b4ec"


def test_filter_validation():
    with pytest.raises(ValueError):
        EnumerationFilter(Shape((2, 2)), "palindromic")
    with pytest.raises(ValueError):
        EnumerationFilter(Shape((3, 2), (1,)))


def test_unknown_theorem():
    with pytest.raises(UnknownTheorem):
        verify("thm-unheard-of")


def readme_identities() -> dict[str, list[str]]:
    """Each suite's identities as README lists them, indices written {k},
    {j} or {2 * j}, in README order."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Verification suites", 1)[1].split("\n## ", 1)[0]
    listed: dict[str, list[str]] = {}
    for line in section.splitlines():
        if suite := re.fullmatch(r"- `([a-z0-9-]+)`", line):
            identities = listed.setdefault(suite[1], [])
        elif identity := re.fullmatch(r"  - `(.+)`", line):
            identities.append(identity[1])
    return listed


def test_all_suites_pass_small(monkeypatch):
    """Every suite passes at bound 2, and the comparisons it makes through
    `_holds` are exactly the identities README lists for it."""
    monkeypatch.delenv("WEBFOLD_WORKERS", raising=False)
    holds = oracle._holds
    compared: dict[str, set[str]] = {}

    def counted(name, *args, **kwargs):
        compared[theorem].add(name)
        return holds(name, *args, **kwargs)

    monkeypatch.setattr(oracle, "_holds", counted)
    for theorem in THEOREMS:
        compared[theorem] = set()
        report = verify(theorem, 2)
        assert report.passed, report.text()
        assert report.theorem == theorem
        assert report.instances > 0
    listed = readme_identities()
    assert list(listed) == list(oracle._SUITES)
    for theorem, templates in listed.items():
        named = {}
        for template in templates:
            # indices up to 9 cover N <= 6, the largest size at bound 2
            for i in range(10):
                name = template.replace("{k}", str(i)).replace("{j}", str(i))
                named[name.replace("{2 * j}", str(2 * i))] = template
        assert compared[theorem] <= named.keys(), theorem
        assert {named[name] for name in compared[theorem]} == set(templates), theorem


def test_checks_compare_only_through_holds():
    """No check builds a failure by hand: none yields or returns a tuple or
    list literal, so every comparison goes through `_holds`."""
    tree = ast.parse(Path(oracle.__file__).read_text())
    checks = [
        f for f in tree.body if isinstance(f, ast.FunctionDef) and f.name.startswith("_check_")
    ]
    suite_checks = {getattr(c, "func", c).__name__ for _, _, c in oracle._SUITES.values()}
    assert suite_checks <= {f.name for f in checks}
    for check in checks:
        for node in ast.walk(check):
            if isinstance(node, (ast.Yield, ast.Return)):
                assert not isinstance(node.value, (ast.Tuple, ast.List)), (check.name, node.lineno)


def test_reports_are_reproducible():
    a = verify("thm-fw1", 3).to_dict()
    b = verify("thm-fw1", 3).to_dict()
    assert a == b
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_parallel_sweeps_report_what_serial_ones_do(monkeypatch):
    def reports():
        out = []
        for theorem, bound in (
            ("roundtrip-3web", 3),
            ("promotion-order", 3),
            ("fold-domino", 4),
            ("promotion-rotation", 3),
            ("evacuation-reflection", 3),
            ("thm-2byn", 6),
        ):
            out.append(verify(theorem, bound).to_dict())
        return out

    monkeypatch.delenv("WEBFOLD_WORKERS", raising=False)
    serial = reports()
    # two processes where the machine has two CPUs or more
    monkeypatch.setenv("WEBFOLD_WORKERS", "2")
    assert reports() == serial


def test_report_formats():
    report = VerificationReport(
        theorem="thm-fw1",
        instances=2,
        failures=(Failure("112233", "lhs = rhs", "a", "b"),),
    )
    assert not report.passed
    assert report.to_dict() == {
        "theorem": "thm-fw1",
        "instances": 2,
        "passed": False,
        "failures": [{"word": "112233", "identity": "lhs = rhs", "lhs": "a", "rhs": "b"}],
    }
    assert report.text() == (
        "thm-fw1: FAIL, 2 instances, 1 failures\n"
        "  112233: lhs = rhs\n"
        "    left:  a\n"
        "    right: b"
    )


def test_verify_rejects_bad_bound():
    with pytest.raises(ValueError):
        verify("thm-2byn", 0)


def test_verify_refuses_a_bound_past_the_word_limit(monkeypatch):
    def no_enumeration(shape):
        raise AssertionError(f"enumerated {shape}")

    # the limit is checked from closed-form counts, before any word is listed:
    # hook-length counts of all words, or for the symmetric suites, counts of
    # their own words (2-row n <= 22: 1,434,576, n <= 23: 2,786,654; 3-row
    # n <= 11: 488,990, n <= 12: 2,939,438)
    # the sweeps take their generators from the table, not the module names
    for family in oracle._FAMILIES:
        monkeypatch.setitem(oracle._FAMILIES, family, no_enumeration)
    for theorem, bound in (
        ("roundtrip-3web", 8),
        ("roundtrip-3web", 9),
        ("thm-2byn", 23),
        ("thm-fw1", 12),
        ("thm-fw2", 10**9),
        ("block-patterns", 8),
        ("promotion-order", 14),
        ("fold-domino", 10**9),
    ):
        with pytest.raises(BoundTooLarge, match=f"{theorem} up to n={bound}"):
            verify(theorem, bound)
    # the largest bounds under the limit get as far as enumerating
    for theorem, bound in (
        ("roundtrip-3web", 7),
        ("thm-2byn", 22),
        ("thm-fw1", 8),
        ("thm-fw2", 8),
        ("thm-fw1", 11),
        ("block-patterns", 7),
    ):
        with pytest.raises(AssertionError, match="enumerated"):
            verify(theorem, bound)


def test_a_serial_sweep_checks_each_word_as_it_is_listed(monkeypatch):
    """verify builds no list of instances: each tableau reaches its check
    before the next is listed, so a family that fails after three instances
    has had three checked."""
    monkeypatch.delenv("WEBFOLD_WORKERS", raising=False)
    checked = []

    def three_words(shape):
        yield from map(from_word, ("123", "112233", "121323"))
        raise RuntimeError("listed past the third word")

    def roundtrip(t):
        checked.append(t.word)
        return []

    monkeypatch.setitem(oracle._FAMILIES, "all", three_words)
    monkeypatch.setitem(oracle._SUITES, "roundtrip-3web", (5, ((3, None, "all"),), roundtrip))
    with pytest.raises(RuntimeError, match="third word"):
        verify("roundtrip-3web")
    assert checked == ["123", "112233", "121323"]


def test_worker_count_parsing(monkeypatch):
    monkeypatch.delenv("WEBFOLD_WORKERS", raising=False)
    assert worker_count() == 1
    cpus = os.cpu_count() or 1
    for text, expected in (("", 1), ("1", 1), ("0", 1), ("-3", 1), (" 2 ", min(2, cpus))):
        monkeypatch.setenv("WEBFOLD_WORKERS", text)
        assert worker_count() == expected
    # only parsed here, so no process is started for it
    monkeypatch.setenv("WEBFOLD_WORKERS", str(cpus + 1))
    assert worker_count() == cpus
    for text in ("two", "1.5", "4x"):
        monkeypatch.setenv("WEBFOLD_WORKERS", text)
        with pytest.raises(InvalidWorkerCount, match="WEBFOLD_WORKERS"):
            worker_count()


def test_fold_fault_fails_thm_2byn(monkeypatch):
    monkeypatch.delenv("WEBFOLD_WORKERS", raising=False)
    monkeypatch.setattr(oracle, "fold", lambda t: t)
    report = verify("thm-2byn", 3)
    assert not report.passed
    failing = {f.word: f.identity for f in report.failures}
    assert failing["111222"] == "fold2(web2(T)) = web2(fold(T))"


def test_promote_fault_fails_first_step_of_each_family(monkeypatch):
    monkeypatch.delenv("WEBFOLD_WORKERS", raising=False)
    promote = oracle.promote
    monkeypatch.setattr(oracle, "promote", lambda t: t if t.size > 4 else promote(t))
    report = verify("promotion-order", 3)
    assert report.instances == 56
    by_word: dict[str, list[str]] = {}
    for f in report.failures:
        by_word.setdefault(f.word, []).append(f.identity)
    assert len(by_word) == 52
    for identities in by_word.values():
        assert identities == [
            "restrict_le(partial_fold(T, 1), N+1-2) = restrict_le(promote^1(T), N+1-2)",
            "restrict_le(promote^1(T), N-1) = rectify(restrict_gt(T, 1))",
        ]


def test_rectification_side_is_row_insertion(monkeypatch):
    """promotion-order rectifies restrict_gt(T, k) by insertion: reading the
    rows top row first, a wrong reading word, fails only that identity."""
    monkeypatch.delenv("WEBFOLD_WORKERS", raising=False)

    def top_row_first(t):
        return tableaux.rectify(tableaux._unchecked(t.rows[::-1]))

    monkeypatch.setattr(oracle, "rectify", top_row_first)
    report = verify("promotion-order", 3)
    # every tableau of two or three rows already differs at k = 0
    assert len(report.failures) == report.instances == 56
    pattern = re.compile(r"restrict_le\(promote\^(\d+)\(T\), N-\1\) = rectify\(restrict_gt\(T, \1\)\)")
    for f in report.failures:
        assert pattern.fullmatch(f.identity), f.identity


def test_failed_tableau_identities_show_two_different_fillings(monkeypatch):
    """A word does not tell apart fillings that differ within a row, so a
    failure shows each tableau side by its rows."""
    monkeypatch.delenv("WEBFOLD_WORKERS", raising=False)

    def swapped(t):
        rows = [list(row) for row in evacuate(t).rows]
        if len(rows[0]) > 1:
            rows[0][0], rows[0][1] = rows[0][1], rows[0][0]
        return tableaux._unchecked(rows)

    monkeypatch.setattr(oracle, "rotate180_complement", swapped)
    report = verify("promotion-order", 3)
    shown = [f for f in report.failures if f.identity == "evacuate(T) = rotate180_complement(T)"]
    # every rectangle with n >= 2: 2x2, 2x3, 3x2 and 3x3
    assert len(shown) == 2 + 5 + 5 + 42
    for f in shown:
        assert f.lhs == str(evacuate(from_word(f.word)).rows)
        assert f.lhs != f.rhs


def test_raising_instance_is_a_failure_and_the_sweep_goes_on(monkeypatch):
    monkeypatch.delenv("WEBFOLD_WORKERS", raising=False)
    web_of_tableau = web3.web_of_tableau

    def broken(t):
        if t.word == "121323":
            raise NotAWeb("injected")
        return web_of_tableau(t)

    monkeypatch.setattr(web3, "web_of_tableau", broken)
    report = verify("roundtrip-3web", 3)
    assert report.instances == 1 + 5 + 42
    (failure,) = report.failures
    assert (failure.word, failure.lhs) == ("121323", "NotAWeb: injected")
    assert failure.identity == "check completes without raising"


def test_raise_in_a_structural_step_keeps_the_step_name(monkeypatch):
    monkeypatch.delenv("WEBFOLD_WORKERS", raising=False)

    def broken(t):
        raise KeyError(t.word)

    monkeypatch.setattr(web3, "decompose_blocks", broken)
    report = verify("block-patterns", 2)
    assert [f.word for f in report.failures] == ["112233", "112323", "121233", "123"]
    for f in report.failures:
        assert f.identity == "domino tableau decomposes into typed blocks"
        assert f.lhs == f"KeyError: '{f.word}'"


def test_readme_suite_table_matches_the_oracle():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Verification suites", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| ([a-z0-9-]+) \| .* \| (\d+) \|$", section, re.MULTILINE)
    defaults = [(theorem, suite[0]) for theorem, suite in oracle._SUITES.items()]
    assert [(theorem, int(n)) for theorem, n in rows] == defaults


def _blocks_reversed(decompose):
    def reversed_blocks(d):
        dec = decompose(d)
        return DominoDecomposition(dec.blocks[::-1], dec.vertical_pairs, dec.compression)

    return reversed_blocks


# name: (module and name to patch, the oracle for a tableau operator and the
# function's home module for a web one, replacement given the original,
# sha256 of every suite's report text and sorted JSON at bound 3, in
# THEOREMS order, and the (suite, identity) pairs that fail)
FAULTS = {
    "rotate applied twice": (
        planarweb,
        "rotate",
        lambda rotate: lambda w: rotate(rotate(w)),
        "6a154db1362b0faadfbd62fd38c37d921c61db1d43e1e1e231e2ef2caf5b560c",
        {("promotion-rotation", "rotate(web_of_tableau(T)) = web_of_tableau(promote(T))")},
    ),
    "rotate2 applied twice": (
        matchings,
        "rotate2",
        lambda rotate2: lambda m: rotate2(rotate2(m)),
        "020cc933b50d49c2c644abd7f1c03cf99cab8eab0501511905f3868764f4b977",
        {("promotion-rotation", "rotate2(web2(T)) = web2(promote(T))")},
    ),
    "reflect is the identity": (
        planarweb,
        "reflect",
        lambda reflect: lambda w: w,
        "d7d5f48a0f0e155849ea1a9ddf12259c4cc41adc80670b45ff59abcaca210f7f",
        {("evacuation-reflection", "reflect(web_of_tableau(T)) = web_of_tableau(evacuate(T))")},
    ),
    "reflect2 is the identity": (
        matchings,
        "reflect2",
        lambda reflect2: lambda m: m,
        "61d2c957b85b2e9d92b390295cc0e77e3e9be48a6d66f5eb1d3daeb121766dfb",
        {("evacuation-reflection", "reflect2(web2(T)) = web2(evacuate(T))")},
    ),
    "fold is the identity": (
        oracle,
        "fold",
        lambda fold: lambda t: t,
        "0222d2dfd051a57177e740afe48e325a6966b3775c9add5121332b718f8792b4",
        {
            ("distance-lemmas", "vertical pairs are maximal non-intersecting arcs"),
            ("fold-domino", "T rotationally symmetric iff fold(T) is a domino tableau"),
            ("fold-domino", "fold(unfold(D)) = D"),
            ("fold-domino", "unfold(fold(T)) = T"),
            ("promotion-order", "unfold(fold(T)) = T"),
            ("thm-2byn", "fold2(web2(T)) = web2(fold(T))"),
            ("thm-fw1", "domino_of_symmetric_web(web_of_tableau(T)) = fold(T)"),
            ("thm-fw2", "check completes without raising"),
            ("thm-fw2", "crossed_web(fold(T)) = web_of_tableau(T)"),
        },
    ),
    "unfold is the identity": (
        oracle,
        "unfold",
        lambda unfold: lambda t: t,
        "42577839f93835221f1ec84744495ac9f604f649f40a7455482f5f1bddeaa890",
        {
            ("fold-domino", "fold(unfold(D)) = D"),
            ("fold-domino", "unfold(D) is rotationally symmetric"),
            ("fold-domino", "unfold(fold(T)) = T"),
            ("promotion-order", "unfold(fold(T)) = T"),
        },
    ),
    "web_distance is 0": (
        planarweb,
        "web_distance",
        lambda web_distance: lambda w, x, y: 0,
        "b1abdea7ef9aec64eaca6d6be336b4e2348784eed0d2988295d7507925a4295c",
        {
            ("distance-lemmas", "arcdist(A_1, A_1') = 2 webdist(B_1, B_0)"),
            ("distance-lemmas", "arcdist(A_2, A_2') = 2 webdist(B_2, B_0)"),
            ("distance-lemmas", "webdist(X, X') = arcdist(X, X') - epsilon(X)"),
            ("distance-lemmas", "webdist(X, Y) >= arcdist(X, Y) - |CS(X, Y)|"),
        },
    ),
    "arc_distance one too large": (
        mdiagram,
        "arc_distance",
        lambda arc_distance: lambda m, x, y: arc_distance(m, x, y) + 1,
        "325b2f2191e79e95b2b36c81e4f6e2afc5080cb14e8a2c048cb41ebb9338cb2b",
        {
            ("distance-lemmas", "arcdist(A_0, A_0') = 2 webdist(B_0, B_0)"),
            ("distance-lemmas", "arcdist(A_1, A_1') = 2 webdist(B_1, B_0)"),
            ("distance-lemmas", "arcdist(A_2, A_2') = 2 webdist(B_2, B_0)"),
            ("distance-lemmas", "arcdist(A_3, A_3') = 2 webdist(B_3, B_0)"),
            ("distance-lemmas", "webdist(X, X') = arcdist(X, X') - epsilon(X)"),
            ("distance-lemmas", "webdist(X, Y) >= arcdist(X, Y) - |CS(X, Y)|"),
        },
    ),
    "_crossing_pairs drops its last crossing": (
        mdiagram,
        "_crossing_pairs",
        lambda crossing_pairs: lambda *args: crossing_pairs(*args)[:-1],
        "925f4a377c07510ad0f2900340df335f5855f0fa294c173092552a6fbe7f3d74",
        {
            ("block-patterns", "domino_of_symmetric_web(crossed_web(D)) = D"),
            ("distance-lemmas", "crossed resolution is a valid web"),
            ("distance-lemmas", "resolution is a valid web"),
            ("evacuation-reflection", "reflect(web_of_tableau(T)) = web_of_tableau(evacuate(T))"),
            ("promotion-rotation", "rotate(web_of_tableau(T)) = web_of_tableau(promote(T))"),
            ("roundtrip-3web", "check completes without raising"),
            ("thm-fw1", "check completes without raising"),
            ("thm-fw2", "crossed_web(fold(T)) = web_of_tableau(T)"),
        },
    ),
    "blocks reversed": (
        web3,
        "decompose_blocks",
        _blocks_reversed,
        "3471e8ea673d41d096ff2aa536b06e7a15e5ffe3771b1acc6848facde4aa1388",
        {
            ("block-patterns", "block columns tile 1..n left to right"),
            ("block-patterns", "lone-cell block only leads an odd tableau"),
        },
    ),
    "mirror steps ±1 swapped in web3._LAMBDA": (
        web3,
        "_LAMBDA",
        lambda lam: {**lam, -1: lam[1], 1: lam[-1]},
        "7e53ec804ddba0a0ba5c9d8eb1123c938c256515d2aa7fdcee482504d05b2a47",
        {
            ("block-patterns", "domino_of_symmetric_web(crossed_web(D)) = D"),
            ("thm-fw1", "check completes without raising"),
        },
    ),
    "promote is the identity past N = 4": (
        oracle,
        "promote",
        lambda promote: lambda t: t if t.size > 4 else promote(t),
        "3a5b831fa72858718af70adfdf4fdf054fb18337f0346f71efa5d0a8bdd2a29d",
        {
            (
                "promotion-order",
                "restrict_le(partial_fold(T, 1), N+1-2) = restrict_le(promote^1(T), N+1-2)",
            ),
            ("promotion-order", "restrict_le(promote^1(T), N-1) = rectify(restrict_gt(T, 1))"),
            ("promotion-rotation", "rotate(web_of_tableau(T)) = web_of_tableau(promote(T))"),
            ("promotion-rotation", "rotate2(web2(T)) = web2(promote(T))"),
        },
    ),
}


@pytest.mark.parametrize("fault", FAULTS)
def test_failing_reports_are_pinned(monkeypatch, fault):
    """Under each fault every suite at bound 3 reports the same failures,
    word for word in text and JSON, and fails exactly the pinned identities."""
    monkeypatch.delenv("WEBFOLD_WORKERS", raising=False)
    module, name, replacement, pinned, identities = FAULTS[fault]
    monkeypatch.setattr(module, name, replacement(getattr(module, name)))
    digest = hashlib.sha256()
    failing = set()
    for theorem in THEOREMS:
        report = verify(theorem, 3)
        digest.update(report.text().encode())
        digest.update(json.dumps(report.to_dict(), sort_keys=True).encode())
        failing |= {(theorem, f.identity) for f in report.failures}
    assert failing == identities
    assert digest.hexdigest() == pinned


def test_parallel_sweeps_report_failures_as_serial_ones_do(monkeypatch):
    """Under "fold is the identity", which fails nine identities in six
    suites, two of them named by the step that raised, and under "rotate
    applied twice", patched into planarweb, which a forked worker reads as
    its check runs, every suite at bound 3 reports the same failures over
    two worker processes as serially."""
    for fault in ("fold is the identity", "rotate applied twice"):
        module, name, replacement, _, identities = FAULTS[fault]
        with monkeypatch.context() as patched:
            patched.delenv("WEBFOLD_WORKERS", raising=False)
            patched.setattr(module, name, replacement(getattr(module, name)))
            serial = [verify(theorem, 3) for theorem in THEOREMS]
            assert {(r.theorem, f.identity) for r in serial for f in r.failures} == identities
            # two processes where the machine has two CPUs or more
            patched.setenv("WEBFOLD_WORKERS", "2")
            pooled = [verify(theorem, 3) for theorem in THEOREMS]
            assert [r.to_dict() for r in pooled] == [r.to_dict() for r in serial], fault
