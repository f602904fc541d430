import json
import os
import re
from pathlib import Path

import pytest

from webfold import oracle
from webfold.errors import BoundTooLarge, InvalidWorkerCount, NotAWeb, UnknownTheorem
from webfold.oracle import (
    THEOREMS,
    EnumerationFilter,
    Failure,
    VerificationReport,
    enumerate_tableaux,
    enumerate_words,
    hook_length_count,
    verify,
    worker_count,
)
from webfold.tableaux import Shape

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


def test_filter_validation():
    with pytest.raises(ValueError):
        EnumerationFilter(Shape((2, 2)), "palindromic")
    with pytest.raises(ValueError):
        EnumerationFilter(Shape((3, 2), (1,)))


def test_unknown_theorem():
    with pytest.raises(UnknownTheorem):
        verify("thm-unheard-of")


def test_all_suites_pass_small():
    for theorem in THEOREMS:
        report = verify(theorem, 2)
        assert report.passed, report.text()
        assert report.theorem == theorem
        assert report.instances > 0


def test_reports_are_reproducible():
    a = verify("thm-fw1", 3).to_dict()
    b = verify("thm-fw1", 3).to_dict()
    a.pop("elapsed")
    b.pop("elapsed")
    assert a == b
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_parallel_sweeps_report_what_serial_ones_do(monkeypatch):
    def reports():
        out = []
        for theorem, bound in (("roundtrip-3web", 3), ("promotion-order", 3), ("fold-domino", 4)):
            d = verify(theorem, bound).to_dict()
            d.pop("elapsed")
            out.append(d)
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
        elapsed=0.5,
    )
    assert not report.passed
    assert report.to_dict()["failures"][0]["word"] == "112233"
    text = report.text()
    assert "FAIL" in text and "112233" in text and "left:  a" in text


def test_verify_rejects_bad_bound():
    with pytest.raises(ValueError):
        verify("thm-2byn", 0)


def test_verify_refuses_a_bound_past_the_word_limit(monkeypatch):
    def no_enumeration(shape):
        raise AssertionError(f"enumerated {shape}")

    # the limit is checked from hook-length counts, before any word is listed
    monkeypatch.setattr(oracle, "enumerate_words", no_enumeration)
    for theorem, bound in (
        ("roundtrip-3web", 8),
        ("roundtrip-3web", 9),
        ("thm-2byn", 14),
        ("promotion-order", 14),
        ("fold-domino", 10**9),
    ):
        with pytest.raises(BoundTooLarge, match=f"{theorem} up to n={bound}"):
            verify(theorem, bound)
    # the largest bounds under the limit get as far as enumerating
    for theorem, bound in (("roundtrip-3web", 7), ("thm-2byn", 13)):
        with pytest.raises(AssertionError, match="enumerated"):
            verify(theorem, bound)


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


def test_raising_instance_is_a_failure_and_the_sweep_goes_on(monkeypatch):
    monkeypatch.delenv("WEBFOLD_WORKERS", raising=False)
    web_of_tableau = oracle.web_of_tableau

    def broken(t):
        if t.word == "121323":
            raise NotAWeb("injected")
        return web_of_tableau(t)

    monkeypatch.setattr(oracle, "web_of_tableau", broken)
    report = verify("roundtrip-3web", 3)
    assert report.instances == 1 + 5 + 42
    (failure,) = report.failures
    assert (failure.word, failure.lhs) == ("121323", "NotAWeb: injected")
    assert failure.identity == "check completes without raising"


def test_raise_in_a_structural_step_keeps_the_step_name(monkeypatch):
    monkeypatch.delenv("WEBFOLD_WORKERS", raising=False)

    def broken(t):
        raise KeyError(t.word)

    monkeypatch.setattr(oracle, "decompose_blocks", broken)
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
