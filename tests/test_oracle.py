import json
import os

import pytest

from webfold.errors import InvalidWorkerCount, UnknownTheorem
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
