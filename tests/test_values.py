"""The behaviour every value class keeps: its repr bytes, equality over its
compared fields, the hash of those fields as one tuple, and a pickle round
trip, which a sweep's worker pool relies on to send failures and webs."""

import importlib
import pickle
from fractions import Fraction
from functools import partial
from pathlib import Path

import pytest

import webfold
from webfold._value import Value
from webfold.matchings import Matching2
from webfold.mdiagram import MDiagram
from webfold.oracle import EnumerationFilter, Failure, VerificationReport
from webfold.planarweb import BOUNDARY, CanonicalWebForm, PlanarWeb
from webfold.tableaux import Shape, Tableau, from_word
from webfold.web3 import Block, DominoDecomposition

TABLEAU = from_word("112323")
LABELS, XS = ("1", "b"), (1, Fraction(5, 2))
WEB = PlanarWeb(2, [1, 2, 2, 1], [BOUNDARY, BOUNDARY], {1: (0, 3), 2: (1, 2)})
FAILURE = Failure("112233", "lhs = rhs", "a", "b")
BLOCK = Block(1, (1, 2), (3,))

# (value, its repr, the fields it compares as one tuple, a copy with one field changed)
VALUES = [
    (Shape((3, 2), (1, 0)), "Shape(outer=(3, 2), inner=(1,))", ((3, 2), (1,)), Shape((3, 2))),
    (
        TABLEAU,
        "Tableau(shape=Shape(outer=(2, 2, 2), inner=()), rows=((1, 2), (3, 5), (4, 6)))",
        (Shape((2, 2, 2)), ((1, 2), (3, 5), (4, 6))),
        Tableau(Shape((2, 2, 2)), ((1, 2), (3, 4), (5, 6))),
    ),
    (
        Matching2(2, ((4, 1), (2, 3))),
        "Matching2(n_pairs=2, arcs=((1, 4), (2, 3)))",
        (2, ((1, 4), (2, 3))),
        Matching2(2, ((1, 2), (3, 4))),
    ),
    (
        MDiagram(LABELS, XS, ((1, 2),), 1),
        "MDiagram(labels=('1', 'b'), xs=(1, Fraction(5, 2)), ends=((1, 2),),"
        " second=1, crossed=0)",
        (LABELS, XS, ((1, 2),), 1, 0),
        MDiagram(LABELS, XS, ((1, 2),), 1, 1),
    ),
    (
        CanonicalWebForm((2, ((1, ()),))),
        "CanonicalWebForm(serialization=b'(2, ((1, ()),))',"
        " digest='681e9e8df0f8db2e8c5c22910193fd6abf4130c05515878d744700d9b57e34e9')",
        ((2, ((1, ()),)),),
        CanonicalWebForm((3, ((1, ()),))),
    ),
    (BLOCK, "Block(btype=1, columns=(1, 2), verticals=(3,))", (1, (1, 2), (3,)), Block(2, (1, 2), (3,))),
    (
        DominoDecomposition((BLOCK,), ((1, 2),), TABLEAU),
        "DominoDecomposition(blocks=(Block(btype=1, columns=(1, 2), verticals=(3,)),),"
        " vertical_pairs=((1, 2),), compression=Tableau(shape=Shape(outer=(2, 2, 2), inner=()),"
        " rows=((1, 2), (3, 5), (4, 6))))",
        ((BLOCK,), ((1, 2),), TABLEAU),
        DominoDecomposition((BLOCK,), ((1, 3),), TABLEAU),
    ),
    (
        EnumerationFilter(Shape((2, 2)), "domino"),
        "EnumerationFilter(shape=Shape(outer=(2, 2), inner=()), predicate='domino')",
        (Shape((2, 2)), "domino"),
        EnumerationFilter(Shape((2, 2))),
    ),
    (
        FAILURE,
        "Failure(word='112233', identity='lhs = rhs', lhs='a', rhs='b')",
        ("112233", "lhs = rhs", "a", "b"),
        Failure("112233", "lhs = rhs", "a", "c"),
    ),
    (
        VerificationReport("thm-fw1", 2, (FAILURE,)),
        "VerificationReport(theorem='thm-fw1', instances=2, failures=(Failure(word='112233',"
        " identity='lhs = rhs', lhs='a', rhs='b'),))",
        ("thm-fw1", 2, (FAILURE,)),
        VerificationReport("thm-fw1", 3, (FAILURE,)),
    ),
]

# compared by identity: (value, its repr, a copy with the same fields)
IDENTITIES = [
    (
        WEB,
        "PlanarWeb(n_boundary=2, origins=[1, 2, 2, 1], tags=['boundary', 'boundary'],"
        " rotation={1: (0, 3), 2: (1, 2)}, _draw=None)",
        PlanarWeb(2, [1, 2, 2, 1], [BOUNDARY, BOUNDARY], {1: (0, 3), 2: (1, 2)}),
    ),
]


@pytest.mark.parametrize(
    "value, text, fields, changed", VALUES, ids=[type(case[0]).__name__ for case in VALUES]
)
def test_value_classes_compare_hash_and_show_their_fields(value, text, fields, changed):
    assert repr(value) == text
    assert hash(value) == hash(fields)
    again = pickle.loads(pickle.dumps(value))
    assert type(again) is type(value)
    assert again == value and not again != value
    assert hash(again) == hash(value) and repr(again) == text
    assert changed != value and not changed == value
    assert value != fields and value != None  # noqa: E711


def test_the_value_classes_are_all_pinned():
    """Every Value subclass of the package, subclasses of subclasses too,
    has a case above, so a new value class must be pinned to pass."""
    for path in Path(webfold.__file__).parent.glob("*.py"):
        importlib.import_module(f"webfold.{path.stem}".removesuffix(".__init__"))
    found, stack = set(), [Value]
    while stack:
        for cls in stack.pop().__subclasses__():
            if cls.__module__.startswith("webfold.") and cls not in found:
                found.add(cls)
                stack.append(cls)
    pinned = {type(case[0]) for case in VALUES + IDENTITIES}
    assert pinned == found
    assert len(found) == 11


@pytest.mark.parametrize(
    "value, text, same", IDENTITIES, ids=[type(case[0]).__name__ for case in IDENTITIES]
)
def test_webs_and_resolutions_compare_by_identity(value, text, same):
    assert repr(value) == text
    assert value == value and repr(same) == text
    assert same != value and not same == value
    assert hash(value) == object.__hash__(value)
    again = pickle.loads(pickle.dumps(value))
    assert type(again) is type(value) and repr(again) == text


def test_a_shape_compares_and_shows_without_its_size():
    shape = Shape((3, 2), (1,))
    other = pickle.loads(pickle.dumps(shape))
    assert other.size == shape.size == 4
    object.__setattr__(other, "size", 99)
    assert other == shape and hash(other) == hash(shape) and repr(other) == repr(shape)


def test_a_pickled_web_keeps_its_layout():
    web = PlanarWeb(2, [1, 2], [BOUNDARY], {1: (0,), 2: (1,)}, partial(dict, {1: (0, 0)}))
    again = pickle.loads(pickle.dumps(web))
    assert repr(again) == repr(web) and again.layout == {1: (0, 0)}
