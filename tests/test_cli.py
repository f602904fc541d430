import contextlib
import io
import json
import os
import re
import resource
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from webfold import cli, oracle
from webfold.cli import main
from webfold.matchings import web2_of_tableau
from webfold.tableaux import from_word
from webfold.web3 import crossed_mdiagram, mdiagram_of_tableau, web_of_tableau
from webs import open_circle_web, tripod, twisted_web, walled_stem_web

CHAIN_WORD = "111122213132223333"
CHAIN_FOLD = "112212121133332323"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_op_fold_example(capsys):
    code, out, _ = run(capsys, "op", "--apply", "fold", "--word", "12112212")
    assert (code, out) == (0, "12121122\n")


def test_op_round_trip_via_json(capsys, tmp_path):
    src = tmp_path / "t.json"
    src.write_text(json.dumps({"outer": [3, 3, 3], "word": "112213323"}))
    out_path = tmp_path / "p.json"
    code, _, _ = run(capsys, "op", "--apply", "promote", "--in", str(src), "--out", str(out_path))
    assert code == 0
    assert json.loads(out_path.read_text())["word"] == "121132233"


def test_web3_pipeline(capsys, tmp_path):
    web_path = tmp_path / "chainweb.json"
    code, _, _ = run(capsys, "web3", "from-tableau", "--word", CHAIN_WORD, "--out", str(web_path))
    assert code == 0
    code, out, _ = run(capsys, "web3", "to-domino", "--in", str(web_path))
    assert (code, out) == (0, CHAIN_FOLD + "\n")
    code, out, _ = run(capsys, "web3", "to-tableau", "--in", str(web_path))
    assert (code, out) == (0, CHAIN_WORD + "\n")
    code, out, _ = run(capsys, "web3", "crossed", "--word", CHAIN_FOLD)
    assert code == 0
    assert json.loads(out)["n"] == 18


def test_web2_pipeline(capsys, tmp_path):
    m_path = tmp_path / "m.json"
    code, _, _ = run(capsys, "web2", "from-tableau", "--word", "12112212", "--out", str(m_path))
    assert code == 0
    code, out, _ = run(capsys, "web2", "fold", "--in", str(m_path))
    assert code == 0
    assert json.loads(out)["arcs"] == [[1, 2], [3, 4], [5, 8], [6, 7]]
    code, out, _ = run(capsys, "web2", "to-tableau", "--in", str(m_path))
    assert (code, out) == (0, "12112212\n")


def test_inline_words_where_json_also_works(capsys):
    code, out, _ = run(capsys, "web2", "fold", "--word", "12112212")
    assert code == 0
    assert json.loads(out)["arcs"] == [[1, 2], [3, 4], [5, 8], [6, 7]]
    code, out, _ = run(capsys, "web3", "to-domino", "--word", CHAIN_WORD)
    assert (code, out) == (0, CHAIN_FOLD + "\n")
    code, out, _ = run(capsys, "web3", "to-tableau", "--word", CHAIN_WORD)
    assert (code, out) == (0, CHAIN_WORD + "\n")


def test_enumerate(capsys):
    code, out, _ = run(capsys, "enumerate", "--shape", "2x3", "--filter", "all")
    assert code == 0
    assert out.splitlines() == ["111222", "112122", "112212", "121122", "121212"]
    code, out, _ = run(capsys, "enumerate", "--shape", "3x2", "--filter", "domino")
    assert out.splitlines() == ["112233", "112323", "121233"]


def test_render(capsys, tmp_path):
    web_path = tmp_path / "w.json"
    run(capsys, "web3", "from-tableau", "--word", "112233", "--out", str(web_path))
    svg_path = tmp_path / "w.svg"
    code, _, _ = run(capsys, "render", "--in", str(web_path), "--out", str(svg_path))
    assert code == 0
    assert svg_path.read_text().startswith("<svg")
    code, out, _ = run(capsys, "web3", "from-tableau", "--word", "112233", "--format", "svg")
    assert code == 0 and out.startswith("<svg")


def test_verify(capsys):
    code, out, _ = run(capsys, "verify", "--theorem", "thm-2byn", "--max-n", "3")
    assert code == 0
    assert "PASS" in out
    code, out, _ = run(capsys, "verify", "--theorem", "thm-fw1", "--max-n", "2", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["passed"] is True and data["instances"] == 4


VERIFY_TEXT = "thm-2byn: PASS, 6 instances, 0 failures\n"
VERIFY_JSON = """{
  "failures": [],
  "instances": 6,
  "passed": true,
  "theorem": "thm-2byn"
}
"""


@pytest.mark.parametrize("fmt, pinned", [("text", VERIFY_TEXT), ("json", VERIFY_JSON)], ids=["text", "json"])
def test_verify_output_is_the_same_bytes_every_run(capsys, fmt, pinned):
    argv = ("verify", "--theorem", "thm-2byn", "--max-n", "3", "--format", fmt)
    assert run(capsys, *argv) == run(capsys, *argv) == (0, pinned, "")


def test_domain_errors_exit_one(capsys):
    code, _, err = run(capsys, "op", "--apply", "promote", "--word", "21")
    assert code == 1 and "NonLatticeWord" in err
    code, _, err = run(capsys, "verify", "--theorem", "thm-nope")
    assert code == 1 and "UnknownTheorem" in err
    for bound in ("23", "1000000000"):
        code, _, err = run(capsys, "verify", "--theorem", "thm-2byn", "--max-n", bound)
        assert code == 1 and "BoundTooLarge" in err
    for shape in ("3x8", "3x30", "2x1000000000"):
        code, _, err = run(capsys, "enumerate", "--shape", shape)
        assert code == 1 and err.startswith(f"BoundTooLarge: enumerate --shape {shape} ")
    code, _, err = run(capsys, "web3", "to-domino", "--in", "/nonexistent.json")
    assert code == 1


def test_enumerate_long_and_tall_single_lines(capsys):
    code, out, _ = run(capsys, "enumerate", "--shape", "1x2000")
    assert (code, out) == (0, "1" * 2000 + "\n")
    # refused before the billion-entry shape tuple is built
    code, out, err = run(capsys, "enumerate", "--shape", "1000000000x1")
    assert (code, out) == (1, "")
    assert err == "ValueError: words use single digits, at most 9 rows\n"


def test_enumerate_refuses_a_row_too_long_to_build():
    # with 1 GB of address space, listing the word would end in MemoryError
    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    src = str(Path(__file__).resolve().parent.parent / "src")
    proc = subprocess.run(
        [sys.executable, "-m", "webfold.cli", "enumerate", "--shape", "1x100000000"],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
        preexec_fn=limit_memory, timeout=120,
    )
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == (
        "BoundTooLarge: enumerate --shape 1x100000000 would list"
        " a word of more than 2,000,000 letters\n"
    )


def test_non_planar_web_file_is_not_a_web(capsys, tmp_path):
    # before the Euler check this read back as 112212333 with exit 0
    src = tmp_path / "twisted.json"
    src.write_text(json.dumps(twisted_web()))
    code, out, err = run(capsys, "web3", "to-tableau", "--in", str(src))
    assert (code, out) == (1, "")
    assert err == "NotAWeb: rotation system is not planar: V - E + F = 0, not 2\n"


def test_internal_vertex_on_a_wall_is_named(capsys, tmp_path):
    # the message used to be "internal vertex 7 has degree 3", which it has
    src = tmp_path / "walled.json"
    src.write_text(json.dumps(walled_stem_web()))
    code, out, err = run(capsys, "web3", "to-tableau", "--in", str(src))
    assert (code, out) == (1, "")
    assert err == (
        "NotAWeb: boundary vertex 2 has web-degree 0; 7 boundary edges, not 6;"
        " internal vertex 7 touches a boundary edge\n"
    )


def test_open_boundary_circle_is_not_a_web(capsys, tmp_path):
    # this used to pass validation and end in "UnknownFace: no exterior face"
    src = tmp_path / "open.json"
    src.write_text(json.dumps(open_circle_web()))
    code, out, err = run(capsys, "web3", "to-tableau", "--in", str(src))
    assert (code, out) == (1, "")
    assert err == (
        "NotAWeb: boundary circle has no edge from 6 to 1; 5 boundary edges, not 6\n"
    )


@pytest.mark.parametrize("to_file", [False, True])
def test_enumerate_writes_each_word_as_it_is_listed(capsys, monkeypatch, tmp_path, to_file):
    def three_then_fail(shape):
        yield from ("112233", "112323", "121233")
        raise ValueError("enumeration broke")

    monkeypatch.setitem(oracle._FAMILIES, "all", three_then_fail)
    argv = ["enumerate", "--shape", "3x2"]
    dest = tmp_path / "words.txt"
    if to_file:
        argv += ["--out", str(dest)]
    code, out, err = run(capsys, *argv)
    written = dest.read_text() if to_file else out
    assert code == 1 and err == "ValueError: enumeration broke\n"
    assert written == "112233\n112323\n121233\n"


def test_enumerate_checks_the_word_limit_before_listing(monkeypatch):
    def no_enumeration(shape):
        raise AssertionError(f"enumerated {shape}")

    monkeypatch.setitem(oracle._FAMILIES, "all", no_enumeration)
    with pytest.raises(AssertionError, match="enumerated"):
        main(["enumerate", "--shape", "3x7"])


@pytest.mark.parametrize("word", ["\u0660", "\u0661\u0662\u0663", "\u00b2", "1\u0662", "12a", "0"])
@pytest.mark.parametrize(
    "command",
    [["op", "--apply", "promote"], ["web2", "to-tableau"], ["web3", "from-tableau"], ["web3", "to-domino"]],
)
def test_words_are_ascii_digits(capsys, command, word):
    code, out, err = run(capsys, *command, "--word", word)
    assert (code, out, err) == (1, "", "NonLatticeWord: word must consist of digits 1-9\n")


@pytest.mark.parametrize("apply", sorted(cli.OPERATORS))
def test_op_in_matches_op_word(capsys, tmp_path, apply):
    src = tmp_path / "t.json"
    src.write_text(json.dumps({"outer": [3, 3, 3], "word": "112213323"}))
    code, out, err = run(capsys, "op", "--apply", apply, "--in", str(src))
    assert (code, err) == (0, "")
    code, word, _ = run(capsys, "op", "--apply", apply, "--word", "112213323")
    assert json.loads(out) == {"outer": [3, 3, 3], "word": word.strip()}


@pytest.mark.parametrize(
    "word, error",
    [
        ("\u0661\u0662\u0663", "NonLatticeWord: word must consist of digits 1-9"),
        ("\u00b2", "NonLatticeWord: word must consist of digits 1-9"),
        (123, "MalformedInput: {src}: TypeError: word must be a string, not int"),
        (["1", "2", "3"], "MalformedInput: {src}: TypeError: word must be a string, not list"),
        (None, "MalformedInput: {src}: TypeError: word must be a string, not NoneType"),
    ],
)
def test_op_in_reads_only_ascii_word_strings(capsys, tmp_path, word, error):
    src = tmp_path / "t.json"
    src.write_text(json.dumps({"outer": [1, 1, 1], "word": word}))
    code, out, err = run(capsys, "op", "--apply", "promote", "--in", str(src))
    assert (code, out, err) == (1, "", error.format(src=src) + "\n")


def test_usage_errors_exit_two():
    with pytest.raises(SystemExit) as info:
        main(["op", "--apply", "warp", "--word", "112233"])
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        main(["web3", "from-tableau"])
    assert info.value.code == 2
    for shape in ("banana", "0x2", "2x0"):
        with pytest.raises(SystemExit) as info:
            main(["enumerate", "--shape", shape])
        assert info.value.code == 2


def test_outputs_are_byte_stable(capsys):
    first = run(capsys, "web3", "from-tableau", "--word", "112233")
    second = run(capsys, "web3", "from-tableau", "--word", "112233")
    assert first == second


def test_outputs_do_not_depend_on_the_hash_seed(tmp_path):
    diagram = tmp_path / "crossed.json"
    diagram.write_text(json.dumps(crossed_mdiagram(from_word(CHAIN_FOLD)).to_dict()))
    calls = [
        ["web3", action, "--word", word, "--format", fmt]
        for action, word in (("from-tableau", CHAIN_WORD), ("crossed", CHAIN_FOLD))
        for fmt in ("json", "svg")
    ] + [["render", "--in", str(diagram)]]
    src = str(Path(__file__).resolve().parent.parent / "src")
    outputs = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed)
        outputs.append([
            subprocess.run(
                [sys.executable, "-m", "webfold.cli", *argv],
                env=env, capture_output=True, check=True,
            ).stdout
            for argv in calls
        ])
    assert all(outputs[0]) and outputs[0] == outputs[1]


def tripod_json(n=3, edge=(0, {}), dart0=None):
    """The tripod's JSON with n, fields of one edge, or the first dart at 4 replaced."""
    web = tripod().to_dict()
    web["n"] = n
    web["edges"][edge[0]].update(edge[1])
    if dart0 is not None:
        web["rotation"]["4"][0] = dart0
    return web


# each passed the checks of PlanarWeb.from_dict before they required integers and known tags
BAD_WEBS = [
    tripod_json(n=True),
    tripod_json(n=0),
    tripod_json(n=-3),
    tripod_json(edge=(0, {"from": True})),
    tripod_json(edge=(5, {"to": True})),
    tripod_json(edge=(0, {"tag": "zigzag"})),
    tripod_json(dart0=True),
]


def diagram_json(arc=None, vertex=None):
    """The 123 diagram's JSON with fields of its first arc or first vertex replaced."""
    d = mdiagram_of_tableau(from_word("123")).to_dict()
    d["arcs"][0].update(arc or {})
    d["boundary"][0].update(vertex or {})
    return d


# each was drawn, and exited 0, before diagram JSON was checked for these types
BAD_DIAGRAMS = [
    diagram_json(arc={"kind": "zigzag"}),
    diagram_json(arc={"crossed": "no"}),
    diagram_json(vertex={"x": True}),
    diagram_json(arc={"tail": 1}, vertex={"label": 1}),
]


# each passed the checks of Matching2.from_dict before they required integer endpoints
BAD_MATCHINGS = [
    {"n": 2, "arcs": [[1.0, 2], [3, 4]]},
    {"n": 1, "arcs": [[True, 2]]},
]


@pytest.mark.parametrize(
    "argv, payload",
    [
        (["web3", "to-tableau"], {"n": 3, "edges": 5, "rotation": {}}),
        (["op", "--apply", "promote"], {"outer": [2, 2], "word": 12}),
        (["web2", "fold"], {"n": 2, "arcs": [[1, 2, 3]]}),
        (["web3", "to-domino"], [1, 2, 3]),
        (["render"], {"n": 3, "edges": 5, "rotation": {}}),
        (["web2", "fold"], {"n": 10**12, "arcs": [[1, 2]]}),
        (["op", "--apply", "promote"], {"outer": [3, 3], "word": "1122"}),
        (["render"], {"boundary": [{"label": "1", "x": "1/0"}], "arcs": []}),
        (["render"], {"boundary": [], "arcs": [{"tail": "a\nb", "head": "c"}]}),
        (["render"], {"boundary": [{"label": "1", "x": "1"}, {"label": "2", "x": "1e400"}],
                      "arcs": [{"tail": "1", "head": "2"}]}),
        *((argv, web) for argv in (["web3", "to-tableau"], ["web3", "to-domino"], ["render"])
          for web in BAD_WEBS),
        *((["render"], diagram) for diagram in BAD_DIAGRAMS),
        *((argv, matching) for argv in (["web2", "to-tableau"], ["web2", "fold"], ["render"])
          for matching in BAD_MATCHINGS),
        # the operators ended in a TypeError traceback, or took a float outer row
        *((["op", "--apply", name], {"outer": [2, 2], "word": "1122", "inner": [0.0]})
          for name in sorted(cli.OPERATORS)),
        (["op", "--apply", "promote"], {"outer": [2.0, 2.0], "word": "1122"}),
    ],
)
def test_malformed_json_exits_one(capsys, tmp_path, argv, payload):
    src = tmp_path / "bad.json"
    src.write_text(json.dumps(payload))
    code, out, err = run(capsys, *argv, "--in", str(src))
    assert (code, out) == (1, "")
    assert err.startswith("MalformedInput: ") and err.count("\n") == 1


HUGE = "1e1000000000"


@pytest.mark.parametrize(
    "argv, payload",
    [
        (["render"], diagram_json(vertex={"x": HUGE})),
        (["web3", "to-tableau"], {**web_of_tableau(from_word("123")).to_dict(), "layout": {"1": [HUGE, "0"]}}),
    ],
    ids=["diagram-abscissa", "layout-coordinate"],
)
def test_huge_exponents_exit_one_at_once(tmp_path, argv, payload):
    """Fraction reads "1e1000000000" by building 10**1000000000, which does
    not finish in any useful time; run in a subprocess, so that such a hang
    fails the test instead of stalling it."""
    src = tmp_path / "huge.json"
    src.write_text(json.dumps(payload))
    proc = subprocess.run(
        [sys.executable, "-m", "webfold.cli", *argv, "--in", str(src)],
        env=dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src")),
        capture_output=True, text=True, timeout=10,
    )
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr.startswith("MalformedInput: ") and proc.stderr.count("\n") == 1
    assert f"exponent of more than {sys.get_int_max_str_digits()}" in proc.stderr


def test_deeply_nested_json_exits_one(capsys, tmp_path):
    src = tmp_path / "deep.json"
    src.write_text("[" * 100_000 + "]" * 100_000)
    code, out, err = run(capsys, "render", "--in", str(src))
    assert (code, out, err) == (1, "", f"MalformedInput: {src}: JSON nested too deeply\n")


@pytest.mark.parametrize("action", ["fold", "to-tableau"])
@pytest.mark.parametrize(
    "payload, message",
    [
        ({"n": 0, "arcs": []}, "ValueError: n must be at least 1, got 0"),
        ({"n": True, "arcs": [[1, 2]]}, "TypeError: n must be an integer, got bool"),
    ],
)
def test_matching_needs_a_positive_integer_n(capsys, tmp_path, action, payload, message):
    src = tmp_path / "m.json"
    src.write_text(json.dumps(payload))
    code, out, err = run(capsys, "web2", action, "--in", str(src))
    assert (code, out, err) == (1, "", f"MalformedInput: {src}: {message}\n")


USAGE = json.loads((Path(__file__).parent / "cli_usage.json").read_text())


@pytest.mark.parametrize("case", USAGE, ids=[" ".join(c["argv"]) or "(none)" for c in USAGE])
def test_help_and_usage_bytes(capsys, monkeypatch, case):
    """Help and usage errors print the same bytes as before the commands
    loaded their modules lazily (argparse of Python 3.11, 80 columns).
    """
    monkeypatch.setenv("COLUMNS", "80")
    try:
        code = main(case["argv"])
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (case["code"], case["stdout"], case["stderr"])


@pytest.mark.parametrize("argv", [["web3", "to-tableau"], ["render"]])
@pytest.mark.parametrize(
    "n, rotation, message",
    [
        (3, {"4": [1, 3, 5, 5]}, "dart 5 listed twice"),
        (3, {"1": [6, 2, 11], "2": [8, 0, 7]}, "dart 2 listed at 1, not its endpoint"),
        (3, {"4": [1, 3]}, "rotation darts do not cover the edge list"),
        (5, {}, "boundary vertex 5 missing"),
    ],
)
def test_bad_rotation_system_exits_one(capsys, tmp_path, argv, n, rotation, message):
    web = tripod().to_dict()
    web["n"] = n
    web["rotation"].update(rotation)
    src = tmp_path / "bad.json"
    src.write_text(json.dumps(web))
    code, out, err = run(capsys, *argv, "--in", str(src))
    assert (code, out) == (1, "")
    assert err == f"MalformedInput: {src}: ValueError: {message}\n"


@pytest.mark.parametrize("argv", [["web3", "to-tableau"], ["render"]])
@pytest.mark.parametrize(
    "renamed, message",
    [
        # " +1" and "٤" were read as 1 and 4, and to-tableau printed 123
        ({"1": " +1", "4": "\u0664"}, "rotation key ' +1' must be written '1'"),
        ({"4": "04"}, "rotation key '04' must be written '4'"),
    ],
)
def test_rotation_keys_are_plain_integers(capsys, tmp_path, argv, renamed, message):
    web = tripod().to_dict()
    web["rotation"] = {renamed.get(v, v): ds for v, ds in web["rotation"].items()}
    src = tmp_path / "bad.json"
    src.write_text(json.dumps(web))
    code, out, err = run(capsys, *argv, "--in", str(src))
    assert (code, out) == (1, "")
    assert err == f"MalformedInput: {src}: ValueError: {message}\n"


def test_split_vertex_is_named(capsys, tmp_path):
    # two spellings of vertex 4 used to merge and fail as uncovered darts
    web = tripod().to_dict()
    assert web["rotation"]["4"] == [1, 3, 5]
    web["rotation"].update({"4": [1, 5], "04": [3]})
    src = tmp_path / "bad.json"
    src.write_text(json.dumps(web))
    code, out, err = run(capsys, "web3", "to-tableau", "--in", str(src))
    assert (code, out) == (1, "")
    assert err == f"MalformedInput: {src}: ValueError: rotation key '04' must be written '4'\n"


def test_layout_keys_are_plain_integers(capsys, tmp_path):
    web = web_of_tableau(from_word("123")).to_dict()
    web["layout"]["+1"] = web["layout"].pop("1")
    src = tmp_path / "bad.json"
    src.write_text(json.dumps(web))
    code, out, err = run(capsys, "render", "--in", str(src))
    assert (code, out) == (1, "")
    assert err == f"MalformedInput: {src}: ValueError: layout key '+1' must be written '1'\n"


def test_render_keeps_an_internal_vertex_without_web_edges(capsys, tmp_path):
    src = tmp_path / "w.json"
    src.write_text(json.dumps({
        "n": 3,
        "edges": [{"from": k, "to": k % 3 + 1, "tag": "boundary"} for k in (1, 2, 3)],
        "rotation": {"1": [0, 5], "2": [1, 2], "3": [3, 4], "4": []},
    }))
    code, out, _ = run(capsys, "render", "--in", str(src))
    assert code == 0 and out.startswith("<svg")


def test_bad_worker_count_exits_one(capsys, monkeypatch):
    monkeypatch.setenv("WEBFOLD_WORKERS", "many")
    code, _, err = run(capsys, "verify", "--theorem", "thm-2byn", "--max-n", "2")
    assert code == 1 and err.startswith("InvalidWorkerCount: ")


# random JSON for the --in readers: valid payloads with a few fields edited,
# and fields replaced by arbitrary JSON
JUNK = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 20) | st.floats(allow_nan=False)
    | st.text(max_size=4),
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(st.text(max_size=3), kids, max_size=3),
    max_leaves=5,
)
LABELS = st.sampled_from(["0", "1", "2", "3", "4", "5", "1'", "2'"])
ABSCISSAS = (
    st.integers(-9, 9)
    | st.builds(lambda p, q: f"{p}/{q}", st.integers(-9, 9), st.integers(-2, 5))
    | st.sampled_from(["1e400", "-1e400", "1e-400", "0.5", "nan", "inf", "-0"])
)


def maybe(strategy):
    """Values of the strategy three times in four, arbitrary JSON otherwise."""
    return st.one_of(strategy, strategy, strategy, JUNK)


@st.composite
def diagram_payloads(draw):
    vertex = st.fixed_dictionaries({"label": maybe(LABELS), "x": maybe(ABSCISSAS)})
    arc = st.fixed_dictionaries(
        {"tail": maybe(LABELS), "head": maybe(LABELS)},
        optional={"kind": maybe(st.sampled_from(["first", "second"])), "crossed": maybe(st.booleans())},
    )
    return {"boundary": draw(st.lists(maybe(vertex), max_size=7)), "arcs": draw(st.lists(maybe(arc), max_size=5))}


@st.composite
def web_payloads(draw):
    d = web_of_tableau(from_word(draw(st.sampled_from(["123", "112233", "121323", "112323"])))).to_dict()
    darts = 2 * len(d["edges"])
    small = st.integers(-1, darts + 1)
    for _ in range(draw(st.integers(0, 3))):
        edit = draw(st.sampled_from(["n", "edge", "tag", "rotation", "shuffle", "layout", "drop"]))
        if edit == "n":
            d["n"] = draw(maybe(st.integers(-1, 12)))
        elif edit == "edge" and d.get("edges"):
            e = draw(st.sampled_from(d["edges"]))
            e[draw(st.sampled_from(["from", "to", "tag"]))] = draw(maybe(small))
        elif edit == "tag" and d.get("edges"):
            e = draw(st.sampled_from(d["edges"]))
            e["tag"] = draw(st.sampled_from(["arc", "intersection", "boundary"]))
        elif edit == "rotation" and d.get("rotation"):
            v = draw(st.sampled_from(sorted(d["rotation"])) | st.integers(0, 20).map(str))
            d["rotation"][v] = draw(maybe(st.lists(small, max_size=4)))
        elif edit == "shuffle" and d.get("rotation"):
            v = draw(st.sampled_from(sorted(d["rotation"])))
            if isinstance(d["rotation"][v], list):
                d["rotation"][v] = draw(st.permutations(d["rotation"][v]))
        elif edit == "layout" and d.get("layout"):
            v = draw(st.sampled_from(sorted(d["layout"])))
            d["layout"][v] = draw(maybe(st.lists(maybe(ABSCISSAS), min_size=2, max_size=2)))
        elif edit == "drop" and d:
            del d[draw(st.sampled_from(sorted(d)))]
    return d


@st.composite
def tableau_payloads(draw):
    d = from_word(draw(st.sampled_from(["", "1", "123", "1122", "112233", "121323", "11212", "111222333"]))).to_dict()
    letters = st.text(alphabet="0123456789\u0661\u00b2a", max_size=9)
    for _ in range(draw(st.integers(0, 3))):
        edit = draw(st.sampled_from(["word", "outer", "inner", "drop"]))
        if edit == "word":
            d["word"] = draw(maybe(letters))
        elif edit == "outer":
            d["outer"] = draw(maybe(st.lists(st.integers(-1, 5), max_size=4)))
        elif edit == "inner":
            d["inner"] = draw(maybe(st.lists(st.integers(-1, 5), max_size=4)))
        elif edit == "drop" and d:
            del d[draw(st.sampled_from(sorted(d)))]
    return d


@st.composite
def matching_payloads(draw):
    d = web2_of_tableau(from_word(draw(st.sampled_from(["12", "1122", "1212", "112122", "121212"])))).to_dict()
    for _ in range(draw(st.integers(0, 3))):
        edit = draw(st.sampled_from(["n", "end", "arcs", "drop"]))
        if edit == "n":
            d["n"] = draw(maybe(st.integers(-1, 6)))
        elif edit == "end" and isinstance(d.get("arcs"), list) and d["arcs"]:
            arc = draw(st.sampled_from(d["arcs"]))
            if isinstance(arc, list) and arc:
                arc[draw(st.integers(0, len(arc) - 1))] = draw(maybe(st.integers(-1, 9)))
        elif edit == "arcs":
            d["arcs"] = draw(maybe(st.lists(maybe(st.lists(st.integers(-1, 9), max_size=3)), max_size=4)))
        elif edit == "drop" and d:
            del d[draw(st.sampled_from(sorted(d)))]
    return d


OPS = [("op", "--apply", name) for name in sorted(cli.OPERATORS)]


@settings(max_examples=400, deadline=None)
@given(
    st.one_of(
        st.tuples(st.just(("render",)), diagram_payloads()),
        st.tuples(st.sampled_from([("render",), ("web3", "to-tableau"), ("web3", "to-domino")]), web_payloads()),
        st.tuples(st.sampled_from(OPS), tableau_payloads()),
        st.tuples(st.sampled_from([("web2", "to-tableau"), ("web2", "fold")]), matching_payloads()),
        st.tuples(
            st.sampled_from([("render",), ("web3", "to-tableau"), ("web3", "to-domino"), ("web2", "to-tableau"), *OPS]),
            JUNK,
        ),
    )
)
def test_in_readers_exit_zero_or_name_the_error(tmp_path_factory, case):
    command, payload = case
    src = tmp_path_factory.mktemp("fuzz") / "in.json"
    src.write_text(json.dumps(payload))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([*command, "--in", str(src)])
    if code == 0:
        assert err.getvalue() == "" and out.getvalue()
    else:
        assert code == 1
        assert re.fullmatch(r"[A-Za-z]+: [^\n]*\n", err.getvalue()), err.getvalue()
