import json

import pytest

from webfold import cli
from webfold.cli import main
from webs import tripod

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


def test_domain_errors_exit_one(capsys):
    code, _, err = run(capsys, "op", "--apply", "promote", "--word", "21")
    assert code == 1 and "NonLatticeWord" in err
    code, _, err = run(capsys, "verify", "--theorem", "thm-nope")
    assert code == 1 and "UnknownTheorem" in err
    for bound in ("20", "1000000000"):
        code, _, err = run(capsys, "verify", "--theorem", "thm-2byn", "--max-n", bound)
        assert code == 1 and "BoundTooLarge" in err
    for shape in ("3x8", "3x30", "2x1000000000"):
        code, _, err = run(capsys, "enumerate", "--shape", shape)
        assert code == 1 and err.startswith(f"BoundTooLarge: enumerate --shape {shape} ")
    code, _, err = run(capsys, "web3", "to-domino", "--in", "/nonexistent.json")
    assert code == 1


def test_enumerate_checks_the_word_limit_before_listing(monkeypatch):
    def no_enumeration(filt):
        raise AssertionError(f"enumerated {filt.shape.outer}")

    monkeypatch.setattr(cli, "enumerate_tableaux", no_enumeration)
    with pytest.raises(AssertionError, match="enumerated"):
        main(["enumerate", "--shape", "3x7"])


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
    ],
)
def test_malformed_json_exits_one(capsys, tmp_path, argv, payload):
    src = tmp_path / "bad.json"
    src.write_text(json.dumps(payload))
    code, out, err = run(capsys, *argv, "--in", str(src))
    assert (code, out) == (1, "")
    assert err.startswith("MalformedInput: ") and err.count("\n") == 1


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
