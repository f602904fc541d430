"""Which modules a one-shot CLI call loads, and what the benchmark imports.

Each loading case runs in a fresh interpreter, since this test process
has long since imported the whole package.  `random` and `typing` are not
checked: `site` may load them before any webfold code runs.  Every module
loads `_value`, the base of the value classes.
"""

import ast
import builtins
import importlib
import inspect
import json
import os
import re
import subprocess
import sys
import typing
from pathlib import Path

import pytest

from webfold.tableaux import from_word
from webfold.web3 import web_of_tableau

SRC = Path(__file__).resolve().parent.parent / "src"
PERFBENCH = SRC.parent / "perfbench"

CALL_CLI = """
import contextlib, io, sys
from webfold import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(sys.argv[1:])
print(*sys.modules)
sys.exit(code)
"""

IMPORT_ORACLE = """
import sys
import typing
import webfold.oracle
print(*sys.modules)
"""


def loaded_after(code: str, *argv: str) -> set[str]:
    """The modules a fresh interpreter holds after running code, which must exit 0."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("WEBFOLD_WORKERS", None)
    done = subprocess.run([sys.executable, "-c", code, *argv], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    return set(done.stdout.split())


def webfold_modules(modules: set[str]) -> set[str]:
    return {m.removeprefix("webfold.") for m in modules if m.startswith("webfold.")}


def test_op_loads_only_tableaux():
    modules = loaded_after(CALL_CLI, "op", "--apply", "promote", "--word", "112233")
    assert webfold_modules(modules) == {"_value", "cli", "errors", "tableaux"}
    assert not modules & {"concurrent.futures", "fractions", "hashlib"}


@pytest.mark.parametrize(
    "argv, expected",
    [
        (
            ["web2", "from-tableau", "--word", "112212"],
            {"_value", "cli", "errors", "tableaux", "matchings"},
        ),
        (
            ["web2", "from-tableau", "--word", "112212", "--format", "svg"],
            {"_value", "cli", "errors", "tableaux", "matchings", "mdiagram", "planarweb", "render"},
        ),
        (
            ["web3", "to-tableau", "--in", "{web}"],
            {"_value", "cli", "errors", "tableaux", "mdiagram", "planarweb", "web3"},
        ),
    ],
)
def test_web_commands_load_what_they_run(tmp_path, argv, expected):
    web = tmp_path / "w.json"
    web.write_text(json.dumps(web_of_tableau(from_word("112233")).to_dict()))
    modules = loaded_after(CALL_CLI, *(a.format(web=web) for a in argv))
    assert webfold_modules(modules) == expected
    assert "concurrent.futures" not in modules


IMPORT_WEB_BUILDER = """
import sys
import webfold.tableaux, webfold.web3, webfold.planarweb
print(*sys.modules)
"""

# standard-library modules that only reading or writing JSON and exact
# drawing coordinates use; decimal comes with fractions
DEFERRED = {"json", "fractions", "decimal"}


@pytest.mark.parametrize(
    "code, argv",
    [
        (IMPORT_ORACLE, []),
        (IMPORT_WEB_BUILDER, []),
        (CALL_CLI, ["op", "--apply", "promote", "--word", "112233"]),
    ],
    ids=["oracle", "web-builder", "op-word"],
)
def test_sweeps_and_word_calls_load_no_json_or_fractions(code, argv):
    """A sweep's imports, the web builder's and a --word call that prints a
    word load none of DEFERRED beyond what a bare interpreter holds, which
    depends on what `site` loads."""
    bare = loaded_after("import sys\nprint(*sys.modules)")
    assert loaded_after(code, *argv) & DEFERRED <= bare


def test_web_json_loads_fractions():
    """The web's JSON carries its layout, exact coordinates built on demand."""
    modules = loaded_after(CALL_CLI, "web3", "from-tableau", "--word", "112233")
    assert {"json", "fractions"} <= modules


VERIFY = """
import sys
from webfold.oracle import verify
suites = sys.argv[1:]
for theorem, bound in zip(suites[::2], suites[1::2]):
    assert verify(theorem, int(bound)).passed, theorem
print(*sys.modules)
"""

TABLEAU_LAYER = {"_value", "errors", "tableaux"}
WEB_3ROW = {"mdiagram", "planarweb", "web3"}


@pytest.mark.parametrize(
    "code, argv, expected",
    [
        (VERIFY, ["promotion-order", "3", "fold-domino", "3"], TABLEAU_LAYER | {"oracle"}),
        (
            CALL_CLI,
            ["enumerate", "--shape", "3x3", "--filter", "domino"],
            TABLEAU_LAYER | {"cli", "oracle"},
        ),
        (
            CALL_CLI,
            ["verify", "--theorem", "fold-domino", "--max-n", "2"],
            TABLEAU_LAYER | {"cli", "oracle"},
        ),
        (VERIFY, ["roundtrip-3web", "2"], TABLEAU_LAYER | WEB_3ROW | {"oracle"}),
        (IMPORT_WEB_BUILDER, [], TABLEAU_LAYER | WEB_3ROW),
        (VERIFY, ["thm-2byn", "4"], TABLEAU_LAYER | {"matchings", "oracle"}),
        (
            VERIFY,
            ["thm-fw1", "3", "distance-lemmas", "2", "block-patterns", "2"],
            TABLEAU_LAYER | WEB_3ROW | {"oracle"},
        ),
        (VERIFY, ["promotion-rotation", "3"], TABLEAU_LAYER | WEB_3ROW | {"matchings", "oracle"}),
    ],
    ids=[
        "tableau-suites", "enumerate", "verify-fold-domino", "roundtrip-3web", "web-builder",
        "thm-2byn", "3-row-web-suites", "promotion-rotation",
    ],
)
def test_the_web_layer_loads_only_where_webs_are_built(code, argv, expected):
    """Each suite loads the modules its check imports: the tableau suites
    and enumeration load no web module, the 2-row suite only `matchings`,
    the 3-row web suites and the 3-row web builder no 2-row module, and a
    suite over both row counts all four."""
    assert webfold_modules(loaded_after(code, *argv)) == expected


POOLED_SWEEP = """
import multiprocessing, os, sys
from webfold.oracle import verify
multiprocessing.set_start_method(sys.argv[1])
os.environ["WEBFOLD_WORKERS"] = "2"
pooled = verify("thm-fw1", 4).to_dict()
del os.environ["WEBFOLD_WORKERS"]
serial = verify("thm-fw1", 4).to_dict()
assert serial["passed"] and serial["instances"] > 0, serial
assert pooled == serial, pooled
"""


@pytest.mark.parametrize("start", ["fork", "spawn"])
def test_a_pool_started_before_any_web_is_built_reports_as_a_serial_sweep(start):
    """In an interpreter that has imported only the oracle, a web suite
    over two worker processes, run first, reports what it does serially:
    each worker, forked or spawned, loads the web modules the check
    imports on its first check."""
    loaded_after(POOLED_SWEEP, start)


def test_oracle_loads_no_process_pool():
    modules = loaded_after(IMPORT_ORACLE)
    assert "concurrent.futures" not in modules
    assert not modules & {"dataclasses", "inspect"}


# dataclasses loads inspect, and inspect loads ast, dis and tokenize
@pytest.mark.parametrize(
    "argv",
    [
        ["op", "--apply", "promote", "--word", "112233"],
        ["web2", "from-tableau", "--word", "112212"],
        ["web3", "from-tableau", "--word", "112233"],
        ["render", "--in", "{web}"],
        ["enumerate", "--shape", "3x2"],
        ["verify", "--theorem", "thm-fw1", "--max-n", "2"],
    ],
    ids=lambda argv: argv[0],
)
def test_cli_calls_load_no_dataclasses(tmp_path, argv):
    web = tmp_path / "w.json"
    web.write_text(json.dumps(web_of_tableau(from_word("112233")).to_dict()))
    modules = loaded_after(CALL_CLI, *(a.format(web=web) for a in argv))
    assert not modules & {"dataclasses", "inspect"}


def test_no_module_imports_dataclasses_or_runs_generated_code():
    for path in sorted((SRC / "webfold").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                assert "dataclasses" not in [alias.name for alias in node.names], path.name
            elif isinstance(node, ast.ImportFrom):
                assert node.module != "dataclasses", path.name
            elif isinstance(node, ast.Call):
                assert getattr(node.func, "id", None) not in ("exec", "eval"), path.name


def perfbench_imports(script: str) -> list[tuple[str, str]]:
    """The (module, name) pairs a perfbench script imports from webfold, read by AST."""
    imported = []
    for node in ast.walk(ast.parse((PERFBENCH / script).read_text())):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("webfold."):
            imported += [(node.module, alias.name) for alias in node.names]
    return imported


def perfbench_layers() -> dict[str, tuple[str, ...]]:
    """perfbench/tracing.py's LAYERS, the functions it wraps per module, read by AST."""
    tree = ast.parse((PERFBENCH / "tracing.py").read_text())
    (layers,) = [
        node.value for node in tree.body
        if isinstance(node, ast.AnnAssign) and getattr(node.target, "id", None) == "LAYERS"
    ]
    return ast.literal_eval(layers)


def test_perfbench_names_resolve():
    """Every name perfbench imports from webfold exists, and every name it
    traces is a function defined in the module it is listed under."""
    imported = perfbench_imports("workloads.py") + perfbench_imports("cli_entry.py")
    assert len(imported) > 20
    for module, name in imported:
        assert hasattr(importlib.import_module(module), name), f"{module}.{name}"

    traced = perfbench_layers()
    assert "mdiagram" in traced and "web3" in traced
    for module, names in traced.items():
        mod = importlib.import_module(f"webfold.{module}")
        for name in names:
            fn = getattr(mod, name, None)
            assert inspect.isfunction(fn) and fn.__module__ == mod.__name__, f"{module}.{name}"


def test_perfbench_selftest_passes():
    """The benchmark's own helper tests pass against this tree."""
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONDONTWRITEBYTECODE="1")
    env.pop("WEBFOLD_WORKERS", None)
    done = subprocess.run(
        [sys.executable, str(PERFBENCH / "selftest.py")], env=env, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr


TRACED_SWEEP = """
import sys
sys.path.insert(0, sys.argv[1])
import tracing
from webfold.oracle import verify
untraced = verify("promotion-order", 3)
rec = tracing.Recorder()
tracing.install(rec)
assert verify("promotion-order", 3) == untraced
calls = rec.totals().get("tableaux.rectify", {}).get("calls", 0)
assert calls == 507, calls
"""


def test_the_tracer_sees_the_rectification_the_sweep_runs():
    """The perfbench tracer wraps `rectify` by name, so the rectification
    that promotion-order runs, one per k of each tableau, shows as its
    span, and tracing leaves the report as it was."""
    loaded_after(TRACED_SWEEP, str(PERFBENCH))


def test_readme_names_resolve():
    """Every backticked `Name`, `Name.attr` or `Name(...)` in the README, a
    capitalised identifier, is a builtin or an attribute of some webfold
    module, and `Name.attr` an attribute of that class.  All-caps names are
    environment variables; a token with a space is prose or a command."""
    names = [f"webfold.{p.stem}".removesuffix(".__init__") for p in (SRC / "webfold").glob("*.py")]
    modules = [importlib.import_module(name) for name in names]
    readme = re.sub(r"```.*?```", "", (SRC.parent / "README.md").read_text(), flags=re.S)
    checked = 0
    for token in re.findall(r"`([^`]+)`", readme):
        found = re.fullmatch(r"([A-Z]\w*)(?:\.(\w+))?(?:\(.*\))?", token)
        if " " in token or not found or found[1].isupper():
            continue
        name, attr = found.groups()
        owners = [getattr(m, name) for m in [builtins, *modules] if hasattr(m, name)]
        assert owners, token
        assert attr is None or any(hasattr(o, attr) for o in owners), token
        checked += 1
    assert checked > 30


def test_family_table_holds_the_oracle_functions():
    """Each family is the oracle function of the same name, since the
    perfbench tracer swaps module attributes and dict values by identity;
    its names are the predicates that `enumerate --filter` offers and its
    help prints.  Each yields tableaux, each the one from_word decodes from
    its word."""
    from webfold import oracle
    from webfold.tableaux import PREDICATES, Tableau, from_word

    for family, walk in oracle._FAMILIES.items():
        assert getattr(oracle, walk.__name__) is walk, family
        listed = list(walk((3, 3, 3)))
        assert listed, family
        for t in listed:
            assert type(t) is Tableau, family
            assert t == from_word(t.word), family
    assert tuple(oracle._FAMILIES) == PREDICATES


# every function that builds a value without the checks its entry points run,
# by calling tableaux._unchecked, object.__new__, MDiagram(...) or Matching2(...)
UNCHECKED_BUILDERS = {
    "tableaux._unchecked",
    "tableaux.from_word",
    "tableaux.restrict_le",
    "tableaux.restrict_gt",
    "tableaux.rectify",
    "tableaux._slide_forward",
    "tableaux._bender_knuth",
    "tableaux.rotate180_complement",
    # the lattice walk's rows, standard by construction
    "oracle._lattice_tableaux",
    "oracle._symmetric_tableaux",
    "mdiagram.MDiagram.from_dict",
    "web3.mdiagram_of_tableau",
    "web3.crossed_mdiagram",
    "matchings.Matching2.from_dict",
    "matchings.web2_of_tableau",
    "matchings.rotate2",
    "matchings.reflect2",
    "matchings.fold2",
}


def test_unchecked_construction_stays_where_it_is():
    """A new caller of the unchecked constructors must be added here on
    purpose, so that no entry point skips the checks unnoticed."""
    unchecked = {"_unchecked", "MDiagram", "Matching2", "__new__"}
    found = set()
    for path in sorted((SRC / "webfold").glob("*.py")):
        tree = ast.parse(path.read_text())
        scopes = [(path.stem, node) for node in tree.body]
        scopes += [
            (f"{path.stem}.{node.name}", method)
            for node in tree.body if isinstance(node, ast.ClassDef)
            for method in node.body
        ]
        for prefix, fn in scopes:
            if not isinstance(fn, ast.FunctionDef):
                continue
            own = unchecked | ({"cls"} if prefix.endswith((".MDiagram", ".Matching2")) else set())
            for node in ast.walk(fn):
                func = getattr(node, "func", None)
                name = getattr(func, "id", None) or getattr(func, "attr", None)
                if isinstance(node, ast.Call) and name in own:
                    found.add(f"{prefix}.{fn.name}")
    assert found == UNCHECKED_BUILDERS


# public functions and classes that no code of the package refers to, each
# with its module and its keeper: "workloads", perfbench/workloads.py imports
# it; "tracing", perfbench/tracing.py's LAYERS wraps it.  A reference that
# only the tests compare against lives in tests/reference.py, not here.
UNCALLED = {
    # the diagram that web_of_tableau resolves without building; a test
    # checks that both give the same web
    "mdiagram_of_tableau": ("web3", "tracing"),
    "EnumerationFilter": ("oracle", "workloads"),
    "enumerate_tableaux": ("oracle", "workloads"),
}


def test_uncalled_names_have_their_keepers():
    """Each UNCALLED name is still held by the keeper its entry names, so
    that when a keeper lets go, the entry that can leave is named."""
    imported = perfbench_imports("workloads.py")
    traced = perfbench_layers()
    for name, (module, keeper) in UNCALLED.items():
        held = {
            "workloads": (f"webfold.{module}", name) in imported,
            "tracing": name in traced.get(module, ()),
        }[keeper]
        assert held, f"{module}.{name} is no longer held by {keeper}"


def _names_outside_annotations(node: ast.AST) -> list[str]:
    """Every name, attribute and identifier-like string in node, outside
    its annotations.  A string counts, since oracle's _WEB_MAPS names web
    maps by string, and the CLI names the render function cli._emit_drawing
    draws with by string; an annotation does not, since it calls nothing."""
    typed = set()
    for sub in ast.walk(node):
        if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = sub.args
            every = args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg]
            hints = [a.annotation for a in every if a is not None] + [sub.returns]
        elif isinstance(sub, ast.AnnAssign):
            hints = [sub.annotation]
        else:
            continue
        typed.update(id(n) for hint in hints if hint is not None for n in ast.walk(hint))
    names = []
    for sub in ast.walk(node):
        if id(sub) in typed:
            continue
        if isinstance(sub, ast.Name):
            names.append(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.append(sub.attr)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str) and sub.value.isidentifier():
            names.append(sub.value)
    return names


def test_every_public_name_is_called():
    """Every top-level public function and class of the package is named
    somewhere in the package outside its own definition and annotations,
    or is listed in UNCALLED; every name listed there exists and is named
    nowhere, so the table cannot go stale."""
    defined, named = {}, set()
    for path in sorted((SRC / "webfold").glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            own = None
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                own = node.name
                defined[own] = path.stem
            named.update(set(_names_outside_annotations(node)) - {own})
    uncalled = {name: module for name, module in defined.items() if name not in named}
    assert uncalled == {name: module for name, (module, _) in UNCALLED.items()}


def test_every_annotation_resolves():
    """typing.get_type_hints reads every function and method of the package:
    each name an annotation uses is one its module defines or imports."""
    functions = []
    for path in sorted((SRC / "webfold").glob("*.py")):
        mod = importlib.import_module(f"webfold.{path.stem}")
        for obj in vars(mod).values():
            if getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isclass(obj):
                for member in vars(obj).values():
                    member = getattr(member, "__func__", getattr(member, "func", member))
                    functions.append(getattr(member, "fget", member))
            functions.append(obj)
    functions = [f for f in functions if inspect.isfunction(f)]
    assert len(functions) > 150
    for fn in functions:
        try:
            typing.get_type_hints(fn)
        except NameError as exc:
            pytest.fail(f"{fn.__module__}.{fn.__qualname__}: {exc}")
