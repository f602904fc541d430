"""Spans around the public functions of each webfold layer.

`install` replaces every binding of a listed function in every loaded
`webfold.*` module with a wrapper that records a span.  Modules import
by name (`from .planarweb import faces`), so patching only the defining
module would miss most calls; module-level dicts of functions, such as
the CLI's operator table, are patched too.

Spans live in memory as parallel integer arrays and are written out
once, at the end of the run.  A generator returned by a wrapped function
(enumerate_words returns one) is drained inside the span, so the span
covers the work of producing every item; its callers consume every item
anyway.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from types import GeneratorType

from common import self_times

LAYERS: dict[str, tuple[str, ...]] = {
    "tableaux": (
        "from_word", "promote", "evacuate", "partial_fold", "fold", "unfold",
        "rectify", "restrict_le", "restrict_gt", "is_rotationally_symmetric", "is_domino",
    ),
    "mdiagram": (
        "resolve", "crossings", "arc_distance", "coherent_separators", "reflected_face", "epsilon",
    ),
    "planarweb": (
        "faces", "exterior_face", "boundary_face", "web_distance", "validate_3web",
        "canonical", "rotate", "reflect",
    ),
    "web3": (
        "mdiagram_of_tableau", "web_of_tableau", "tableau_of_web",
        "domino_of_symmetric_web", "decompose_blocks", "crossed_web",
    ),
    "oracle": ("enumerate_words", "verify"),
    "matchings": (
        "web2_of_tableau", "tableau_of_web2", "rotate2", "reflect2", "is_symmetrical2", "fold2",
    ),
    "render": ("svg_of_web", "svg_of_json"),
}

# matchings is reported as one aggregate; verify as wall time per suite
AGGREGATED = {"matchings"}
SUITES = ("roundtrip-3web", "thm-fw1", "thm-fw2", "distance-lemmas", "promotion-order", "fold-domino")
CLI_COMMANDS = ("op", "web2", "web3", "render", "enumerate", "verify")


def layer_metric_names() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    out = []
    for module, functions in LAYERS.items():
        if module in AGGREGATED:
            out += [(f"{module}.calls", "count", "lower"), (f"{module}.self_s", "s", "lower")]
            continue
        for fn in functions:
            if (module, fn) == ("oracle", "verify"):
                out += [(f"oracle.verify.{s}.s", "s", "lower") for s in SUITES]
                continue
            out += [(f"{module}.{fn}.calls", "count", "lower"), (f"{module}.{fn}.self_s", "s", "lower")]
    out += [
        ("planarweb.faces.calls_per_instance", "count", "lower"),
        ("mdiagram.resolve.repeat_ratio", "ratio", "lower"),
    ]
    out += [(f"cli.{c}.p50_ms", "ms", "lower") for c in CLI_COMMANDS]
    out += [
        ("cli.import_s", "s", "lower"),
        ("cli_p50_ms", "ms", "lower"),
        ("cli_p90_ms", "ms", "lower"),
        ("trace.overhead_ratio", "ratio", "lower"),
    ]
    return out


class Recorder:
    """In-memory span store: name, start, end, parent and instance per span."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("q")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.instance = array("q")
        self.current_instance = 0
        self._stack = [-1]
        self.resolve_calls = 0
        self.resolve_repeats = 0
        self._resolved: set = set()

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, name: str, fn):
        nid = self._name_id(name)
        rec = self
        stack = self._stack
        clock = time.perf_counter_ns

        if name == "oracle.verify":
            def span_name(args, kwargs):
                theorem = args[0] if args else kwargs.get("theorem_id")
                return rec._name_id(f"oracle.verify.{theorem}")
        else:
            span_name = None
        track_repeats = name == "mdiagram.resolve"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if track_repeats:
                rec.note_resolve(args[0] if args else kwargs["m"])
            idx = len(rec.start)
            rec.name.append(nid if span_name is None else span_name(args, kwargs))
            rec.parent.append(stack[-1])
            rec.instance.append(rec.current_instance)
            rec.end.append(0)
            stack.append(idx)
            rec.start.append(clock())
            try:
                result = fn(*args, **kwargs)
                return iter(list(result)) if isinstance(result, GeneratorType) else result
            finally:
                rec.end[idx] = clock()
                stack.pop()

        return traced

    def note_resolve(self, diagram) -> None:
        self.resolve_calls += 1
        if diagram in self._resolved:
            self.resolve_repeats += 1
        else:
            self._resolved.add(diagram)

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: number of calls, self seconds and wall seconds."""
        spans = list(zip(self.start, self.end, self.parent))
        own = self_times(spans)
        out: dict[str, dict[str, float]] = {}
        for i, nid in enumerate(self.name):
            entry = out.setdefault(self.names[nid], {"calls": 0, "self_s": 0.0, "wall_s": 0.0})
            entry["calls"] += 1
            entry["self_s"] += own[i] / 1e9
            entry["wall_s"] += (self.end[i] - self.start[i]) / 1e9
        return out

    def write_spans(self, path: str) -> None:
        """One tab-separated line per span: name, start_ns, end_ns, parent, instance."""
        with open(path, "w") as f:
            f.write("name\tstart_ns\tend_ns\tparent\tinstance\n")
            for i, nid in enumerate(self.name):
                f.write(
                    f"{self.names[nid]}\t{self.start[i]}\t{self.end[i]}\t"
                    f"{self.parent[i]}\t{self.instance[i]}\n"
                )


def install(rec: Recorder) -> None:
    """Wrap every binding of every listed function in every loaded webfold module."""
    modules = {name: mod for name, mod in sys.modules.items() if name.startswith("webfold")}
    originals = {}
    for module, functions in LAYERS.items():
        mod = modules.get(f"webfold.{module}")
        if mod is None:
            continue
        for fn in functions:
            original = getattr(mod, fn)
            originals[id(original)] = rec.wrap(f"{module}.{fn}", original)
    for mod in modules.values():
        for attr, value in list(vars(mod).items()):
            if id(value) in originals and callable(value):
                setattr(mod, attr, originals[id(value)])
            elif isinstance(value, dict):
                for key, item in list(value.items()):
                    if callable(item) and id(item) in originals:
                        value[key] = originals[id(item)]


def layer_totals(totals: dict[str, dict[str, float]]) -> dict[str, float]:
    """Fold per-span totals into the per-layer metric values (calls and self_s)."""
    out: dict[str, float] = {}
    for module, functions in LAYERS.items():
        if module in AGGREGATED:
            calls = sum(totals.get(f"{module}.{fn}", {}).get("calls", 0) for fn in functions)
            own = sum(totals.get(f"{module}.{fn}", {}).get("self_s", 0.0) for fn in functions)
            out[f"{module}.calls"] = calls
            out[f"{module}.self_s"] = own
            continue
        for fn in functions:
            if (module, fn) == ("oracle", "verify"):
                for s in SUITES:
                    out[f"oracle.verify.{s}.s"] = totals.get(f"oracle.verify.{s}", {}).get("wall_s", 0.0)
                continue
            entry = totals.get(f"{module}.{fn}", {})
            out[f"{module}.{fn}.calls"] = entry.get("calls", 0)
            out[f"{module}.{fn}.self_s"] = entry.get("self_s", 0.0)
    return out
