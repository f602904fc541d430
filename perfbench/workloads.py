"""Workload bodies, run in a fresh interpreter started by run.py.

    python3 perfbench/workloads.py run WORKLOAD --seed N --seconds S --trace 0|1 --spans PATH
    python3 perfbench/workloads.py cli-plan --seed N --dir DIR

`run` prints one JSON object describing the timed pass.  `cli-plan` builds the
inputs and library-computed expected outputs of the CLI mix.

The parent sets PYTHONPATH to the checkout's `src`; each mode refuses to
run against a webfold imported from anywhere else.
"""

from __future__ import annotations

import argparse
import bisect
import importlib
import json
import os
import random
import resource
import signal
import statistics
import sys
import time

import common

# the webfold modules each workload uses; probe.py times importing them
IMPORTS = {
    "sweep-webs": ("webfold.oracle",),
    "sweep-tableaux": ("webfold.oracle",),
    "webs-build-n6": ("webfold.tableaux", "webfold.web3", "webfold.planarweb"),
    "cli-oneshot": ("webfold.cli",),
}

# webs-build-n6 checks WORDS_PER_SECOND x --seconds words (about --seconds of work
# here) and reports the median rate over chunks of CHUNK_WORDS words, which
# shrugs off the seconds-long slow spells of a shared machine
WORDS_PER_SECOND = 200
CHUNK_WORDS = 50
# seconds between two passes of the yardstick; one pass takes about 3 ms, so
# it adds about 3% and gives 150 passes in 15 s of work
SAMPLE_EVERY_S = 0.1


def import_workload(workload: str) -> None:
    for name in IMPORTS[workload]:
        importlib.import_module(name)
    import webfold

    src = os.path.realpath(os.environ["PERFBENCH_SRC"])
    if not os.path.realpath(webfold.__file__).startswith(src + os.sep):
        sys.exit(f"webfold was imported from {webfold.__file__}, not from {src}")


def cpu_seconds() -> float:
    """CPU seconds of this process and its reaped children, so work handed to worker processes counts."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


class SpeedSampler:
    """Calibrates the workload's CPU time by the in-process yardstick (common.reference_cpu_s).

    Every SAMPLE_EVERY_S, SIGALRM breaks into the workload between two
    bytecodes of the main thread and times one pass of the yardstick: on
    the same core, right after the work it calibrates.  One more pass runs
    on entering and one on leaving.  The work done between two passes is
    scaled by REFERENCE_S over the time of the pass that ends it, which maps
    the workload's CPU seconds to calibrated seconds.  Each tenth of a
    second of work gets its own pass because the host's speed changes
    within seconds (see the comment above common.REFERENCE_SHAPE).

    The timer counts wall time: while a CPU-time timer (ITIMER_PROF) is
    armed, Linux advances the process CPU clock only at scheduler ticks,
    too coarse for 3 ms passes.  The passes' own CPU and wall time are
    summed so that they can be taken out of the workload's.  A disabled
    sampler (traced runs, whose spans must not hold yardstick time) maps
    every time to itself.
    """

    WARM_UP_PASSES = 3

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.samples: list[float] = []  # seconds of each timed pass
        self.work: list[float] = []  # work_cpu_s() just before each timed pass
        self.passes_cpu_s = 0.0
        self.passes_wall_s = 0.0
        self._busy = False

    def _pass(self, signum=None, frame=None, record: bool = True) -> None:
        if self._busy:  # a timer that fires during a pass is dropped
            return
        self._busy = True
        wall, cpu = time.perf_counter(), time.process_time()
        work = self.work_cpu_s()
        reference = common.reference_cpu_s()
        if record:
            self.work.append(work)
            self.samples.append(reference)
        self.passes_cpu_s += time.process_time() - cpu
        self.passes_wall_s += time.perf_counter() - wall
        self._busy = False

    def __enter__(self) -> "SpeedSampler":
        if self.enabled:
            for _ in range(self.WARM_UP_PASSES):
                self._pass(record=False)
            self._pass()
            signal.signal(signal.SIGALRM, self._pass)
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        if self.enabled:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)
            self._pass()

    def work_cpu_s(self) -> float:
        """cpu_seconds() without the passes so far."""
        while True:  # a pass that runs between the two reads would be counted wrong
            before = self.passes_cpu_s
            now = cpu_seconds()
            if self.passes_cpu_s == before:
                return now - before

    def calibrated(self, start: float, end: float) -> float:
        """Calibrated seconds of the work between two work_cpu_s() readings taken inside the sampler."""
        if not self.enabled:
            return end - start
        return self._calibrated_at(end) - self._calibrated_at(start)

    def _calibrated_at(self, work: float) -> float:
        # segment i runs from pass i-1 to pass i and is scaled by pass i
        i = min(max(bisect.bisect_left(self.work, work), 1), len(self.work) - 1)
        done = sum(
            common.calibrated(self.work[j] - self.work[j - 1], [self.samples[j]]) for j in range(1, i)
        )
        return done + common.calibrated(work - self.work[i - 1], [self.samples[i]])


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def sweep_suites(workload: str) -> list[tuple[str, int]]:
    """(theorem, max_n) of each verify() call of a sweep workload, from spec.json."""
    with open(os.path.join(os.path.dirname(os.path.abspath(__file__)), "spec.json")) as f:
        suites = json.load(f)["workloads"][workload].get("suites", [])
    return [(s["theorem"], s["max_n"]) for s in suites]


def run_sweep(workload: str, rec, speed: SpeedSampler) -> dict:
    from webfold.oracle import verify

    reports = []
    start = time.perf_counter()
    with speed:
        cpu_start = speed.work_cpu_s()
        for i, (theorem, bound) in enumerate(sweep_suites(workload)):
            if rec is not None:
                rec.current_instance = i
            reports.append(verify(theorem, bound).to_dict())
        cpu_end = speed.work_cpu_s()
    elapsed = time.perf_counter() - start - speed.passes_wall_s
    # verify() is one indivisible call per suite, so the sweep is a single chunk
    rate = sum(r["instances"] for r in reports) / speed.calibrated(cpu_start, cpu_end)
    return {"elapsed": elapsed, "reports": reports, "rate": rate}


def run_webs_build(seed: int, seconds: int, rec, speed: SpeedSampler) -> dict:
    """canonical(rotate(web(T))) == canonical(web(promote(T))) on sampled 3x6 words."""
    from webfold.planarweb import canonical, rotate
    from webfold.tableaux import from_word, promote
    from webfold.web3 import web_of_tableau

    # WORDS_PER_SECOND x seconds is a multiple of CHUNK_WORDS, so all chunks are whole
    words = common.sample_distinct_words(seed, 3, 6, WORDS_PER_SECOND * seconds)
    failures = []
    start = time.perf_counter()
    with speed:
        marks = [speed.work_cpu_s()]
        for i, word in enumerate(words):
            if rec is not None:
                rec.current_instance = i
            try:
                t = from_word(word)
                if canonical(rotate(web_of_tableau(t))) != canonical(web_of_tableau(promote(t))):
                    failures.append({"word": word, "error": "identity does not hold"})
            except Exception as exc:  # a crash is one failed instance, not the end of the run
                failures.append({"word": word, "error": f"{type(exc).__name__}: {exc}"})
            if (i + 1) % CHUNK_WORDS == 0:
                marks.append(speed.work_cpu_s())
    elapsed = time.perf_counter() - start - speed.passes_wall_s
    chunk_s = [speed.calibrated(a, b) for a, b in zip(marks, marks[1:])]
    return {"elapsed": elapsed, "instances": len(words), "failures": failures,
            "rate": statistics.median(CHUNK_WORDS / s for s in chunk_s)}


def cmd_run(args: argparse.Namespace) -> None:
    import_workload(args.workload)
    rec = None
    if args.trace:
        import tracing

        rec = tracing.Recorder()
        tracing.install(rec)
    speed = SpeedSampler(enabled=rec is None)
    if args.workload != "webs-build-n6":
        out = run_sweep(args.workload, rec, speed)
    else:
        out = run_webs_build(args.seed, args.seconds, rec, speed)
    out["reference_s"] = statistics.median(speed.samples) if speed.samples else None
    out["peak_rss_mb"] = peak_rss_mb()
    if rec is not None:
        out["trace"] = rec.totals()
        out["resolve_calls"] = rec.resolve_calls
        out["resolve_repeats"] = rec.resolve_repeats
        rec.write_spans(args.spans)
    print(json.dumps(out))


def _dumps(obj: dict) -> str:
    """The CLI's documented JSON format: sorted keys, indent 2, trailing newline."""
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


class PlanBuilder:
    """The CLI mix for one seed: argv, input files and the expected outcome of each call."""

    def __init__(self, seed: int, directory: str) -> None:
        self.rng = random.Random(seed)
        self.dir = directory
        self.calls: list[dict] = []
        self.files = 0

    def word3(self) -> str:
        return common.sample_word(self.rng, 3, self.rng.choice((3, 4, 5)))

    def word2(self) -> str:
        return common.sample_word(self.rng, 2, self.rng.choice((4, 5, 6, 7, 8)))

    def symmetric3(self) -> str:
        return common.sample_symmetric_word(self.rng, 3, self.rng.choice((2, 3, 4, 5)))

    def symmetric2(self) -> str:
        return common.sample_symmetric_word(self.rng, 2, self.rng.choice((4, 5, 6, 7, 8)))

    def write(self, obj: dict) -> str:
        self.files += 1
        path = os.path.join(self.dir, f"in{self.files:03d}.json")
        with open(path, "w") as f:
            f.write(_dumps(obj))
        return path

    def add(self, argv: list[str], compute, kind: str = "exact") -> None:
        """Record a call whose stdout (or verify report, for kind "report") the library computes."""
        call = {"command": argv[0], "argv": argv, "kind": kind}
        result = compute()
        if kind == "report":
            call.update(code=0 if result["passed"] else 1, report=result)
        else:
            call.update(code=0, stdout=result)
        self.calls.append(call)

    def reject(self, argv: list[str], compute) -> None:
        """Record a call the CLI must reject with exit 1 and the library's `ErrorName: message` line."""
        from webfold.errors import WebfoldError

        try:
            compute()
        except (WebfoldError, ValueError, KeyError, OSError) as exc:
            message = f"{type(exc).__name__}: {exc}\n"
        else:
            raise RuntimeError(f"bad input {argv} was accepted by the library")
        self.calls.append({"command": argv[0], "argv": argv, "kind": "error", "code": 1, "stderr": message})

    def build(self) -> list[dict]:
        from webfold.matchings import fold2, tableau_of_web2, web2_of_tableau
        from webfold.oracle import EnumerationFilter, enumerate_tableaux, verify
        from webfold.render import svg_of_json, svg_of_matching2, svg_of_web
        from webfold.tableaux import Shape, Tableau, evacuate, fold, from_word, promote, unfold
        from webfold.web3 import crossed_web, domino_of_symmetric_web, tableau_of_web, web_of_tableau

        ops = {"promote": promote, "evacuate": evacuate, "fold": fold, "unfold": unfold}
        add, reject = self.add, self.reject

        def op_word(name, word):
            add(["op", "--apply", name, "--word", word], lambda: ops[name](from_word(word)).word + "\n")

        def op_file(name, word):
            path = self.write(from_word(word).to_dict())
            add(
                ["op", "--apply", name, "--in", path],
                lambda: _dumps(ops[name](Tableau.from_dict(_load(path))).to_dict()),
            )

        for _ in range(8):
            op_word("promote", self.word3())
        for _ in range(5):
            op_word("evacuate", self.word3())
        for _ in range(4):
            op_word("fold", self.word3())
        for _ in range(2):
            op_word("fold", self.word2())
        for _ in range(4):
            op_word("unfold", fold(from_word(self.symmetric3())).word)
        for _ in range(3):
            op_file("promote", self.word3())
        for _ in range(2):
            op_file("evacuate", self.word2())

        for _ in range(6):
            w = self.word2()
            add(["web2", "from-tableau", "--word", w], lambda: _dumps(web2_of_tableau(from_word(w)).to_dict()))
        for _ in range(2):
            w = self.word2()
            add(
                ["web2", "from-tableau", "--word", w, "--format", "svg"],
                lambda: svg_of_matching2(web2_of_tableau(from_word(w))),
            )
        for _ in range(3):
            path = self.write(web2_of_tableau(from_word(self.word2())).to_dict())
            add(["web2", "to-tableau", "--in", path], lambda: tableau_of_web2(_matching(path)).word + "\n")
        for _ in range(3):
            w = self.symmetric2()
            add(["web2", "fold", "--word", w], lambda: _dumps(fold2(web2_of_tableau(from_word(w))).to_dict()))

        for _ in range(6):
            w = self.word3()
            add(["web3", "from-tableau", "--word", w], lambda: _dumps(web_of_tableau(from_word(w)).to_dict()))
        for _ in range(2):
            w = self.word3()
            add(
                ["web3", "from-tableau", "--word", w, "--format", "svg"],
                lambda: svg_of_web(web_of_tableau(from_word(w))),
            )
        for _ in range(12):
            path = self.write(web_of_tableau(from_word(self.word3())).to_dict())
            add(["web3", "to-tableau", "--in", path], lambda: tableau_of_web(_web(path)).word + "\n")
        for _ in range(6):
            path = self.write(web_of_tableau(from_word(self.symmetric3())).to_dict())
            add(["web3", "to-domino", "--in", path], lambda: domino_of_symmetric_web(_web(path)).word + "\n")
        for _ in range(6):
            d = fold(from_word(self.symmetric3())).word
            add(["web3", "crossed", "--word", d], lambda: _dumps(crossed_web(from_word(d)).to_dict()))

        for make in [lambda: web_of_tableau(from_word(self.word3()))] * 4 + [
            lambda: web2_of_tableau(from_word(self.word2()))
        ] * 2:
            path = self.write(make().to_dict())
            add(["render", "--in", path], lambda: svg_of_json(_load(path)))

        for shape, predicate in (("3x3", "all"), ("2x5", "all"), ("3x4", "rotationally-symmetric"),
                                 ("3x4", "domino"), ("2x6", "domino"), ("3x2", "all")):
            rows, cols = (int(x) for x in shape.split("x"))
            filt = EnumerationFilter(Shape((cols,) * rows), predicate)
            add(
                ["enumerate", "--shape", shape, "--filter", predicate],
                lambda: "".join(t.word + "\n" for t in enumerate_tableaux(filt)),
            )

        for theorem, bound in (("thm-fw1", 3), ("roundtrip-3web", 3), ("fold-domino", 4), ("promotion-order", 3)):
            add(
                ["verify", "--theorem", theorem, "--max-n", str(bound), "--format", "json"],
                lambda: verify(theorem, bound).to_dict(),
                kind="report",
            )

        bad = "2" + self.word3()[1:]
        reject(["op", "--apply", "promote", "--word", bad], lambda: from_word(bad))
        zero = self.word3().replace("3", "0", 1)
        reject(["op", "--apply", "fold", "--word", zero], lambda: from_word(zero))
        w3 = self.word3()
        reject(["web2", "from-tableau", "--word", w3], lambda: web2_of_tableau(from_word(w3)))
        asym2 = next(w for w in iter(self.word2, None) if not common.is_symmetric_word(w, 2))
        reject(["web2", "fold", "--word", asym2], lambda: fold2(web2_of_tableau(from_word(asym2))))
        asym3 = next(w for w in iter(self.word3, None) if not common.is_symmetric_word(w, 3))
        reject(["web3", "to-domino", "--word", asym3], lambda: domino_of_symmetric_web(web_of_tableau(from_word(asym3))))
        reject(["verify", "--theorem", "no-such-theorem"], lambda: verify("no-such-theorem"))
        missing = os.path.join(self.dir, "missing.json")
        reject(["web3", "to-tableau", "--in", missing], lambda: _web(missing))
        self.calls.append({"command": "op", "argv": ["op", "--apply", "no-such-op", "--word", "123"],
                           "kind": "usage", "code": 2})
        # malformed JSON is documented to exit 1 with a named error; today it ends in a traceback
        for argv, doc in (
            (["web3", "to-tableau"], {"n": 3, "edges": 5, "rotation": {}}),
            (["op", "--apply", "promote"], {"outer": [2, 2], "word": 12}),
        ):
            path = self.write(doc)
            self.calls.append({"command": argv[0], "argv": argv + ["--in", path], "kind": "malformed",
                               "code": 1, "known_defect": True})
        return self.calls


def _load(path: str):
    with open(path) as f:
        return json.load(f)


def _web(path: str):
    from webfold.planarweb import PlanarWeb

    return PlanarWeb.from_dict(_load(path))


def _matching(path: str):
    from webfold.matchings import Matching2

    return Matching2.from_dict(_load(path))


def cmd_cli_plan(args: argparse.Namespace) -> None:
    import_workload("cli-oneshot")
    calls = PlanBuilder(args.seed, args.dir).build()
    with open(os.path.join(args.dir, "plan.json"), "w") as f:
        json.dump(calls, f)


def main() -> None:
    parser = argparse.ArgumentParser()
    sub = parser.add_subparsers(dest="mode", required=True)
    p = sub.add_parser("run")
    p.add_argument("workload", choices=("sweep-webs", "sweep-tableaux", "webs-build-n6"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--spans")
    p = sub.add_parser("cli-plan")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--dir", required=True)
    args = parser.parse_args()
    if args.mode == "run":
        cmd_run(args)
    else:
        cmd_cli_plan(args)


if __name__ == "__main__":
    main()
