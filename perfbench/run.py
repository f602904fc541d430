"""The webfold benchmark: run one workload, check every output, report metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --compare BASE.jsonl NEW.jsonl
    python3 perfbench/selftest.py

Run from the root of a checkout; the package is imported from its `src`.
BENCHMARK.json names the workloads and the metrics with their units and
bounds.  perfbench/spec.json holds what that file has no room for: the
suites, instance sets and report digests of the sweeps, the predictions
and the seed-commit baseline.  --seconds may be at most MAX_SECONDS, so
that a run, traced ones too, ends within RUN_LIMIT_S.

Each run starts fresh interpreters, so no cache survives from one run to
the next, and runs them with WEBFOLD_WORKERS unset.  With --trace 0 it
times SETUP_PROBES interpreters that only import the workload's modules
(perfbench/probe.py), then runs the workload and prints the end-to-end
metrics, timed in CPU seconds calibrated by yardsticks (see end_to_end).
With --trace 1 it runs the workload untraced, then traced, and prints the
per-layer metrics; CLI calls get a third pass through the unwrapped benchmark entry,
the reference for the tracing overhead.  Either way the last stdout line
is one JSON object with the keys correct, attempted, failed and metrics.
The whole record, with machine facts, is appended to
perfbench/results/results.jsonl, which --compare reads; traced spans go
to perfbench/results/spans-WORKLOAD-seedN.tsv.

This process never imports webfold itself; it is the closed-loop client.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import shutil
import signal
import statistics
import sys
import time
from dataclasses import dataclass

import common
import tracing
from workloads import IMPORTS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")

SETUP_PROBES = 11
RUN_LIMIT_S = 170.0
# webs-build-n6 checks 200 words per second of --seconds, about that much
# work here, and a traced run does it twice at up to 1.5x the cost, so 40
# leaves room for a slow spell of the machine
MAX_SECONDS = 40
COMPARED_FACTS = ("nproc", "python", "platform", "webfold_workers")


def load_json(path: str) -> dict:
    with open(path) as f:
        return json.load(f)


def load_bench() -> dict:
    return load_json(os.path.join(ROOT, "BENCHMARK.json"))


def load_spec() -> dict:
    return load_json(os.path.join(HERE, "spec.json"))


class BenchError(Exception):
    """The harness could not produce a result; nothing is printed as one."""


@dataclass
class Proc:
    code: int
    seconds: float
    cpu_s: float
    peak_rss_mb: float
    stdout: str
    stderr: str


def child_env(**extra: str) -> dict[str, str]:
    env = dict(os.environ)
    env.pop("WEBFOLD_WORKERS", None)
    env["PYTHONPATH"] = SRC
    env["PERFBENCH_SRC"] = SRC
    env.update(extra)
    return env


def _kill(pid: int) -> None:
    try:
        os.kill(pid, signal.SIGKILL)
    except ProcessLookupError:  # it ended on its own meanwhile
        pass


class Runner:
    """Starts one child at a time, waits for it, and enforces the run's deadline.

    SIGTERM or SIGINT kills the running child and waits for it before this
    process exits, so no child outlives the run.
    """

    def __init__(self, scratch: str) -> None:
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.scratch = scratch
        self.child: int | None = None
        os.makedirs(scratch, exist_ok=True)
        for sig in (signal.SIGTERM, signal.SIGINT):
            signal.signal(sig, self._stop)

    def _stop(self, signum, frame) -> None:
        if self.child is not None:
            _kill(self.child)
            os.waitpid(self.child, 0)
        shutil.rmtree(self.scratch, ignore_errors=True)
        os._exit(128 + signum)

    def spawn(self, argv: list[str], env: dict[str, str]) -> Proc:
        """Run `python3 ARGV...`; time it from spawn to reap and read its CPU time and peak RSS."""
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError(f"run exceeded {RUN_LIMIT_S:.0f} s")
        out, err = os.path.join(self.scratch, "stdout"), os.path.join(self.scratch, "stderr")
        flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
        actions = [
            (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
            (os.POSIX_SPAWN_OPEN, 1, out, flags, 0o644),
            (os.POSIX_SPAWN_OPEN, 2, err, flags, 0o644),
        ]
        start = time.monotonic()
        pid = self.child = os.posix_spawn(sys.executable, [sys.executable, *argv], env, file_actions=actions)
        previous = signal.signal(signal.SIGALRM, lambda *_: _kill(pid))
        signal.setitimer(signal.ITIMER_REAL, remaining)
        try:
            _, status, usage = os.wait4(pid, 0)
        finally:
            self.child = None
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        seconds = time.monotonic() - start
        code = os.waitstatus_to_exitcode(status)
        if code == -signal.SIGKILL:
            raise BenchError(f"killed {argv[:3]} at the {RUN_LIMIT_S:.0f} s run limit")
        with open(out) as f_out, open(err) as f_err:
            cpu_s = usage.ru_utime + usage.ru_stime
            return Proc(code, seconds, cpu_s, usage.ru_maxrss / 1024, f_out.read(), f_err.read())

    def python(self, script: str, *args: str) -> Proc:
        """Run one of the benchmark's own scripts; a non-zero exit is a harness failure."""
        p = self.spawn([os.path.join(HERE, script), *args], child_env())
        if p.code != 0:
            raise BenchError(f"{script} {' '.join(args[:2])} exited {p.code}:\n{p.stderr[-2000:]}")
        return p

    def startup_reference(self) -> float:
        """CPU seconds of the start-up yardstick: a fresh interpreter importing common.STARTUP_MODULES."""
        p = self.spawn(["-c", "import " + ", ".join(common.STARTUP_MODULES)], child_env())
        if p.code != 0:
            raise BenchError(f"the start-up yardstick exited {p.code}:\n{p.stderr[-2000:]}")
        return p.cpu_s

    def setup_samples(self, workload: str) -> tuple[list[float], list[float]]:
        """Calibrated CPU seconds a fresh interpreter spends until the workload's
        modules are imported, one per probe, and the start-up yardstick's
        time after each probe."""
        samples, reference = [], []
        for _ in range(SETUP_PROBES):
            import_s = float(self.python("probe.py", *IMPORTS[workload]).stdout)
            reference.append(self.startup_reference())
            samples.append(common.calibrated(import_s, reference[-1:], common.STARTUP_REFERENCE_S))
        return samples, reference


def instance_count(families: list[list]) -> int:
    """The benchmark's own count of a suite's instances: hook lengths, or symmetric words."""
    total = 0
    for rows, first, last, kind in families:
        for n in range(first, last + 1):
            if kind == "all":
                total += common.hook_length_count((n,) * rows)
            else:
                total += common.symmetric_count(rows, n)
    return total


def check_sweep(spec: dict, reports: list[dict]) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems): instance counts, PASS and digest of every report."""
    problems = []
    suites = spec["suites"]
    if [r["theorem"] for r in reports] != [s["theorem"] for s in suites]:
        problems.append("reports do not match the suites run")
    for suite, report in zip(suites, reports):
        expected = instance_count(suite["families"])
        if report["instances"] != expected:
            problems.append(f"{suite['theorem']}: {report['instances']} instances, expected {expected}")
        digest = common.report_digest(report)
        if digest != suite["digest"]:
            problems.append(f"{suite['theorem']}: report digest {digest[:12]} != {suite['digest'][:12]}")
    attempted = sum(r["instances"] for r in reports)
    if attempted != spec["instances"]:
        problems.append(f"{attempted} instances in all, expected {spec['instances']}")
    failed = len({(r["theorem"], f["word"]) for r in reports for f in r["failures"]})
    return attempted, failed, problems


@dataclass
class Pass:
    """One untraced or traced pass of a workload."""

    attempted: int
    failed: int
    problems: list[str]
    work_s: float
    rate: float
    peak_rss_mb: float
    reference_s: float | None = None
    latencies: dict[str, list[float]] | None = None
    trace: dict | None = None


def run_library(runner: Runner, spec: dict, workload: str, seed: int, seconds: int, trace: bool) -> Pass:
    spans = os.path.join(RESULTS, f"spans-{workload}-seed{seed}.tsv")
    p = runner.python(
        "workloads.py", "run", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(int(trace)), "--spans", spans,
    )
    data = json.loads(p.stdout.strip().splitlines()[-1])
    if "reports" in data:
        attempted, failed, problems = check_sweep(spec, data["reports"])
    else:
        attempted, failed = data["instances"], len(data["failures"])
        problems = [f"{f['word']}: {f['error']}" for f in data["failures"]]
    trace_data = None
    if trace:
        trace_data = {k: data[k] for k in ("trace", "resolve_calls", "resolve_repeats")}
    return Pass(attempted, failed, problems, data["elapsed"], data["rate"], data["peak_rss_mb"], data["reference_s"],
                trace=trace_data)


TRACEBACK = "Traceback (most recent call last)"
ERROR_LINE = re.compile(r"[A-Za-z_]\w*: [^\n]*\n")


def judge(call: dict, p: Proc) -> str | None:
    """Why a CLI call failed, or None if it did what the documentation says."""
    if TRACEBACK in p.stderr:
        return "traceback"
    if p.code != call["code"]:
        return f"exit {p.code}, expected {call['code']}"
    kind = call["kind"]
    if kind == "exact":
        ok = p.stdout == call["stdout"] and p.stderr == ""
    elif kind == "report":
        try:
            got = json.loads(p.stdout)
        except json.JSONDecodeError:
            return "verify output is not JSON"
        ok = (
            p.stdout == json.dumps(got, indent=2, sort_keys=True) + "\n"
            and common.report_digest(got) == common.report_digest(call["report"])
        )
    elif kind == "error":
        ok = p.stdout == "" and p.stderr == call["stderr"]
    elif kind == "malformed":
        ok = p.stdout == "" and ERROR_LINE.fullmatch(p.stderr) is not None
    else:  # usage: argparse prints usage and an "error:" line
        lines = p.stderr.strip().splitlines()
        ok = p.stdout == "" and bool(lines) and "error:" in lines[-1]
    return None if ok else f"wrong output for kind {kind}"


def run_cli(runner: Runner, seed: int, entry: str) -> Pass:
    """The CLI mix, one fresh interpreter per call.

    `entry` is "cli" for `python -m webfold.cli`, "plain" for the
    benchmark's own entry without wrappers, "traced" for it with them.
    """
    work = os.path.relpath(os.path.join(runner.scratch, "cli"), ROOT)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    runner.python("workloads.py", "cli-plan", "--seed", str(seed), "--dir", work)
    with open(os.path.join(work, "plan.json")) as f:
        plan = json.load(f)
    failures, problems = 0, []
    latencies: dict[str, list[float]] = {}
    cpu: list[float] = []
    reference: list[float] = []
    peak = 0.0
    work_s = 0.0
    for i, call in enumerate(plan):
        if entry == "cli":
            p = runner.spawn(["-m", "webfold.cli", *call["argv"]], child_env())
        elif entry == "plain":
            p = runner.spawn([os.path.join(HERE, "cli_entry.py"), *call["argv"]], child_env())
        else:
            env = child_env(PERFBENCH_TRACE_OUT=os.path.join(work, f"trace{i:03d}"), PERFBENCH_INSTANCE=str(i))
            p = runner.spawn([os.path.join(HERE, "cli_entry.py"), *call["argv"]], env)
        work_s += p.seconds
        if entry == "cli":  # only this pass gives end-to-end figures
            reference.append(runner.startup_reference())
            cpu.append(common.calibrated(p.cpu_s, reference[-1:], common.STARTUP_REFERENCE_S))
        peak = max(peak, p.peak_rss_mb)
        latencies.setdefault(call["command"], []).append(p.seconds)
        why = judge(call, p)
        if why is not None:
            failures += 1
            if not call.get("known_defect"):
                problems.append(f"webfold {' '.join(call['argv'])}: {why}")
    trace_data = merge_cli_traces(work, len(plan), seed) if entry == "traced" else None
    shutil.rmtree(work)
    # one client in a closed loop: its median rate is one call per median call,
    # timed in the call's calibrated CPU seconds like the library workloads
    rate = 1 / statistics.median(cpu) if cpu else 0.0
    return Pass(len(plan), failures, problems, work_s, rate, peak, statistics.median(reference) if reference else None,
                latencies, trace_data)


def merge_cli_traces(work: str, calls: int, seed: int) -> dict:
    """Sum the per-call span totals and concatenate the per-call span files."""
    totals: dict[str, dict[str, float]] = {}
    merged = {"trace": totals, "resolve_calls": 0, "resolve_repeats": 0, "import_s": []}
    with open(os.path.join(RESULTS, f"spans-cli-oneshot-seed{seed}.tsv"), "w") as spans:
        for i in range(calls):
            base = os.path.join(work, f"trace{i:03d}")
            with open(base + ".json") as f:
                one = json.load(f)
            for name, entry in one["totals"].items():
                acc = totals.setdefault(name, {"calls": 0, "self_s": 0.0, "wall_s": 0.0})
                for key in acc:
                    acc[key] += entry[key]
            merged["resolve_calls"] += one["resolve_calls"]
            merged["resolve_repeats"] += one["resolve_repeats"]
            merged["import_s"].append(one["import_s"])
            with open(base + ".tsv") as f:
                header = f.readline()
                if i == 0:
                    spans.write(header)
                shutil.copyfileobj(f, spans)
    return merged


def run_passes(runner: Runner, spec: dict, workload: str, seed: int, seconds: int, trace: bool) -> list[Pass]:
    """The untraced pass, then with --trace 1 the untraced reference and the traced pass.

    Library workloads use the untraced pass as the reference.  CLI calls
    compare the traced entry with the same entry unwrapped, since
    `python -m` takes a different start-up path.
    """
    if workload == "cli-oneshot":
        passes = [run_cli(runner, seed, "cli")]
        if trace:
            passes += [run_cli(runner, seed, "plain"), run_cli(runner, seed, "traced")]
        return passes
    plain = run_library(runner, spec, workload, seed, seconds, False)
    if not trace:
        return [plain]
    return [plain, plain, run_library(runner, spec, workload, seed, seconds, True)]


def percentiles_ms(samples: list[float]) -> dict[str, float]:
    """Median and the highest tail percentile with at least ten samples beyond it, in ms."""
    ms = [s * 1000 for s in samples]
    out = {"p50": statistics.median(ms)}
    tail = common.tail_percentile(len(ms))
    if tail is not None and tail > 50:
        out[f"p{tail:g}"] = common.nearest_rank(ms, tail)
    return out


def end_to_end(setup: list[float], run: Pass) -> dict[str, float]:
    """Times are calibrated CPU seconds of the process doing the work.

    Each workload is one single-threaded client that never waits, so CPU
    seconds equal wall seconds on an idle machine and leave out the spells
    in which the shared host gives the core to someone else.  The host's
    speed drifts as well, so every time is scaled by the yardstick
    (common.calibrated): its nominal time over the time it took right after
    them, in a fresh interpreter after each probe and each CLI call, and
    between bytecodes of the library workloads.

    setup_s: median over SETUP_PROBES fresh interpreters of the time from
    start until the workload's webfold modules are imported.

    instances_per_s: instances checked per second; the whole sweep
    (verify() cannot be split from outside), the median over 50-word
    chunks on webs-build-n6, one call per median call time on
    cli-oneshot (one client, closed loop).

    peak_rss_mb: getrusage peak resident memory of the workload process;
    on cli-oneshot the highest over all calls.
    """
    return {
        "setup_s": statistics.median(setup),
        "instances_per_s": run.rate,
        "peak_rss_mb": run.peak_rss_mb,
    }


def per_layer(plain: Pass, reference: Pass, traced: Pass) -> dict[str, float]:
    t = traced.trace
    values = tracing.layer_totals(t["trace"])
    faces = t["trace"].get("planarweb.faces", {}).get("calls", 0)
    values["planarweb.faces.calls_per_instance"] = faces / traced.attempted
    values["mdiagram.resolve.repeat_ratio"] = (
        t["resolve_repeats"] / t["resolve_calls"] if t["resolve_calls"] else 0.0
    )
    for command in tracing.CLI_COMMANDS:
        samples = (plain.latencies or {}).get(command)
        values[f"cli.{command}.p50_ms"] = statistics.median(samples) * 1000 if samples else 0.0
    values["cli.import_s"] = statistics.median(t["import_s"]) if t.get("import_s") else 0.0
    all_calls = [s for samples in (plain.latencies or {}).values() for s in samples]
    cli = percentiles_ms(all_calls) if all_calls else {}
    values["cli_p50_ms"] = cli.get("p50", 0.0)
    values["cli_p90_ms"] = cli.get("p90", 0.0)
    values["trace.overhead_ratio"] = traced.work_s / reference.work_s
    return values


def git_commit() -> str | None:
    head_path = os.path.join(ROOT, ".git", "HEAD")
    if not os.path.exists(head_path):
        return None
    with open(head_path) as f:
        head = f.read().strip()
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    ref_path = os.path.join(ROOT, ".git", ref)
    if os.path.exists(ref_path):
        with open(ref_path) as f:
            return f.read().strip()
    packed = os.path.join(ROOT, ".git", "packed-refs")
    if os.path.exists(packed):
        with open(packed) as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    return None


def machine_facts() -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "webfold_workers": "unset",
        "git_commit": git_commit(),
    }


def run_workload(args: argparse.Namespace) -> int:
    bench, spec = load_bench(), load_spec()
    if not os.path.isfile(os.path.join(SRC, "webfold", "__init__.py")):
        raise BenchError(f"no webfold package under {SRC}; run from the root of a webfold checkout")
    wspec = spec["workloads"][args.workload]
    os.chdir(ROOT)
    os.makedirs(RESULTS, exist_ok=True)
    runner = Runner(os.path.join(RESULTS, f"run-{os.getpid()}"))
    try:
        setup, startup = ([], []) if args.trace else runner.setup_samples(args.workload)
        passes = run_passes(runner, wspec, args.workload, args.seed, args.seconds, bool(args.trace))
        plain = passes[0]
        metrics = per_layer(*passes) if args.trace else end_to_end(setup, plain)
        units = {m["name"]: m["unit"] for m in bench["per_layer" if args.trace else "end_to_end"]}
    finally:
        shutil.rmtree(runner.scratch, ignore_errors=True)
    last = passes[-1]
    problems = sorted({p for run in passes for p in run.problems})
    result = {
        "correct": not problems,
        "attempted": last.attempted,
        "failed": last.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seed_applies": wspec["seed_applies"],
        "seconds": args.seconds,
        "trace": args.trace,
        "facts": machine_facts(),
        "failed_fraction": last.failed / last.attempted,
        "setup_samples_s": setup,
        "reference_s": plain.reference_s,
        "startup_reference_s": statistics.median(startup) if startup else None,
        "problems": problems,
        **result,
    }
    if plain.latencies:
        all_calls = [s for samples in plain.latencies.values() for s in samples]
        record["cli_latency_ms"] = {"samples": len(all_calls), **percentiles_ms(all_calls)}
    with open(os.path.join(RESULTS, "results.jsonl"), "a") as f:
        f.write(json.dumps(record) + "\n")
    print_summary(record)
    print(json.dumps(result))
    return 0


def print_summary(record: dict) -> None:
    print(f"workload {record['workload']}, seed {record['seed']}"
          + ("" if record["seed_applies"] else " (exhaustive; the seed does not apply)")
          + f", trace {record['trace']}")
    for problem in record["problems"]:
        print(f"  PROBLEM {problem}")
    print(f"  attempted {record['attempted']}, failed {record['failed']}, "
          f"failed_fraction {record['failed_fraction']:.4f}, correct {record['correct']}")
    if "cli_latency_ms" in record:
        lat = record["cli_latency_ms"]
        tail = ", ".join(f"{k} {v:.1f} ms" for k, v in lat.items() if k != "samples")
        print(f"  cli latency over {lat['samples']} calls: {tail}")
    if record["setup_samples_s"]:
        print(f"  setup_s is the median of {len(record['setup_samples_s'])} fresh interpreters")
    if not record["trace"]:
        nominal = common.STARTUP_REFERENCE_S if record["workload"] == "cli-oneshot" else common.REFERENCE_S
        print(f"  calibrated by yardsticks, median / nominal: {record['startup_reference_s'] * 1000:.2f} / "
              f"{common.STARTUP_REFERENCE_S * 1000:g} ms after the set-up probes, "
              f"{record['reference_s'] * 1000:.3f} / {nominal * 1000:g} ms beside the work")
    for name, m in record["metrics"].items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")


def load_records(path: str) -> list[dict]:
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def _quartiles(values: list[float]) -> str:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return f"{median:.5g} [{q1:.5g}, {q3:.5g}]"


def compare(base_path: str, new_path: str) -> int:
    """Median, quartiles and verdict per workload and end-to-end metric; 1 if any regressed."""
    bench = load_bench()
    base = [r for r in load_records(base_path) if not r["trace"]]
    new = [r for r in load_records(new_path) if not r["trace"]]
    facts = {json.dumps({k: r["facts"][k] for k in COMPARED_FACTS}, sort_keys=True) for r in base + new}
    if len(facts) > 1:
        print("refusing to compare: the results were taken under different machine facts")
        for f in sorted(facts):
            print(f"  {f}")
        return 2
    regressed = False
    print(f"{'workload':16} {'metric':16} {'base median [q1, q3]':>30} {'new median [q1, q3]':>30} {'worse':>7}  verdict")
    for workload in (w["name"] for w in bench["workloads"]):
        for metric in bench["end_to_end"]:
            name = metric["name"]
            a = [r["metrics"][name]["value"] for r in base if r["workload"] == workload]
            b = [r["metrics"][name]["value"] for r in new if r["workload"] == workload]
            if len(a) < 2 or len(b) < 2:
                continue
            ma, mb = statistics.median(a), statistics.median(b)
            worse = (mb - ma) / ma if metric["better"] == "lower" else (ma - mb) / ma
            if worse > metric["bound"]:
                verdict, regressed = "REGRESSION", True
            elif common.relative_spread(a) > metric["bound"]:
                verdict = "unresolved (spread above bound)"
            else:
                verdict = "ok"
            print(f"{workload:16} {name:16} {_quartiles(a):>30} {_quartiles(b):>30} {worse:+7.1%}  {verdict}")
    return 1 if regressed else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"))
    args = parser.parse_args()
    if args.compare:
        return compare(*args.compare)
    names = [w["name"] for w in load_bench()["workloads"]]
    if args.workload not in names:
        parser.error(f"--workload must be one of {', '.join(names)}")
    if not 1 <= args.seconds <= MAX_SECONDS:
        parser.error(f"--seconds must be from 1 to {MAX_SECONDS}: webs-build-n6 checks 200 words per "
                     f"second of it, and a run must end within {RUN_LIMIT_S:.0f} s")
    try:
        return run_workload(args)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
