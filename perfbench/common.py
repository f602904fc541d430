"""Helpers shared by run.py and the processes it starts.

Nothing here imports webfold: run.py must be able to measure the
cost of that import in a fresh interpreter, and the inputs it generates
must not depend on the code under test.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import random
import statistics
import time
from functools import lru_cache


def hook_length_count(shape: tuple[int, ...]) -> int:
    """Number of standard Young tableaux of a straight shape."""
    product = 1
    for r, length in enumerate(shape):
        for c in range(length):
            arm = length - c - 1
            leg = sum(1 for below in shape[r + 1 :] if below > c)
            product *= arm + leg + 1
    return math.factorial(sum(shape)) // product


def is_symmetric_word(word: str, rows: int) -> bool:
    """Whether the tableau of `word` is fixed by 180-degree rotation plus complement.

    Entry k sits in row w[k]; the rotated tableau puts entry N+1-k in row
    rows+1-w[k], so the tableau is symmetric iff w[N+1-k] = rows+1-w[k].
    """
    n = len(word)
    return all(int(word[n - 1 - i]) == rows + 1 - int(word[i]) for i in range(n))


def lattice_words(shape: tuple[int, ...]):
    """All lattice words of a straight shape, in lexicographic order."""
    rows = len(shape)
    counts = [0] * rows
    word: list[str] = []

    def extend():
        if len(word) == sum(shape):
            yield "".join(word)
            return
        for r in range(rows):
            if counts[r] < shape[r] and (r == 0 or counts[r - 1] > counts[r]):
                counts[r] += 1
                word.append(str(r + 1))
                yield from extend()
                word.pop()
                counts[r] -= 1

    return extend()


def symmetric_count(rows: int, n: int) -> int:
    """Rotationally symmetric standard tableaux of the rows x n rectangle."""
    return sum(is_symmetric_word(w, rows) for w in lattice_words((n,) * rows))


# The yardsticks.  The shared host this benchmark runs on changes speed by
# up to 1.5x, within seconds and over minutes, in CPU time as much as in
# wall time, and fixed work of the benchmark's own slows down with it.
# Timing such work right after each stretch of the program's and scaling
# the stretch by the work's nominal time over its time now cancels most of
# the drift.  Two kinds of work track two kinds of stretch:
# - reference_cpu_s(), pure-Python work inside a running process, for the
#   library workloads.  In ten webs-build-n6 runs the interquartile spread
#   of the rate was 0.28 of the median uncalibrated, 0.13 with each run
#   scaled by its median pass, and 0.03 with each 50-word chunk scaled by
#   its own pass.
# - a fresh interpreter that imports STARTUP_MODULES, for the start-up-bound
#   set-up probes and CLI calls; in six cli-oneshot runs it left a spread of
#   0.005 where reference_cpu_s() left 0.04.
# The nominal times are what the yardsticks took on the 2-vCPU x86_64
# machine the baseline was taken on; calibrated times are in its seconds.
REFERENCE_SHAPE = (4, 4, 3)
REFERENCE_S = 0.0033
STARTUP_MODULES = ("argparse", "json", "fractions", "hashlib", "random", "decimal")
STARTUP_REFERENCE_S = 0.075


def reference_cpu_s() -> float:
    """CPU seconds one pass of the in-process yardstick takes now.

    The pass reads every lattice word of REFERENCE_SHAPE.  It never touches
    webfold, so no change to the program moves it, and the collector is
    paused meanwhile so that the program's heap is not walked on its time.
    """
    enabled = gc.isenabled()
    gc.disable()
    start = time.process_time()
    sum(is_symmetric_word(w, 3) for w in lattice_words(REFERENCE_SHAPE))
    elapsed = time.process_time() - start
    if enabled:
        gc.enable()
    return elapsed


def calibrated(seconds: float, reference: list[float], nominal: float = REFERENCE_S) -> float:
    """`seconds` measured while a yardstick took `reference`, in seconds of a
    machine on which it takes `nominal` (the median of `reference` counts)."""
    return seconds * nominal / statistics.median(reference)


@lru_cache(maxsize=None)
def _completions(state: tuple[int, ...], cols: int) -> int:
    """Lattice-word completions of a prefix whose row counts are `state`."""
    if all(c == cols for c in state):
        return 1
    total = 0
    for r in range(len(state)):
        nxt = _advance(state, r, cols)
        if nxt is not None:
            total += _completions(nxt, cols)
    return total


def _advance(state: tuple[int, ...], r: int, cols: int) -> tuple[int, ...] | None:
    if state[r] >= cols or (r > 0 and state[r - 1] <= state[r]):
        return None
    return state[:r] + (state[r] + 1,) + state[r + 1 :]


def sample_word(rng: random.Random, rows: int, cols: int) -> str:
    """A uniformly random lattice word of the rows x cols rectangle.

    Each letter is drawn with probability proportional to the number of
    ways the prefix can still be completed, so every standard tableau of
    the rectangle is equally likely.
    """
    state = (0,) * rows
    letters = []
    while sum(state) < rows * cols:
        pick = rng.randrange(_completions(state, cols))
        for r in range(rows):
            nxt = _advance(state, r, cols)
            if nxt is None:
                continue
            weight = _completions(nxt, cols)
            if pick < weight:
                letters.append(str(r + 1))
                state = nxt
                break
            pick -= weight
    return "".join(letters)


def sample_distinct_words(seed: int, rows: int, cols: int, count: int) -> list[str]:
    """`count` distinct uniformly drawn words, in draw order, fixed by `seed`."""
    total = hook_length_count((cols,) * rows)
    if count > total:
        raise ValueError(f"asked for {count} distinct words of {rows}x{cols}; only {total} exist")
    rng = random.Random(seed)
    seen: dict[str, None] = {}
    while len(seen) < count:
        seen.setdefault(sample_word(rng, rows, cols))
    return list(seen)


def sample_symmetric_word(rng: random.Random, rows: int, cols: int) -> str:
    """A rotationally symmetric lattice word of the rows x cols rectangle.

    Draws the first half as a lattice prefix, mirrors it, and retries
    until the whole word is a lattice word.  Not uniform, but fixed by
    the generator's state.
    """
    size = rows * cols
    if size % 2 and rows % 2 == 0:
        raise ValueError("an odd-size rectangle with an even row count has no symmetric tableau")
    while True:
        state = (0,) * rows
        letters = []
        for _ in range(size // 2):
            options = [r for r in range(rows) if _advance(state, r, cols) is not None]
            r = rng.choice(options)
            state = _advance(state, r, cols)
            letters.append(str(r + 1))
        middle = [str((rows + 1) // 2)] if size % 2 else []
        mirror = [str(rows + 1 - int(ch)) for ch in reversed(letters)]
        word = "".join(letters + middle + mirror)
        if is_lattice_word(word, rows, cols):
            return word


def is_lattice_word(word: str, rows: int, cols: int) -> bool:
    counts = [0] * (rows + 1)
    for ch in word:
        r = int(ch)
        if not 1 <= r <= rows:
            return False
        counts[r] += 1
        if counts[r] > cols or (r > 1 and counts[r] > counts[r - 1]):
            return False
    return len(word) == rows * cols


def _rank(p: float, n: int) -> int:
    """ceil(p/100 * n), at least 1, in integer arithmetic on p in tenths of a percent."""
    return max(1, -(-round(p * 10) * n // 1000))


def nearest_rank(values: list[float], p: float) -> float:
    """The p-th percentile by the nearest-rank rule: sorted[ceil(p/100 * n) - 1]."""
    if not values:
        raise ValueError("no samples")
    return sorted(values)[_rank(p, len(values)) - 1]


TAIL_LADDER = (99.9, 99.0, 90.0, 50.0)


def tail_percentile(n: int) -> float | None:
    """The highest percentile in TAIL_LADDER with at least ten of `n` samples beyond it."""
    for p in TAIL_LADDER:
        if n - _rank(p, n) >= 10:
            return p
    return None


def relative_spread(values: list[float]) -> float:
    """Distance between the first and third quartile, as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def report_digest(report: dict) -> str:
    """sha256 of a VerificationReport dict with its wall time removed."""
    stable = {k: v for k, v in report.items() if k != "elapsed"}
    return hashlib.sha256(json.dumps(stable, sort_keys=True).encode()).hexdigest()


def self_times(spans) -> list[int]:
    """Self time of every span: its duration minus the time its children cover.

    `spans` is a sequence of (start, end, parent) where parent indexes the
    enclosing span or is -1.  Children of one parent run one after another
    in a single thread, so their durations never overlap.
    """
    child_total = [0] * len(spans)
    for start, end, parent in spans:
        if parent >= 0:
            child_total[parent] += end - start
    return [end - start - child_total[i] for i, (start, end, _) in enumerate(spans)]
