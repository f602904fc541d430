"""Benchmark-owned stand-in for `python -m webfold.cli`.

    [PERFBENCH_TRACE_OUT=PATH PERFBENCH_INSTANCE=K] python3 perfbench/cli_entry.py ARGS...

Imports webfold.cli first, timing only that import, then installs the
span wrappers when PERFBENCH_TRACE_OUT is set and calls
`webfold.cli.main` with ARGS.  Span totals, the import time and the
spans themselves are written to PATH.json and PATH.tsv even when main
raises, so a traceback still leaves its trace behind.  Without
PERFBENCH_TRACE_OUT it is the untraced reference that the tracing
overhead is measured against.
"""

import sys
import time

_start = time.perf_counter()
import webfold.cli  # noqa: E402  (timed: nothing of the harness is loaded before it)

IMPORT_S = time.perf_counter() - _start

import json  # noqa: E402
import os  # noqa: E402

import tracing  # noqa: E402


def main() -> int:
    out = os.environ.get("PERFBENCH_TRACE_OUT")
    if out is None:
        return webfold.cli.main(sys.argv[1:])
    rec = tracing.Recorder()
    rec.current_instance = int(os.environ["PERFBENCH_INSTANCE"])
    tracing.install(rec)
    try:
        return webfold.cli.main(sys.argv[1:])
    finally:
        with open(out + ".json", "w") as f:
            json.dump(
                {
                    "import_s": IMPORT_S,
                    "totals": rec.totals(),
                    "resolve_calls": rec.resolve_calls,
                    "resolve_repeats": rec.resolve_repeats,
                },
                f,
            )
        rec.write_spans(out + ".tsv")


if __name__ == "__main__":
    sys.exit(main())
