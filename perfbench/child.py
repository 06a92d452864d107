"""Child processes of the benchmark.

``python perfbench/child.py setup``
    A fresh interpreter's set-up: times ``import repro`` and one
    ``QirSession`` construction, and prints them as one JSON line with the
    moment the interpreter began running this script.

``python perfbench/child.py qir-run SPANS_JSON ARG...``
    A traced ``qir-run ARG...`` request: records the startup import and
    every layer span in memory and writes them to SPANS_JSON at exit.

Times are ``time.perf_counter`` readings, which the parent compares with
its own: the clock is system-wide (``CLOCK_MONOTONIC`` on Linux).
"""

from time import perf_counter

BOOT = perf_counter()

import json  # noqa: E402
import sys  # noqa: E402


def setup() -> int:
    start = perf_counter()
    import repro  # noqa: F401
    from repro.runtime import QirSession

    imported = perf_counter()
    QirSession(seed=0)
    ready = perf_counter()
    print(
        json.dumps(
            {
                "boot": BOOT,
                "import_s": imported - start,
                "session_s": ready - imported,
            }
        )
    )
    return 0


def qir_run(spans_path: str, argv: list) -> int:
    start = perf_counter()
    import repro.tools.qir_run as qir_run_tool

    imported = perf_counter()
    from spans import Recorder, Span, span_to_json

    recorder = Recorder().install()
    code = 3
    try:
        code = qir_run_tool.main(argv)
    finally:
        spans = [Span("startup.import", start, imported)] + recorder.spans
        rows = [span_to_json(s) for s in spans]
        with open(spans_path, "w", encoding="utf-8") as handle:
            json.dump({"boot": BOOT, "exit": perf_counter(), "spans": rows}, handle)
    return code


if __name__ == "__main__":
    if sys.argv[1:2] == ["setup"]:
        sys.exit(setup())
    if sys.argv[1:2] == ["qir-run"] and len(sys.argv) >= 3:
        sys.exit(qir_run(sys.argv[2], sys.argv[3:]))
    print(__doc__, file=sys.stderr)
    sys.exit(2)
