"""One child process of the benchmark.

    python3 perfbench/child.py cli TRACE_FILE REQUEST_ID ARG...
        jetspace.cli.main(ARGs) with spans recorded into TRACE_FILE; exits
        with main's code, like `python3 -m jetspace ARG...`.

    python3 perfbench/child.py survey LIMIT_S [TRACE_FILE] < calls.json
        The library calls of one survey, in order, in this one process (so
        they share do_dimension's cache).  Prints one JSON line per call:
        its id, elapsed seconds, and its value, its jetspace error, a
        traceback, or a timeout after LIMIT_S seconds.
"""

from __future__ import annotations

import json
import signal
import sys
import time
import traceback

from tracing import Tracer


class RequestTimeout(BaseException):
    """Raised by SIGALRM; a BaseException so no library handler eats it."""


def _growth_value(report) -> dict:
    return {"dims": [row.dim for row in report.table.rows],
            "threshold": report.table.threshold,
            "coeffs": [str(c) for c in report.polynomial.coeffs],
            "verdict": report.verdict,
            "first_failure": report.first_failure}


def _twist_value(result) -> dict:
    return {"order": result.order, "dim": result.dim,
            "searched_up_to": result.searched_up_to}


def _cli(trace_path: str, request: str, argv: list[str]) -> int:
    tracer = Tracer()
    tracer.install()
    tracer.request = request
    import jetspace.cli

    try:
        return jetspace.cli.main(argv)
    finally:
        tracer.dump(trace_path)


def _survey(limit: float, trace_path: str | None) -> int:
    calls = json.load(sys.stdin)
    tracer = None
    if trace_path:
        tracer = Tracer()
        tracer.install()
    from jetspace import growth, projective
    from jetspace.errors import InconsistencyError, PreconditionError

    library = {
        "verify_growth": (growth.verify_growth, _growth_value),
        "negative_twist_existence": (projective.negative_twist_existence, _twist_value),
    }

    def on_alarm(signum, frame):
        raise RequestTimeout

    signal.signal(signal.SIGALRM, on_alarm)
    for call in calls:
        fn, convert = library[call["fn"]]
        if tracer:
            tracer.request = call["id"]
        out = {"id": call["id"]}
        start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, limit)
        try:
            result = fn(*call["args"])
            out["elapsed"] = time.perf_counter() - start
            out["value"] = convert(result)
        except RequestTimeout:
            out["timeout"] = True
        except (InconsistencyError, PreconditionError) as exc:
            out["error"] = type(exc).__name__
            out["message"] = str(exc)
        except Exception:
            out["traceback"] = traceback.format_exc()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        out.setdefault("elapsed", time.perf_counter() - start)
        print(json.dumps(out), flush=True)
    if tracer:
        tracer.dump(trace_path)
    return 0


def main(argv: list[str]) -> int:
    if argv[0] == "cli":
        return _cli(argv[1], argv[2], argv[3:])
    if argv[0] == "survey":
        return _survey(float(argv[1]), argv[2] if len(argv) > 2 else None)
    raise SystemExit(f"unknown child mode {argv[0]!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
