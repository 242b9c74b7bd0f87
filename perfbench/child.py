"""One ellcert CLI invocation in a fresh interpreter, as a user runs it.

    python3 perfbench/child.py MODE RESULT_JSON CLI_ARG...

MODE is one of

* ``timed``:  time every verdict at the CLI's dispatch boundary
  (``cli.certify_candidate`` for search, the certifier call for
  ``verify --file``) and note the first dispatch;
* ``traced``: as ``timed``, plus the span tracer of ``tracer.py``;
* ``plain``:  no wrappers at all (used for the multi-worker rerun, whose
  workers must unpickle the real ``certify_candidate``);
* ``probes``: CLI_ARG is one JSON list of argument lists; run each and
  classify how it ended.

The parent sets PYTHONPATH to the checkout's ``src``.  RESULT_JSON gets
the exit code, dispatch stamps, verdict times and outcomes, peak RSS
and, when traced, the spans.  Clock: ``time.monotonic`` (CLOCK_MONOTONIC
on Linux, shared by all processes), so the parent can subtract its own
spawn stamp.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import resource
import sys
import time
from collections import Counter

import ellcert.cli as cli
from ellcert.errors import PreconditionFailure

CERTIFIERS = (
    "certify_divisibility",
    "certify_square_subfamily",
    "certify_infinite_instance",
    "certify_rank_one",
)


class Verdicts:
    """Time and classify each dispatched candidate or record."""

    def __init__(self):
        self.starts: list[float] = []
        self.times: list[float] = []
        self.outcomes: Counter = Counter()
        self.first: float | None = None
        self._reason: str | None = None

    def _timed(self, fn, classify):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = time.monotonic()
            if self.first is None:
                self.first = t0
            self.starts.append(t0)
            self._reason = None
            outcome = "errored:interrupted"
            try:
                out = fn(*args, **kwargs)
                outcome = classify(out)
                return out
            except PreconditionFailure as exc:
                outcome = "refused:" + exc.reason
                raise
            except Exception as exc:
                outcome = "errored:" + type(exc).__name__
                raise
            finally:
                self.times.append(time.monotonic() - t0)
                self.outcomes[outcome] += 1

        return wrapper

    def _reason_of(self, fn):
        # certify_candidate swallows PreconditionFailure; keep its reason
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                return fn(*args, **kwargs)
            except PreconditionFailure as exc:
                self._reason = exc.reason
                raise

        return wrapper

    def install(self, command: str) -> None:
        if command == "search":
            for name in CERTIFIERS:
                setattr(cli, name, self._reason_of(getattr(cli, name)))
            cli.certify_candidate = self._timed(
                cli.certify_candidate,
                lambda line: "certified" if line is not None
                else f"refused:{self._reason}",
            )
        else:
            for name in CERTIFIERS:
                setattr(cli, name, self._timed(getattr(cli, name), lambda _: "certified"))


def run_cli(argv) -> tuple[int | None, str | None]:
    """cli.main as the console script runs it; (exit code, error)."""
    try:
        return cli.main(argv), None
    except SystemExit as exc:
        return (exc.code if isinstance(exc.code, int) else 2), None
    except Exception as exc:  # an escaped exception is the measured failure
        return None, f"{type(exc).__name__}: {exc}"


def run_probes(probes) -> list[dict]:
    out = []
    for argv in probes:
        t0 = time.monotonic()
        with contextlib.redirect_stdout(io.StringIO()):
            code, error = run_cli(argv)
        if error is not None:
            outcome = "errored:" + error.split(":", 1)[0]
        else:
            outcome = {0: "certified", 1: "refused"}.get(code, f"exit-{code}")
        out.append({"argv": argv, "outcome": outcome, "error": error,
                    "seconds": time.monotonic() - t0})
    return out


def main() -> int:
    mode, result_path, *argv = sys.argv[1:]
    result: dict = {"mode": mode}
    if mode == "probes":
        result["probes"] = run_probes(json.loads(argv[0]))
    else:
        tracer = None
        if mode == "traced":
            from tracer import Tracer  # the script's directory is on sys.path

            tracer = Tracer()
            tracer.install()
        verdicts = Verdicts()
        if mode != "plain":
            verdicts.install(argv[0])
        code, error = run_cli(argv)
        result.update(
            exit_code=code,
            error=error,
            first_dispatch=verdicts.first,
            verdict_start=verdicts.starts,
            verdict_s=verdicts.times,
            outcomes=dict(verdicts.outcomes),
        )
        if tracer is not None:
            result["trace"] = tracer.dump()
    usage = resource.getrusage(resource.RUSAGE_SELF)
    result["peak_rss_kb"] = usage.ru_maxrss
    result["cpu_s"] = usage.ru_utime + usage.ru_stime
    result["end"] = time.monotonic()
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
