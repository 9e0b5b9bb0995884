"""One fresh interpreter that sets up and then runs benchmark ops on request.

Usage: ``python3 worker.py JOB.json SPAWN_TIME``.  SPAWN_TIME is the
parent's ``time.perf_counter()`` just before it started this process; on
Linux that clock is system-wide, so the set-up time reported here runs
from process start until the first op is ready.

Protocol, one JSON object per line on stdout: first ``{"setup_s": ...}``;
then, for each op index read from stdin, ``{"latency_s": ..., "answer":
..., "error": ...}``; on ``end``, a closing object with peak RSS and, for a
traced job, the trace summary.  A ``setup_only`` job exits after the first
line.

Library jobs (``certify``, ``generic``) import waringcert from ``src`` and
build every input with ``PointSet.from_rows``.  ``cli`` jobs write the
point files and start one cold CLI process per op.  Only the public API is
used, with serial defaults (``jobs`` is never passed).
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def _send(obj: dict) -> None:
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


def _library(job: dict, spawn: float):
    src = job["src"]
    sys.path.insert(0, src)
    import waringcert
    if not os.path.abspath(waringcert.__file__).startswith(src + os.sep):
        raise RuntimeError(f"imported waringcert from {waringcert.__file__}, not {src}")
    tracer = None
    if job["trace"]:
        sys.path.insert(0, HERE)
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    traced_from = time.perf_counter()
    from waringcert import PointSet, certify, generic_info
    ops = job["ops"]
    if job["kind"] == "certify":
        inputs = [PointSet.from_rows(op["rows"]) for op in ops]
    else:
        inputs = [None] * len(ops)
    ready = time.perf_counter()

    def run_op(i: int) -> dict:
        op, a = ops[i], inputs[i]
        if tracer is not None:
            tracer.current_op = i
        t0 = time.perf_counter()
        try:
            if a is not None:
                out = certify(a, op["d"])
            else:
                out = generic_info(op["n"], op["d"], seed=op["seed"])
        except Exception as exc:  # an op that raises is a failed op; keep going
            return {"latency_s": time.perf_counter() - t0, "answer": None,
                    "error": f"{type(exc).__name__}: {exc}"}
        latency = time.perf_counter() - t0
        if a is not None:
            answer = [out.verdict.value, out.criterion, out.rank]
        else:
            answer = [out.generic_rank, out.oracle_verified]
        return {"latency_s": latency, "answer": answer, "error": None}

    def finish(latencies: list[float]) -> dict:
        result = {"peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
        if tracer is not None:
            result["trace"] = [tracer.dump(job["spans_path"])]
            result["traced_wall_s"] = ready - traced_from + sum(latencies)
        return result

    return ready - spawn, run_op, finish


def _cli(job: dict, spawn: float):
    import subprocess
    workdir = job["workdir"]
    os.makedirs(workdir, exist_ok=True)
    ops = job["ops"]
    paths = []
    for i, op in enumerate(ops):
        path = os.path.join(workdir, f"op{i:04d}.pts")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(op["text"])
        paths.append(path)
    ready = time.perf_counter()
    env = dict(os.environ, PYTHONPATH=job["src"])
    traces = []

    def run_op(i: int) -> dict:
        op = ops[i]
        argv = [op["verb"], paths[i], *op["args"], "--format", "structured"]
        if job["trace"]:
            spans = os.path.join(workdir, f"spans{i:04d}.json")
            cmd = [sys.executable, os.path.join(HERE, "trace_cli.py"), spans, *argv]
        else:
            cmd = [sys.executable, "-m", "waringcert.cli", *argv]
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=120)
        latency = time.perf_counter() - t0
        if job["trace"]:
            with open(spans, encoding="utf-8") as handle:
                traces.append(json.load(handle)["summary"])
        try:
            report = json.loads(proc.stdout)
        except ValueError:
            return {"latency_s": latency, "answer": [proc.returncode, None],
                    "error": f"exit {proc.returncode}, no JSON: {proc.stderr.strip()[-300:]}"}
        return {"latency_s": latency, "answer": [proc.returncode, report], "error": None}

    def finish(latencies: list[float]) -> dict:
        result = {"peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024}
        if job["trace"]:
            result["trace"] = traces
            result["traced_wall_s"] = sum(latencies)
        return result

    return ready - spawn, run_op, finish


def main() -> None:
    job_path, spawn = sys.argv[1], float(sys.argv[2])
    with open(job_path, encoding="utf-8") as handle:
        job = json.load(handle)
    setup_s, run_op, finish = (_cli if job["kind"] == "cli" else _library)(job, spawn)
    _send({"setup_s": setup_s})
    if job["setup_only"]:
        return
    latencies = []
    for line in sys.stdin:
        if line.strip() == "end":
            break
        reply = run_op(int(line))
        latencies.append(reply["latency_s"])
        _send(reply)
    _send(finish(latencies))


if __name__ == "__main__":
    main()
