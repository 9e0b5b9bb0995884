"""The waringcert benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; waringcert is imported from its ``src``.
A run is a fixed list of ops built from the seed (``RUN_ROUNDS`` rounds of
the workload's mix per 24 seconds), so two runs with the same arguments do
identical work.  Load is a closed loop with one caller: one op at a time,
in a fresh interpreter, each op on a fresh input, so the library's global
caches never serve one op from another op's work.  Every answer is checked.

Speed of the host drifts by tens of percent within a minute, so each op is
also run, alternately and on the same input, by a frozen copy of the
library (``perfbench/reference``, this benchmark's baseline) in a second
worker.  Each reported time is the checkout's measured time scaled by
``nominal / measured`` of its paired reference op (or set-up), i.e. at the
reference speed recorded in ``nominal.json``.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the ops
untraced and traced, alternately, and prints the per-layer metrics.  The
last line of standard output is one JSON object: correct, attempted,
failed, metrics.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import select
import shutil
import statistics
import subprocess
import sys
import time
from math import comb

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from inputs import canonical_digest, draw_points, point_file_text  # noqa: E402
from tracer import LAYERS, merge  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
REFERENCE_SRC = os.path.join(HERE, "reference")

# certify(a, d) shapes (n, l, d).  Every mix has an odd number of shapes and
# a round count that puts the median and the tail sample inside one shape's
# group of ops rather than on the edge between two groups.
CERTIFY_MIXES = {
    "wide": [(4, 7, 3), (3, 9, 4), (3, 11, 3), (4, 9, 4), (3, 12, 2), (3, 12, 5),
             (4, 10, 4)],
    "plane": [(1, 4, 9), (2, 5, 4), (1, 6, 9), (2, 9, 6), (2, 11, 10), (2, 13, 9),
              (2, 14, 6), (2, 15, 7), (2, 16, 6)],
}
# generic_info(n, d) shapes.
GENERIC_MIX = [(2, 4), (2, 6), (4, 3), (3, 4), (2, 7), (5, 3), (2, 8)]
# Cold CLI runs: (verb, n, l, extra arguments).
CLI_MIX = [
    ("certify", 2, 6, ["--degree", "5"]),
    ("certify", 2, 5, ["--degree", "4"]),
    ("certify", 2, 8, ["--degree", "2"]),
    ("hilbert", 2, 8, []),
    ("hilbert", 3, 8, []),
    ("kruskal", 2, 8, ["--degree", "3"]),
    ("kruskal", 3, 8, ["--degree", "2"]),
    ("terracini", 2, 5, ["--degree", "4"]),
    ("terracini", 3, 7, ["--degree", "3"]),
]
MIXES = {**CERTIFY_MIXES, "generic": GENERIC_MIX, "cli": CLI_MIX}
# Rounds of the mix per 24 seconds of run.  Each op runs twice (checkout and
# reference), so a run takes 15-25 s on the reference machine.
RUN_ROUNDS = {"wide": 6, "plane": 4, "generic": 7, "cli": 5}
# One round of a few cheap shapes of each mix, for --smoke.
SMOKE = {"wide": [(4, 7, 3)], "plane": [(2, 5, 4), (1, 4, 9)],
         "generic": [(2, 4), (4, 3)], "cli": [CLI_MIX[i] for i in (1, 2, 3, 5, 7)]}

# Alexander-Hirschowitz: the generic rank is ceil(C(n+d, d) / (n+1)) except
# at these (n, d) with d >= 3, where it is one more.
AH_DEFECTIVE = {(2, 4), (3, 4), (4, 3), (4, 4)}
# Known non-identifiable shapes (n, l, d): must never be certified.
GUARD_SHAPES = {(2, 5, 4), (2, 9, 6), (3, 9, 4), (4, 7, 3)}
EXIT_BY_VERDICT = {"Identifiable": 0, "Inconclusive": 2, "NotMinimal": 3}

SETUP_SAMPLES = 5
TAIL_BEYOND = 10
READ_TIMEOUT_S = 150

END_TO_END = {
    "setup_s": "s", "ops_per_s": "ops/s", "latency_p50_ms": "ms",
    "latency_tail_ms": "ms", "peak_rss_mb": "MB", "ops_failed_frac": "ratio",
}


def per_layer_units() -> dict[str, str]:
    units = {}
    for layer in LAYERS:
        units[f"{layer}.self_s"] = "s"
        units[f"{layer}.share"] = "ratio"
        units[f"{layer}.calls"] = "count"
    units.update({
        "linalg.rank_calls": "count", "linalg.cells": "count", "linalg.max_cells": "count",
        "hilbert.profile_s": "s", "hilbert.function_calls": "count",
        "kruskal.veronese_rank_s": "s", "kruskal.veronese_rank_calls": "count",
        "terracini.dimension_s": "s", "terracini.dimension_calls": "count",
        "geometry.collinear_s": "s", "geometry.veronese_embed_calls": "count",
        "certify.generic_sweep_steps": "count", "cli.import_s": "s",
        "bench.self_s": "s", "bench.share": "ratio", "trace.overhead": "ratio",
    })
    return units


def shape_key(workload: str, op: dict) -> str:
    if workload == "cli":
        return " ".join([op["verb"], f"n={op['n']}", f"l={op['l']}", *op["args"]])
    if workload == "generic":
        return f"{op['n']},{op['d']}"
    return f"{op['n']},{op['l']},{op['d']}"


def build_ops(workload: str, seed: int, seconds: int, smoke: bool) -> list[dict]:
    """The fixed op list of one run: every input comes from random.Random(seed)."""
    rng = random.Random(f"waringcert-bench/{workload}/{seed}")
    if smoke:
        mix, rounds = SMOKE[workload], 1
    else:
        mix, rounds = MIXES[workload], max(1, round(RUN_ROUNDS[workload] * seconds / 24))
    ops = []
    seeds_used: set[int] = set()
    for _ in range(rounds):
        for shape in mix:
            if workload == "generic":
                n, d = shape
                op_seed = rng.randrange(2**31)
                while op_seed in seeds_used:
                    op_seed = rng.randrange(2**31)
                seeds_used.add(op_seed)
                ops.append({"n": n, "d": d, "seed": op_seed})
            elif workload == "cli":
                verb, n, l, args = shape
                rows = draw_points(rng, n, l)
                ops.append({"verb": verb, "n": n, "l": l, "args": args, "rows": rows,
                            "text": point_file_text(rows)})
            else:
                n, l, d = shape
                ops.append({"n": n, "l": l, "d": d, "rows": draw_points(rng, n, l)})
    return ops


def check(workload: str, op: dict, answer, expected: dict) -> str | None:
    """None when the op's answer is right, else why it is wrong.

    Only semantic fields are compared, never the diagnostics block.
    """
    if answer is None:
        return "raised"
    if workload == "generic":
        n, d = op["n"], op["d"]
        want = -(-comb(n + d, d) // (n + 1)) + ((n, d) in AH_DEFECTIVE)
        return None if answer == [want, True] else f"{answer}, expected [{want}, True]"
    want = expected[shape_key(workload, op)]
    if workload != "cli":
        if (op["n"], op["l"], op["d"]) in GUARD_SHAPES and answer[0] == "Identifiable":
            return "guard shape certified Identifiable"
        return None if answer == want else f"{answer}, expected {want}"
    code, report = answer
    if not isinstance(report, dict):
        return f"exit {code} without a JSON report"
    verb = op["verb"]
    block = report.get("input", {})
    if (report.get("command") != verb or block.get("set_size") != op["l"]
            or block.get("ambient_dim") != op["n"]
            or block.get("digest") != canonical_digest(op["rows"])):
        return "report does not describe the input"
    if verb == "certify":
        cert = report["certificate"]
        got = [cert["verdict"], cert["criterion"], cert["rank"]]
        if code != EXIT_BY_VERDICT.get(cert["verdict"]):
            return f"exit {code} for verdict {cert['verdict']}"
        if (op["n"], op["l"], int(op["args"][1])) in GUARD_SHAPES and got[0] == "Identifiable":
            return "guard shape certified Identifiable"
    elif code != 0:
        return f"exit {code}"
    elif verb == "hilbert":
        got = report["profile"]["h_vector"]
    elif verb == "kruskal":
        got = [report["kruskal_rank"], report["general_uniform_position"]]
    else:
        got = report["terracini"]["dim"]
    return None if got == want else f"{got}, expected {want}"


class Worker:
    """A worker.py process, driven one op at a time over its pipes."""

    def __init__(self, job: dict, job_path: str):
        with open(job_path, "w", encoding="utf-8") as handle:
            json.dump(job, handle)
        spawn = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "worker.py"), job_path, repr(spawn)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        try:
            self.setup_s = self.read()["setup_s"]
        except BaseException:
            self.close()
            raise

    def read(self) -> dict:
        ready, _, _ = select.select([self.proc.stdout], [], [], READ_TIMEOUT_S)
        line = self.proc.stdout.readline() if ready else ""
        if not line:
            raise RuntimeError(f"worker {self.proc.args[2]} stopped answering")
        return json.loads(line)

    def ask(self, message: str) -> dict:
        self.proc.stdin.write(message + "\n")
        self.proc.stdin.flush()
        return self.read()

    def close(self) -> None:
        """End the worker (closing stdin ends its op loop) and wait for it."""
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def run_lockstep(workers: list[Worker], n_ops: int) -> list[tuple[list[dict], dict]]:
    """Run every op on each worker, alternating which goes first, so that
    the host's drift hits both alike; returns (replies, closing) per worker."""
    replies: list[list[dict]] = [[] for _ in workers]
    for i in range(n_ops):
        order = range(len(workers)) if i % 2 == 0 else reversed(range(len(workers)))
        for w in order:
            replies[w].append(workers[w].ask(str(i)))
    return [(replies[w], worker.ask("end")) for w, worker in enumerate(workers)]


def tail_latency(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest nearest-rank percentile with at
    least TAIL_BEYOND samples beyond it; the median when there are too few."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return statistics.median(ordered), 50.0
    return ordered[n - TAIL_BEYOND - 1], 100 * (n - TAIL_BEYOND) / n


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(MIXES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="one round of a few cheap ops (self-test)")
    parser.add_argument("--inject-wrong-answer", action="store_true",
                        help="corrupt the first op's answer before checking (self-test)")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "waringcert", "__init__.py")):
        print(f"error: no waringcert sources under {SRC}", file=sys.stderr)
        return 2
    with open(os.path.join(HERE, "expected.json"), encoding="utf-8") as handle:
        expected = json.load(handle)
    with open(os.path.join(HERE, "nominal.json"), encoding="utf-8") as handle:
        nominal = json.load(handle)

    workload = args.workload
    ops = build_ops(workload, args.seed, args.seconds, args.smoke)
    kind = workload if workload in ("generic", "cli") else "certify"
    workdir = os.path.join(HERE, "out", workload)
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    workers: list[Worker] = []

    def start(tag: str, src: str = SRC, **extra) -> Worker:
        job = {"kind": kind, "src": src, "ops": ops, "trace": False, "setup_only": False,
               "workdir": os.path.join(workdir, tag),
               "spans_path": os.path.join(workdir, "spans.json"), **extra}
        worker = Worker(job, os.path.join(workdir, f"{tag}.job.json"))
        workers.append(worker)
        return worker

    try:
        setups: dict[str, list[float]] = {"main": [], "ref": []}
        if args.trace:
            pair = [start("untraced"), start("traced", trace=True)]
        else:
            for i in range(SETUP_SAMPLES - 1):
                for side in (("main", "ref") if i % 2 == 0 else ("ref", "main")):
                    src = SRC if side == "main" else REFERENCE_SRC
                    worker = start(f"setup-{side}{i}", src=src, setup_only=True)
                    setups[side].append(worker.setup_s)
                    worker.close()
            pair = [start("main"), start("ref", src=REFERENCE_SRC)]
            setups["main"].append(pair[0].setup_s)
            setups["ref"].append(pair[1].setup_s)
        (main_replies, main_end), (other_replies, other_end) = run_lockstep(pair, len(ops))
    finally:
        for worker in workers:
            worker.close()

    if args.inject_wrong_answer:
        main_replies[0]["answer"] = ["Wrong", None, None] if kind == "certify" else None
    # Both workers of a traced run run the checkout; the reference is not checked.
    checked = [main_replies, other_replies] if args.trace else [main_replies]
    attempted = failed = 0
    for replies in checked:
        for i, (op, reply) in enumerate(zip(ops, replies)):
            attempted += 1
            why = check(workload, op, reply["answer"], expected.get(kind, {}))
            if why is not None:
                failed += 1
                print(f"wrong answer, op {i} ({shape_key(workload, op)}): {why}", file=sys.stderr)
            if reply["error"]:
                print(f"error, op {i}: {reply['error']}", file=sys.stderr)
    main_lat = [r["latency_s"] for r in main_replies]
    other_lat = [r["latency_s"] for r in other_replies]
    with open(os.path.join(workdir, "run.json"), "w", encoding="utf-8") as handle:
        json.dump({"shapes": [shape_key(workload, op) for op in ops], "latency_s": main_lat,
                   "other_latency_s": other_lat, "setup_s": setups}, handle)

    print(f"workload {workload}, seed {args.seed}: {len(ops)} ops, {attempted} answers "
          f"checked, {failed} wrong")
    if args.trace:
        summary = merge(other_end["trace"])
        wall = other_end["traced_wall_s"]
        summary["bench.self_s"] = wall - summary["trace.top_level_s"]
        units = per_layer_units()
        values = {key: summary[key] for key in units if key in summary}
        for layer in LAYERS + ("bench",):
            values[f"{layer}.share"] = summary[f"{layer}.self_s"] / wall
        values["trace.overhead"] = sum(other_lat) / sum(main_lat) - 1
        print(f"  traced wall {wall:.4f} s over {int(summary['trace.spans'])} spans; "
              "the layers' self_s and bench.self_s partition it")
    else:
        reference = nominal["op_s"][workload]
        lat_ms = [1000 * m * reference[shape_key(workload, op)] / r
                  for op, m, r in zip(ops, main_lat, other_lat)]
        setup_ratios = [m / r for m, r in zip(setups["main"], setups["ref"])]
        tail, pct = tail_latency(lat_ms)
        values = {
            "setup_s": statistics.median(setup_ratios) * nominal["setup_s"][workload],
            "ops_per_s": 1000 * len(ops) / sum(lat_ms),
            "latency_p50_ms": statistics.median(lat_ms),
            "latency_tail_ms": tail,
            "peak_rss_mb": main_end["peak_rss_mb"],
            "ops_failed_frac": failed / attempted,
        }
        units = END_TO_END
        print(f"  unscaled: ops_per_s {len(ops) / sum(main_lat):.6g}, setup_s "
              f"{statistics.median(setups['main']):.6g}; checkout / reference time: "
              f"ops {sum(main_lat) / sum(other_lat):.4f}, set-up "
              f"{statistics.median(setup_ratios):.4f}")
        print(f"  setup_s is the median of {len(setup_ratios)} set-ups; latency_tail_ms is "
              f"p{pct:.4g} of {len(lat_ms)} samples ({min(TAIL_BEYOND, len(lat_ms) // 2)} "
              "beyond it)")
    for key, unit in units.items():
        print(f"  {key:<30} {values[key]:>14.6g} {unit}")
    reported = {k: v for k, v in values.items() if k != "ops_failed_frac"}
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in reported.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
