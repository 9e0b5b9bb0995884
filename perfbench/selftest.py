"""Self-test of the benchmark on tiny inputs: ``python3 perfbench/selftest.py``.

Runs ``run.py --smoke`` on every workload, traced and untraced, and checks
that

* the last line is the result object with exactly the agreed keys, and it
  carries every metric BENCHMARK.json names, with its unit;
* the summary lines name all six end-to-end metrics with their units;
* layer self times plus ``bench.self_s`` partition the traced wall time,
  and every ``*.calls`` count repeats between two traced runs;
* an injected wrong answer is counted in ``failed`` and ``ops_failed_frac``;
* in a directory with only BENCHMARK.json and perfbench, the benchmark
  exits non-zero without printing a result.

Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from run import END_TO_END, LAYERS  # noqa: E402


def bench(*args: str, cwd: str = ROOT) -> tuple[int, list[str]]:
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--seed", "3", "--seconds", "1",
                           *args], cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc.returncode, proc.stdout.strip().splitlines()


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    problems = []

    def expect(ok: bool, what: str) -> None:
        if not ok:
            problems.append(what)

    for workload in (w["name"] for w in spec["workloads"]):
        for trace, group in (("0", "end_to_end"), ("1", "per_layer")):
            code, lines = bench("--workload", workload, "--trace", trace, "--smoke")
            expect(code == 0, f"{workload} trace {trace}: exit {code}")
            result = json.loads(lines[-1])
            expect(set(result) == {"correct", "attempted", "failed", "metrics"},
                   f"{workload}: result keys {sorted(result)}")
            expect(result["correct"] and result["failed"] == 0, f"{workload}: wrong answers")
            for metric in spec[group]:
                got = result["metrics"].get(metric["name"])
                expect(got is not None and got["unit"] == metric["unit"],
                       f"{workload} trace {trace}: metric {metric['name']} missing or wrong unit")
            if trace == "0":
                text = "\n".join(lines[:-1])
                for name, unit in END_TO_END.items():
                    expect(any(line.split()[:1] == [name] and line.split()[-1] == unit
                               for line in lines[:-1]),
                           f"{workload}: summary lacks {name} in {unit}:\n{text}")
            else:
                metrics = {k: v["value"] for k, v in result["metrics"].items()}
                shares = sum(metrics[f"{layer}.share"] for layer in LAYERS) + metrics["bench.share"]
                expect(abs(shares - 1) < 1e-6, f"{workload}: shares sum to {shares}")
                _, again = bench("--workload", workload, "--trace", "1", "--smoke")
                repeat = {k: v["value"] for k, v in json.loads(again[-1])["metrics"].items()}
                for key, value in metrics.items():
                    if key.endswith("calls") or key.endswith("cells") or key.endswith("steps"):
                        expect(repeat[key] == value, f"{workload}: {key} {value} then {repeat[key]}")

        code, lines = bench("--workload", workload, "--trace", "0", "--smoke",
                            "--inject-wrong-answer")
        result = json.loads(lines[-1])
        frac = next(float(line.split()[1]) for line in lines if line.split()[:1] == ["ops_failed_frac"])
        expect(result["failed"] == 1 and not result["correct"] and frac > 0,
               f"{workload}: injected wrong answer not counted ({result}, {frac})")

    bare = os.path.join(HERE, "out", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"), ignore=shutil.ignore_patterns("out"))
    code, lines = bench("--workload", spec["workloads"][0]["name"], "--trace", "0", cwd=bare)
    expect(code != 0 and not any(line.startswith("{") for line in lines),
           f"bare directory: exit {code}, output {lines}")
    shutil.rmtree(bare)

    for problem in problems:
        print("FAIL:", problem)
    print("selftest:", "ok" if not problems else f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
