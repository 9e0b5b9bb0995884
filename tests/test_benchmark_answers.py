"""The benchmark's expected answers, checked in process: one round of every
mix of ``perfbench/run.py``, built by its own ``build_ops`` and judged by
its own ``check`` against ``perfbench/expected.json``, so a change that
relabels a benchmark shape fails here and not only when the benchmark
runs."""

import io
import json
from pathlib import Path

import pytest

from waringcert import PointSet, certify, cli, generic_info

from conftest import load_script

run = load_script("perfbench", "run")
EXPECTED = json.loads((Path(run.HERE) / "expected.json").read_text(encoding="utf-8"))


def answer(workload, op, monkeypatch, capsys):
    """The answer the benchmark's worker would send for one op."""
    if workload == "generic":
        info = generic_info(op["n"], op["d"], seed=op["seed"])
        return [info.generic_rank, info.oracle_verified]
    if workload == "cli":
        monkeypatch.setattr("sys.stdin", io.StringIO(op["text"]))
        code = cli.run([op["verb"], "-", *op["args"], "--format", "structured"])
        return [code, json.loads(capsys.readouterr().out)]
    cert = certify(PointSet.from_rows(op["rows"]), op["d"])
    return [cert.verdict.value, cert.criterion, cert.rank]


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("workload", sorted(run.MIXES))
def test_one_round_of_each_mix_gets_its_expected_answers(monkeypatch, capsys, workload, seed):
    ops = run.build_ops(workload, seed, 1, False)
    assert len(ops) == len(run.MIXES[workload])
    kind = workload if workload in ("generic", "cli") else "certify"
    for op in ops:
        got = answer(workload, op, monkeypatch, capsys)
        assert run.check(workload, op, got, EXPECTED.get(kind, {})) is None, \
            run.shape_key(workload, op)
