"""The reach ledger (``reach/run.py``) on a slice of its corpus: its keys,
its counts, its bytes and its soundness flag."""

import json
import re
from itertools import islice

from waringcert import PointSet

from conftest import load_script

run = load_script("reach", "run")

KEY = re.compile(r"(Identifiable|NotMinimal|Inconclusive) [a-z-]+")


def _slice():
    """Ten general sets, strided through P^1..P^4, and ten adversaries."""
    general = list(islice(run.general_sets(), 0, 1400, 141))
    families = ("grid", "conic", "binary d=2", "binary d=5", "binary d=9")
    adversaries = [case for case in run.adversary_sets() if case[0].startswith(families)]
    return general, adversaries


def test_a_slice_of_the_ledger_counts_every_set_and_is_sound():
    general, adversaries = _slice()
    assert len(general) == len(adversaries) == 10
    assert {a.ambient_dim for _, a, _ in general} == {1, 2, 3, 4}
    out = run.ledger(general, adversaries)
    assert sorted(out) == ["adversary", "general", "sound"]
    assert out["sound"] is True
    for part, sets in (("general", general), ("adversary", adversaries)):
        assert set(out[part]) == {cell for cell, _, _ in sets}
        counts = [(key, count) for cell in out[part].values() for key, count in cell.items()]
        assert all(KEY.fullmatch(key) for key, _ in counts)
        assert sum(count for _, count in counts) == len(sets)
    assert not any(key.startswith("Identifiable") for cell in out["adversary"].values()
                   for key in cell)
    assert run.ledger(*_slice()) == out


def test_an_identifiable_adversary_makes_the_ledger_unsound(tmp_path, monkeypatch):
    # Three points of P^2 in general position at degree 3 are certified;
    # handed in as an adversary, they make the run exit 1.
    triangle = ("triangle d=3", PointSet.from_rows([(1, 0, 0), (0, 1, 0), (0, 0, 1)]), 3)
    assert run.ledger([], [triangle]) == {
        "adversary": {"triangle d=3": {"Identifiable reshaped-kruskal": 1}}, "general": {},
        "sound": False}
    monkeypatch.setattr(run, "general_sets", lambda: iter(()))
    monkeypatch.setattr(run, "adversary_sets", lambda: iter([triangle]))
    out = tmp_path / "reach.json"
    assert run.main([str(out)]) == 1
    text = out.read_text()
    assert text == json.dumps(json.loads(text), indent=1, sort_keys=True) + "\n"
    assert json.loads(text)["sound"] is False
