"""The reach ledger: what ``certify`` proves over a fixed, seeded corpus.

    python3 reach/run.py [OUT.json]

Run from anywhere; waringcert is imported from the ``src`` of this
checkout and the oracles from its ``tests``.  The corpus has two parts:

- general sets: for n = 1..4, d = 2..8 and l = 2 to the generic rank + 1
  (``oracles.alexander_hirschowitz_rank``), ``DRAWS`` draws of
  ``random_point_set`` in each of the coordinate boxes 3 and 30, but not
  (n, d) = (4, 8): there the Kruskal sweeps of ``reshaped_kruskal`` on
  36 to 41 points run for minutes a set, so those shapes are left out
  (``SKIPPED``) until the sweeps are bounded;
- the Cayley-Bacharach adversaries (``oracles.SECOND_DECOMPOSITION_CASES``,
  the binary ones also with a point C off Z), each set A carrying a form
  with a second decomposition of size at most l, whose relation is checked
  by ``oracles.full_support_relation`` first.

The ledger holds, per cell, the count of each verdict and criterion, and
``sound``: whether no adversary set was certified Identifiable.  It holds
no times, so two runs of the same code write the same bytes, and a change
that moves no verdict leaves the file as it was.  It is written with
sorted keys to OUT.json, or to standard output; the exit status is 1 when
the ledger is not sound.
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from oracles import (BINARY_BOUNDARY, GRID, SECOND_DECOMPOSITION_CASES,  # noqa: E402
                     alexander_hirschowitz_rank, full_support_relation,
                     monomial_values_by_powers)
from waringcert import PointSet, Verdict, certify, random_point_set  # noqa: E402

# Draws per cell and coordinate box.
DRAWS = 3
BOXES = (3, 30)
# (n, d) left out of the general grid: certify runs for minutes a set there.
SKIPPED = {(4, 8)}


def general_sets():
    """(cell, A, d) for every general set of the corpus, in a fixed order."""
    for n in range(1, 5):
        for d in (d for d in range(2, 9) if (n, d) not in SKIPPED):
            for l in range(2, alexander_hirschowitz_rank(n, d) + 2):
                for box in BOXES:
                    rng = random.Random(f"{n} {d} {l} {box}")
                    for _ in range(DRAWS):
                        yield f"n={n} d={d} l={l:03d}", random_point_set(n, l, rng, bound=box), d


def adversary_sets():
    """(cell, A, d) for every Cayley-Bacharach adversary: A = Z[:split] + C,
    where Z carries a relation with full support in degree d, so Z[split:] + C
    is a second decomposition of size at most len(A)."""
    cases = SECOND_DECOMPOSITION_CASES + [(z, d, split, (0, 1))
                                          for z, d, split, _ in BINARY_BOUNDARY]
    for z, d, split, c in cases:
        rows = monomial_values_by_powers(z, d)
        relation = full_support_relation(rows)
        if c in z or relation is None or not all(relation) or any(
                sum(w * row[k] for w, row in zip(relation, rows))
                for k in range(len(rows[0]))):
            raise ValueError(f"{z} at degree {d} is not a second decomposition with {c}")
        family = "binary" if len(z[0]) == 2 else "grid" if z is GRID else "conic"
        yield (f"{family} d={d}" + (" +C" if c else ""),
               PointSet.from_rows(z[:split] + ([c] if c else [])), d)


def ledger(general, adversaries):
    """The ledger of the sets ``general`` and ``adversaries``, each given as
    (cell, A, d)."""
    out = {"general": {}, "adversary": {}, "sound": True}
    for part, sets in (("general", general), ("adversary", adversaries)):
        for cell, a, d in sets:
            cert = certify(a, d)
            key = f"{cert.verdict.value} {cert.criterion or '-'}"
            counts = out[part].setdefault(cell, {})
            counts[key] = counts.get(key, 0) + 1
            if part == "adversary" and cert.verdict is Verdict.IDENTIFIABLE:
                out["sound"] = False
    return out


def main(argv: list[str]) -> int:
    result = ledger(general_sets(), adversary_sets())
    text = json.dumps(result, indent=1, sort_keys=True) + "\n"
    if argv:
        Path(argv[0]).write_text(text)
    else:
        sys.stdout.write(text)
    if not result["sound"]:
        print("reach: an adversary set was certified Identifiable", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
