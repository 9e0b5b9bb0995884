"""Golden corpus: the CLI's output must stay byte-identical.

``tests/golden/`` holds one point file per case (``<case>.pts``) and the
``--format structured`` and human output of each verb run on it
(``<case>.<verb>.json`` and ``<case>.<verb>.txt``).  The cases are seeded
random sets chosen so that the corpus reaches every criterion of the
cascade, NotMinimal, Inconclusive and the Alexander-Hirschowitz defective
cases of five plane points at degree 4 and seven points of P^4 at degree 3,
plus five hand-written sets: one with rational coordinates, zeros, negative
leading entries and three collinear points, twelve points of a twisted
cubic, two special sets whose Kruskal sweeps take exact ranks, and a plane
set whose largest aligned subset lies on x_0 = 0.
``generic-<n>-<d>.json`` and ``.txt`` hold the output of ``generic n d``
for forms with no exception, the quadric note, the
two-decomposition note, a space over the oracle budget, and the
Alexander-Hirschowitz defective plane quartics, cubics and quartics of
P^4.

``golden_v2_certificates.json`` freezes every certificate's verdict,
criterion, rank and notes as schema v2 gave them, and
``<case>.hilbert-max.json`` and ``.txt`` freeze the schema v4 output of
``hilbert --max-degree J``, J = set size + 2, a flag schema v5 removed.

A change that alters the structured output on purpose bumps
``schema_version``; any change that alters the output on purpose
regenerates the corpus from the committed point files with

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import json
import random
import sys
from pathlib import Path

import pytest

from waringcert import ProjectivePoint, terracini_dimension
from waringcert.cli import parse_point_file, render_human, run

GOLDEN = Path(__file__).with_name("golden")

# case name -> (n, number of points, degree, seed) for seeded random sets
# with integer coordinates in [-9, 9]; the comment names the outcome.
RANDOM_CASES = {
    "p1-3-d5": (1, 3, 5, 1),           # sylvester at the generic rank, odd degree
    "p1-2-d4": (1, 2, 4, 1),           # sylvester below the generic rank
    "p2-2-d3": (2, 2, 3, 1),           # half-degree
    "p3-4-d5": (3, 4, 5, 1),           # half-degree-spanning
    "p2-5-d5": (2, 5, 5, 1),           # alignment-bound
    "p2-10-d9": (2, 10, 9, 1),         # plane-gup
    "p2-6-d5": (2, 6, 5, 1),           # reshaped-kruskal
    "p3-6-d4": (3, 6, 4, 1),           # reshaped-kruskal in degree 4
    "p3-7-d4": (3, 7, 4, 1),           # quartic
    "p4-9-d4": (4, 9, 4, 1),           # quartic
    "p4-7-d3": (4, 7, 3, 1),           # defective Terracini (4, 3) r = 7
    "p1-5-d3": (1, 5, 3, 1),           # NotMinimal
    "p2-11-d3": (2, 11, 3, 1),         # NotMinimal
    "p1-6-d9": (1, 6, 9, 1),           # Inconclusive, every partition dropped by its caps
    "p3-9-d4": (3, 9, 4, 1),           # Inconclusive, defective (3, 4) r = 9
    "p2-5-d4": (2, 5, 4, 1),           # Inconclusive, defective (2, 4) r = 5
    "p2-4-d2": (2, 4, 2, 1),           # Inconclusive, quadrics
    "p3-3-d1": (3, 3, 1, 1),           # Inconclusive, degree 1
}

# Hand-written sets: case name -> (degree, point file text).  In the
# rational plane set (1:0:0), (0:1:0) and (-2:1:0) lie on z = 0.  The
# twelve points of the twisted cubic are Inconclusive at degree 7: h_A(j) =
# min(12, 3j + 1) caps every k_j, and no partition of 7 reaches 2*12.  The
# last two are special sets whose Kruskal sweeps meet minors that vanish
# modulo the prime and take exact ranks: eight points of P^3, three of them
# aligned, are certified at degree 5 by reshaped-kruskal with k_1 = 2 from
# a climb and k_2 = 8, and four points of a plane line and two more have
# k_2 = 3 from a climb.  The last set puts four points of the line x_0 = 0
# first, so the collinearity search projects from a coordinate past x_0:
# alignment-bound reads k_1 = 2 and an aligned subset of 4 at degree 9.
WRITTEN_CASES = {
    "rational-p2-7-d5": (5, """\
label: rationals, zeros and a collinear triple
dim: 2
1 0 0
0 1 0
-2 1 0
0 0 -3
1/2 -1/3 2
-4 7/5 1
3 -1 -1/6
"""),
    "twisted-cubic-p3-12-d7": (7, "label: twisted cubic (1 : t : t^2 : t^3), t = 1..12\n"
                               "dim: 3\n" + "".join(f"1 {t} {t * t} {t ** 3}\n"
                                                    for t in range(1, 13))),
    "aligned-p3-8-d5": (5, "label: three aligned points among eight in P^3\n"
                        "dim: 3\n1 0 0 0\n0 1 0 0\n1 1 0 0\n0 0 1 0\n0 0 0 1\n"
                        "1 2 3 4\n2 -1 5 3\n1 4 -2 7\n"),
    "lined-p2-6-d4": (4, "label: (1 : t : 0) for t = 0..3, and two points off the line\n"
                      "dim: 2\n" + "".join(f"1 {t} 0\n" for t in range(4))
                      + "0 0 1\n1 1 1\n"),
    "x0-line-p2-6-d9": (9, "label: four points on x_0 = 0, listed first, and two off the line\n"
                        "dim: 2\n0 -2 4\n0 0 1\n0 3 1\n0 1 0\n1 2 3\n-2 1 5\n"),
}


def _random_rows(n, size, seed):
    rng = random.Random(seed)
    rows, seen = [], set()
    while len(rows) < size:
        row = tuple(rng.randint(-9, 9) for _ in range(n + 1))
        if not any(row):
            continue
        point = ProjectivePoint(row)
        if point in seen:
            continue
        seen.add(point)
        rows.append(row)
    return rows


def _point_text(n, rows):
    body = "".join(" ".join(str(x) for x in row) + "\n" for row in rows)
    return f"dim: {n}\n{body}"


def _case_degrees():
    degrees = {name: spec[2] for name, spec in RANDOM_CASES.items()}
    degrees.update((name, degree) for name, (degree, _) in WRITTEN_CASES.items())
    return degrees


DEGREES = _case_degrees()


def _verb_argv(verb, degree):
    if verb == "certify":
        return ["certify", "-", "--degree", str(degree)]
    if verb in ("hilbert", FROZEN_V4):
        return ["hilbert", "-"]
    if verb == "kruskal":
        return ["kruskal", "-", "--degree", "3"]
    return ["terracini", "-", "--degree", str(max(degree, 2))]


# case name -> (n, d) for the generic verb, which reads no point file.
GENERIC_CASES = {
    "generic-2-4": (2, 4),             # defective generic rank, (2, 4) at 5 points
    "generic-2-5": (2, 5),             # no exception
    "generic-3-2": (3, 2),             # quadrics
    "generic-2-6": (2, 6),             # two decompositions at rank 9
    "generic-5-7": (5, 7),             # over the oracle budget, not verified
    "generic-4-3": (4, 3),             # defective generic rank, (4, 3) at 7 points
    "generic-4-4": (4, 4),             # defective generic rank, (4, 4) at 14 points
    "generic-2-8": (2, 8),             # the largest benchmark witness, 36 x 36 framed rows
    "generic-1-40": (1, 40),           # binary forms: 21 points, degree-39 monomial values
}


# Frozen schema v4 records, never regenerated: the v5 ``hilbert`` output
# must state the same facts once.  ``diffs`` was ``h_vector``,
# ``stable_tail`` was ``separation_degree`` and the set size ``values[-1]``,
# and ``j_max`` only set the human "degrees 0..J" line.
FROZEN_V4 = "hilbert-max"
VERBS = ("certify", "hilbert", FROZEN_V4, "kruskal", "terracini")
EXIT_BY_VERDICT = {"Identifiable": 0, "Inconclusive": 2, "NotMinimal": 3}
# --format value -> golden file suffix
FORMATS = {"structured": "json", "human": "txt"}


def run_verb(argv, text="", fmt="structured"):
    """Run the CLI in process on ``text`` as stdin; returns (exit code, stdout)."""
    out = io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(text)
    try:
        with contextlib.redirect_stdout(out):
            code = run([*argv, "--format", fmt])
    finally:
        sys.stdin = saved
    return code, out.getvalue()


def _point_file(case):
    return (GOLDEN / f"{case}.pts").read_text(encoding="utf-8")


def _v5_report(text):
    # A frozen v4 hilbert report less the keys v5 dropped, after checking
    # that each dropped key repeats one that stays.
    report = json.loads(text)
    assert report["schema_version"] == 4
    profile = report["profile"]
    assert profile.pop("diffs") == profile["h_vector"]
    assert profile.pop("stable_tail") == {"from_degree": profile["separation_degree"],
                                          "value": profile["values"][-1]}
    assert profile["values"][-1] == report["input"]["set_size"]
    assert profile.pop("j_max") == report["input"]["set_size"] + 2
    report["schema_version"] = 5
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def _v5_text(text):
    # A frozen v4 hilbert text less its "degrees 0..J" and "diff :" lines.
    lines = text.splitlines(keepends=True)
    assert lines[1].startswith("degrees 0..") and lines[3].startswith("diff : ")
    return "".join(lines[:1] + lines[2:3] + lines[4:])


def _read_golden(name, suffix):
    text = (GOLDEN / f"{name}.{suffix}").read_bytes().decode("utf-8")
    if name.endswith(f".{FROZEN_V4}"):
        return _v5_report(text) if suffix == "json" else _v5_text(text)
    return text


def _golden(case, verb, fmt):
    return _read_golden(f"{case}.{verb}", FORMATS[fmt])


def _check_exit_code(case, verb, code):
    if verb == "certify":
        verdict = json.loads(_golden(case, verb, "structured"))["certificate"]["verdict"]
        assert code == EXIT_BY_VERDICT[verdict]
    else:
        assert code == 0


@pytest.mark.parametrize("verb", VERBS)
@pytest.mark.parametrize("case", sorted(DEGREES))
def test_structured_output_is_byte_identical(case, verb):
    text = _point_file(case)
    code, out = run_verb(_verb_argv(verb, DEGREES[case]), text)
    assert out == _golden(case, verb, "structured"), f"{case} {verb}: structured output changed"
    _check_exit_code(case, verb, code)


@pytest.mark.parametrize("verb", VERBS)
@pytest.mark.parametrize("case", sorted(DEGREES))
def test_human_output_is_byte_identical(case, verb):
    text = _point_file(case)
    code, out = run_verb(_verb_argv(verb, DEGREES[case]), text, "human")
    assert out == _golden(case, verb, "human"), f"{case} {verb}: human output changed"
    _check_exit_code(case, verb, code)


@pytest.mark.parametrize("fmt", sorted(FORMATS))
@pytest.mark.parametrize("case", sorted(GENERIC_CASES))
def test_generic_output_is_byte_identical(case, fmt):
    n, d = GENERIC_CASES[case]
    code, out = run_verb(["generic", str(n), str(d)], fmt=fmt)
    golden = (GOLDEN / f"{case}.{FORMATS[fmt]}").read_bytes().decode("utf-8")
    assert out == golden, f"{case}: {fmt} output changed"
    assert code == 0


@pytest.mark.parametrize("name", sorted(p.stem for p in GOLDEN.glob("*.json")))
def test_human_text_renders_from_structured_report(name):
    # The human text is a view of the structured report: every field it
    # shows is in the JSON.
    report = json.loads(_read_golden(name, "json"))
    text = _read_golden(name, "txt")
    assert "\n".join(render_human(report)) + "\n" == text


def test_corpus_reaches_every_outcome():
    outcomes = set()
    for case in DEGREES:
        cert = json.loads((GOLDEN / f"{case}.certify.json").read_text())["certificate"]
        outcomes.add(cert["criterion"] or cert["verdict"])
        if (cert["ambient_dim"], cert["set_size"], cert["degree"]) == (2, 5, 4):
            assert cert["verdict"] == "Inconclusive"
            assert cert["diagnostics"]["terracini"]["dim"] == 13
    assert outcomes == {
        "sylvester", "half-degree", "half-degree-spanning", "alignment-bound",
        "plane-gup", "reshaped-kruskal", "quartic", "NotMinimal", "Inconclusive",
    }
    # Seven points of P^4 at degree 3: Terracini dimension 33, one short of 34.
    report = json.loads((GOLDEN / "p4-7-d3.terracini.json").read_text())["terracini"]
    assert (report["dim"], report["expected_dim"]) == (33, 34)


def test_schema_v3_keeps_every_v2_outcome():
    # Schema v3 changed which diagnostics are reported and one note: the
    # quartic rule's cap now rules out nine points of P^3 before k_1.  The
    # twisted cubic, aligned, lined, x0-line and p1-6-d9 cases joined the
    # corpus at schema v4.
    v2 = json.loads(GOLDEN.with_name("golden_v2_certificates.json").read_text())
    assert set(v2) == set(DEGREES) - {"twisted-cubic-p3-12-d7", "aligned-p3-8-d5",
                                      "lined-p2-6-d4", "x0-line-p2-6-d9", "p1-6-d9"}
    for case, old in v2.items():
        cert = json.loads((GOLDEN / f"{case}.certify.json").read_text())["certificate"]
        if case == "p3-9-d4":
            notes = old["notes"]
            notes[notes.index("quartic: 9 points exceed 2k - 1 = 7 (k = 4)")] = (
                "quartic: 9 points exceed 2k - 1 <= 7 (k <= 4)")
        assert {field: cert[field] for field in old} == old, case


def test_the_defective_cubic_case_takes_one_exact_elimination_of_the_framed_rows(
        exact_eliminations):
    # The golden set of seven points of P^4: no kernel vector closes the
    # gap, so the exact elimination ranks the 10 x 10 matrix of the two
    # points off the frame.
    a = parse_point_file(_point_file("p4-7-d3")).points
    assert terracini_dimension(a, 3).dim == 33
    assert exact_eliminations == [10]


def test_every_golden_file_belongs_to_a_case():
    expected = {f"{case}.{suffix}" for case in GENERIC_CASES for suffix in FORMATS.values()}
    for case in DEGREES:
        expected.add(f"{case}.pts")
        expected.update(f"{case}.{verb}.{suffix}" for verb in VERBS
                        for suffix in FORMATS.values())
    assert {p.name for p in GOLDEN.iterdir()} == expected


def regenerate():
    """Write the point files (once) and every verb's output for each case."""
    GOLDEN.mkdir(exist_ok=True)
    for name, (n, size, _, seed) in RANDOM_CASES.items():
        path = GOLDEN / f"{name}.pts"
        if not path.exists():
            path.write_text(_point_text(n, _random_rows(n, size, seed)), encoding="utf-8")
    for name, (_, text) in WRITTEN_CASES.items():
        path = GOLDEN / f"{name}.pts"
        if not path.exists():
            path.write_text(text, encoding="utf-8")
    for case, degree in DEGREES.items():
        text = _point_file(case)
        for verb in VERBS:
            if verb == FROZEN_V4:
                continue
            for fmt, suffix in FORMATS.items():
                _, out = run_verb(_verb_argv(verb, degree), text, fmt)
                (GOLDEN / f"{case}.{verb}.{suffix}").write_bytes(out.encode("utf-8"))
    for case, (n, d) in GENERIC_CASES.items():
        for fmt, suffix in FORMATS.items():
            _, out = run_verb(["generic", str(n), str(d)], fmt=fmt)
            (GOLDEN / f"{case}.{suffix}").write_bytes(out.encode("utf-8"))


if __name__ == "__main__":
    regenerate()
