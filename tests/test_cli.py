"""Command line front end: parsing, reports, exit codes, determinism."""

import ast
import hashlib
import importlib
import io
import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from waringcert import PointSet, cli, satisfies_cb
from waringcert.cli import (
    PointFileError,
    parse_point_file,
    run,
)


GOLDEN = Path(__file__).with_name("golden")
GOLDEN_POINT_FILES = sorted(GOLDEN.glob("*.pts"))


def run_cli(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


CONIC6 = "label: conic six\ndim: 2\n" + "".join(
    f"1 {t} {t * t}\n" for t in range(6))
LINE5_PLUS_1 = "dim: 2\n" + "".join(
    f"1 {t} 0\n" for t in range(5)) + "0 0 1\n"
GENERAL7_P3 = "dim: 3\n" + "\n".join(
    ["1 0 0 0", "0 1 0 0", "0 0 1 0", "0 0 0 1",
     "1 1 1 1", "1 2 3 4", "1 5 2 7"]) + "\n"
GENERAL8_P3 = GENERAL7_P3 + "1 3 9 2\n"


def test_parse_point_file_headers_and_comments():
    doc = parse_point_file(
        "# a comment\nlabel: demo\ndim: 1\n1 2  # trailing\n\n1 1/2\n")
    assert doc.label == "demo"
    assert len(doc.points) == 2
    assert doc.points[1].coords == (1, Fraction(1, 2))


def test_parse_point_file_errors_carry_line_numbers():
    with pytest.raises(PointFileError) as exc:
        parse_point_file("dim: 2\n1 0 0\n1 0.5 0\n")
    assert exc.value.line == 3
    with pytest.raises(PointFileError) as exc:
        parse_point_file("dim: 2\n1 0 0\n1 0\n")
    assert exc.value.line == 3
    with pytest.raises(PointFileError) as exc:
        parse_point_file("1 0 0\ndim: 2\n")
    assert exc.value.line == 2
    with pytest.raises(PointFileError) as exc:
        parse_point_file("dim: 2\n0 0 0\n")
    assert exc.value.line == 2
    with pytest.raises(PointFileError):
        parse_point_file("# nothing here\n")
    with pytest.raises(PointFileError) as exc:
        parse_point_file("dim: two\n")
    assert exc.value.line == 1
    with pytest.raises(PointFileError) as exc:
        parse_point_file("dim: \u00b2\n1 0 0\n")
    assert exc.value.line == 1
    with pytest.raises(PointFileError) as exc:
        parse_point_file("dim: 1\n1 \u0663\n")
    assert exc.value.line == 2
    # A bad token on a line with the wrong count: the count is reported.
    with pytest.raises(PointFileError, match="line 3: expected 3 coordinates, found 2"):
        parse_point_file("dim: 2\n1 0 0\n1 0.5\n")


@pytest.mark.parametrize("text, line", [
    ("dim: 1\n1 0\nlabel: late\n", 3),
    ("dim: 1\n1 0\n1/0 1\n", 3),
    ("# no dim header\n\n5\n", 3),
], ids=["label-after-a-point", "denominator-zero", "one-coordinate"])
def test_malformed_point_files_exit_1_with_the_line_number(tmp_path, capsys, text, line):
    path = write(tmp_path, "bad.pts", text)
    code, out, err = run_cli(capsys, ["hilbert", path])
    assert code == 1 and out == ""
    assert err.startswith(f"error: line {line}: ")


# Where each verb reads the function that does its work: hilbert from the
# cli module's own imports, every other verb from its layer when it runs.
VERB_CALLS = {"hilbert": ("cli", "hilbert_profile"),
              "kruskal": ("kruskal", "veronese_kruskal_rank"),
              "terracini": ("terracini", "terracini_dimension"),
              "certify": ("certify", "certify"),
              "generic": ("certify", "generic_info")}


def _broken(*args, **kwargs):
    raise IndexError("an indexing fault inside a verb")


@pytest.mark.parametrize("verb", VERB_CALLS)
def test_an_index_error_inside_a_verb_is_not_reported_as_bad_input(tmp_path, capsys,
                                                                   monkeypatch, verb):
    # Only malformed input exits 1: a fault inside a verb propagates, and
    # with every verb broken, a malformed file and an out-of-range flag
    # still exit 1 before any verb runs.
    for module, name in VERB_CALLS.values():
        monkeypatch.setattr(importlib.import_module(f"waringcert.{module}"), name, _broken)
    good = write(tmp_path, "s.pts", "dim: 2\n1 0 0\n0 1 0\n0 0 1\n1 1 1\n")
    degree = ["--degree", "3"] if verb in ("terracini", "certify") else []
    argv = ["generic", "2", "4"] if verb == "generic" else [verb, good, *degree]
    with pytest.raises(IndexError, match="inside a verb"):
        run(argv)
    if verb != "generic":
        bad = write(tmp_path, "bad.pts", "dim: 1\n1 0\n1/0 1\n")
        code, out, err = run_cli(capsys, [verb, bad, *degree])
        assert (code, out) == (1, "") and err.startswith("error: line 3: ")
    if verb == "kruskal":
        code, out, err = run_cli(capsys, [verb, good, "--degree", "-1"])
        assert (code, out) == (1, "") and err.startswith("error: --degree must be >= ")


def test_parse_point_file_duplicates_name_both_lines():
    with pytest.raises(PointFileError) as exc:
        parse_point_file("dim: 1\n1 2\n3 0\n2 4\n")
    assert "lines 2 and 4" in str(exc.value)


def test_empty_label_header(tmp_path, capsys):
    # An empty label is kept in the structured input block but adds no
    # "(label: )" suffix to the human point set line.
    path = write(tmp_path, "unnamed.pts", "label:\ndim: 1\n1 0\n0 1\n")
    code, out, _ = run_cli(capsys, ["hilbert", path, "--format", "structured"])
    assert code == 0
    assert json.loads(out)["input"]["label"] == ""
    code, out, _ = run_cli(capsys, ["hilbert", path])
    assert code == 0
    assert out.splitlines()[0] == "point set: 2 points in P^1"


def test_hilbert_conic_profile(tmp_path, capsys):
    path = write(tmp_path, "conic.pts", CONIC6)
    code, out, err = run_cli(capsys, ["hilbert", path])
    assert code == 0 and err == ""
    assert "h-vector: (1, 2, 2, 1)" in out
    assert "cayley-bacharach up to: 2" in out


def test_hilbert_line_profile_structured(tmp_path, capsys):
    path = write(tmp_path, "line.pts", LINE5_PLUS_1)
    code, out, _ = run_cli(capsys, ["hilbert", path, "--format", "structured"])
    assert code == 0
    report = json.loads(out)
    assert report["command"] == "hilbert"
    assert report["profile"] == {"values": [1, 3, 4, 5, 6], "h_vector": [1, 2, 1, 1, 1],
                                 "separation_degree": 4}
    assert report["cayley_bacharach_max"] == 0
    assert report["input"]["set_size"] == 6


def test_hilbert_singleton(tmp_path, capsys):
    path = write(tmp_path, "one.pts", "1 5\n")
    code, out, _ = run_cli(capsys, ["hilbert", path, "--format", "structured"])
    assert code == 0
    report = json.loads(out)
    assert report["profile"]["h_vector"] == [1]
    assert report["cayley_bacharach_max"] is None


def _points_text(rows):
    return f"dim: {len(rows[0]) - 1}\n" + "".join(
        " ".join(map(str, row)) + "\n" for row in rows)


def _cb_max_bottom_up(a):
    """The last degree of the run of Cayley-Bacharach degrees from 0 up,
    or None, one degree at a time."""
    cb_max = None
    for i in range(len(a)):
        if not satisfies_cb(a, i):
            break
        cb_max = i
    return cb_max


CONIC = [(1, t, t * t) for t in range(-3, 5)]

CB_SETS = {
    "line-5-plus-1": [(1, t, 0) for t in range(5)] + [(0, 0, 1)],
    "line-8-plus-1": [(1, t, 0) for t in range(8)] + [(1, 2, 3)],
    "conic-6": CONIC[:6],
    "conic-8": CONIC,
    "conic-6-plus-1": CONIC[:6] + [(1, 1, 7)],
    "conic-7-plus-2": CONIC[:7] + [(1, 1, 7), (0, 1, 5)],
    "grid-3x3": [(1, x, y) for x in range(3) for y in range(3)],
    **{f"binary-{l}": [(1, t) for t in range(l)] for l in (1, 2, 3, 5, 8, 13)},
    "binary-mixed": [(1, 0), (0, 1), (1, 1), (2, -3), (5, 7), (1, -1)],
}


@pytest.mark.parametrize("rows", CB_SETS.values(), ids=CB_SETS.keys())
def test_hilbert_cayley_bacharach_max_is_the_bottom_up_value(tmp_path, capsys, rows):
    path = write(tmp_path, "set.pts", _points_text(rows))
    code, out, _ = run_cli(capsys, ["hilbert", path, "--format", "structured"])
    assert code == 0
    expected = _cb_max_bottom_up(PointSet.from_rows(rows))
    assert json.loads(out)["cayley_bacharach_max"] == expected


def test_hilbert_bisects_for_the_cayley_bacharach_run(tmp_path, capsys, monkeypatch):
    # Sixty points of P^1 are Cayley-Bacharach in degrees 0..58: bisection
    # takes at most 7 kernels where the bottom-up walk took 59.
    calls = []

    def counted(a, i):
        calls.append(i)
        return satisfies_cb(a, i)

    monkeypatch.setattr(cli, "satisfies_cb", counted)
    path = write(tmp_path, "p1-60.pts", _points_text([(1, t) for t in range(60)]))
    code, out, _ = run_cli(capsys, ["hilbert", path, "--format", "structured"])
    assert code == 0
    assert json.loads(out)["cayley_bacharach_max"] == 58
    assert len(calls) <= 7


def test_hilbert_max_degree_flag(tmp_path, capsys):
    # The profile stops at the separation degree, so a printed range is
    # not an option: the flag is an argparse error.
    path = write(tmp_path, "conic.pts", CONIC6)
    for j in ("3", "0"):
        with pytest.raises(SystemExit) as exc:
            run(["hilbert", path, "--max-degree", j])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "unrecognized arguments: --max-degree" in captured.err


def test_kruskal_simplex_plus_ones(tmp_path, capsys):
    path = write(tmp_path, "s.pts", "dim: 2\n1 0 0\n0 1 0\n0 0 1\n1 1 1\n")
    code, out, _ = run_cli(capsys, ["kruskal", path, "--format", "structured"])
    assert code == 0
    report = json.loads(out)
    assert report["kruskal_rank"] == 3
    assert report["linearly_general_position"] is True


def test_kruskal_collinear(tmp_path, capsys):
    path = write(tmp_path, "c.pts", "dim: 2\n1 0 0\n1 1 0\n1 2 0\n0 0 1\n")
    code, out, _ = run_cli(capsys, ["kruskal", path, "--format", "structured"])
    assert code == 0
    report = json.loads(out)
    assert report["kruskal_rank"] == 2
    assert report["linearly_general_position"] is False
    assert report["general_uniform_position"] is False


def test_kruskal_degree_flag_doubles(tmp_path, capsys):
    rows = "dim: 2\n1 0 0\n0 1 0\n0 0 1\n1 1 1\n1 2 4\n"
    path = write(tmp_path, "five.pts", rows)
    code, out, _ = run_cli(
        capsys, ["kruskal", path, "--degree", "2", "--format", "structured"])
    assert code == 0
    report = json.loads(out)
    assert report["veronese_kruskal_ranks"] == [[1, 3], [2, 5]]
    assert report["general_uniform_position"] is True
    assert report["gup_cutoff_degree"] == 2


@pytest.mark.parametrize("argv, exit_code, message", [
    (["kruskal", "--degree", "0"], 1, "error: --degree must be >= 1\n"),
    (["kruskal", "--degree", "-3"], 1, "error: --degree must be >= 1\n"),
    # hilbert has no --max-degree: argparse prints its usage, then this line.
    (["hilbert", "--max-degree", "-1"], 2,
     "waringcert: error: unrecognized arguments: --max-degree -1\n"),
], ids=["kruskal-degree-0", "kruskal-degree-negative", "hilbert-max-degree-negative"])
def test_out_of_range_degree_flags_are_rejected(tmp_path, capsys, argv, exit_code, message):
    path = write(tmp_path, "s.pts", "dim: 2\n1 0 0\n0 1 0\n0 0 1\n1 1 1\n")
    for fmt in ("human", "structured"):
        try:
            code = run([argv[0], path, *argv[1:], "--format", fmt])
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        assert (code, out) == (exit_code, "")
        if exit_code == 2:
            assert err.startswith("usage: waringcert ")
            err = err[err.rindex("\n", 0, -1) + 1:]
        assert err == message


def test_terracini_five_plane_points(tmp_path, capsys):
    path = write(tmp_path, "five.pts",
                 "dim: 2\n1 0 0\n0 1 0\n0 0 1\n1 1 1\n1 2 4\n")
    code, out, _ = run_cli(
        capsys, ["terracini", path, "--degree", "4", "--format", "structured"])
    assert code == 0
    block = json.loads(out)["terracini"]
    assert block["dim"] == 13
    assert block["max_possible"] == 14
    assert block["veronese_dim"] == 14
    assert block["tangents_independent"] is False


def test_certify_exit_identifiable(tmp_path, capsys):
    path = write(tmp_path, "seven.pts", GENERAL7_P3)
    code, out, _ = run_cli(
        capsys, ["certify", path, "--degree", "4", "--format", "structured"])
    assert code == 0
    cert = json.loads(out)["certificate"]
    assert cert["verdict"] == "Identifiable"
    assert cert["criterion"] == "quartic"
    assert cert["rank"] == 7


def test_certify_exit_inconclusive(tmp_path, capsys):
    path = write(tmp_path, "eight.pts", GENERAL8_P3)
    code, out, _ = run_cli(capsys, ["certify", path, "--degree", "4"])
    assert code == 2
    assert "Inconclusive" in out


def test_certify_exit_not_minimal(tmp_path, capsys):
    path = write(tmp_path, "four.pts", "dim: 1\n1 0\n1 1\n1 2\n1 3\n")
    code, out, _ = run_cli(capsys, ["certify", path, "--degree", "2"])
    assert code == 3
    assert "NotMinimal" in out


def test_certify_exit_parse_error(tmp_path, capsys):
    path = write(tmp_path, "dup.pts", "dim: 1\n1 2\n2 4\n")
    code, out, err = run_cli(capsys, ["certify", path, "--degree", "3"])
    assert code == 1
    assert out == ""
    assert "error:" in err and "lines 2 and 3" in err


def test_missing_file_reports_error(capsys):
    code, _, err = run_cli(capsys, ["hilbert", "/no/such/file.pts"])
    assert code == 1
    assert "error:" in err


def test_stdin_input(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO("dim: 1\n1 0\n0 1\n1 1\n"))
    code, out, _ = run_cli(capsys, ["certify", "-", "--degree", "5"])
    assert code == 0
    assert "sylvester" in out


@pytest.mark.parametrize("source", ["file", "stdin"])
def test_a_leading_byte_order_mark_is_dropped(tmp_path, source):
    # An editor may open a UTF-8 file with U+FEFF; the report is the one
    # of the same file without it.
    golden = GOLDEN / "twisted-cubic-p3-12-d7.pts"
    data = b"\xef\xbb\xbf" + golden.read_bytes()
    path = tmp_path / "bom.pts"
    path.write_bytes(data)
    argv = ["hilbert", str(path) if source == "file" else "-"]
    proc = subprocess.run([sys.executable, "-m", "waringcert.cli", *argv],
                          input=data if source == "stdin" else b"", capture_output=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == golden.with_suffix(".hilbert.txt").read_bytes()
    assert parse_point_file("\ufeff" + golden.read_text()) == parse_point_file(
        golden.read_text())
    with pytest.raises(PointFileError, match="line 1: "):
        parse_point_file("\ufeff\ufeffdim: 1\n1 0\n")


def test_generic_plane_quartics(tmp_path, capsys):
    code, out, _ = run_cli(capsys, ["generic", "2", "4", "--format", "structured"])
    assert code == 0
    report = json.loads(out)
    assert report["expected_generic_rank"] == 5
    assert report["generic_rank"] == 6
    assert report["oracle_verified"] is True


def test_generic_plane_sextics_exception_note(capsys):
    code, out, _ = run_cli(capsys, ["generic", "2", "6"])
    assert code == 0
    assert "exactly two decompositions" in out


def test_structured_output_deterministic(tmp_path, capsys):
    path = write(tmp_path, "conic.pts", CONIC6)
    argv = ["certify", path, "--degree", "6", "--format", "structured"]
    code1, out1, _ = run_cli(capsys, argv)
    code2, out2, _ = run_cli(capsys, argv)
    assert (code1, out1) == (code2, out2)
    assert code1 == 0


def test_digest_invariant_under_scaling(tmp_path, capsys):
    path1 = write(tmp_path, "a.pts", "dim: 2\n2 4 6\n1 0 0\n")
    path2 = write(tmp_path, "b.pts", "dim: 2\n1 2 3\n-3 0 0\n")
    path3 = write(tmp_path, "c.pts", "dim: 2\n1 2 4\n1 0 0\n")
    digests = []
    for path in (path1, path2, path3):
        _, out, _ = run_cli(capsys, ["hilbert", path, "--format", "structured"])
        digests.append(json.loads(out)["input"]["digest"])
    assert digests[0] == digests[1]
    assert digests[0] != digests[2]


def test_structured_output_round_trips(tmp_path, capsys):
    path = write(tmp_path, "conic.pts", CONIC6)
    _, out, _ = run_cli(
        capsys, ["certify", path, "--degree", "6", "--format", "structured"])
    parsed = json.loads(out)
    assert json.dumps(parsed, indent=2, sort_keys=True) + "\n" == out
    assert parsed["schema_version"] == 5


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["--version"])
    assert exc.value.code == 0
    assert "waringcert" in capsys.readouterr().out


def test_module_entry_point(tmp_path):
    path = write(tmp_path, "three.pts", "dim: 1\n1 0\n0 1\n1 1\n")
    proc = subprocess.run(
        [sys.executable, "-m", "waringcert.cli", "certify", path,
         "--degree", "5", "--format", "structured"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["certificate"]["criterion"] == "sylvester"


def test_cold_import_loads_no_process_pool():
    # Importing the CLI must not pull in the multiprocessing machinery: it
    # costs every cold run start-up time and nothing uses it.
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, waringcert.cli; "
         "print(sorted(m for m in ('multiprocessing', 'concurrent.futures') "
         "if m in sys.modules))"],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_cold_import_loads_no_dataclasses():
    # The report classes are plain Records, so a cold run skips importing
    # dataclasses and the inspect module it pulls in.
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, waringcert.cli; "
         "print(sorted(m for m in ('dataclasses', 'inspect') if m in sys.modules))"],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_cold_run_loads_no_openssl_hash():
    # The digest is hashed by the interpreter's built-in SHA-256, so neither
    # importing the CLI nor a certify run that writes the digest loads
    # hashlib, whose _hashlib maps OpenSSL's libcrypto.
    golden = GOLDEN / "p2-6-d5"
    script = (
        "import sys, waringcert.cli\n"
        "hashes = ('hashlib', '_hashlib')\n"
        "imported = [m for m in hashes if m in sys.modules]\n"
        "code = waringcert.cli.run(sys.argv[1:])\n"
        "print(code, imported, [m for m in hashes if m in sys.modules])\n")
    proc = subprocess.run(
        [sys.executable, "-c", script, "certify", "-", "--degree", "5",
         "--format", "structured"],
        input=golden.with_suffix(".pts").read_text(), capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    report, _, last = proc.stdout.rstrip("\n").rpartition("\n")
    assert last == "0 [] []"
    assert report + "\n" == golden.with_suffix(".certify.json").read_text()


# A cold run that prints, after its report, the layers whose body ran
# (type() reads a lazily registered module without loading it) and the
# modules the run imported.
COLD_RUN = (
    "import sys, types\n"
    "before = set(sys.modules)\n"
    "import waringcert.cli\n"
    "code = waringcert.cli.run(sys.argv[1:])\n"
    "layers = ('linalg', 'geometry', 'hilbert', 'kruskal', 'terracini', 'certify')\n"
    "registered = [m for m in layers if f'waringcert.{m}' in sys.modules]\n"
    "executed = [m for m in registered\n"
    "            if type(sys.modules[f'waringcert.{m}']) is types.ModuleType]\n"
    "print(repr((code, registered, executed, sorted(set(sys.modules) - before))))\n")

ALL_LAYERS = ["linalg", "geometry", "hilbert", "kruskal", "terracini", "certify"]
READER = ["linalg", "geometry", "hilbert"]


@pytest.mark.parametrize("argv, golden, executed", [
    (["hilbert", "-"], "p2-6-d5.hilbert.txt", READER),
    (["hilbert", "-", "--format", "structured"], "p2-6-d5.hilbert.json", READER),
    (["kruskal", "-", "--degree", "3"], "p2-6-d5.kruskal.txt", READER + ["kruskal"]),
    (["terracini", "-", "--degree", "5"], "p2-6-d5.terracini.txt", READER + ["terracini"]),
    (["certify", "-", "--degree", "5"], "p2-6-d5.certify.txt", ALL_LAYERS),
    (["generic", "2", "4"], "generic-2-4.txt", ALL_LAYERS),
], ids=["hilbert", "hilbert-structured", "kruskal", "terracini", "certify", "generic"])
def test_a_cold_run_executes_only_the_layers_its_verb_uses(argv, golden, executed):
    # Every layer is registered, so perfbench's tracer finds it, but a
    # layer's body runs only when its verb reads it; no verb builds a
    # Fraction, and a human report imports no json.
    proc = subprocess.run([sys.executable, "-c", COLD_RUN, *argv],
                          input=(GOLDEN / "p2-6-d5.pts").read_text(),
                          capture_output=True, text=True)
    report, _, last = proc.stdout.rstrip("\n").rpartition("\n")
    code, registered, ran, imported = ast.literal_eval(last)
    assert (proc.returncode, code) == (0, 0), proc.stderr
    assert report + "\n" == (GOLDEN / golden).read_text()
    assert registered == ALL_LAYERS
    assert ran == executed
    assert not {"fractions", "decimal"} & set(imported)
    assert ("json" in imported) == ("structured" in argv)


def canonical_sha256(text):
    points = parse_point_file(text).points
    lines = [f"dim: {points.ambient_dim}"]
    lines += [" ".join(str(c) for c in p.coords) for p in points]
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


def test_digest_is_the_sha256_of_the_canonical_coordinates(capsys):
    for path in GOLDEN_POINT_FILES:
        _, out, _ = run_cli(capsys, ["hilbert", str(path), "--format", "structured"])
        assert json.loads(out)["input"]["digest"] == canonical_sha256(path.read_text()), path


def test_digest_in_process_without_the_builtin_hash_is_the_builtin_one(monkeypatch):
    # The same fallback, taken in this process: with neither built-in
    # module importable, hashlib gives every golden set the same digest.
    sets = [parse_point_file(path.read_text()).points for path in GOLDEN_POINT_FILES]
    builtin = [cli._canonical_digest(points) for points in sets]
    monkeypatch.setitem(sys.modules, "_sha2", None)
    monkeypatch.setitem(sys.modules, "_sha256", None)
    assert [cli._canonical_digest(points) for points in sets] == builtin


@pytest.mark.parametrize("name, degree, code", [("p2-6-d5", 5, 0), ("p2-5-d4", 4, 2)])
def test_main_exits_with_the_code_of_run(monkeypatch, capsys, name, degree, code):
    argv = ["certify", str(GOLDEN / f"{name}.pts"), "--degree", str(degree)]
    assert run_cli(capsys, argv)[0] == code
    monkeypatch.setattr(sys, "argv", ["waringcert", *argv])
    with pytest.raises(SystemExit) as exit_:
        cli.main()
    assert exit_.value.code == code
    assert capsys.readouterr().out == (GOLDEN / f"{name}.certify.txt").read_text()


def test_digest_falls_back_to_hashlib_without_the_builtin_hash():
    # A build without _sha2 (CPython >= 3.12) and _sha256 (before) hashes
    # with hashlib, to the same digests.
    script = (
        "import contextlib, io, json, sys\n"
        "sys.modules['_sha2'] = sys.modules['_sha256'] = None\n"
        "from waringcert.cli import run\n"
        "digests = []\n"
        "for path in sys.argv[1:]:\n"
        "    out = io.StringIO()\n"
        "    with contextlib.redirect_stdout(out):\n"
        "        run(['hilbert', path, '--format', 'structured'])\n"
        "    digests.append(json.loads(out.getvalue())['input']['digest'])\n"
        "print(json.dumps(['hashlib' in sys.modules, digests]))\n")
    proc = subprocess.run(
        [sys.executable, "-c", script, *map(str, GOLDEN_POINT_FILES)],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    used_hashlib, digests = json.loads(proc.stdout)
    assert used_hashlib
    assert digests == [canonical_sha256(path.read_text()) for path in GOLDEN_POINT_FILES]
