"""Command line interface.

Verbs: hilbert, kruskal, terracini, certify, generic.  Point sets are read
from a small text format.  Each verb builds one report dict, which is
printed either as JSON with sorted keys or as human text rendered from the
dict alone by ``render_human``.  Output is byte-identical for identical
input, flags, and seed.

Point set file format, one point per line:

    # comment, runs to end of line
    label: optional free-form name
    dim: 2
    1  0   0
    1  1   1
    1  1/2 1/4

Coordinates are decimal integers or p/q rational strings; no floating
point is accepted.  The optional ``dim`` header cross-checks the ambient
dimension; without it the first point fixes the coordinate count.

Exit codes for ``certify``: 0 Identifiable, 2 Inconclusive, 3 NotMinimal.
All verbs exit 1 on malformed input.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from . import __version__
from .certify import Verdict, certify, generic_info
from .geometry import DuplicatePointError, PointSet, ProjectivePoint
from .hilbert import HilbertProfile, hilbert_profile, satisfies_cb
from .kruskal import gup_cutoff, is_gup, is_lgp, veronese_kruskal_rank
from .terracini import TerraciniReport, terracini_dimension

_GENERATOR = f"waringcert {__version__}"
_SCHEMA_VERSION = 4
_RATIONAL_RE = re.compile(r"[+-]?\d+(/\d+)?", re.ASCII)


class PointFileError(ValueError):
    """Malformed point set file; carries the offending line number if known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        prefix = f"line {line}: " if line is not None else ""
        super().__init__(prefix + message)


@dataclass(frozen=True)
class PointSetDocument:
    """A parsed input file: the point set, its label, and source lines."""

    points: PointSet
    label: str | None
    point_lines: tuple[int, ...]


def parse_rational(token: str) -> Fraction:
    """Parse a decimal integer or p/q string; rejects float notation."""
    if not _RATIONAL_RE.fullmatch(token):
        raise ValueError(
            f"{token!r} is not a decimal integer or p/q rational")
    return Fraction(token)


def parse_point_file(text: str) -> PointSetDocument:
    """Parse the point set format described in the module docstring."""
    label: str | None = None
    declared_dim: int | None = None
    rows: list[tuple[Fraction, ...]] = []
    row_lines: list[int] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("label:"):
            if rows:
                raise PointFileError("label must come before the points", lineno)
            label = line[len("label:"):].strip()
            continue
        if line.startswith("dim:"):
            if rows:
                raise PointFileError("dim must come before the points", lineno)
            body = line[len("dim:"):].strip()
            if not (body.isascii() and body.isdigit()) or int(body) < 1:
                raise PointFileError(
                    f"dim must be a positive integer, got {body!r}", lineno)
            declared_dim = int(body)
            continue
        tokens = line.split()
        coords = []
        for tok in tokens:
            try:
                value = parse_rational(tok)
            except ValueError as exc:
                raise PointFileError(str(exc), lineno) from None
            except ZeroDivisionError:
                raise PointFileError(
                    f"{tok!r} has denominator zero", lineno) from None
            coords.append(value)
        expected = None
        if declared_dim is not None:
            expected = declared_dim + 1
        elif rows:
            expected = len(rows[0])
        if expected is not None and len(coords) != expected:
            raise PointFileError(
                f"expected {expected} coordinates, found {len(coords)}", lineno)
        if len(coords) < 2:
            raise PointFileError(
                f"a point needs at least 2 coordinates, found {len(coords)}", lineno)
        if all(c == 0 for c in coords):
            raise PointFileError("the zero vector is not a projective point", lineno)
        rows.append(tuple(coords))
        row_lines.append(lineno)
    if not rows:
        raise PointFileError("no points found in input")
    try:
        points = PointSet(ProjectivePoint(r) for r in rows)
    except DuplicatePointError as exc:
        raise PointFileError(
            f"points on lines {row_lines[exc.first]} and {row_lines[exc.second]} "
            "coincide after canonical scaling") from None
    return PointSetDocument(points=points, label=label,
                            point_lines=tuple(row_lines))


def _read_input(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise PointFileError(f"cannot read {path}: {exc.strerror or exc}") from None


def _canonical_digest(points: PointSet) -> str:
    """Digest of the canonical coordinates, independent of input formatting."""
    lines = [f"dim: {points.ambient_dim}"]
    for p in points:
        lines.append(" ".join(str(c) for c in p.coords))
    payload = "\n".join(lines).encode("utf-8")
    return hashlib.sha256(payload).hexdigest()


def _profile_block(profile: HilbertProfile, j_max: int = 0) -> dict:
    # Values and differences through the separation degree s; from s on,
    # h stays at the set size ("stable_tail").  The printed range reaches
    # degree l - 1, where h has stabilised, or j_max if that is larger.
    return {
        "j_max": max(j_max, profile.set_size - 1),
        "values": list(profile.values),
        "diffs": list(profile.h_vector),
        "stable_tail": {"from_degree": profile.separation_degree,
                        "value": profile.set_size},
        "h_vector": list(profile.h_vector),
        "separation_degree": profile.separation_degree,
    }


def _terracini_block(report: TerraciniReport) -> dict:
    return {name: getattr(report, name) for name in (
        "num_points", "ambient_dim", "degree", "dim", "max_possible", "veronese_dim",
        "expected_dim", "is_expected", "tangents_independent")}


# Each _cmd_* returns (the verb's fields of the report, exit code); run()
# adds the header and the input block and prints the report.

def _cmd_hilbert(args: argparse.Namespace, points: PointSet) -> tuple[dict, int]:
    profile = hilbert_profile(points)
    cb_max: int | None = None
    for i in range(profile.separation_degree if len(points) >= 2 else 0):
        if not satisfies_cb(points, i):
            break
        cb_max = i
    return {"profile": _profile_block(profile, args.max_degree or 0),
            "cayley_bacharach_max": cb_max}, 0


def _cmd_kruskal(args: argparse.Namespace, points: PointSet) -> tuple[dict, int]:
    ranks = [[j, veronese_kruskal_rank(points, j)] for j in range(1, args.degree + 1)]
    return {
        "kruskal_rank": ranks[0][1],
        "linearly_general_position": is_lgp(points),
        "veronese_kruskal_ranks": ranks,
        "general_uniform_position": is_gup(points),
        "gup_cutoff_degree": gup_cutoff(points.ambient_dim, len(points)),
    }, 0


def _cmd_terracini(args: argparse.Namespace, points: PointSet) -> tuple[dict, int]:
    return {"terracini": _terracini_block(terracini_dimension(points, args.degree))}, 0


_EXIT_BY_VERDICT = {
    Verdict.IDENTIFIABLE: 0,
    Verdict.INCONCLUSIVE: 2,
    Verdict.NOT_MINIMAL: 3,
}


def _cmd_certify(args: argparse.Namespace, points: PointSet) -> tuple[dict, int]:
    cert = certify(points, args.degree)
    diag = cert.diagnostics
    block = {
        "verdict": cert.verdict.value,
        "degree": cert.degree,
        "set_size": cert.set_size,
        "ambient_dim": cert.ambient_dim,
        "criterion": cert.criterion,
        "rank": cert.rank,
        "diagnostics": {
            "minimal": diag.minimal,
            "hilbert": _profile_block(diag.hilbert),
            "kruskal_rank": diag.kruskal_rank,
            "veronese_kruskal_ranks": [list(pair) for pair in diag.veronese_kruskal_ranks],
            "max_collinear": diag.max_collinear,
            "span_dim": diag.span_dim,
            "terracini": _terracini_block(diag.terracini) if diag.terracini else None,
            "complementary_bound": diag.complementary_bound,
        },
        "notes": list(cert.notes),
    }
    return {"certificate": block}, _EXIT_BY_VERDICT[cert.verdict]


def _cmd_generic(args: argparse.Namespace, points: None) -> tuple[dict, int]:
    info = generic_info(args.n, args.d, trials=args.trials, seed=args.seed)
    return {
        "arguments": {"n": args.n, "d": args.d, "seed": args.seed,
                      "trials": args.trials},
        "space_dim": info.space_dim,
        "expected_generic_rank": info.expected_generic_rank,
        "generic_rank": info.generic_rank,
        "oracle_verified": info.oracle_verified,
        "exceptions": list(info.exceptions),
    }, 0


def render_human(report: dict) -> list[str]:
    """The human text of a report, built from the report dict alone."""
    yes_no = {True: "yes", False: "no"}
    command = report["command"]
    if command == "generic":
        arguments, verified = report["arguments"], report["oracle_verified"]
        lines = [
            f"degree-{arguments['d']} forms on P^{arguments['n']}",
            f"monomial space dimension: {report['space_dim']}",
            f"expected generic rank: {report['expected_generic_rank']}",
            f"generic rank: {report['generic_rank']}"
            + ("" if verified else " (not oracle-verified)"),
            "verified by terracini oracle: "
            + (f"yes (seed {arguments['seed']}, trials {arguments['trials']})"
               if verified else "no"),
        ]
        if not report["exceptions"]:
            return lines + ["identifiability exceptions: none known"]
        return lines + ["identifiability exceptions:",
                        *(f"  - {note}" for note in report["exceptions"])]

    source = report["input"]
    lines = [f"point set: {source['set_size']} points in P^{source['ambient_dim']}"
             + (f" (label: {source['label']})" if source.get("label") else "")]
    if command == "hilbert":
        profile, cb_max = report["profile"], report["cayley_bacharach_max"]
        tail = profile["stable_tail"]
        lines += [
            f"degrees 0..{profile['j_max']}",
            "h    : " + " ".join(str(v) for v in profile["values"])
            + f" (= {tail['value']} from degree {tail['from_degree']} on)",
            "diff : " + " ".join(str(v) for v in profile["diffs"]),
            f"h-vector: {tuple(profile['h_vector'])}",
            f"separated from degree: {profile['separation_degree']}",
            f"cayley-bacharach up to: {'none' if cb_max is None else cb_max}",
        ]
    elif command == "kruskal":
        lines += [
            f"kruskal rank: {report['kruskal_rank']}",
            f"linearly general position: {yes_no[report['linearly_general_position']]}",
            "veronese kruskal ranks:",
            *(f"  degree {j}: {k}" for j, k in report["veronese_kruskal_ranks"]),
            f"general uniform position: {yes_no[report['general_uniform_position']]} "
            f"(checked degrees 1..{report['gup_cutoff_degree']})",
        ]
    elif command == "terracini":
        rep = report["terracini"]
        lines += [
            f"degree: {rep['degree']}",
            f"terracini dimension: {rep['dim']}",
            f"max possible ((n+1)r - 1): {rep['max_possible']}",
            f"form space dimension N: {rep['veronese_dim']}",
            f"expected (min of the two): {rep['expected_dim']}",
            f"attains expected: {yes_no[rep['is_expected']]}",
            f"tangent spaces independent: {yes_no[rep['tangents_independent']]}",
        ]
    else:
        cert = report["certificate"]
        diag, terracini = cert["diagnostics"], cert["diagnostics"]["terracini"]
        lines += [f"degree: {cert['degree']}", f"verdict: {cert['verdict']}"]
        if cert["verdict"] == Verdict.IDENTIFIABLE.value:
            lines += [f"criterion: {cert['criterion']}",
                      f"certified rank: {cert['rank']}",
                      "the decomposition is unique of this size"]
        ranks = ", ".join(f"k_{j}={k}" for j, k in diag["veronese_kruskal_ranks"])
        # An invariant the cascade did not compute is null and has no line.
        rows = [
            ("minimal candidate", yes_no[diag["minimal"]]),
            ("hilbert h-vector", tuple(diag["hilbert"]["h_vector"])),
            ("kruskal rank", diag["kruskal_rank"]),
            ("veronese kruskal ranks", ranks or None),
            ("max collinear subset", diag["max_collinear"]),
            ("span dimension", diag["span_dim"]),
            ("terracini dimension", terracini and (
                f"{terracini['dim']} (max possible {terracini['max_possible']}, "
                f"N {terracini['veronese_dim']})")),
            ("complementary decomposition bound", diag["complementary_bound"]),
        ]
        lines += ["diagnostics:",
                  *(f"  {name}: {value}" for name, value in rows if value is not None),
                  "notes:",
                  *(f"  - {note}" for note in cert["notes"])]
    return lines


def _add_common(parser: argparse.ArgumentParser, func) -> None:
    parser.add_argument("--format", choices=("human", "structured"),
                        default="human",
                        help="human text or JSON with sorted keys (default: human)")
    parser.set_defaults(func=func)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="waringcert",
        description="Exact invariants and identifiability certificates for "
                    "candidate Waring decompositions.")
    parser.add_argument("--version", action="version", version=_GENERATOR)
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("hilbert", help="Hilbert function profile and "
                                       "Cayley-Bacharach data of a point set")
    p.add_argument("file", help="point set file, or - for stdin")
    p.add_argument("--max-degree", type=int, default=None, metavar="J",
                   help="extend the profile to degree J (default: set size - 1)")
    _add_common(p, _cmd_hilbert)

    p = sub.add_parser("kruskal", help="Kruskal ranks and position properties")
    p.add_argument("file", help="point set file, or - for stdin")
    p.add_argument("--degree", type=int, default=1, metavar="J",
                   help="report Veronese Kruskal ranks up to degree J (default: 1)")
    _add_common(p, _cmd_kruskal)

    p = sub.add_parser("terracini", help="Terracini dimension of a point set")
    p.add_argument("file", help="point set file, or - for stdin")
    p.add_argument("--degree", type=int, required=True, metavar="D",
                   help="degree of the Veronese embedding (>= 2)")
    _add_common(p, _cmd_terracini)

    p = sub.add_parser("certify", help="run the identifiability cascade; exit "
                                       "code 0/2/3 = Identifiable/Inconclusive/NotMinimal")
    p.add_argument("file", help="point set file, or - for stdin")
    p.add_argument("--degree", type=int, required=True, metavar="D",
                   help="degree of the candidate decomposition (>= 1)")
    _add_common(p, _cmd_certify)

    p = sub.add_parser("generic", help="expected and true generic rank for "
                                       "degree-d forms on P^n")
    p.add_argument("n", type=int, help="ambient projective dimension (>= 1)")
    p.add_argument("d", type=int, help="degree (>= 2)")
    p.add_argument("--seed", type=int, default=0,
                   help="seed for the randomized terracini oracle (default: 0; "
                        "output is deterministic for a fixed seed)")
    p.add_argument("--trials", type=int, default=2,
                   help="random draws for the one terracini witness (default: 2)")
    _add_common(p, _cmd_generic)
    return parser


# verb -> (flag, least value it accepts), checked before any input is read
_FLAG_FLOORS = {"generic": ("trials", 1), "kruskal": ("degree", 1),
                "hilbert": ("max_degree", 0)}


def run(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.verb in _FLAG_FLOORS:
        dest, least = _FLAG_FLOORS[args.verb]
        value = getattr(args, dest)
        if value is not None and value < least:
            print(f"error: --{dest.replace('_', '-')} must be >= {least}",
                  file=sys.stderr)
            return 1
    report = {"schema_version": _SCHEMA_VERSION, "generator": _GENERATOR,
              "command": args.verb}
    try:
        points = None
        if args.verb != "generic":
            doc = parse_point_file(_read_input(args.file))
            points = doc.points
            report["input"] = {"path": args.file, "ambient_dim": points.ambient_dim,
                               "set_size": len(points),
                               "digest": _canonical_digest(points)}
            if doc.label is not None:
                report["input"]["label"] = doc.label
        fields, code = args.func(args, points)
    except (PointFileError, ValueError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    report.update(fields)
    if args.format == "structured":
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print("\n".join(render_human(report)))
    return code


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
