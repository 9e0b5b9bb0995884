"""Command line interface.

Verbs: hilbert, kruskal, terracini, certify, generic.  Point sets are read
from a small text format; reports are printed either as aligned human text
or as JSON with sorted keys.  Output is byte-identical for identical input,
flags, and seed.

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
from .certify import Certificate, Verdict, certify, generic_info
from .geometry import DuplicatePointError, PointSet, ProjectivePoint
from .hilbert import HilbertProfile, hilbert_profile, satisfies_cb
from .kruskal import gup_cutoff, is_gup, is_lgp, veronese_kruskal_rank
from .terracini import TerraciniReport, terracini_dimension

_GENERATOR = f"waringcert {__version__}"
_SCHEMA_VERSION = 2
_RATIONAL_RE = re.compile(r"^[+-]?\d+(/\d+)?$")


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
    if not _RATIONAL_RE.match(token):
        raise ValueError(
            f"{token!r} is not a decimal integer or p/q rational")
    value = Fraction(token)
    return value


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
            if not body.isdigit() or int(body) < 1:
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


def _input_block(doc: PointSetDocument, path: str) -> dict:
    block = {
        "path": path,
        "ambient_dim": doc.points.ambient_dim,
        "set_size": len(doc.points),
        "digest": _canonical_digest(doc.points),
    }
    if doc.label is not None:
        block["label"] = doc.label
    return block


def _emit(doc: dict, human_lines: list[str], fmt: str) -> None:
    if fmt == "structured":
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        for line in human_lines:
            print(line)


def _profile_block(profile: HilbertProfile) -> dict:
    # Values and differences through the separation degree s; from s on,
    # h stays at the set size ("stable_tail").
    return {
        "j_max": profile.j_max,
        "values": list(profile.values),
        "diffs": list(profile.diffs),
        "stable_tail": {"from_degree": profile.separation_degree,
                        "value": profile.set_size},
        "h_vector": list(profile.h_vector),
        "separation_degree": profile.separation_degree,
    }


def _terracini_block(report: TerraciniReport) -> dict:
    return {
        "num_points": report.num_points,
        "ambient_dim": report.ambient_dim,
        "degree": report.degree,
        "dim": report.dim,
        "max_possible": report.max_possible,
        "veronese_dim": report.veronese_dim,
        "expected_dim": report.expected_dim,
        "is_expected": report.is_expected,
        "tangents_independent": report.tangents_independent,
    }


def _describe_set(doc: PointSetDocument) -> str:
    base = f"{len(doc.points)} points in P^{doc.points.ambient_dim}"
    if doc.label:
        return f"{base} (label: {doc.label})"
    return base


def _cmd_hilbert(args: argparse.Namespace) -> int:
    doc = parse_point_file(_read_input(args.file))
    a = doc.points
    profile = hilbert_profile(a, j_max=args.max_degree)
    sep = profile.separation_degree
    cb_max: int | None = None
    if len(a) >= 2:
        for i in range(sep):
            if satisfies_cb(a, i):
                cb_max = i
            else:
                break
    report = {
        "schema_version": _SCHEMA_VERSION,
        "generator": _GENERATOR,
        "command": "hilbert",
        "input": _input_block(doc, args.file),
        "profile": _profile_block(profile),
        "cayley_bacharach_max": cb_max,
    }
    lines = [
        f"point set: {_describe_set(doc)}",
        f"degrees 0..{profile.j_max}",
        "h    : " + " ".join(str(v) for v in profile.values)
        + f" (= {profile.set_size} from degree {sep} on)",
        "diff : " + " ".join(str(v) for v in profile.diffs),
        f"h-vector: {tuple(profile.h_vector)}",
        f"separated from degree: {sep}",
        f"cayley-bacharach up to: {'none' if cb_max is None else cb_max}",
    ]
    _emit(report, lines, args.format)
    return 0


def _cmd_kruskal(args: argparse.Namespace) -> int:
    doc = parse_point_file(_read_input(args.file))
    a = doc.points
    top = max(args.degree, 1)
    ranks = {j: veronese_kruskal_rank(a, j) for j in range(1, top + 1)}
    cutoff = gup_cutoff(a.ambient_dim, len(a))
    gup = is_gup(a)
    lgp = is_lgp(a)
    report = {
        "schema_version": _SCHEMA_VERSION,
        "generator": _GENERATOR,
        "command": "kruskal",
        "input": _input_block(doc, args.file),
        "kruskal_rank": ranks[1],
        "linearly_general_position": lgp,
        "veronese_kruskal_ranks": [[j, ranks[j]] for j in sorted(ranks)],
        "general_uniform_position": gup,
        "gup_cutoff_degree": cutoff,
    }
    lines = [
        f"point set: {_describe_set(doc)}",
        f"kruskal rank: {ranks[1]}",
        f"linearly general position: {'yes' if lgp else 'no'}",
        "veronese kruskal ranks:",
    ]
    for j in sorted(ranks):
        lines.append(f"  degree {j}: {ranks[j]}")
    lines.append(
        f"general uniform position: {'yes' if gup else 'no'} "
        f"(checked degrees 1..{cutoff})")
    _emit(report, lines, args.format)
    return 0


def _cmd_terracini(args: argparse.Namespace) -> int:
    doc = parse_point_file(_read_input(args.file))
    rep = terracini_dimension(doc.points, args.degree)
    report = {
        "schema_version": _SCHEMA_VERSION,
        "generator": _GENERATOR,
        "command": "terracini",
        "input": _input_block(doc, args.file),
        "terracini": _terracini_block(rep),
    }
    lines = [
        f"point set: {_describe_set(doc)}",
        f"degree: {rep.degree}",
        f"terracini dimension: {rep.dim}",
        f"max possible ((n+1)r - 1): {rep.max_possible}",
        f"form space dimension N: {rep.veronese_dim}",
        f"expected (min of the two): {rep.expected_dim}",
        f"attains expected: {'yes' if rep.is_expected else 'no'}",
        f"tangent spaces independent: {'yes' if rep.tangents_independent else 'no'}",
    ]
    _emit(report, lines, args.format)
    return 0


def _certificate_block(cert: Certificate) -> dict:
    diag = cert.diagnostics
    return {
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


_EXIT_BY_VERDICT = {
    Verdict.IDENTIFIABLE: 0,
    Verdict.INCONCLUSIVE: 2,
    Verdict.NOT_MINIMAL: 3,
}


def _cmd_certify(args: argparse.Namespace) -> int:
    doc = parse_point_file(_read_input(args.file))
    cert = certify(doc.points, args.degree)
    report = {
        "schema_version": _SCHEMA_VERSION,
        "generator": _GENERATOR,
        "command": "certify",
        "input": _input_block(doc, args.file),
        "certificate": _certificate_block(cert),
    }
    diag = cert.diagnostics
    lines = [
        f"point set: {_describe_set(doc)}",
        f"degree: {cert.degree}",
        f"verdict: {cert.verdict.value}",
    ]
    if cert.verdict is Verdict.IDENTIFIABLE:
        lines.append(f"criterion: {cert.criterion}")
        lines.append(f"certified rank: {cert.rank}")
        lines.append("the decomposition is unique of this size")
    lines.extend([
        "diagnostics:",
        f"  minimal candidate: {'yes' if diag.minimal else 'no'}",
        f"  hilbert h-vector: {tuple(diag.hilbert.h_vector)}",
        f"  kruskal rank: {diag.kruskal_rank}",
        "  veronese kruskal ranks: "
        + ", ".join(f"k_{j}={k}" for j, k in diag.veronese_kruskal_ranks),
        f"  max collinear subset: {diag.max_collinear}",
        f"  span dimension: {diag.span_dim}",
    ])
    if diag.terracini is not None:
        lines.append(
            f"  terracini dimension: {diag.terracini.dim} "
            f"(max possible {diag.terracini.max_possible}, N {diag.terracini.veronese_dim})")
    lines.append(f"  complementary decomposition bound: {diag.complementary_bound}")
    lines.append("notes:")
    for note in cert.notes:
        lines.append(f"  - {note}")
    _emit(report, lines, args.format)
    return _EXIT_BY_VERDICT[cert.verdict]


def _cmd_generic(args: argparse.Namespace) -> int:
    info = generic_info(args.n, args.d, trials=args.trials, seed=args.seed)
    report = {
        "schema_version": _SCHEMA_VERSION,
        "generator": _GENERATOR,
        "command": "generic",
        "arguments": {"n": args.n, "d": args.d, "seed": args.seed,
                      "trials": args.trials},
        "space_dim": info.space_dim,
        "expected_generic_rank": info.expected_generic_rank,
        "generic_rank": info.generic_rank,
        "oracle_verified": info.oracle_verified,
        "exceptions": list(info.exceptions),
    }
    lines = [
        f"degree-{info.degree} forms on P^{info.ambient_dim}",
        f"monomial space dimension: {info.space_dim}",
        f"expected generic rank: {info.expected_generic_rank}",
        f"generic rank: {info.generic_rank}"
        + ("" if info.oracle_verified else " (not oracle-verified)"),
        "verified by terracini oracle: "
        + (f"yes (seed {args.seed}, trials {args.trials})"
           if info.oracle_verified else "no"),
    ]
    if info.exceptions:
        lines.append("identifiability exceptions:")
        for note in info.exceptions:
            lines.append(f"  - {note}")
    else:
        lines.append("identifiability exceptions: none known")
    _emit(report, lines, args.format)
    return 0


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=("human", "structured"),
                        default="human",
                        help="human text or JSON with sorted keys (default: human)")


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
    _add_common(p)
    p.set_defaults(func=_cmd_hilbert)

    p = sub.add_parser("kruskal", help="Kruskal ranks and position properties")
    p.add_argument("file", help="point set file, or - for stdin")
    p.add_argument("--degree", type=int, default=1, metavar="J",
                   help="report Veronese Kruskal ranks up to degree J (default: 1)")
    _add_common(p)
    p.set_defaults(func=_cmd_kruskal)

    p = sub.add_parser("terracini", help="Terracini dimension of a point set")
    p.add_argument("file", help="point set file, or - for stdin")
    p.add_argument("--degree", type=int, required=True, metavar="D",
                   help="degree of the Veronese embedding (>= 2)")
    _add_common(p)
    p.set_defaults(func=_cmd_terracini)

    p = sub.add_parser("certify", help="run the identifiability cascade; exit "
                                       "code 0/2/3 = Identifiable/Inconclusive/NotMinimal")
    p.add_argument("file", help="point set file, or - for stdin")
    p.add_argument("--degree", type=int, required=True, metavar="D",
                   help="degree of the candidate decomposition (>= 1)")
    _add_common(p)
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser("generic", help="expected and true generic rank for "
                                       "degree-d forms on P^n")
    p.add_argument("n", type=int, help="ambient projective dimension (>= 1)")
    p.add_argument("d", type=int, help="degree (>= 2)")
    p.add_argument("--seed", type=int, default=0,
                   help="seed for the randomized terracini oracle (default: 0; "
                        "output is deterministic for a fixed seed)")
    p.add_argument("--trials", type=int, default=2,
                   help="random draws per rank in the oracle sweep (default: 2)")
    _add_common(p)
    p.set_defaults(func=_cmd_generic)
    return parser


def run(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "trials", 1) < 1:
        print("error: --trials must be >= 1", file=sys.stderr)
        return 1
    try:
        return args.func(args)
    except (PointFileError, ValueError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
