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

Coordinates are decimal integers or p/q rational strings, read by
``ProjectivePoint``; no floating point is accepted.  The optional ``dim``
header cross-checks the ambient dimension; without it the first point
fixes the coordinate count.

Every report on a point file carries ``input.digest``, the SHA-256 of the
set's canonical coordinates, so the same points written differently give
the same digest.  It is hashed with the interpreter's built-in SHA-256,
so a cold run loads no OpenSSL library (``_canonical_digest``).

A cold run loads only the layers its verb uses.  This module imports
``geometry`` and ``hilbert`` (and through it ``linalg``), which read the
point file and answer ``hilbert``; every other verb imports its layer when
it runs (``certify`` and ``generic`` import ``certify``, which loads every
layer).  ``json`` is imported only to print a structured report.  The
digest and the reports write each coordinate from the primitive integers,
and no ``Fraction`` is built outside ``ProjectivePoint.coords``, so no run
imports ``fractions`` or ``decimal``.

Exit codes for ``certify``: 0 Identifiable, 2 Inconclusive, 3 NotMinimal.
All verbs exit 1 on malformed input.
"""

from __future__ import annotations

import argparse
import sys
from bisect import bisect_left
from typing import TYPE_CHECKING, Sequence

from . import __version__
from .geometry import (DuplicatePointError, PointSet, ProjectivePoint, Record,
                       _canonical_texts)
from .hilbert import HilbertProfile, gup_cutoff, hilbert_profile, satisfies_cb

if TYPE_CHECKING:
    from .terracini import TerraciniReport

_GENERATOR = f"waringcert {__version__}"
_SCHEMA_VERSION = 5


class PointFileError(ValueError):
    """Malformed point set file; carries the offending line number if known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        prefix = f"line {line}: " if line is not None else ""
        super().__init__(prefix + message)


class PointSetDocument(Record):
    """A parsed input file: the point set and its label."""

    points: PointSet
    label: str | None


def parse_point_file(text: str) -> PointSetDocument:
    """Parse the point set format described in the module docstring."""
    label: str | None = None
    dim: int | None = None
    points: list[ProjectivePoint] = []
    point_lines: list[int] = []
    # An editor's UTF-8 byte-order mark is not part of the first line.
    for lineno, raw in enumerate(text.removeprefix("\ufeff").splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("label:"):
            if points:
                raise PointFileError("label must come before the points", lineno)
            label = line[len("label:"):].strip()
            continue
        if line.startswith("dim:"):
            if points:
                raise PointFileError("dim must come before the points", lineno)
            body = line[len("dim:"):].strip()
            if not (body.isascii() and body.isdigit()) or int(body) < 1:
                raise PointFileError(
                    f"dim must be a positive integer, got {body!r}", lineno)
            dim = int(body)
            continue
        tokens = line.split()
        if dim is not None and len(tokens) != dim + 1:
            raise PointFileError(
                f"expected {dim + 1} coordinates, found {len(tokens)}", lineno)
        try:
            points.append(ProjectivePoint(tokens))
        except ValueError as exc:
            raise PointFileError(str(exc), lineno) from None
        # Without a dim header, the first point fixes the coordinate count.
        dim = len(tokens) - 1
        point_lines.append(lineno)
    if not points:
        raise PointFileError("no points found in input")
    try:
        point_set = PointSet(points)
    except DuplicatePointError as exc:
        raise PointFileError(
            f"points on lines {point_lines[exc.first]} and {point_lines[exc.second]} "
            "coincide after canonical scaling") from None
    return PointSetDocument(points=point_set, label=label)


def _read_input(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise PointFileError(f"cannot read {path}: {exc.strerror or exc}") from None


def _canonical_digest(points: PointSet) -> str:
    """SHA-256 of the canonical coordinates, independent of input formatting;
    hashed by the interpreter's built-in module, or by hashlib in a build
    without one."""
    try:
        from _sha2 import sha256
    except ImportError:
        try:
            from _sha256 import sha256
        except ImportError:
            from hashlib import sha256
    lines = [f"dim: {points.ambient_dim}"]
    for p in points:
        lines.append(" ".join(_canonical_texts(p.primitive_coords)))
    payload = "\n".join(lines).encode("utf-8")
    return sha256(payload).hexdigest()


def _profile_block(profile: HilbertProfile) -> dict:
    # Values through the separation degree s; from s on, h stays at the
    # set size, the last value.
    return {
        "values": list(profile.values),
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
    # The Cayley-Bacharach degrees are an initial run (``satisfies_cb``).
    top = profile.separation_degree if len(points) >= 2 else 0
    run = bisect_left(range(top), True, key=lambda i: not satisfies_cb(points, i))
    cb_max = run - 1 if run else None
    return {"profile": _profile_block(profile),
            "cayley_bacharach_max": cb_max}, 0


def _cmd_kruskal(args: argparse.Namespace, points: PointSet) -> tuple[dict, int]:
    from .kruskal import is_gup, is_lgp, veronese_kruskal_rank
    ranks = [[j, veronese_kruskal_rank(points, j)] for j in range(1, args.degree + 1)]
    return {
        "kruskal_rank": ranks[0][1],
        "linearly_general_position": is_lgp(points),
        "veronese_kruskal_ranks": ranks,
        "general_uniform_position": is_gup(points),
        "gup_cutoff_degree": gup_cutoff(points.ambient_dim, len(points)),
    }, 0


def _cmd_terracini(args: argparse.Namespace, points: PointSet) -> tuple[dict, int]:
    from .terracini import terracini_dimension
    return {"terracini": _terracini_block(terracini_dimension(points, args.degree))}, 0


def _cmd_certify(args: argparse.Namespace, points: PointSet) -> tuple[dict, int]:
    from .certify import Verdict, certify
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
    exit_by_verdict = {Verdict.IDENTIFIABLE: 0, Verdict.INCONCLUSIVE: 2,
                       Verdict.NOT_MINIMAL: 3}
    return {"certificate": block}, exit_by_verdict[cert.verdict]


def _cmd_generic(args: argparse.Namespace, points: None) -> tuple[dict, int]:
    from .certify import generic_info
    info = generic_info(args.n, args.d, seed=args.seed)
    return {
        "arguments": {"n": args.n, "d": args.d, "seed": args.seed},
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
            + (f"yes (seed {arguments['seed']})" if verified else "no"),
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
        values, s = profile["values"], profile["separation_degree"]
        lines += [
            "h    : " + " ".join(str(v) for v in values)
            + f" (= {values[-1]} from degree {s} on)",
            f"h-vector: {tuple(profile['h_vector'])}",
            f"separated from degree: {s}",
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
        from .certify import Verdict
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
    _add_common(p, _cmd_generic)
    return parser


def run(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    # Checked before any input is read.
    if args.verb == "kruskal" and args.degree < 1:
        print("error: --degree must be >= 1", file=sys.stderr)
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
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    report.update(fields)
    if args.format == "structured":
        import json
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print("\n".join(render_human(report)))
    return code


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
