"""Identifiability certificates for candidate Waring decompositions.

Given a finite point set A in P^n and a degree d, the certifier first checks
that the degree-d Veronese images of A are linearly independent (otherwise
the candidate is certifiably non-minimal), then runs a fixed cascade of
sufficient criteria.  The first criterion whose hypothesis holds certifies
that len(A) is the Waring rank and that A is the unique decomposition; when
none applies the result is Inconclusive, which certifies nothing.

Each criterion is one rule (a, d) -> (fired, note, read), where read lists
the Veronese degrees whose Kruskal rank the rule took, and the Terracini
report if it took one; the diagnostics report exactly what the rules that
ran read, so each hypothesis is tested in its rule alone.

Every verdict is backed by exact integer arithmetic on primitive integer
representatives of the points; there are no numeric tolerances anywhere.
"""

from __future__ import annotations

import enum
from math import comb, inf

from .geometry import PointSet, Record
from .hilbert import HilbertProfile, gup_cutoff, hilbert_profile, span_dim
from .kruskal import (_gup_failure, kruskal_and_collinear, kruskal_rank,
                      reshaped_kruskal, veronese_kruskal_rank)
from .terracini import (_TRIALS, TerraciniReport, generic_terracini_dimension,
                        terracini_dimension)


class Verdict(enum.Enum):
    IDENTIFIABLE = "Identifiable"
    NOT_MINIMAL = "NotMinimal"
    INCONCLUSIVE = "Inconclusive"


class Diagnostics(Record):
    """Invariants of the input collected while certifying.

    The Hilbert profile and the complementary bound are always present.
    The costly invariants are reported only where a rule that ran read
    them, so a certificate costs no sweep that no criterion read:
    veronese_kruskal_ranks lists (degree, rank) for the union of the
    degrees the rules report reading, and max_collinear is set exactly
    when degree 1 is among them, like kruskal_rank (k_1).  terracini
    is the Terracini report a rule read (only quartic reads one), and None
    otherwise.
    """

    minimal: bool
    hilbert: HilbertProfile
    veronese_kruskal_ranks: tuple[tuple[int, int], ...]
    max_collinear: int | None
    terracini: TerraciniReport | None
    complementary_bound: int

    @property
    def kruskal_rank(self) -> int | None:
        """k_1, the degree-1 entry of veronese_kruskal_ranks, or None."""
        return dict(self.veronese_kruskal_ranks).get(1)

    @property
    def span_dim(self) -> int:
        """Projective dimension of the linear span, h(1) - 1."""
        return self.hilbert.value_at(1) - 1


class Certificate(Record):
    """Outcome of certification for one (point set, degree) input.

    Identifiable means: the degree-d form with support A has Waring rank
    exactly set_size and A is its unique decomposition of that size.
    NotMinimal means the Veronese images are dependent, so the candidate is
    certifiably not a minimal decomposition of anything it represents.
    Inconclusive certifies nothing.
    """

    verdict: Verdict
    degree: int
    set_size: int
    ambient_dim: int
    criterion: str | None
    diagnostics: Diagnostics
    notes: tuple[str, ...]

    def __post_init__(self):
        if (self.verdict is Verdict.IDENTIFIABLE) != (self.criterion is not None):
            raise ValueError("criterion must be set exactly for Identifiable")

    @property
    def rank(self) -> int | None:
        """The certified rank, set_size, for Identifiable; None otherwise."""
        return self.set_size if self.verdict is Verdict.IDENTIFIABLE else None


def check_minimal(a: PointSet, d: int) -> bool:
    """Whether the degree-d Veronese images of a are linearly independent.

    Dependence certifies non-minimality: a dependent image can be removed
    from any decomposition supported on a after adjusting coefficients.
    Independence alone does not certify minimality.

    The images are independent exactly when h(d) = len(a), read from the
    Hilbert profile, which proves its values from one modular pass and
    takes an exact rank only for a degree the pass leaves open.
    """
    if d < 1:
        raise ValueError(f"degree must be >= 1, got {d}")
    return hilbert_profile(a).value_at(d) == len(a)


# What a rule returns: whether it fired, its note, and what it read, the
# Veronese degrees whose Kruskal rank it took and any Terracini report.
_Outcome = tuple[bool, str, tuple[int | TerraciniReport, ...]]


def _sylvester(a: PointSet, d: int) -> _Outcome:
    """Binary forms: 2*len(a) <= d + 1, that is, len(a) is below the generic
    rank of degree-d binary forms, or equals it with d odd (Sylvester)."""
    if a.ambient_dim != 1:
        return False, f"not applicable (ambient dimension {a.ambient_dim}, needs 1)", ()
    l = len(a)
    if 2 * l <= d + 1:
        return True, f"fired (2*{l} <= {d} + 1)", ()
    return False, (f"{l} points do not satisfy the binary rank bound "
                   f"(2*{l} > {d} + 1)"), ()


def _half_degree(a: PointSet, d: int) -> _Outcome:
    """Twice the set size is at most d + 1."""
    l = len(a)
    if 2 * l <= d + 1:
        return True, f"fired (2*{l} <= {d} + 1)", ()
    return False, f"2*{l} = {2 * l} > {d + 1} = d + 1", ()


def _half_degree_spanning(a: PointSet, d: int) -> _Outcome:
    """The points span P^n and twice the set size is at most d + n."""
    l = len(a)
    n = a.ambient_dim
    if span_dim(a) != n:
        return False, f"the points span a proper subspace (dimension {span_dim(a)} < {n})", ()
    if 2 * l <= d + n:
        return True, f"fired (spanning, 2*{l} <= {d} + {n})", ()
    return False, f"2*{l} = {2 * l} > {d + n} = d + n", ()


def _alignment_bound(a: PointSet, d: int) -> _Outcome:
    """len(a) <= d and every aligned subset has size below d/2."""
    l = len(a)
    if l > d:
        return False, f"{l} points exceed the degree {d}", ()
    m = kruskal_and_collinear(a)[1]
    if 2 * m < d:
        return True, f"fired ({l} <= {d}, aligned subset {m} < {d}/2)", (1,)
    return False, f"an aligned subset of size {m} is not below {d}/2", (1,)


def _plane_gup(a: PointSet, d: int) -> _Outcome:
    """Plane sets in general uniform position with 8*len(a) < d^2 + d.  The
    rule reads k_j from degree 1 up to the first degree that fails GUP, or
    to the GUP cutoff."""
    if a.ambient_dim != 2:
        return False, f"not applicable (ambient dimension {a.ambient_dim}, needs 2)", ()
    l = len(a)
    if 8 * l >= d * d + d:
        return False, f"8*{l} = {8 * l} is not below d^2 + d = {d * d + d}", ()
    failed = _gup_failure(a)
    if failed is not None:
        return (False, "the points are not in general uniform position",
                tuple(range(1, failed + 1)))
    return True, f"fired (GUP, 8*{l} < {d * d + d})", tuple(range(1, gup_cutoff(2, l) + 1))


def _reshaped_kruskal(a: PointSet, d: int) -> _Outcome:
    """Some partition d = x + y + z satisfies the reshaped Kruskal inequality
    2*len(a) <= k_x + k_y + k_z - 2; the note names the witness.  Needs d >= 3."""
    search = reshaped_kruskal(a, d)
    rep = search.passing
    swept = tuple(j for j, _ in search.ranks)
    if rep is None:
        return False, f"no partition passes (proven bound {search.bound} < {len(a)})", swept
    return True, f"fired (partition {rep.partition}, ranks {rep.ranks})", swept


def _quartic(a: PointSet, d: int) -> _Outcome:
    """Degree 4, driven by the Kruskal rank k of the points.

    With l = len(a): above 2k - 1 nothing is certified, and l above the
    cap 2*min(l, n + 1) - 1 is ruled out before k is computed.  At the
    boundary l = 2k - 1 the criterion fires exactly when the Terracini
    dimension is the maximal (n+1)*l - 1; the rule reads k_1 from the cap
    on, and the Terracini report at the boundary.

    Below the boundary the rule is never reached from ``certify``: when
    every k points of A are independent and l <= 2k - 2, each point p has
    the other l - 1 <= 2k - 3 points split into two groups of at most
    k - 1, each on a hyperplane that misses p, so the product of the two
    hyperplanes is a quadric through all points but p.  Then k_2 = l, and
    the partition (1, 1, 2) passes the reshaped Kruskal test
    2l <= 2k + l - 2, which the cascade tries first.
    """
    l = len(a)
    n = a.ambient_dim
    cap = 2 * min(l, n + 1) - 1
    if l > cap:
        return False, f"{l} points exceed 2k - 1 <= {cap} (k <= {min(l, n + 1)})", ()
    k = kruskal_rank(a)
    if l > 2 * k - 1:
        return False, f"{l} points exceed 2k - 1 = {2 * k - 1} (k = {k})", (1,)
    report = terracini_dimension(a, d)
    if report.tangents_independent:
        return True, f"fired (2k - 1 = {l}, Terracini dimension {report.dim})", (1, report)
    return False, (f"boundary size 2k - 1 = {l} but the Terracini dimension "
                   f"{report.dim} is below {report.max_possible}"), (1, report)


# The cascade, cheapest first: each rule's label, the rule, and the lowest
# and highest degree it applies to.  The first rule that fires decides.
_CASCADE = (
    ("sylvester", _sylvester, 1, inf),
    ("half-degree", _half_degree, 1, inf),
    ("half-degree-spanning", _half_degree_spanning, 1, inf),
    ("alignment-bound", _alignment_bound, 1, inf),
    ("plane-gup", _plane_gup, 1, inf),
    ("reshaped-kruskal", _reshaped_kruskal, 3, inf),
    ("quartic", _quartic, 4, 4),
)


def complementary_bound(a: PointSet, d: int) -> int:
    """Lower bound on the size of any other minimal decomposition.

    For binary forms with len(a) < d + 1 any second minimal decomposition B
    satisfies len(a) + len(B) >= d + 2; for a set spanning P^n the analogous
    bound is d + n.  Returns 0 when neither hypothesis applies.  Meaningful
    when a itself is minimal.
    """
    if d < 1:
        raise ValueError(f"degree must be >= 1, got {d}")
    l = len(a)
    n = a.ambient_dim
    if n == 1 and l < d + 1:
        return d + 2 - l
    if span_dim(a) == n:
        return max(0, d + n - l)
    return 0


def certify(a: PointSet, d: int) -> Certificate:
    """Run the certification cascade on a candidate decomposition.

    The criteria run in the fixed order of the cascade table, from cheapest
    to most expensive: sylvester, half-degree, half-degree-spanning,
    alignment-bound, plane-gup, reshaped-kruskal (degree >= 3), quartic
    (degree 4).  The first hit decides; the notes record one line per
    criterion examined.
    """
    if d < 1:
        raise ValueError(f"degree must be >= 1, got {d}")
    l = len(a)
    profile = hilbert_profile(a)
    minimal = check_minimal(a, d)
    notes: list[str] = []
    fired: str | None = None
    read: set[int | TerraciniReport] = set()

    if not minimal:
        notes.append(
            f"the degree-{d} Veronese images are linearly dependent "
            f"(h({d}) = {profile.value_at(d)} < {l}), so the candidate "
            "is not a minimal decomposition; no criterion was attempted")
    else:
        for label, rule, lowest, highest in _CASCADE:
            if not lowest <= d <= highest:
                continue
            hit, reason, took = rule(a, d)
            notes.append(f"{label}: {reason}")
            read.update(took)
            if hit:
                fired = label
                break

    degrees = sorted(j for j in read if isinstance(j, int))
    diagnostics = Diagnostics(
        minimal=minimal,
        hilbert=profile,
        veronese_kruskal_ranks=tuple((j, veronese_kruskal_rank(a, j)) for j in degrees),
        max_collinear=kruskal_and_collinear(a)[1] if 1 in read else None,
        terracini=next((r for r in read if isinstance(r, TerraciniReport)), None),
        complementary_bound=complementary_bound(a, d),
    )
    if not minimal:
        verdict = Verdict.NOT_MINIMAL
    elif fired is not None:
        verdict = Verdict.IDENTIFIABLE
    else:
        verdict = Verdict.INCONCLUSIVE
        notes.append("no criterion applies; this certifies nothing about the input")
    return Certificate(
        verdict=verdict,
        degree=d,
        set_size=l,
        ambient_dim=a.ambient_dim,
        criterion=fired,
        diagnostics=diagnostics,
        notes=tuple(notes),
    )


# Failures of generic identifiability at subgeneric rank for d >= 3
# (Chiantini, Ottaviani and Vannieuwenhoven, Trans. AMS 2017): (n, d) ->
# the ranks r whose generic form is not identifiable, each with how many
# decompositions that form has.  The "infinitely many" ranks are the
# defective cases of Alexander and Hirschowitz (J. Algebraic Geom. 1995),
# at the expected generic rank; the generic rank there is one more.
SUBGENERIC_EXCEPTIONS = {
    (2, 4): ((5, "infinitely many"),),
    (2, 6): ((9, "exactly two"),),
    (3, 4): ((8, "exactly two"), (9, "infinitely many")),
    (4, 3): ((7, "infinitely many"),),
    (4, 4): ((14, "infinitely many"),),
    (5, 3): ((9, "exactly two"),),
}


class GenericInfo(Record):
    """Generic rank data for degree-d forms on P^n.

    generic_rank is the true generic rank, which the Alexander-Hirschowitz
    theorem gives from (n, d) alone, so it is a property, as are space_dim
    and expected_generic_rank.  oracle_verified is True when one exact
    Terracini rank at generic_rank points, the coordinate points and
    random points beyond them
    (``generic_terracini_dimension``), filled the space of forms, which
    proves the upper bound by Terracini's lemma; the theorem alone gives
    the value otherwise.
    exceptions lists the known failures of generic identifiability at
    subgeneric rank for these parameters, and why the rank is unverified
    when it is.
    """

    ambient_dim: int
    degree: int
    oracle_verified: bool
    exceptions: tuple[str, ...]

    @property
    def space_dim(self) -> int:
        """Dimension C(n+d, d) of the space of degree-d forms."""
        return comb(self.ambient_dim + self.degree, self.degree)

    @property
    def expected_generic_rank(self) -> int:
        """ceil(C(n+d, d) / (n + 1))."""
        return -(-self.space_dim // (self.ambient_dim + 1))

    @property
    def generic_rank(self) -> int:
        """n + 1 for quadrics, the expected rank plus one at the defective
        (n, d) = (2, 4), (3, 4), (4, 3) and (4, 4), and the expected rank
        elsewhere."""
        if self.degree == 2:
            return self.ambient_dim + 1
        special = SUBGENERIC_EXCEPTIONS.get((self.ambient_dim, self.degree), ())
        return self.expected_generic_rank + any(count == "infinitely many"
                                                for _, count in special)


# The largest space of forms whose generic rank one Terracini witness checks.
_MAX_SPACE_DIM = 500


def generic_info(n: int, d: int, seed: int = 0) -> GenericInfo:
    """Generic rank of degree-d forms on P^n, with identifiability caveats.

    The generic rank is the Alexander-Hirschowitz value, which the record
    derives from (n, d) (``GenericInfo.generic_rank``).  The lower bound
    takes no rank: below the expected rank r = ceil(C(n+d, d) / (n + 1)),
    the tangent spaces at r - 1 points span at most
    (n+1)(r-1) - 1 < C(n+d, d) - 1 dimensions, and for quadrics and at the
    four defective (n, d) the theorem itself rules out every smaller rank.

    When C(n+d, d) is at most ``_MAX_SPACE_DIM``, one witness checks the
    upper bound: the Terracini dimension of generic_rank points, the n + 1
    coordinate points and random points beyond them drawn from ``seed``, in
    up to ``terracini._TRIALS`` trials.  If it fills the space,
    Terracini's lemma proves that the generic rank is at most
    generic_rank and oracle_verified is True.  A witness that falls short
    proves nothing, so the rank is still the theorem's, unverified, with a
    note.
    Requires d >= 2 (in degree 1 every form has rank 1).
    """
    if n < 1:
        raise ValueError(f"ambient dimension must be >= 1, got {n}")
    if d < 2:
        raise ValueError(f"degree must be >= 2, got {d}")
    theorem = GenericInfo(ambient_dim=n, degree=d, oracle_verified=False, exceptions=())
    space, rank = theorem.space_dim, theorem.generic_rank
    exceptions = []
    if d == 2 and n >= 2:
        exceptions.append(
            f"degree 2: quadrics of every rank from 2 to {n} have infinitely "
            "many decompositions, so no subgeneric rank is identifiable")
    for r, count in SUBGENERIC_EXCEPTIONS.get((n, d), ()):
        exceptions.append(
            f"rank {r}: the generic form of rank {r} has {count} decompositions")
    verified = space <= _MAX_SPACE_DIM and generic_terracini_dimension(
        n, d, rank, seed=seed).dim == space - 1
    if space > _MAX_SPACE_DIM:
        exceptions.append(
            "generic rank not verified by the Terracini oracle (space "
            f"dimension {space} exceeds the budget {_MAX_SPACE_DIM}); "
            "reporting the Alexander-Hirschowitz value")
    elif not verified:
        exceptions.append(
            f"generic rank not verified: no Terracini witness of {rank} "
            f"points filled the space of dimension {space} in {_TRIALS} "
            f"trials (seed {seed}); reporting the Alexander-Hirschowitz value")
    return GenericInfo(ambient_dim=n, degree=d, oracle_verified=verified,
                       exceptions=tuple(exceptions))
