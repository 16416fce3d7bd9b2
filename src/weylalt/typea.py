"""Closed-form catalogs and bijections special to type A highest-root pairs.

For lambda the highest root and mu a negated positive root, the basic
allowable subwords fall into five word shapes whose index ranges follow
one rule in where mu starts and ends.  This module spells those catalogs
out, lists the word families that can never occur inside allowable
elements, and realizes the encoding of A_r(hr, -hr) by sequences over
{0, 1, 2}.

Everything here is cross-checked against the general machinery: catalogs
against `bas.compute_bas` of the rank's one search (each cell read off it
by `enumeration._zero_span`), forbidden words against the membership
predicate, sequences against the computed alternation set.

>>> [entry.word for entry in catalog_bas(4, 1, 4)]
[(1,), (2,), (3,), (4,), (3, 2), (2, 3), (2, 3, 2)]
>>> [x.entries for x in x_sequences(3)]
[(0, 0, 0), (0, 0, 1), (0, 2, 0), (1, 0, 0), (1, 0, 1)]
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .altset import _residual_test
from .bas import classify_product, compute_bas
from .enumeration import (
    _zero_span,
    check_rank_budget,
    h_value,
    highest_root_alternation_set,
)
from .reporting import Report
from .rootsys import MAX_RANK, RootSystemSpec, as_weight, build_root_system
from .weyl import WeylElement, from_word, identity, word_text

__all__ = [
    "CatalogEntry",
    "XSequence",
    "catalog_bas",
    "verify_catalogs",
    "forbidden_words",
    "verify_forbidden",
    "verify_trichotomy",
    "x_sequences",
    "psi",
    "verify_x_bijection",
    "verify_sequence_encodings",
]

_SHAPE_PATTERNS = {
    "a": lambda k: (k,),
    "b": lambda k: (k + 1, k),
    "c": lambda k: (k, k + 1),
    "d": lambda k: (k, k + 1, k),
    "e": lambda k: (k + 2, k, k + 1),
}


@dataclass(frozen=True)
class CatalogEntry:
    """One catalog member: a shape label and its index, which spell the word."""

    shape: str
    k: int

    def __post_init__(self):
        if self.shape not in _SHAPE_PATTERNS:
            raise ValueError(f"unknown shape {self.shape!r}")

    @property
    def word(self) -> tuple:
        return _SHAPE_PATTERNS[self.shape](self.k)


def catalog_bas(r: int, i: int, j: int) -> list:
    """Catalog of basic allowable subwords for A_r(hr, -alpha_{i,j}).

    One rule gives every shape's index range: with lo = max(i, 2) and
    hi = min(j, r - 1), shape (a) runs from 1 (2 when i > 1) to r (r - 1
    when j < r), (b) over [max(i - 1, 2), hi), (c) over [lo, min(j, r - 2)],
    (d) over [lo, hi) and (e) over [lo, hi - 1).  At r = 1 direct
    computation shows s_1 is not allowable (the shifted weight picks up a
    negative coordinate), so the catalog is empty there even though the
    rule would emit s_1.

    >>> [entry.word for entry in catalog_bas(5, 2, 4)]
    [(2,), (3,), (4,), (3, 2), (4, 3), (2, 3), (3, 4), (2, 3, 2), (3, 4, 3), (4, 2, 3)]
    >>> catalog_bas(1, 1, 1)
    []
    """
    if r > MAX_RANK:
        raise ValueError(f"type A allows rank <= {MAX_RANK}, got {r}")
    if not 1 <= i <= j <= r:
        raise ValueError(f"need 1 <= i <= j <= r, got i={i}, j={j}, r={r}")
    if r == 1:
        return []
    lo, hi = max(i, 2), min(j, r - 1)
    ranges = {
        "a": range(1 if i == 1 else 2, r + 1 if j == r else r),
        "b": range(max(i - 1, 2), hi),
        "c": range(lo, min(j, r - 2) + 1),
        "d": range(lo, hi),
        "e": range(lo, hi - 1),
    }
    return [
        CatalogEntry(shape=shape, k=k)
        for shape in "abcde"
        for k in ranges[shape]
    ]


def _compare_catalog(report: Report, rs, i: int, j: int, computed: frozenset) -> None:
    r = rs.rank
    entries = catalog_bas(r, i, j)
    catalog = {from_word(rs, entry.word) for entry in entries}
    report.check(
        len(catalog) == len(entries),
        f"duplicate catalog entries at r={r}, i={i}, j={j}",
    )

    def detail():
        missing = sorted(word_text(s.word) for s in catalog - computed)
        extra = sorted(word_text(s.word) for s in computed - catalog)
        return (
            f"catalog mismatch at r={r}, i={i}, j={j}: "
            f"catalog-only {missing}, computed-only {extra}"
        )

    report.check(catalog == computed, detail)


def verify_catalogs(max_r: int = 9) -> Report:
    """Compare catalogs with computed sets for every negated positive root.

    Each rank is searched once, for A_r(hr, -alpha_{1,r}), and its basic
    subwords are extracted once.  Being basic depends only on the element,
    so the basic subwords of A_r(hr, -alpha_{i,j}) are the rank's basic
    members whose residual zero span lies inside [i, j] (`_zero_span`).
    """
    check_rank_budget(max_r)
    report = Report(title=f"catalogs up to rank {max_r}")
    for r in range(1, max_r + 1):
        rs = build_root_system(RootSystemSpec("A", r))
        aset = highest_root_alternation_set(r)
        residual = dict(zip(aset.elements, aset.residuals))
        basics = [
            (sigma, _zero_span(residual[sigma]))
            for sigma in compute_bas(rs, aset.lam, aset.mu, aset=aset).members
        ]
        for i in range(1, r + 1):
            for j in range(i, r + 1):
                computed = frozenset(
                    sigma for sigma, (first, last) in basics if i <= first and last <= j
                )
                _compare_catalog(report, rs, i, j, computed)
    return report


def forbidden_words(r: int) -> list:
    """Words that never occur inside elements of A_r(hr, -hr).

    Four families: the two boundary pairs, three orderings of each interior
    consecutive triple, and all 24 orderings of four consecutive generators.
    Overlaps between families are deduplicated; order is (length, word).

    >>> for w in forbidden_words(3):
    ...     print(w)
    (1, 2)
    (2, 1)
    (2, 3)
    (3, 2)
    (1, 2, 3)
    (2, 1, 3)
    (3, 2, 1)
    """
    if r < 2:
        raise ValueError(f"forbidden families start at rank 2, got {r}")
    words = {(2, 1), (1, 2), (r - 1, r), (r, r - 1)}
    for i in range(2, r):
        words.add((i - 1, i, i + 1))
        words.add((i, i - 1, i + 1))
        words.add((i + 1, i, i - 1))
    for k in range(1, r - 2):
        words.update(itertools.permutations(range(k, k + 4)))
    return sorted(words, key=lambda w: (len(w), w))


def verify_forbidden(max_r: int = 8) -> Report:
    """Check every forbidden word lands outside A_r(hr, -hr).

    Membership is the set's one predicate, `altset._residual_test`, built
    once per rank: the residual sigma(hr + rho) + hr - rho must have a
    negative or fractional entry, so its partition count vanishes.
    """
    report = Report(title=f"forbidden words up to rank {max_r}")
    for r in range(2, max_r + 1):
        rs = build_root_system(RootSystemSpec("A", r))
        top = rs.highest_root
        neg_top = tuple(-c for c in top)
        residual = _residual_test(rs, as_weight(top), as_weight(neg_top))
        for word in forbidden_words(r):
            report.check(
                residual(from_word(rs, word)) is None,
                f"forbidden word {word_text(word)} is allowable at r={r}",
            )
    return report


def verify_trichotomy(max_r: int = 8) -> Report:
    """Classify every dependent ordered product of basic allowable subwords.

    The sets are A_r(hr, -hr) at ranks 4..max_r.  Each product must land
    in exactly one of the three cases; the classifier raises if none
    applies, which the report records as a failure.  The dependent pairs
    are read off the basic set's blocked masks, plus each member with
    itself: a nonidentity element is never independent of itself.
    """
    check_rank_budget(max_r)
    report = Report(title=f"product trichotomy for ranks 4..{max_r}")
    for r in range(4, max_r + 1):
        rs = build_root_system(RootSystemSpec("A", r))
        aset = highest_root_alternation_set(r)
        bas = compute_bas(rs, aset.lam, aset.mu, aset=aset)
        pairs = 0
        for a, sigma in enumerate(bas.members):
            row = bas.blocked[a] | 1 << a
            for b, tau in enumerate(bas.members):
                if not row >> b & 1:
                    continue
                pairs += 1
                try:
                    classify_product(rs, sigma, tau, bas, aset)
                except Exception as exc:
                    report.fail(
                        f"classification failed at r={r} for "
                        f"{word_text(sigma.word)} * {word_text(tau.word)}: {exc}"
                    )
                else:
                    report.check(True, "")
        report.note(f"r={r}: {pairs} dependent pairs")
    return report


def _sequence_valid(entries: tuple) -> bool:
    n = len(entries)
    for pos, value in enumerate(entries):
        if value not in (0, 1, 2):
            return False
        smaller = 0
        if pos > 0 and entries[pos - 1] < value:
            smaller += 1
        if pos + 1 < n and entries[pos + 1] < value:
            smaller += 1
        if smaller != value:
            return False
    return True


def _check_sequence_rank(r: int) -> None:
    """Sequences are found by filtering all 3**r candidates, so r <= 12."""
    if not 1 <= r <= 12:
        raise ValueError(f"need 1 <= r <= 12, got {r}")


@dataclass(frozen=True)
class XSequence:
    """A sequence over {0, 1, 2} where each entry counts its strictly
    smaller neighbors."""

    entries: tuple

    def __post_init__(self):
        entries = tuple(self.entries)
        object.__setattr__(self, "entries", entries)
        if not entries:
            raise ValueError("sequences must have positive length")
        if not _sequence_valid(entries):
            raise ValueError(f"{entries} violates the neighbor-count rule")


def x_sequences(r: int) -> list:
    """All valid sequences of length r, by exhaustive filter.

    >>> len(x_sequences(4))
    11
    """
    _check_sequence_rank(r)
    return [
        XSequence(entries=candidate)
        for candidate in itertools.product((0, 1, 2), repeat=r)
        if _sequence_valid(candidate)
    ]


# Words attached to each maximal nonzero run, by the run's start position.
_BLOCK_WORDS = {
    (1,): lambda s: (s,),
    (2,): lambda s: (s,),
    (1, 1): lambda s: (s, s + 1),
    (1, 2): lambda s: (s + 1, s),
    (2, 1): lambda s: (s, s + 1, s),
    (1, 2, 1): lambda s: (s, s + 2, s + 1),
}


def psi(x: XSequence) -> WeylElement:
    """Decode a sequence into a Weyl group element of matching rank.

    Maximal nonzero runs translate to short words at the run's start
    position; runs never touch, so the words commute and concatenating
    them in scan order yields a reduced word.

    >>> rank3 = {x.entries: x for x in x_sequences(3)}
    >>> psi(rank3[(1, 0, 1)]).word
    (1, 3)
    >>> psi(rank3[(0, 2, 0)]).word
    (2,)
    """
    entries = x.entries
    r = len(entries)
    rs = build_root_system(RootSystemSpec("A", r))
    word = []
    pos = 0
    while pos < r:
        if entries[pos] == 0:
            pos += 1
            continue
        start = pos
        while pos < r and entries[pos] != 0:
            pos += 1
        block = entries[start:pos]
        rule = _BLOCK_WORDS.get(block)
        if rule is None:
            raise ValueError(f"run {block} at position {start + 1} has no decoding")
        if block == (1,):
            # A lone 1 needs a 0 on one side only, which confines it to the
            # boundary; interior lone 1s already fail the neighbor rule.
            assert start == 0 or pos == r, f"interior lone 1 in {entries}"
        word.extend(rule(start + 1))
    if not word:
        return identity(rs)
    return from_word(rs, tuple(word))


def verify_x_bijection(r: int) -> Report:
    """Check the sequence decoding hits A_r(hr, -hr) exactly once each."""
    report = Report(title=f"sequence bijection at rank {r}")
    seqs = x_sequences(r)
    decoded = {}
    for x in seqs:
        sigma = psi(x)
        previous = decoded.setdefault(sigma, x)
        report.check(
            previous is x,
            f"sequences {previous.entries} and {x.entries} decode identically",
        )
    aset = highest_root_alternation_set(r)
    report.check(
        decoded.keys() == set(aset),
        f"decoded image differs from the alternation set at rank {r}",
    )
    report.check(
        len(seqs) == h_value(r, 1),
        f"|X_{r}| = {len(seqs)} differs from h^1_{r} = {h_value(r, 1)}",
    )
    return report


def verify_sequence_encodings(max_r: int = 10) -> Report:
    """`verify_x_bijection` at ranks 1..max_r, refusing max_r before rank 1."""
    _check_sequence_rank(max_r)
    report = Report(title="sequence encodings")
    for r in range(1, max_r + 1):
        report.absorb(verify_x_bijection(r))
    return report
