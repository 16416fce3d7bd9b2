"""Type A catalogs, forbidden words, and the {0,1,2}-sequence encoding."""

import random

import pytest

from weylalt import enumeration, typea
from weylalt.altset import compute, contains
from weylalt.enumeration import h_value, highest_root_alternation_set
from weylalt.kostant import kostant_partition
from weylalt.rootsys import RootSystemSpec, build_root_system, neg_root, wadd, wsub
from weylalt.bas import compute_bas
from weylalt.weyl import act, from_word
from weylalt.typea import (
    CatalogEntry,
    XSequence,
    catalog_bas,
    forbidden_words,
    psi,
    verify_catalogs,
    verify_forbidden,
    verify_trichotomy,
    verify_x_bijection,
    x_sequences,
)


def test_catalog_rank_four_full_negative_root():
    entries = catalog_bas(4, 1, 4)
    assert [(e.shape, e.word) for e in entries] == [
        ("a", (1,)),
        ("a", (2,)),
        ("a", (3,)),
        ("a", (4,)),
        ("b", (3, 2)),
        ("c", (2, 3)),
        ("d", (2, 3, 2)),
    ]


def test_catalog_rank_five_interior_root():
    entries = catalog_bas(5, 2, 4)
    assert [(e.shape, e.k) for e in entries] == [
        ("a", 2),
        ("a", 3),
        ("a", 4),
        ("b", 2),
        ("b", 3),
        ("c", 2),
        ("c", 3),
        ("d", 2),
        ("d", 3),
        ("e", 2),
    ]
    assert catalog_bas(5, 2, 4)[-1].word == (4, 2, 3)
    assert len(catalog_bas(5, 1, 5)) == 12


def test_catalog_edge_cases():
    assert catalog_bas(1, 1, 1) == []
    assert [e.word for e in catalog_bas(2, 1, 2)] == [(1,), (2,)]
    with pytest.raises(ValueError):
        catalog_bas(4, 3, 2)
    with pytest.raises(ValueError):
        catalog_bas(4, 0, 2)
    with pytest.raises(ValueError):
        catalog_bas(4, 1, 5)


_PATTERNS = {
    "a": lambda k: (k,),
    "b": lambda k: (k + 1, k),
    "c": lambda k: (k, k + 1),
    "d": lambda k: (k, k + 1, k),
    "e": lambda k: (k + 2, k, k + 1),
}


def test_catalog_entries_stay_in_range():
    rng = random.Random("catalog-range")
    for _ in range(40):
        r = rng.randint(2, 8)
        i = rng.randint(1, r)
        j = rng.randint(i, r)
        for entry in catalog_bas(r, i, j):
            assert all(1 <= letter <= r for letter in entry.word)
            assert entry.word == _PATTERNS[entry.shape](entry.k)


def test_catalog_entry_validates_pattern():
    with pytest.raises(ValueError):
        CatalogEntry(shape="z", k=1)


def test_catalog_matches_computed_basic_set():
    for r, i, j in ((4, 1, 4), (6, 2, 4)):
        rs = build_root_system(RootSystemSpec("A", r))
        bas = compute_bas(rs, rs.highest_root, neg_root(rs, i, j))
        words = [e.word for e in catalog_bas(r, i, j)]
        catalog = {from_word(rs, w) for w in words}
        assert len(catalog) == len(words)
        assert catalog == set(bas.members)
    report = verify_catalogs(6)
    assert report.ok and report.checked > 0


def test_catalog_check_searches_once_per_rank(monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return compute(*args, **kwargs)

    highest_root_alternation_set.cache_clear()
    monkeypatch.setattr(enumeration, "compute", counted)
    monkeypatch.setattr("weylalt.bas.compute", counted)
    assert verify_catalogs(6).ok
    assert len(calls) == 6


def test_catalog_check_catches_a_dropped_entry(monkeypatch):
    def short(r, i, j):
        entries = catalog_bas(r, i, j)
        return entries[:-1] if (r, i, j) == (5, 2, 4) else entries

    monkeypatch.setattr(typea, "catalog_bas", short)
    report = verify_catalogs(6)
    assert report.failures_seen == 1
    assert report.failures[0].startswith("catalog mismatch at r=5, i=2, j=4:")


def test_catalogs_through_rank_eleven():
    report = verify_catalogs(11)
    assert report.ok
    assert report.checked == 2 * sum(r * (r + 1) // 2 for r in range(1, 12))


def test_catalog_words_spell_actual_members():
    rs = build_root_system(RootSystemSpec("A", 5))
    bas = compute_bas(rs, rs.highest_root, neg_root(rs, 2, 4))
    computed = {m.images for m in bas.members}
    from weylalt.weyl import from_word

    for entry in catalog_bas(5, 2, 4):
        assert from_word(rs, entry.word).images in computed


def test_forbidden_words_small_ranks():
    assert forbidden_words(2) == [(1, 2), (2, 1)]
    assert forbidden_words(3) == [
        (1, 2),
        (2, 1),
        (2, 3),
        (3, 2),
        (1, 2, 3),
        (2, 1, 3),
        (3, 2, 1),
    ]
    with pytest.raises(ValueError):
        forbidden_words(1)


def test_forbidden_words_vanishing_partition_count():
    report = verify_forbidden(6)
    assert report.ok and report.checked > 0
    # The oracle: the partition count at sigma(hr + rho) + hr - rho vanishes.
    for r in range(2, 7):
        rs = build_root_system(RootSystemSpec("A", r))
        top = rs.highest_root
        lam_rho = wadd(top, rs.rho)
        for word in forbidden_words(r):
            sigma = from_word(rs, word)
            shifted = wsub(wadd(act(rs, sigma, lam_rho), top), rs.rho)
            assert kostant_partition(rs, shifted) == 0, word
            assert not contains(rs, top, tuple(-c for c in top), sigma), word


def test_trichotomy_sweep():
    report = verify_trichotomy(6)
    assert report.ok and report.checked > 0


def test_x_sequences_rank_three():
    assert [x.entries for x in x_sequences(3)] == [
        (0, 0, 0),
        (0, 0, 1),
        (0, 2, 0),
        (1, 0, 0),
        (1, 0, 1),
    ]
    with pytest.raises(ValueError):
        x_sequences(0)
    with pytest.raises(ValueError):
        x_sequences(13)


def test_x_sequence_counts_match_leading_column():
    for r in range(1, 9):
        assert len(x_sequences(r)) == h_value(r, 1)


def test_x_sequence_validation():
    with pytest.raises(ValueError):
        XSequence(entries=())
    with pytest.raises(ValueError):
        XSequence(entries=(2, 0, 0))
    with pytest.raises(ValueError):
        XSequence(entries=(0, 1, 0))
    XSequence(entries=(1, 0, 0))


def test_psi_decodes_runs():
    assert psi(XSequence(entries=(1, 0, 1))).word == (1, 3)
    assert psi(XSequence(entries=(0, 2, 0))).word == (2,)
    assert psi(XSequence(entries=(0, 0, 0))).length == 0
    assert psi(XSequence(entries=(0, 1, 2, 0))).word == (3, 2)
    assert psi(XSequence(entries=(0, 1, 1, 0))).word == (2, 3)
    assert psi(XSequence(entries=(0, 2, 1, 0))).word == (2, 3, 2)
    assert psi(XSequence(entries=(0, 1, 2, 1, 0))).word == (2, 4, 3)


def test_psi_images_fill_alternation_set():
    for r in range(1, 8):
        assert verify_x_bijection(r).ok
    decoded = {psi(x).images for x in x_sequences(5)}
    target = {s.images for s in highest_root_alternation_set(5)}
    assert decoded == target
