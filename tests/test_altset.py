"""Alternation sets: pruned search against the exhaustive filter."""

import dataclasses
import hashlib
import warnings
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weylalt import altset, weyl
from weylalt.altset import (
    compute,
    compute_naive,
    contains,
    multiplicity,
    q_multiplicity,
    sample_weight_pairs,
    to_dot,
    to_json,
    verify_conjecture,
    verify_order_ideal,
)
from weylalt.bas import compute_bas
from weylalt.kostant import QPolynomial
from weylalt.rootsys import (
    RootSystemSpec,
    as_weight,
    build_root_system,
    fundamental_weights,
    neg_root,
    wadd,
    wsub,
    zero_weight,
)
from weylalt.weyl import enumerate_group, from_word, word_text


def _rs(family, rank):
    return build_root_system(RootSystemSpec(family, rank))


def _coroot_pairing(rs, v, i):
    """2(v, alpha_{i+1}) / (alpha_{i+1}, alpha_{i+1}) straight from the Gram matrix."""
    form = sum(Fraction(v[j]) * rs.gram[j][i] for j in range(rs.rank))
    return 2 * form / rs.gram[i][i]


def _matrix_residual(rs, lam, mu, sigma):
    """sigma(lambda + rho) - mu - rho through the images matrix, or None outside."""
    x = wadd(lam, rs.rho)
    r = rs.rank
    image = [sum(x[j] * sigma.images[j][k] for j in range(r)) for k in range(r)]
    d = wsub(image, wadd(mu, rs.rho))
    if any(c < 0 or c.denominator != 1 for c in d):
        return None
    return tuple(map(int, d))


def _words(aset):
    return {s.word for s in aset.elements}


def test_rank_four_highest_root_set():
    rs = _rs("A", 4)
    aset = compute(rs, rs.highest_root, tuple(-c for c in rs.highest_root))
    expected = {
        (),
        (1,),
        (2,),
        (3,),
        (4,),
        (1, 3),
        (1, 4),
        (2, 3),
        (2, 4),
        (3, 2),
        (2, 3, 2),
    }
    assert _words(aset) == expected
    assert len(aset) == 11
    # Breadth-first order: by length, then lexicographically by word.
    listed = [s.word for s in aset.elements]
    assert listed == sorted(listed, key=lambda w: (len(w), w))


def test_rank_three_zero_weight_set():
    rs = _rs("A", 3)
    aset = compute(rs, rs.highest_root, zero_weight(3))
    assert _words(aset) == {(), (2,)}


def test_contains_matches_membership():
    rs = _rs("A", 4)
    mu = tuple(-c for c in rs.highest_root)
    aset = compute(rs, rs.highest_root, mu)
    assert contains(rs, rs.highest_root, mu, from_word(rs, (3, 2)))
    assert not contains(rs, rs.highest_root, mu, from_word(rs, (1, 2)))
    for sigma in aset:
        assert contains(rs, rs.highest_root, mu, sigma)


@pytest.mark.parametrize("family,rank", [("A", 4), ("B", 3), ("C", 3), ("D", 4)])
def test_pruned_search_equals_full_filter(family, rank):
    rs = _rs(family, rank)
    for lam, mu in sample_weight_pairs(rs, 6, seed=11):
        fast = compute(rs, lam, mu)
        slow = compute_naive(rs, lam, mu)
        assert fast.elements == slow.elements
        # Both sides derive edges by one rule, so each meets the from_word oracle.
        for aset in (fast, slow):
            assert _edge_words(aset.edges) == _edge_words(_brute_right_covers(rs, aset))


def test_cover_edges_recorded_once_each():
    rs = _rs("A", 4)
    aset = compute(rs, rs.highest_root, tuple(-c for c in rs.highest_root))
    assert len(set(aset.edges)) == len(aset.edges)
    for a, b in aset.edges:
        assert b.length == a.length + 1


def test_non_dominant_lambda_falls_back_with_warning():
    rs = _rs("A", 3)
    lam = (-1, 0, 0)
    with pytest.warns(UserWarning, match="not dominant integral"):
        aset = compute(rs, lam, (-2, -1, -1))
    naive = compute_naive(rs, lam, (-2, -1, -1))
    assert aset.elements == naive.elements
    assert aset.residuals == naive.residuals


def test_order_ideal_and_subword_closure_reports():
    rs = _rs("A", 4)
    mu = tuple(-c for c in rs.highest_root)
    ideal = verify_order_ideal(rs, compute(rs, rs.highest_root, mu))
    assert ideal.ok and ideal.checked > 0
    # Every consecutive subword of every witness word lands in the set.
    aset = compute(rs, rs.highest_root, mu)
    pieces = [
        sigma.word[a:b]
        for sigma in aset.elements
        for a in range(len(sigma.word))
        for b in range(a + 1, len(sigma.word) + 1)
    ]
    assert pieces
    escaped = [word_text(w) for w in pieces if from_word(rs, w) not in aset]
    assert escaped == []
    # Empty sets pass vacuously.
    empty = verify_order_ideal(rs, compute(rs, zero_weight(4), (10, 10, 10, 10)))
    assert empty.ok


@pytest.mark.parametrize(
    "family,rank,checked", [("A", 4, 28), ("B", 3, 17), ("C", 3, 27), ("D", 4, 41)]
)
def test_order_ideal_check_counts_at_highest_root(family, rank, checked):
    rs = _rs(family, rank)
    top = rs.highest_root
    report = verify_order_ideal(rs, compute(rs, top, tuple(-c for c in top)))
    assert report.ok
    assert report.checked == checked


def test_order_ideal_report_catches_a_hole():
    rs = _rs("A", 4)
    top = rs.highest_root
    full = compute(rs, top, tuple(-c for c in top))
    hole = next(k for k, s in enumerate(full.elements) if s.length == 1)
    holed = dataclasses.replace(
        full,
        elements=full.elements[:hole] + full.elements[hole + 1 :],
        residuals=full.residuals[:hole] + full.residuals[hole + 1 :],
    )
    report = verify_order_ideal(rs, holed)
    assert not report.ok
    assert any("escapes the set" in f for f in report.failures)


@pytest.mark.parametrize(
    "words,failure",
    [
        ([(), (1,), (2, 1)], "right cover below s2 s1 at s1 escapes the set"),
        ([(), (1,), (1, 2)], "left cover below s1 s2 at s1 escapes the set"),
    ],
    ids=["right", "left"],
)
def test_order_ideal_report_names_the_missing_cover(words, failure):
    # The closure check reads only the elements: no weights, no residuals.
    rs = _rs("A", 3)
    elements = tuple(from_word(rs, w) for w in words)
    zero = zero_weight(3)
    aset = altset.AlternationSet(lam=zero, mu=zero, elements=elements, residuals=())
    assert verify_order_ideal(rs, aset).failures == [failure]


def test_edges_are_derived_on_first_read_and_kept():
    rs = _rs("A", 4)
    aset = compute(rs, rs.highest_root, tuple(-c for c in rs.highest_root))
    assert "edges" not in vars(aset)
    assert "edges" not in {f.name for f in dataclasses.fields(altset.AlternationSet)}
    assert aset.edges is aset.edges
    assert aset.edges


def test_multiplicity_values():
    for r in range(1, 6):
        rs = _rs("A", r)
        assert multiplicity(rs, rs.highest_root, zero_weight(r)) == r
    rs = _rs("A", 3)
    assert str(q_multiplicity(rs, rs.highest_root, (-1, 0, 0))) == "q^4 + q^3 - q"
    assert q_multiplicity(rs, rs.highest_root, zero_weight(3)) == QPolynomial(
        (0, 1, 1, 1)
    )


def test_conjecture_report_small_rank():
    report = verify_conjecture(max_r=4)
    assert report.ok
    assert report.checked > 0
    assert any("no claim of proof" in n for n in report.notes)


@pytest.mark.parametrize("family,rank", [("A", 4), ("B", 4), ("C", 4), ("D", 5)])
def test_search_and_oracle_serialize_to_the_same_bytes(family, rank):
    rs = _rs(family, rank)
    for mu in (tuple(-c for c in rs.highest_root), zero_weight(rank)):
        searched = compute(rs, rs.highest_root, mu)
        filtered = compute_naive(rs, rs.highest_root, mu)
        assert len(searched) > 1
        assert to_json(rs, searched) == to_json(rs, filtered)


@pytest.mark.filterwarnings("ignore:lambda is not dominant integral")
def test_weights_of_another_length_are_rejected():
    rs = _rs("A", 3)
    e = from_word(rs, ())
    for lam, mu in (((1, 1, 1, 0), (0, 0, 0, 0)), ((1, 1, 1), (0, 0)), ((1, 0), (0, 0, 0))):
        for call in (compute, compute_naive, multiplicity, q_multiplicity, compute_bas):
            with pytest.raises(ValueError, match="coordinates; A_3 weights have 3"):
                call(rs, lam, mu)
        with pytest.raises(ValueError, match="coordinates; A_3 weights have 3"):
            contains(rs, lam, mu, e)


def test_dot_output_shape():
    rs = _rs("A", 3)
    aset = compute(rs, rs.highest_root, zero_weight(3))
    dot = to_dot(aset)
    assert dot.startswith("digraph alternation_set {")
    assert '"e";' in dot
    assert '"e" -> "s2";' in dot
    assert dot.endswith("}\n")


def test_sample_pairs_are_deterministic_and_dominant():
    rs = _rs("B", 3)
    first = sample_weight_pairs(rs, 5, seed=3)
    second = sample_weight_pairs(rs, 5, seed=3)
    assert first == second
    assert first != sample_weight_pairs(rs, 5, seed=4)
    for lam, mu in first:
        pairings = [_coroot_pairing(rs, lam, i) for i in range(rs.rank)]
        assert all(p >= 0 and p.denominator == 1 for p in pairings)
        aset = compute(rs, lam, mu)
        assert len(aset) >= 1


def test_neg_root_weights_match_word_text_labels():
    rs = _rs("A", 4)
    assert neg_root(rs, 2, 4) == (0, -1, -1, -1)
    sigma = from_word(rs, (2, 3, 2))
    assert word_text(sigma.word) == "s2 s3 s2"


def test_set_over_element_budget_raises(monkeypatch):
    rs = _rs("A", 5)
    mu = tuple(-c for c in rs.highest_root)
    assert len(compute(rs, rs.highest_root, mu)) == 26
    # Room for 25 elements of rank 5 at 1024 + 64 * 5 bytes each.
    monkeypatch.setattr(altset, "MAX_SET_BYTES", 25 * (1024 + 64 * 5))
    with pytest.raises(ValueError, match="more than 25 elements exceeds the budget"):
        compute(rs, rs.highest_root, mu)
    assert len(compute(rs, rs.highest_root, zero_weight(5))) == 5


# sha256 of to_json at (highest root, -highest root), serialized before the
# search moved from matrix actions to integer residuals.
_PINNED_JSON = {
    ("A", 6): "f33a6e4d149c7c7498d4ce17c3373f2fb8006f20cd5457a235c3c12a36ee830a",
    ("B", 4): "69768440065f1a76dfe9554838d0fff685c806174abfe66674b34350e54494c0",
    ("D", 5): "56f5afe12e24a7b7ffac4a57bf3b6afd924018199f0cd55ecbf3a7060db1bf9f",
}


@pytest.mark.parametrize("family,rank", sorted(_PINNED_JSON))
def test_highest_root_sets_serialize_to_pinned_bytes(family, rank):
    rs = _rs(family, rank)
    aset = compute(rs, rs.highest_root, tuple(-c for c in rs.highest_root))
    digest = hashlib.sha256(to_json(rs, aset).encode()).hexdigest()
    assert digest == _PINNED_JSON[(family, rank)]


_PROPERTY_SYSTEMS = (
    [("A", r) for r in range(2, 6)]
    + [("B", r) for r in range(2, 5)]
    + [("C", r) for r in range(2, 5)]
    + [("D", 4), ("D", 5)]
)


@st.composite
def _weight_pair(draw, rs):
    """Dominant integral lambda and mu = lambda - v for an integral v.

    v has entries in [-1, 6], so the set is empty exactly when some entry
    is negative and otherwise ranges from the identity alone upward.
    """
    lam = zero_weight(rs.rank)
    for omega in fundamental_weights(rs):
        c = draw(st.integers(0, 3))
        lam = wadd(lam, tuple(c * x for x in omega))
    drop = draw(st.lists(st.integers(-1, 6), min_size=rs.rank, max_size=rs.rank))
    return lam, wsub(lam, drop)


_PROPERTY_SETTINGS = settings(max_examples=6, deadline=None, derandomize=True)


@pytest.mark.parametrize("family,rank", _PROPERTY_SYSTEMS)
@_PROPERTY_SETTINGS
@given(data=st.data())
def test_property_search_equals_oracle(family, rank, data):
    rs = _rs(family, rank)
    lam, mu = data.draw(_weight_pair(rs))
    fast = compute(rs, lam, mu)
    slow = compute_naive(rs, lam, mu)
    assert fast.elements == slow.elements
    assert fast.residuals == slow.residuals
    assert [s.word for s in fast] == [s.word for s in slow]
    assert [s.length for s in fast] == [s.length for s in slow]
    for aset in (fast, slow):
        assert _edge_words(aset.edges) == _edge_words(_brute_right_covers(rs, aset))
    assert verify_order_ideal(rs, compute(rs, lam, mu)).ok


@pytest.mark.parametrize("family,rank", _PROPERTY_SYSTEMS)
@_PROPERTY_SETTINGS
@given(data=st.data())
def test_property_mu_off_the_root_lattice_coset_gives_empty_set(family, rank, data):
    rs = _rs(family, rank)
    lam, mu = data.draw(_weight_pair(rs))
    # Every classical weight lattice is larger than its root lattice, so some
    # fundamental weight has a fractional simple-root coordinate.
    off = [w for w in fundamental_weights(rs) if any(c.denominator != 1 for c in w)]
    shifted = wsub(mu, data.draw(st.sampled_from(off)))
    assert len(compute(rs, lam, shifted)) == 0


@pytest.mark.parametrize("family", ["A", "B", "C"])
def test_residual_walk_equals_matrix_predicate(family):
    # The predicate walks the witness word; the images matrix is the reference.
    rs = _rs(family, 3)
    lams = [rs.highest_root, (Fraction(1, 2), 0, 0), (-1, 0, 0)]
    on_lattice = [zero_weight(3), (-1, -2, -1)]
    mus = on_lattice + [(Fraction(-1, 2), 0, 0), (Fraction(1, 3), -1, 0)]
    pairs = [(lam, mu) for lam in lams for mu in mus]
    pairs += sample_weight_pairs(rs, 3, seed=5)
    group = enumerate_group(rs)
    kept = 0
    for lam, mu in pairs:
        residual = altset._residual_test(rs, as_weight(lam), as_weight(mu))
        for sigma in group:
            expected = _matrix_residual(rs, lam, mu, sigma)
            assert residual(sigma) == expected
            kept += expected is not None
    assert kept > len(pairs)


def _brute_right_covers(rs, aset):
    """(sigma, tau) with tau = sigma s_i one longer, by trying every pair.

    Ordered by sigma's position and then by i, read off sigma^-1 tau.
    """
    found = []
    for position, sigma in enumerate(aset.elements):
        inverse = from_word(rs, tuple(reversed(sigma.word)))
        for tau in aset.elements:
            if tau.length == sigma.length + 1:
                step = from_word(rs, inverse.word + tau.word)
                if step.length == 1:
                    found.append((position, step.word, sigma, tau))
    return [(sigma, tau) for *_, sigma, tau in sorted(found, key=lambda f: f[:2])]


def _edge_words(edges):
    return [(a.word, b.word) for a, b in edges]


@pytest.mark.parametrize("family,rank", [("A", 5), ("B", 4), ("C", 4), ("D", 5)])
def test_edges_are_the_right_covers_in_order(family, rank):
    # Edges come from the inverse keys; the reference tries every pair of
    # members one length apart with from_word.
    rs = _rs(family, rank)
    top = rs.highest_root
    pairs = [(top, tuple(-c for c in top))]
    pairs += sample_weight_pairs(rs, 3, seed=0)
    # Non-dominant lambda = -alpha_1: the exhaustive fallback's set, which
    # need not be an ideal; then a set that is empty.
    lam = (-1,) + (0,) * (rank - 1)
    pairs += [(lam, wsub(lam, top)), (zero_weight(rank), (10,) * rank)]
    sizes = []
    for lam, mu in pairs:
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "lambda is not dominant integral")
            aset = compute(rs, lam, mu)
        sizes.append(len(aset))
        assert _edge_words(aset.edges) == _edge_words(_brute_right_covers(rs, aset))
    assert sizes[-2] > 1 and sizes[-1] == 0


def _top_pair(rs):
    return rs.highest_root, tuple(-c for c in rs.highest_root)


@pytest.mark.parametrize(
    "family,rank,sampled",
    [("A", 9, 5), ("B", 7, 4), ("C", 7, 4), ("D", 7, 5)],
)
def test_witnesses_are_least_words_of_their_keys(family, rank, sampled):
    # The search builds each member from the parent that drops its least left
    # descent; the descent rule reads the least reduced word off the key alone.
    top = _rs(family, rank)
    small = _rs(family, sampled)
    runs = [(top, *_top_pair(top))]
    runs += [(small, lam, mu) for lam, mu in sample_weight_pairs(small, 6, seed=5)]
    sizes = []
    for rs, lam, mu in runs:
        reflections = weyl._simple_matrices(rs)
        aset = compute(rs, lam, mu)
        sizes.append(len(aset))
        for sigma in aset.elements:
            assert sigma.word == weyl._least_word(reflections, sigma.key)
            assert sigma.length == len(sigma.word)
    assert sizes[0] > 400 and max(sizes[1:]) > 4


@pytest.mark.parametrize("family,rank", [("A", 7), ("B", 6), ("C", 6), ("D", 6)])
def test_search_equals_full_filter_at_the_highest_root(family, rank):
    rs = _rs(family, rank)
    lam, mu = _top_pair(rs)
    fast = compute(rs, lam, mu)
    slow = compute_naive(rs, lam, mu)
    assert [s.word for s in fast.elements] == [s.word for s in slow.elements]
    assert [s.key for s in fast.elements] == [s.key for s in slow.elements]
    assert fast.residuals == slow.residuals


@pytest.mark.parametrize("family,rank", [("A", 8), ("D", 6)])
def test_search_builds_each_member_once(family, rank, monkeypatch):
    rs = _rs(family, rank)
    built = []

    def counted(**fields):
        built.append(fields["key"])
        return weyl.WeylElement(**fields)

    monkeypatch.setattr(altset, "WeylElement", counted)
    aset = compute(rs, *_top_pair(rs))
    assert len(aset) > 100
    assert len(built) == len(aset) - 1


def _whole_group_filter(rs, lam, mu):
    """(word, key, residual) of the members, by the predicate over the whole group."""
    residual = altset._residual_test(rs, as_weight(lam), as_weight(mu))
    return [
        (s.word, s.key, d)
        for s in enumerate_group(rs)
        if (d := residual(s)) is not None
    ]


def _listed(aset):
    return [(s.word, s.key, d) for s, d in zip(aset.elements, aset.residuals)]


def _walked_sizes(monkeypatch):
    """Record the size of every floored walk `compute_naive` takes."""
    sizes = []

    def recorded(rs, floor=None):
        walked = weyl._group(rs, floor)
        sizes.append(len(walked))
        return walked

    monkeypatch.setattr(altset, "_group", recorded)
    return sizes


@pytest.mark.parametrize(
    "family,rank",
    [("A", 4), ("A", 5), ("A", 6), ("B", 3), ("B", 4), ("B", 5), ("C", 4), ("D", 4), ("D", 5)],
)
def test_bounded_oracle_equals_whole_group_filter(family, rank, monkeypatch):
    rs = _rs(family, rank)
    sizes = _walked_sizes(monkeypatch)
    pairs = sample_weight_pairs(rs, 6, seed=1) + [_top_pair(rs)]
    for lam, mu in pairs:
        assert _listed(compute_naive(rs, lam, mu)) == _whole_group_filter(rs, lam, mu)
    # Every pair here is dominant integral, so each took the floored walk.
    assert len(sizes) == len(pairs)
    assert max(sizes) < len(enumerate_group(rs))


def test_bounded_oracle_off_the_root_lattice(monkeypatch):
    # lambda - mu has fractional coordinates, so no element is a member,
    # although the floor, rounded up, still admits some of the group.
    rs = _rs("A", 4)
    sizes = _walked_sizes(monkeypatch)
    lam, mu = _top_pair(rs)
    mu = wsub(mu, fundamental_weights(rs)[0])
    assert any(c.denominator != 1 for c in wsub(lam, mu))
    assert _whole_group_filter(rs, lam, mu) == []
    assert len(compute_naive(rs, lam, mu)) == 0
    assert sizes[0] > 1


def test_bounded_oracle_with_a_negative_difference_walks_nothing(monkeypatch):
    rs = _rs("B", 4)
    sizes = _walked_sizes(monkeypatch)
    lam = rs.highest_root
    mu = wadd(lam, (0, 1, 0, 0))
    assert _whole_group_filter(rs, lam, mu) == []
    assert len(compute_naive(rs, lam, mu)) == 0
    assert sizes == [0]


@pytest.mark.parametrize(
    "family,rank,walked,members",
    [
        ("A", 10, 2801, 1248),
        ("B", 8, 4006, 2317),
        ("C", 8, 4026, 2451),
        ("D", 8, 2445, 1432),
        ("A", 12, 13362, 5959),
    ],
)
def test_oracle_past_the_group_cap(family, rank, walked, members, monkeypatch):
    # Each group is larger than MAX_GROUP_ORDER; only the bounded walk fits,
    # and a dominant lambda never reaches the whole-group enumeration.
    # In type A, -hr is -alpha_{1..r}, the widest pair of Harry's conjecture.
    def refused(rs):
        raise AssertionError("the whole group was enumerated")

    monkeypatch.setattr(weyl, "enumerate_group", refused)
    monkeypatch.setattr(altset, "enumerate_group", refused)
    rs = _rs(family, rank)
    assert weyl.group_order(rs) > weyl.MAX_GROUP_ORDER
    sizes = _walked_sizes(monkeypatch)
    lam, mu = _top_pair(rs)
    fast = compute(rs, lam, mu)
    slow = compute_naive(rs, lam, mu)
    assert _listed(slow) == _listed(fast)
    assert sizes == [walked]
    assert len(fast) == members


def test_bounded_walk_keeps_the_group_cap(monkeypatch):
    rs = _rs("A", 10)
    monkeypatch.setattr(weyl, "MAX_GROUP_ORDER", 2800)
    with pytest.raises(weyl.GroupSizeError, match="more than the cap of 2800"):
        compute_naive(rs, *_top_pair(rs))
    monkeypatch.setattr(weyl, "MAX_GROUP_ORDER", 2801)
    assert len(compute_naive(rs, *_top_pair(rs))) == 1248
