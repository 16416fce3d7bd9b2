"""Alternation sets: pruned search against the exhaustive filter."""

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weylalt import altset
from weylalt.altset import (
    compute,
    compute_naive,
    contains,
    from_json,
    multiplicity,
    q_multiplicity,
    sample_weight_pairs,
    to_dot,
    to_json,
    verify_conjecture,
    verify_order_ideal,
    verify_subword_closure,
)
from weylalt.kostant import QPolynomial
from weylalt.rootsys import (
    RootSystemSpec,
    build_root_system,
    fundamental_weights,
    neg_root,
    wadd,
    wsub,
    zero_weight,
)
from weylalt.weyl import from_word, word_text


def _rs(family, rank):
    return build_root_system(RootSystemSpec(family, rank))


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
        assert sorted(fast.edges, key=lambda e: (e[0].word, e[1].word)) == sorted(
            slow.edges, key=lambda e: (e[0].word, e[1].word)
        )


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


def test_order_ideal_and_subword_closure_reports():
    rs = _rs("A", 4)
    mu = tuple(-c for c in rs.highest_root)
    ideal = verify_order_ideal(rs, rs.highest_root, mu)
    assert ideal.ok and ideal.checked > 0
    closure = verify_subword_closure(rs, rs.highest_root, mu)
    assert closure.ok and closure.checked > 0
    # Empty sets pass vacuously.
    empty = verify_order_ideal(rs, zero_weight(4), (10, 10, 10, 10))
    assert empty.ok


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
    report = verify_conjecture(max_r=4, identity_max_r=3)
    assert report.ok
    assert report.checked > 0
    assert any("no claim of proof" in n for n in report.notes)


def test_json_round_trip_is_byte_identical():
    rs = _rs("A", 4)
    aset = compute(rs, rs.highest_root, tuple(-c for c in rs.highest_root))
    text = to_json(rs, aset)
    again = from_json(rs, text)
    assert to_json(rs, again) == text
    assert again.elements == aset.elements
    assert again.edges == aset.edges
    with pytest.raises(ValueError, match="serialized set is for"):
        from_json(_rs("A", 3), text)


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
    from weylalt.rootsys import is_dominant, is_integral

    for lam, mu in first:
        assert is_dominant(rs, lam) and is_integral(rs, lam)
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
    assert [s.word for s in fast] == [s.word for s in slow]
    assert [s.length for s in fast] == [s.length for s in slow]
    assert len(fast.edges) == len(slow.edges)
    assert {(a.word, b.word) for a, b in fast.edges} == {
        (a.word, b.word) for a, b in slow.edges
    }
    assert verify_order_ideal(rs, lam, mu).ok


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
