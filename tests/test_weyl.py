"""Weyl group elements: words, covers, influence, enumeration."""

import itertools
import random
from operator import mul

import pytest

from weylalt import (
    GroupSizeError,
    RootSystemSpec,
    act,
    build_root_system,
    enumerate_group,
    extended_influence,
    from_word,
    group_order,
    identity,
    independent,
    influence,
    multiply,
    parse_word,
    word_text,
)
from weylalt import weyl
from weylalt.weyl import connected_influence


def _rs(family, rank):
    return build_root_system(RootSystemSpec(family, rank))


def _reduced_words(rs, sigma):
    """Every reduced word for sigma, by brute force over words of its length."""
    words = itertools.product(range(1, rs.rank + 1), repeat=sigma.length)
    return [w for w in words if from_word(rs, w) == sigma]


def test_group_orders():
    assert group_order(_rs("A", 3)) == 24
    assert group_order(_rs("B", 3)) == 48
    assert group_order(_rs("C", 3)) == 48
    assert group_order(_rs("D", 4)) == 192


@pytest.mark.parametrize("family,rank", [("A", 3), ("B", 3), ("C", 3), ("D", 4)])
def test_enumeration_matches_order(family, rank):
    rs = _rs(family, rank)
    group = enumerate_group(rs)
    assert len(group) == group_order(rs)
    assert len({s.images for s in group}) == len(group)
    lengths = [s.length for s in group]
    assert lengths == sorted(lengths)


def test_enumeration_cap(monkeypatch):
    rs = _rs("B", 8)
    with pytest.raises(GroupSizeError):
        enumerate_group(rs)
    rs3 = _rs("A", 3)
    monkeypatch.setattr(weyl, "MAX_GROUP_ORDER", 10)
    with pytest.raises(GroupSizeError):
        enumerate_group(rs3)
    monkeypatch.setattr(weyl, "MAX_GROUP_ORDER", 24)
    assert len(enumerate_group(rs3)) == 24


def test_enumeration_cap_env_override(monkeypatch):
    # The cap is the module constant alone: the retired WEYLALT_MAX_GROUP
    # environment variable no longer lowers it.
    monkeypatch.setenv("WEYLALT_MAX_GROUP", "5")
    assert len(enumerate_group(_rs("A", 3))) == 24
    monkeypatch.setattr(weyl, "MAX_GROUP_ORDER", 5)
    with pytest.raises(GroupSizeError):
        enumerate_group(_rs("A", 3))


def test_braid_and_commutation_relations():
    a2 = _rs("A", 2)
    assert from_word(a2, (1, 2, 1)) == from_word(a2, (2, 1, 2))
    b2 = _rs("B", 2)
    assert from_word(b2, (1, 2, 1, 2)) == from_word(b2, (2, 1, 2, 1))
    a3 = _rs("A", 3)
    assert from_word(a3, (1, 3)) == from_word(a3, (3, 1))


def test_from_word_reduces_and_normalizes():
    rs = _rs("A", 3)
    assert from_word(rs, (1, 1)).length == 0
    assert from_word(rs, (1, 2, 1, 2)).word == (2, 1)
    # A reduced input spelling is kept as the witness word.
    assert from_word(rs, (3, 1)).word == (3, 1)
    assert from_word(rs, ()).length == 0
    with pytest.raises(ValueError):
        from_word(rs, (0,))
    with pytest.raises(ValueError):
        from_word(rs, (4,))


def test_length_equals_inversions():
    rs = _rs("A", 3)
    for sigma in enumerate_group(rs):
        sent_negative = 0
        for root in rs.positive_roots:
            image = act(rs, sigma, root)
            if all(c <= 0 for c in image):
                sent_negative += 1
        assert sent_negative == sigma.length


def test_longest_element_words():
    rs = _rs("A", 2)
    w0 = max(enumerate_group(rs), key=lambda s: s.length)
    assert sorted(_reduced_words(rs, w0)) == [(1, 2, 1), (2, 1, 2)]
    rs3 = _rs("A", 3)
    w0 = max(enumerate_group(rs3), key=lambda s: s.length)
    assert len(_reduced_words(rs3, w0)) == 16


def test_action_on_simple_roots():
    rs = _rs("A", 3)
    s2 = from_word(rs, (2,))
    assert act(rs, s2, (0, 1, 0)) == (0, -1, 0)
    assert act(rs, s2, (1, 0, 0)) == (1, 1, 0)
    assert act(rs, s2, (0, 0, 1)) == (0, 1, 1)


def test_inverse_and_multiply():
    rs = _rs("A", 3)
    rng = random.Random("weyl-inverse")
    group = enumerate_group(rs)
    for _ in range(25):
        sigma = rng.choice(group)
        tau = rng.choice(group)
        inverse = from_word(rs, reversed(sigma.word))
        assert multiply(rs, sigma, inverse) == identity(rs)
        assert multiply(rs, inverse, sigma) == identity(rs)
        product = multiply(rs, sigma, tau)
        lhs = act(rs, product, rs.rho)
        rhs = act(rs, sigma, act(rs, tau, rs.rho))
        assert lhs == rhs


def test_descents_and_covers():
    # sigma s_i is one longer exactly when sigma(alpha_i) is positive, and
    # s_i sigma exactly when <sigma(2 rho), alpha_i^vee> is.
    rs = _rs("A", 3)
    two_rho = tuple(int(2 * c) for c in rs.rho)
    for sigma in enumerate_group(rs):
        moved = act(rs, sigma, two_rho)
        for i in range(1, rs.rank + 1):
            right = from_word(rs, sigma.word + (i,))
            assert (right.length == sigma.length + 1) == all(
                c >= 0 for c in sigma.images[i - 1]
            )
            left = from_word(rs, (i,) + sigma.word)
            pairing = sum(map(mul, moved, (row[i - 1] for row in rs.cartan)))
            assert (left.length == sigma.length + 1) == (pairing > 0)
            assert {left.length, right.length} <= {sigma.length - 1, sigma.length + 1}


def test_influence_is_word_independent():
    rs = _rs("A", 4)
    sigma = from_word(rs, (2, 3, 2))
    assert influence(sigma) == frozenset({2, 3})
    assert extended_influence(rs, sigma) == frozenset({1, 2, 3, 4})
    words = _reduced_words(rs, sigma)
    assert sorted(words) == [(2, 3, 2), (3, 2, 3)]
    for word in words:
        assert frozenset(word) == influence(sigma)


def test_connected_influence():
    rs = _rs("A", 4)
    assert connected_influence(rs, from_word(rs, (2, 3, 2)))
    assert connected_influence(rs, identity(rs))
    assert not connected_influence(rs, from_word(rs, (1, 3)))
    d4 = _rs("D", 4)
    assert connected_influence(d4, from_word(d4, (2, 4)))


def test_independence():
    rs = _rs("A", 4)
    s1 = from_word(rs, (1,))
    s2 = from_word(rs, (2,))
    s3 = from_word(rs, (3,))
    s23 = from_word(rs, (2, 3))
    assert independent(rs, s1, s3)
    assert not independent(rs, s1, s2)
    assert not independent(rs, s1, s23)
    assert multiply(rs, s1, s3) == multiply(rs, s3, s1)


def test_word_text_and_parse_word():
    assert word_text(()) == "e"
    assert word_text((1, 3)) == "s1 s3"
    assert parse_word("s1 s3") == (1, 3)
    assert parse_word("1,3") == (1, 3)
    assert parse_word("e") == ()
    with pytest.raises(ValueError):
        parse_word("sx")
