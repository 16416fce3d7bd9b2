"""Weyl group elements: words, covers, influence, enumeration."""

import functools
import itertools
import random
from fractions import Fraction
from operator import mul

import pytest

from weylalt import (
    GroupSizeError,
    RootSystemSpec,
    act,
    build_root_system,
    enumerate_group,
    from_word,
    group_order,
    identity,
    independent,
    influence,
    multiply,
    word_text,
)
from weylalt import weyl
from weylalt.weyl import (
    _connected_mask,
    _extend_mask,
    _influence_mask,
    _simple_matrices,
)


def _rs(family, rank):
    return build_root_system(RootSystemSpec(family, rank))


def _matrix_act(images, v):
    """sigma(v) as the images matrix times v: column j is sigma(alpha_{j+1})."""
    return tuple(
        sum(v[j] * images[j][k] for j in range(len(v))) for k in range(len(v))
    )


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


@pytest.mark.parametrize("family,rank", [("A", 3), ("B", 3), ("C", 3), ("D", 4)])
def test_act_walk_equals_matrix_action(family, rank):
    # act walks the witness word by left steps; the images matrix is the reference.
    rs = _rs(family, rank)
    vectors = [
        rs.highest_root,
        tuple(range(1, rank + 1)),
        rs.rho,
        tuple(Fraction(k - 1, k + 1) for k in range(rank)),
    ]
    for sigma in enumerate_group(rs):
        for v in vectors:
            assert act(rs, sigma, v) == _matrix_act(sigma.images, v)


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
    # The grown mask adds the Dynkin neighbours 1 and 4.
    assert _extend_mask(_simple_matrices(rs), _influence_mask(sigma)) == 0b1111
    words = _reduced_words(rs, sigma)
    assert sorted(words) == [(2, 3, 2), (3, 2, 3)]
    for word in words:
        assert frozenset(word) == influence(sigma)


def test_connected_influence():
    def connected(rs, sigma):
        return _connected_mask(_simple_matrices(rs), _influence_mask(sigma))

    rs = _rs("A", 4)
    assert connected(rs, from_word(rs, (2, 3, 2)))
    assert connected(rs, identity(rs))
    assert not connected(rs, from_word(rs, (1, 3)))
    d4 = _rs("D", 4)
    assert connected(d4, from_word(d4, (2, 4)))


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


# Oracles for the step and descent kernel of `weyl`.  They share no code with
# it: a simple reflection is applied by the textbook formula
# s_i(v) = v - <v, alpha_i^vee> alpha_i with the pairing taken from the Gram
# matrix, and least words come from a breadth-first search over words.

_KERNEL_SYSTEMS = [("A", 3), ("B", 3), ("C", 3), ("D", 4)]


def _reflect(rs, i, v):
    """s_i(v) for 1-based i, v in simple-root coordinates."""
    k = i - 1
    pairing = 2 * sum(v[j] * rs.gram[j][k] for j in range(rs.rank)) / rs.gram[k][k]
    return tuple(c - pairing if m == k else c for m, c in enumerate(v))


def _apply_word(rs, word, v):
    for i in reversed(word):
        v = _reflect(rs, i, v)
    return v


def _oracle_images(rs, word):
    """Columns sigma(alpha_j) of the product of the word, composed right to left."""
    basis = [tuple(int(m == j) for m in range(rs.rank)) for j in range(rs.rank)]
    return tuple(tuple(int(c) for c in _apply_word(rs, word, e)) for e in basis)


@functools.lru_cache(maxsize=None)
def _least_words(rs):
    """Lexicographically least reduced word of every element, keyed by images.

    Words are grown one letter at a time from the previous layer's least
    words, in lexicographic order; the first word that reaches an element
    is its least reduced word, since a prefix of a least word is least.
    """
    least = {_oracle_images(rs, ()): ()}
    layer = [()]
    while layer:
        following = []
        for word in layer:
            for i in range(1, rs.rank + 1):
                grown = word + (i,)
                key = _oracle_images(rs, grown)
                if key not in least:
                    least[key] = grown
                    following.append(grown)
        layer = following
    return least


def _words(rank, max_length):
    for length in range(max_length + 1):
        yield from itertools.product(range(1, rank + 1), repeat=length)


@pytest.mark.parametrize("family,rank", _KERNEL_SYSTEMS)
def test_from_word_images_match_reflection_formula(family, rank):
    rs = _rs(family, rank)
    for word in _words(rank, 5):
        assert from_word(rs, word).images == _oracle_images(rs, word), word


@pytest.mark.parametrize("family,rank", _KERNEL_SYSTEMS)
def test_length_counts_positive_roots_sent_negative(family, rank):
    rs = _rs(family, rank)
    elements = list(enumerate_group(rs))
    elements += [from_word(rs, w) for w in _words(rank, 4)]
    for sigma in elements:
        sent_negative = sum(
            1
            for root in rs.positive_roots
            if any(c < 0 for c in _apply_word(rs, sigma.word, root))
        )
        assert sent_negative == sigma.length == len(sigma.word)
        assert _oracle_images(rs, sigma.word) == sigma.images


@pytest.mark.parametrize("family,rank", _KERNEL_SYSTEMS)
def test_non_reduced_words_give_least_reduced_word(family, rank):
    rs = _rs(family, rank)
    least = _least_words(rs)
    assert len(least) == group_order(rs)
    non_reduced = 0
    for word in _words(rank, 5):
        best = least[_oracle_images(rs, word)]
        sigma = from_word(rs, word)
        if len(best) < len(word):
            non_reduced += 1
            assert sigma.word == best, word
        else:
            assert sigma.word == word
        assert sigma.length == len(best)
    assert non_reduced
    for images, word in least.items():
        assert from_word(rs, word).images == images


@pytest.mark.parametrize("family,rank", _KERNEL_SYSTEMS)
def test_multiply_is_from_word_of_joined_words(family, rank):
    rs = _rs(family, rank)
    least = _least_words(rs)
    group = enumerate_group(rs)
    rng = random.Random(f"multiply-{family}{rank}")
    for _ in range(200):
        sigma, tau = rng.choice(group), rng.choice(group)
        joined = sigma.word + tau.word
        product = multiply(rs, sigma, tau)
        expected = from_word(rs, joined)
        assert product == expected
        assert product.word == expected.word
        assert product.length == expected.length
        images = _oracle_images(rs, joined)
        assert product.images == images
        best = least[images]
        assert product.word == (joined if len(best) == len(joined) else best)


@pytest.mark.parametrize("family,rank", _KERNEL_SYSTEMS)
def test_enumeration_witnesses_are_least_words_in_order(family, rank):
    # The group grows by left covers; the oracle grows words by letters.
    rs = _rs(family, rank)
    least = _least_words(rs)
    group = enumerate_group(rs)
    assert [_oracle_images(rs, s.word) for s in group] == [s.images for s in group]
    assert sorted(s.word for s in group) == sorted(least.values())
    for sigma in group:
        assert least[sigma.images] == sigma.word
    assert [s.word for s in group] == sorted(
        (s.word for s in group), key=lambda w: (len(w), w)
    )


@pytest.mark.parametrize("family,rank", _KERNEL_SYSTEMS)
def test_key_is_the_image_of_two_rho(family, rank):
    rs = _rs(family, rank)
    two_rho = tuple(2 * c for c in rs.rho)
    group = enumerate_group(rs)
    for sigma in group:
        assert sigma.key == act(rs, sigma, two_rho)
        assert sigma.key == _apply_word(rs, sigma.word, two_rho)
    assert len({s.key for s in group}) == len(group)
