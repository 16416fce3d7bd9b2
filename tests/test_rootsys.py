"""Root system construction: Cartan data, positive roots, weights."""

from fractions import Fraction

import pytest

from weylalt import (
    RootSystemSpec,
    build_root_system,
    fundamental_weights,
    neg_root,
    partition_to_weight,
    zero_weight,
)
from weylalt.rootsys import _MIN_RANK, wadd, wsub

ALL_SYSTEMS = [("A", 4), ("B", 3), ("C", 3), ("D", 4)]


def _rs(family, rank):
    return build_root_system(RootSystemSpec(family, rank))


def _coroot_pairing(rs, v, i):
    """2(v, alpha_{i+1}) / (alpha_{i+1}, alpha_{i+1}) straight from the Gram matrix."""
    form = sum(Fraction(v[j]) * rs.gram[j][i] for j in range(rs.rank))
    return 2 * form / rs.gram[i][i]


def _dominant(rs, w):
    return all(_coroot_pairing(rs, w, i) >= 0 for i in range(rs.rank))


def _integral(rs, w):
    return all(_coroot_pairing(rs, w, i).denominator == 1 for i in range(rs.rank))


def test_rank_bounds_rejected():
    with pytest.raises(ValueError):
        RootSystemSpec("A", 0)
    with pytest.raises(ValueError):
        RootSystemSpec("D", 3)
    with pytest.raises(ValueError):
        RootSystemSpec("B", 1)
    with pytest.raises(ValueError):
        RootSystemSpec("E", 6)


def _closed_forms(family, r):
    """|positive roots| and the highest root of each family, by formula."""
    if family == "A":
        return r * (r + 1) // 2, (1,) * r
    if family == "B":
        return r * r, (1,) + (2,) * (r - 1)
    if family == "C":
        return r * r, (2,) * (r - 1) + (1,)
    return r * (r - 1), (1,) + (2,) * (r - 3) + (1, 1)


def _ranks_to_24():
    for family, least in _MIN_RANK.items():
        for r in range(least, 25):
            yield family, r, _rs(family, r)


def test_positive_root_counts():
    for family, r, rs in _ranks_to_24():
        assert len(rs.positive_roots) == _closed_forms(family, r)[0], (family, r)


def test_highest_roots():
    for family, r, rs in _ranks_to_24():
        assert rs.highest_root == _closed_forms(family, r)[1], (family, r)


def test_cartan_matrices():
    a3 = _rs("A", 3)
    assert a3.cartan == ((2, -1, 0), (-1, 2, -1), (0, -1, 2))
    b3 = _rs("B", 3)
    c3 = _rs("C", 3)
    transpose = tuple(zip(*b3.cartan))
    assert tuple(tuple(row) for row in transpose) == c3.cartan


@pytest.mark.parametrize("family,rank", ALL_SYSTEMS)
def test_rho_pairs_to_one(family, rank):
    rs = _rs(family, rank)
    for i in range(rank):
        assert _coroot_pairing(rs, rs.rho, i) == 1


@pytest.mark.parametrize("family,rank", ALL_SYSTEMS)
def test_positive_roots_are_nonneg_and_sorted_by_height(family, rank):
    rs = _rs(family, rank)
    heights = [sum(root) for root in rs.positive_roots]
    assert heights == sorted(heights)
    assert all(c >= 0 for root in rs.positive_roots for c in root)
    assert len(set(rs.positive_roots)) == len(rs.positive_roots)


@pytest.mark.parametrize("family,rank", ALL_SYSTEMS)
def test_simple_roots_come_first(family, rank):
    rs = _rs(family, rank)
    simples = {tuple(1 if k == i else 0 for k in range(rank)) for i in range(rank)}
    assert set(rs.positive_roots[:rank]) == simples


def test_neg_root_values_and_validation():
    rs = _rs("A", 4)
    assert neg_root(rs, 2, 3) == (0, -1, -1, 0)
    assert neg_root(rs, 1, 4) == (-1, -1, -1, -1)
    with pytest.raises(ValueError):
        neg_root(rs, 3, 2)
    with pytest.raises(ValueError):
        neg_root(rs, 0, 2)
    with pytest.raises(ValueError):
        neg_root(rs, 1, 5)


@pytest.mark.parametrize("family,rank", ALL_SYSTEMS)
def test_fundamental_weights_pair_as_kronecker(family, rank):
    rs = _rs(family, rank)
    omegas = fundamental_weights(rs)
    for i, omega in enumerate(omegas):
        for k in range(rank):
            assert _coroot_pairing(rs, omega, k) == (1 if i == k else 0)
        assert _dominant(rs, omega)
        assert _integral(rs, omega)


def test_dominance_and_integrality():
    rs = _rs("A", 3)
    assert _dominant(rs, rs.rho)
    assert _integral(rs, rs.highest_root)
    assert not _integral(rs, (Fraction(1, 2), 0, 0))
    assert not _dominant(rs, (-1, 0, 0))


def test_dynkin_neighbors():
    def neighbors(rs, i):
        """1-based nodes j != i with a nonzero Cartan entry a_ij."""
        row = rs.cartan[i - 1]
        return tuple(j + 1 for j in range(rs.rank) if j != i - 1 and row[j])

    assert neighbors(_rs("A", 4), 2) == (1, 3)
    assert neighbors(_rs("A", 4), 1) == (2,)
    assert neighbors(_rs("B", 3), 3) == (2,)
    d5 = _rs("D", 5)
    assert neighbors(d5, 3) == (2, 4, 5)
    assert neighbors(d5, 5) == (3,)


def test_partition_to_weight_values():
    assert partition_to_weight((1,), 2) == (Fraction(2, 3), Fraction(1, 3))
    assert partition_to_weight((2, 1), 2) == (1, 1)
    assert partition_to_weight((1, 1, 1), 2) == (0, 0)
    a8 = _rs("A", 8)
    lam = partition_to_weight((4, 3, 1), 8)
    assert _dominant(a8, lam) and _integral(a8, lam)


def test_partition_to_weight_validation():
    with pytest.raises(ValueError):
        partition_to_weight((1, 2), 2)
    with pytest.raises(ValueError):
        partition_to_weight((1, 1, 1, 1), 2)
    with pytest.raises(ValueError):
        partition_to_weight((-1,), 2)


def test_weight_arithmetic_checks_length():
    with pytest.raises(ValueError):
        wadd((1, 2), (1, 2, 3))
    assert wsub((1, 2), (0, 2)) == (1, 0)
    assert zero_weight(3) == (0, 0, 0)
