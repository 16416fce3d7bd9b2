"""Partition counting against a brute-force multiset oracle."""

import itertools
import random
from fractions import Fraction
from math import comb

import pytest

from weylalt.altset import (
    compute_naive,
    multiplicity,
    q_multiplicity,
    sample_weight_pairs,
)
from weylalt.kostant import (
    QPolynomial,
    has_partition,
    kostant_counts,
    kostant_partition,
    kostant_partition_q,
)
from weylalt.rootsys import (
    RootSystemSpec,
    build_root_system,
    fundamental_weights,
    wadd,
    wsub,
    zero_weight,
)
from weylalt.weyl import act, from_word


def _rs(family, rank):
    return build_root_system(RootSystemSpec(family, rank))


def _oracle_count_by_parts(roots, target):
    """Count expressions of target by brute force, grouped by part count.

    Every root gets an explicit multiplicity range bounded by the target's
    coordinates, and the full product is scanned.  No memoization, so this
    stays honest as an independent check.
    """
    ranges = []
    for root in roots:
        bound = min(
            target[k] // root[k] for k in range(len(target)) if root[k]
        )
        ranges.append(range(bound + 1))
    tally = {}
    for multiplicities in itertools.product(*ranges):
        total = [0] * len(target)
        for m, root in zip(multiplicities, roots):
            if not m:
                continue
            for k, c in enumerate(root):
                total[k] += m * c
        if tuple(total) == tuple(target):
            parts = sum(multiplicities)
            tally[parts] = tally.get(parts, 0) + 1
    return tally


def test_qpolynomial_construction_and_text():
    assert str(QPolynomial()) == "0"
    assert str(QPolynomial((1,))) == "1"
    assert str(QPolynomial((0, 1, 2))) == "2q^2 + q"
    assert str(QPolynomial((0, -1, 0, 1, 1))) == "q^4 + q^3 - q"
    assert str(QPolynomial((-3,))) == "-3"
    assert repr(QPolynomial((0, 1))) == "QPolynomial('q')"
    # Trailing zeros are trimmed at construction.
    assert QPolynomial((1, 2, 0, 0)).coeffs == (1, 2)
    assert QPolynomial((0, 0)).coeffs == ()


def test_qpolynomial_arithmetic():
    p = QPolynomial((1, 2))
    q = QPolynomial((0, -2, 3))
    assert (p + q).coeffs == (1, 0, 3)
    assert (p - p).coeffs == ()
    assert (-q).coeffs == (0, 2, -3)
    assert p + QPolynomial() == p
    assert bool(QPolynomial()) is False
    assert bool(p) is True
    assert QPolynomial((1, 2)) == QPolynomial([1, 2, 0])
    assert hash(QPolynomial((1, 2))) == hash(QPolynomial((1, 2)))
    assert QPolynomial.monomial(3, -2).coeffs == (0, 0, 0, -2)
    assert QPolynomial((1, 1)).evaluate() == 2
    assert QPolynomial((1, 1, 1)).evaluate(2) == 7
    assert QPolynomial((0, 1)).degree == 1
    assert QPolynomial().degree == -1


def test_qpolynomial_is_immutable():
    p = QPolynomial((1,))
    with pytest.raises(AttributeError):
        p.coeffs = (2,)


def test_partition_counts_small_type_a():
    a2 = _rs("A", 2)
    # 2(a1 + a2) splits as c copies of the highest root plus matching
    # simples, one expression for each c in {0, 1, 2}.
    assert kostant_partition(a2, (0, 0)) == 1
    assert kostant_partition(a2, (1, 0)) == 1
    assert kostant_partition(a2, (1, 1)) == 2
    assert kostant_partition(a2, (2, 2)) == 3
    assert kostant_partition(a2, (-1, 2)) == 0
    assert kostant_partition(a2, (Fraction(1, 2), 1)) == 0
    a3 = _rs("A", 3)
    assert kostant_partition(a3, (1, 1, 1)) == 4
    assert str(kostant_partition_q(a3, (1, 1, 1))) == "q^3 + 2q^2 + q"
    assert kostant_partition_q(a3, (0, 0, 0)) == QPolynomial((1,))
    assert kostant_partition_q(a3, (-1, 0, 0)) == QPolynomial()


@pytest.mark.parametrize(
    "family,rank", [("A", 3), ("B", 3), ("C", 3), ("D", 4)]
)
def test_counts_match_brute_force_oracle(family, rank):
    rs = _rs(family, rank)
    targets = list(
        itertools.product(range(3), repeat=rank)
    )
    for target in targets:
        expected = _oracle_count_by_parts(rs.positive_roots, target)
        assert kostant_partition(rs, target) == sum(expected.values())
        graded = kostant_partition_q(rs, target)
        for parts, count in expected.items():
            assert graded.coeffs[parts] == count
        assert sum(graded.coeffs) == sum(expected.values())


def test_q_count_at_one_matches_plain_count():
    rng = random.Random("kostant-eval")
    for family, rank in (("A", 4), ("B", 3), ("C", 3), ("D", 4)):
        rs = _rs(family, rank)
        for _ in range(25):
            xi = tuple(rng.randrange(0, 4) for _ in range(rank))
            assert kostant_partition_q(rs, xi).evaluate() == kostant_partition(
                rs, xi
            )


def test_has_partition_agrees_with_count():
    for family, rank in (("A", 3), ("B", 3), ("C", 3)):
        rs = _rs(family, rank)
        for xi in itertools.product((-1, 0, 1, 2, Fraction(1, 2)), repeat=rank):
            assert has_partition(rs, xi) == (kostant_partition(rs, xi) > 0)


def test_support_is_upward_closed_along_simple_roots():
    rs = _rs("B", 3)
    for xi in itertools.product(range(3), repeat=3):
        if not has_partition(rs, xi):
            continue
        for alpha in rs.positive_roots[: rs.rank]:
            bumped = tuple(a + b for a, b in zip(xi, alpha))
            assert kostant_partition(rs, bumped) > 0


def test_length_mismatch_rejected():
    rs = _rs("A", 3)
    with pytest.raises(ValueError):
        kostant_partition(rs, (1, 1))
    with pytest.raises(ValueError):
        has_partition(rs, (1, 1, 1, 1))


def _oracle_alternating_sums(rs, lam, mu):
    """Signed brute-force counts over the exhaustive alternation set.

    Returns the plain sum and the graded one as a {parts: coefficient} map.
    """
    plain, graded = 0, {}
    lam_rho, mu_rho = wadd(lam, rs.rho), wadd(mu, rs.rho)
    for sigma in compute_naive(rs, lam, mu):
        target = tuple(int(c) for c in wsub(act(rs, sigma, lam_rho), mu_rho))
        sign = -1 if sigma.length % 2 else 1
        for parts, count in _oracle_count_by_parts(rs.positive_roots, target).items():
            plain += sign * count
            graded[parts] = graded.get(parts, 0) + sign * count
    return plain, graded


@pytest.mark.filterwarnings("ignore:lambda is not dominant integral")
@pytest.mark.parametrize(
    "family,rank", [("A", 3), ("B", 3), ("C", 3), ("D", 4)]
)
def test_alternating_sums_match_brute_force_oracle(family, rank):
    rs = _rs(family, rank)
    s1 = from_word(rs, (1,))
    for lam, mu in sample_weight_pairs(rs, 6, seed=1):
        # s1(lambda) is not dominant whenever lambda pairs positively with
        # alpha_1, which sends both sums through the exhaustive fallback.
        for weight in (lam, act(rs, s1, lam)):
            plain, graded = _oracle_alternating_sums(rs, weight, mu)
            assert multiplicity(rs, weight, mu) == plain
            q_mult = q_multiplicity(rs, weight, mu)
            assert q_mult.evaluate(1) == plain
            assert q_mult == QPolynomial(
                graded.get(k, 0) for k in range(max(graded, default=-1) + 1)
            )


def _zero_weight_closed_form(family, n, k):
    """Multiplicity of weight 0 in V(k omega_1), k even outside type A.

    V(k omega_1) is Sym^k of the defining representation in types A and C
    and the degree-k harmonic polynomials in types B and D; counting their
    zero-weight monomials gives these binomials.
    """
    if family == "A":
        return int(k % (n + 1) == 0)
    if family in ("B", "C"):
        return comb(k // 2 + n - 1, n - 1)
    return comb(k // 2 + n - 2, n - 2)


@pytest.mark.parametrize(
    "family,rank,ks",
    [
        ("A", 3, range(41)),
        ("B", 3, range(0, 9, 2)),
        ("C", 3, range(0, 9, 2)),
        ("D", 4, range(0, 7, 2)),
    ],
)
def test_zero_weight_multiplicity_closed_forms(family, rank, ks):
    rs = _rs(family, rank)
    omega = fundamental_weights(rs)[0]
    for k in ks:
        lam = tuple(k * c for c in omega)
        expected = _zero_weight_closed_form(family, rank, k)
        assert multiplicity(rs, lam, zero_weight(rank)) == expected
        assert q_multiplicity(rs, lam, zero_weight(rank)).evaluate(1) == expected


def test_batch_answers_match_single_vectors():
    rs = _rs("B", 3)
    batch = [
        (2, 3, 4),
        (-1, 0, 0),
        (0, 0, 0),
        (Fraction(1, 2), 1, 1),
        (1, 1, 1),
        (0, -2, 5),
        (3, 0, 1),
    ]
    for graded in (False, True):
        together = kostant_counts(rs, batch, graded)
        alone = [kostant_counts(rs, [xi], graded)[0] for xi in batch]
        assert together == alone
    expressible = {(2, 3, 4), (0, 0, 0), (1, 1, 1), (3, 0, 1)}
    assert kostant_counts(rs, batch) == [
        sum(_oracle_count_by_parts(rs.positive_roots, xi).values())
        if xi in expressible
        else 0
        for xi in batch
    ]
    assert kostant_counts(rs, [(-1, 0, 0), (0, Fraction(1, 3), 0)], True) == [
        QPolynomial(),
        QPolynomial(),
    ]
