"""Partition counting against a brute-force multiset oracle."""

import functools
import itertools
import random
from fractions import Fraction
from math import comb

import pytest

from weylalt import kostant
from weylalt.altset import (
    compute_naive,
    multiplicity,
    q_multiplicity,
    sample_weight_pairs,
    verify_conjecture,
)
from weylalt.kostant import (
    QPolynomial,
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


@pytest.fixture(autouse=True)
def _empty_held_table():
    # A table held from an earlier test would answer every batch that fits
    # inside it, and the build paths a test means to exercise would not run.
    kostant._held = None
    yield
    kostant._held = None


def _counted_tables(monkeypatch):
    """Wrap kostant._table; return the list of tops it is called with."""
    tops = []
    build = kostant._table

    def counted(roots, top, shift):
        tops.append(top)
        return build(roots, top, shift)

    monkeypatch.setattr(kostant, "_table", counted)
    return tops


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


def _recursive_counts(roots, targets):
    """{parts: count} of every target, by a memoized recursion over the roots.

    P_j(x) is the sum over k >= 0 of q^k P_{j+1}(x - k beta_j), where P_j
    counts with roots j onward only and P past the last root is 1 at zero.
    """

    @functools.lru_cache(maxsize=None)
    def count(j, x):
        if j == len(roots):
            return {} if any(x) else {0: 1}
        out = {}
        k = 0
        while all(c >= 0 for c in x):
            for parts, n in count(j + 1, x).items():
                out[parts + k] = out.get(parts + k, 0) + n
            x = tuple(c - b for c, b in zip(x, roots[j]))
            k += 1
        return out

    return [count(0, tuple(target)) for target in targets]


def _assert_counts_match_recursion(rs, batch):
    expected = _recursive_counts(rs.positive_roots, batch)
    assert kostant_counts(rs, batch) == [sum(e.values()) for e in expected]
    assert kostant_counts(rs, batch, graded=True) == [
        QPolynomial(e.get(k, 0) for k in range(max(e, default=-1) + 1))
        for e in expected
    ]


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
    # Entries that are not ints go through Fraction, strings included.
    assert kostant_partition(a2, ("2", "2")) == 3
    assert kostant_partition(a2, ("1/2", "1")) == 0
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


@pytest.mark.parametrize(
    "family,rank", [("A", 6), ("B", 5), ("C", 5), ("D", 5)]
)
def test_counts_match_root_recursion(family, rank):
    rs = _rs(family, rank)
    rng = random.Random(f"kostant-runs-{family}{rank}")
    for _ in range(3):
        batch = [
            tuple(rng.randrange(4) for _ in range(rank)) for _ in range(8)
        ]
        _assert_counts_match_recursion(rs, batch)


@pytest.mark.parametrize(
    "family,rank,batch",
    [
        # Zero leading axes: every run of a root on them is empty.
        ("A", 4, [(0, 0, 2, 3), (0, 0, 1, 1)]),
        # Zero trailing axes: each run is a single cell.
        ("D", 5, [(3, 2, 1, 0, 0), (1, 1, 1, 0, 0)]),
        # alpha_2 + 2 alpha_3 exceeds top on its last nonzero axis.
        ("B", 3, [(2, 3, 1), (1, 2, 1), (0, 1, 0)]),
        ("A", 1, [(0,), (3,), (7,)]),
        # alpha_1 + alpha_2 runs over the whole last axis, longer than a piece.
        ("A", 3, [(1, 1, kostant._PIECE + 76), (0, 1, 1000), (1, 0, 700), (1, 1, 3)]),
        # Every non-simple root runs along the first axis with stride 4,
        # longer than a piece.
        ("A", 3, [(kostant._PIECE + 76, 1, 1), (1099, 0, 1), (600, 1, 0), (2, 1, 1)]),
    ],
)
def test_counts_match_root_recursion_on_edge_tops(family, rank, batch):
    _assert_counts_match_recursion(_rs(family, rank), batch)


@pytest.mark.parametrize(
    "family,rank", [("A", 5), ("B", 4), ("C", 4), ("D", 5)]
)
def test_counts_match_root_recursion_in_small_pieces(monkeypatch, family, rank):
    # Pieces of 3 cells split nearly every progression; zero axes in top
    # shorten the groups and move the progression to other axes.
    monkeypatch.setattr(kostant, "_PIECE", 3)
    rs = _rs(family, rank)
    rng = random.Random(f"kostant-pieces-{family}{rank}")
    for _ in range(4):
        zeros = rng.sample(range(rank), 2)
        batch = [
            tuple(0 if k in zeros else rng.randrange(5) for k in range(rank))
            for _ in range(6)
        ]
        _assert_counts_match_recursion(rs, batch)


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
    # A vector has a partition exactly when its coordinates are nonnegative
    # integers: the simple roots are positive roots.  altset's membership
    # test relies on this instead of counting.
    for family, rank in (("A", 3), ("B", 3), ("C", 3)):
        rs = _rs(family, rank)
        for xi in itertools.product((-1, 0, 1, 2, Fraction(1, 2)), repeat=rank):
            nonnegative_integral = all(c >= 0 and c == int(c) for c in xi)
            assert (kostant_partition(rs, xi) > 0) == nonnegative_integral


def test_support_is_upward_closed_along_simple_roots():
    rs = _rs("B", 3)
    for xi in itertools.product(range(3), repeat=3):
        if not kostant_partition(rs, xi):
            continue
        for alpha in rs.positive_roots[: rs.rank]:
            bumped = tuple(a + b for a, b in zip(xi, alpha))
            assert kostant_partition(rs, bumped) > 0


def test_length_mismatch_rejected():
    rs = _rs("A", 3)
    with pytest.raises(ValueError):
        kostant_partition(rs, (1, 1))
    with pytest.raises(ValueError):
        kostant_partition_q(rs, (1, 1, 1, 1))


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


@pytest.mark.parametrize(
    "family,rank,negated",
    [("A", 4, True), ("B", 3, True), ("C", 3, True), ("A", 4, False), ("D", 4, False)],
)
def test_graded_sums_at_the_highest_root_match_brute_force_oracle(
    family, rank, negated
):
    # Terms of both signs and of different degrees add up coefficient-wise.
    rs = _rs(family, rank)
    lam = rs.highest_root
    mu = tuple(-c for c in lam) if negated else zero_weight(rank)
    plain, graded = _oracle_alternating_sums(rs, lam, mu)
    q_mult = q_multiplicity(rs, lam, mu)
    assert q_mult == QPolynomial(
        graded.get(k, 0) for k in range(max(graded, default=-1) + 1)
    )
    assert q_mult.evaluate(1) == plain == multiplicity(rs, lam, mu)


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


@pytest.mark.parametrize(
    "family,rank",
    [("A", 1), ("A", 2), ("A", 3), ("A", 4), ("A", 5), ("B", 3), ("C", 3), ("D", 4)],
)
def test_batches_read_from_a_held_table_match_fresh_tables(
    monkeypatch, family, rank
):
    rs = _rs(family, rank)
    rng = random.Random(f"kostant-held-{family}{rank}")
    big = (3,) * rank
    runs = []
    for graded in (False, True, True, False, True, False):
        batch = [
            tuple(rng.randrange(4) for _ in range(rank)) for _ in range(4)
        ] + [(-1,) + (0,) * (rank - 1)]
        kostant._held = None
        runs.append((graded, batch, kostant_counts(rs, batch, graded)))
    # Plain and graded batches interleave; each switch builds the big box
    # once, and every batch under it is read from the held table.
    tops = _counted_tables(monkeypatch)
    kostant._held = None
    for graded, batch, fresh in runs:
        if kostant._held is None or kostant._held[1] != graded:
            kostant_counts(rs, [big], graded)
        built = len(tops)
        assert kostant_counts(rs, batch, graded) == fresh
        assert len(tops) == built
    assert set(tops) == {big}


def test_a_top_that_does_not_fit_rebuilds_for_that_top_only(monkeypatch):
    rs = _rs("A", 3)
    tops = _counted_tables(monkeypatch)
    kostant_counts(rs, [(2, 1, 1)], graded=True)
    kostant_counts(rs, [(1, 1, 1), (2, 0, 1)], graded=True)
    assert tops == [(2, 1, 1)]
    # (1, 2, 1) exceeds the held top on axis 2; the union (2, 2, 1) is not built.
    assert kostant_counts(rs, [(1, 2, 1)], graded=True) == [
        kostant_partition_q(rs, (1, 2, 1))
    ]
    assert tops == [(2, 1, 1), (1, 2, 1)]
    # Another grading or root system does not read the held table either.
    kostant_counts(rs, [(1, 1, 1)])
    kostant_counts(_rs("B", 3), [(1, 1, 1)])
    assert tops[2:] == [(1, 1, 1), (1, 1, 1)]
    assert kostant._held[0] is _rs("B", 3)


def test_table_is_never_built_while_one_is_held(monkeypatch):
    build = kostant._table

    def checked(roots, top, shift):
        assert kostant._held is None, "a table was built beside the held one"
        return build(roots, top, shift)

    monkeypatch.setattr(kostant, "_table", checked)
    rs = _rs("A", 4)
    for lam, mu in sample_weight_pairs(rs, 6, seed=3):
        multiplicity(rs, lam, mu)
        q_multiplicity(rs, lam, mu)
    assert verify_conjecture(4).ok
    assert kostant._held is not None


def test_conjecture_sweep_builds_one_table_per_leading_box(monkeypatch):
    # At each rank the (1, j) boxes grow and every later (i, j) box fits
    # inside (1, r); the rest are the plain and graded calls at ranks 1..6.
    tops = _counted_tables(monkeypatch)
    assert verify_conjecture(6).ok
    assert len(tops) == 89
