"""Classical root systems in the simple-root basis, with exact arithmetic.

Every weight in this package is a plain tuple whose k-th entry is the
coefficient of the simple root alpha_{k+1}.  Coordinates are `Fraction`s
(or ints, which mix freely with them); nothing here ever touches floating
point, so equality tests throughout the package are exact.

Normalization: long roots have squared length 2 in types A and D.  In B_r
the short simple root alpha_r has squared length 1, and in C_r the long
simple root alpha_r has squared length 4 (short roots 2).  Rescaling a
family changes none of the combinatorics; fixing one scale keeps every
stored value reproducible.

>>> rs = build_root_system(RootSystemSpec("A", 2))
>>> rs.positive_roots
((0, 1), (1, 0), (1, 1))
>>> rs.highest_root
(1, 1)
>>> rs.rho
(Fraction(1, 1), Fraction(1, 1))
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

__all__ = [
    "FAMILIES",
    "MAX_RANK",
    "Weight",
    "RootSystemSpec",
    "RootSystem",
    "build_root_system",
    "neg_root",
    "fundamental_weights",
    "partition_to_weight",
    "zero_weight",
    "as_weight",
    "wadd",
    "wsub",
]

Weight = tuple[Fraction, ...]

FAMILIES = ("A", "B", "C", "D")

# Smallest rank at which each family is defined and connected; below these
# the Dynkin diagram degenerates into a smaller family.
_MIN_RANK = {"A": 1, "B": 2, "C": 2, "D": 4}

#: Largest rank accepted.  Building a system takes about 0.4 s at A_64 and
#: 0.45 to 0.55 s at B_64, C_64 or D_64 (CPython 3.11, one core), and grows
#: faster than cubically: A_100 takes 1.2 s and A_200 16 s.
MAX_RANK = 64


@dataclass(frozen=True)
class RootSystemSpec:
    """Family letter and rank, validated on construction.

    >>> RootSystemSpec("D", 3)
    Traceback (most recent call last):
        ...
    ValueError: type D needs rank >= 4, got 3
    """

    family: str
    rank: int

    def __post_init__(self) -> None:
        if self.family not in _MIN_RANK:
            raise ValueError(
                f"unknown family {self.family!r}; expected one of {', '.join(FAMILIES)}"
            )
        least = _MIN_RANK[self.family]
        if not isinstance(self.rank, int) or self.rank < least:
            raise ValueError(
                f"type {self.family} needs rank >= {least}, got {self.rank!r}"
            )
        if self.rank > MAX_RANK:
            raise ValueError(
                f"type {self.family} allows rank <= {MAX_RANK}, got {self.rank}"
            )


@dataclass(frozen=True, eq=False)
class RootSystem:
    """A root system frozen into simple-root coordinates.

    `build_root_system` is the only constructor and caches one system per
    spec, so systems compare and hash by identity: the caches keyed on a
    system never hash its Fractions and roots.

    cartan[i][j] is 2(alpha_i, alpha_j)/(alpha_j, alpha_j), so row i of
    `cartan` lists the pairings of alpha_{i+1} against each coroot.  The
    positive roots are sorted by (height, coordinates), which fixes the
    recursion order of the partition-function modules and the iteration
    order of everything downstream.
    """

    spec: RootSystemSpec
    cartan: tuple[tuple[int, ...], ...]
    gram: tuple[tuple[Fraction, ...], ...]
    positive_roots: tuple[tuple[int, ...], ...]
    highest_root: tuple[int, ...]
    rho: Weight

    @property
    def rank(self) -> int:
        return self.spec.rank

    @cached_property
    def inverse_cartan(self) -> tuple[tuple[Fraction, ...], ...]:
        """Row k is the fundamental weight omega_{k+1} in root coordinates."""
        return _invert(
            tuple(tuple(Fraction(c) for c in row) for row in self.cartan)
        )


def zero_weight(rank: int) -> Weight:
    return (Fraction(0),) * rank


def as_weight(values) -> Weight:
    """Coerce an iterable of ints, strings, or Fractions to exact coordinates.

    >>> as_weight(["3/2", 1])
    (Fraction(3, 2), Fraction(1, 1))
    """
    return tuple(Fraction(v) for v in values)


def wadd(a, b):
    return tuple(x + y for x, y in zip(a, b, strict=True))


def wsub(a, b):
    return tuple(x - y for x, y in zip(a, b, strict=True))


def _gram_matrix(spec: RootSystemSpec) -> tuple[tuple[Fraction, ...], ...]:
    r = spec.rank
    g = [[Fraction(0)] * r for _ in range(r)]
    for i in range(r):
        g[i][i] = Fraction(2)
    # Chain bonds; the tail of the diagram distinguishes the families.
    last_chain = r - 2 if spec.family == "D" else r - 1
    for i in range(last_chain):
        g[i][i + 1] = g[i + 1][i] = Fraction(-1)
    if spec.family == "B":
        g[r - 1][r - 1] = Fraction(1)
    elif spec.family == "C":
        g[r - 1][r - 1] = Fraction(4)
        g[r - 2][r - 1] = g[r - 1][r - 2] = Fraction(-2)
    elif spec.family == "D":
        g[r - 3][r - 1] = g[r - 1][r - 3] = Fraction(-1)
    return tuple(tuple(row) for row in g)


def _cartan_from_gram(gram) -> tuple[tuple[int, ...], ...]:
    r = len(gram)
    rows = []
    for i in range(r):
        row = []
        for j in range(r):
            value = 2 * gram[i][j] / gram[j][j]
            if value.denominator != 1:
                raise ValueError(f"non-integral Cartan entry at ({i}, {j}): {value}")
            row.append(int(value))
        rows.append(tuple(row))
    return tuple(rows)


def _positive_root_closure(cartan) -> tuple[tuple[int, ...], ...]:
    """Grow the positive roots upward by height using root strings.

    beta + alpha_i is a root exactly when the alpha_i-string through beta
    descends further than the pairing <beta, alpha_i^vee>; the descent can
    be read off from lower-height roots already found.  The pairing reads
    only the nonzero entries of column i of the Cartan matrix, at most
    three in these families.
    """
    r = len(cartan)
    columns = [
        [(m, cartan[m][i]) for m in range(r) if cartan[m][i]] for i in range(r)
    ]
    simple = [tuple(int(m == i) for m in range(r)) for i in range(r)]
    known = set(simple)
    found = list(simple)
    layer = list(simple)
    while layer:
        following = []
        for beta in layer:
            for i, column in enumerate(columns):
                pairing = sum(beta[m] * a for m, a in column)
                head, c, tail = beta[:i], beta[i], beta[i + 1 :]
                descents = 0
                while head + (c - descents - 1,) + tail in known:
                    descents += 1
                if descents - pairing >= 1:
                    grown = head + (c + 1,) + tail
                    if grown not in known:
                        known.add(grown)
                        found.append(grown)
                        following.append(grown)
        layer = following
    found.sort(key=lambda v: (sum(v), v))
    return tuple(found)


@lru_cache(maxsize=None)
def build_root_system(spec: RootSystemSpec) -> RootSystem:
    """Assemble the full root system for a validated spec.

    >>> rs = build_root_system(RootSystemSpec("B", 2))
    >>> len(rs.positive_roots)
    4
    >>> rs.highest_root
    (1, 2)
    """
    gram = _gram_matrix(spec)
    cartan = _cartan_from_gram(gram)
    positive = _positive_root_closure(cartan)
    top_height = sum(positive[-1])
    tops = [v for v in positive if sum(v) == top_height]
    if len(tops) != 1:
        raise ValueError(f"expected a unique highest root, found {len(tops)}")
    r = spec.rank
    rho = tuple(
        Fraction(sum(root[i] for root in positive), 2) for i in range(r)
    )
    return RootSystem(
        spec=spec,
        cartan=cartan,
        gram=gram,
        positive_roots=positive,
        highest_root=tops[0],
        rho=rho,
    )


def neg_root(rs: RootSystem, i: int, j: int) -> Weight:
    """The negated consecutive root sum -(alpha_i + ... + alpha_j), 1-based.

    >>> rs = build_root_system(RootSystemSpec("A", 4))
    >>> neg_root(rs, 2, 3)
    (Fraction(0, 1), Fraction(-1, 1), Fraction(-1, 1), Fraction(0, 1))
    """
    if not 1 <= i <= j <= rs.rank:
        raise ValueError(
            f"need 1 <= i <= j <= {rs.rank}, got i={i} j={j}"
        )
    return tuple(
        Fraction(-1) if i <= k + 1 <= j else Fraction(0) for k in range(rs.rank)
    )


def fundamental_weights(rs: RootSystem) -> tuple[Weight, ...]:
    """omega_1, ..., omega_r in simple-root coordinates."""
    return rs.inverse_cartan


def partition_to_weight(partition, rank: int) -> Weight:
    """Dominant integral weight of A_rank attached to an integer partition.

    The k-th fundamental weight enters with coefficient p_k - p_{k+1}, so a
    partition with at most rank+1 parts yields a dominant integral weight;
    padding with trailing zeros does not change the answer.

    >>> partition_to_weight((2, 1), 2)
    (Fraction(1, 1), Fraction(1, 1))
    >>> partition_to_weight((1, 1, 1), 2)
    (Fraction(0, 1), Fraction(0, 1))
    """
    parts = tuple(int(p) for p in partition)
    if any(p < 0 for p in parts):
        raise ValueError(f"partition parts must be nonnegative, got {parts}")
    if any(parts[k] < parts[k + 1] for k in range(len(parts) - 1)):
        raise ValueError(f"partition parts must be weakly decreasing, got {parts}")
    if len(parts) > rank + 1:
        raise ValueError(
            f"partition has {len(parts)} parts; type A rank {rank} allows at most {rank + 1}"
        )
    rs = build_root_system(RootSystemSpec("A", rank))
    padded = parts + (0,) * (rank + 1 - len(parts))
    coords = [Fraction(0)] * rank
    for k in range(rank):
        coefficient = padded[k] - padded[k + 1]
        if coefficient:
            row = rs.inverse_cartan[k]
            for m in range(rank):
                coords[m] += coefficient * row[m]
    return tuple(coords)


def _invert(matrix: tuple[tuple[Fraction, ...], ...]) -> tuple[tuple[Fraction, ...], ...]:
    """Gauss-Jordan inverse over the rationals."""
    n = len(matrix)
    work = [list(row) + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(matrix)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if work[r][col] != 0), None)
        if pivot is None:
            raise ValueError("matrix is singular")
        work[col], work[pivot] = work[pivot], work[col]
        scale = work[col][col]
        work[col] = [entry / scale for entry in work[col]]
        for r in range(n):
            if r != col and work[r][col]:
                factor = work[r][col]
                work[r] = [a - factor * b for a, b in zip(work[r], work[col])]
    return tuple(tuple(row[n:]) for row in work)
