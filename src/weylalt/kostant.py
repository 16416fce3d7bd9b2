"""Kostant partition counting, plain and q-graded, over exact integers.

kostant_partition(rs, xi) counts the ways to write xi as a sum of positive
roots with nonnegative integer multiplicities; kostant_partition_q refines
the count by total number of roots used, returning a polynomial whose q^k
coefficient counts the expressions of k parts.  The zero vector has exactly
one expression (the empty one).

All counts come from one table, the product over positive roots beta of
1/(1 - q x^beta) on a box [0, top], built one root at a time; plain counts
are that table at q = 1.  kostant_counts reads a whole batch from one
table, or raises ValueError (exit 1 in the CLI) before allocating one whose
estimated memory exceeds MAX_TABLE_BYTES.

>>> rs = build_root_system(RootSystemSpec("A", 2))
>>> kostant_partition(rs, (1, 1))
2
>>> print(kostant_partition_q(rs, (1, 1)))
q^2 + q
>>> kostant_partition(rs, (0, 0))
1
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from operator import mul

from .rootsys import RootSystem, RootSystemSpec, build_root_system

__all__ = [
    "QPolynomial",
    "kostant_counts",
    "kostant_partition",
    "kostant_partition_q",
    "has_partition",
]

#: Largest table built, in bytes.  A cell costs a list slot and an int object,
#: about 36 bytes in CPython, plus 4 bytes per 30 bits of its width.
MAX_TABLE_BYTES = 2**29


class QPolynomial:
    """Integer polynomial in q, stored dense from the constant term up.

    coeffs[k] is the q^k coefficient; trailing zeros are trimmed so equal
    polynomials always store equal tuples.

    >>> QPolynomial((0, -1, 0, 1, 1))
    QPolynomial('q^4 + q^3 - q')
    >>> QPolynomial.monomial(2) - QPolynomial.monomial(0)
    QPolynomial('q^2 - 1')
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        coeffs = tuple(int(c) for c in coeffs)
        while coeffs and coeffs[-1] == 0:
            coeffs = coeffs[:-1]
        object.__setattr__(self, "coeffs", coeffs)

    def __setattr__(self, name, value):
        raise AttributeError("QPolynomial is immutable")

    @classmethod
    def monomial(cls, power: int, coefficient: int = 1) -> "QPolynomial":
        return cls((0,) * power + (coefficient,))

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial reported as -1."""
        return len(self.coeffs) - 1

    def evaluate(self, value=1):
        total = 0
        for c in reversed(self.coeffs):
            total = total * value + c
        return total

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        return QPolynomial(
            tuple(x + y for x, y in zip(a, b)) + a[len(b):]
        )

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return QPolynomial(tuple(-c for c in self.coeffs))

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        if not isinstance(other, QPolynomial):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        pieces = []
        for k in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[k]
            if not c:
                continue
            sign = "-" if c < 0 else "+"
            magnitude = abs(c)
            if k == 0:
                body = str(magnitude)
            else:
                q = "q" if k == 1 else f"q^{k}"
                body = q if magnitude == 1 else f"{magnitude}{q}"
            pieces.append((sign, body))
        first_sign, first_body = pieces[0]
        text = ("-" if first_sign == "-" else "") + first_body
        for sign, body in pieces[1:]:
            text += f" {sign} {body}"
        return text

    def __repr__(self) -> str:
        return f"QPolynomial({str(self)!r})"


def _coordinates(rs: RootSystem, xi):
    """Exact coordinates of xi, or None when some entry is fractional or negative."""
    if len(xi) != rs.rank:
        raise ValueError(f"expected a vector of length {rs.rank}, got {len(xi)}")
    out = tuple(Fraction(c) for c in xi)
    if any(c.denominator != 1 or c < 0 for c in out):
        return None
    return tuple(int(c) for c in out)


def _table(roots, top, shift: int):
    """The product of 1/(1 - q x^beta) over roots on [0, top], with q = 2**shift.

    Cells are flattened row-major; the strides are returned with them.  The
    simple root alpha_r, the one positive root on the last axis alone, seeds
    the first row with the powers of q.  Every other factor adds q times
    cell c - beta, which lies in an earlier row, into each cell c >= beta,
    so the rows taken in order update as one slice each.
    """
    strides = [math.prod(t + 1 for t in top[k + 1 :]) for k in range(len(top))]
    cells = [0] * (strides[0] * (top[0] + 1))
    cells[: top[-1] + 1] = [1 << (k * shift) for k in range(top[-1] + 1)]
    for beta in (b for b in roots if any(b[:-1])):
        step = sum(map(mul, beta, strides))
        leading = [range(b, t + 1) for b, t in zip(beta[:-1], top[:-1])]
        for prefix in itertools.product(*leading):
            start = sum(map(mul, prefix, strides)) + beta[-1]
            end = start - beta[-1] + top[-1] + 1
            old, back = cells[start:end], cells[start - step : end - step]
            cells[start:end] = [x + (y << shift) for x, y in zip(old, back)]
    return cells, strides


def kostant_counts(rs: RootSystem, xis, graded: bool = False) -> list:
    """Kostant counts (QPolynomials when graded) of every vector in xis.

    top is the componentwise maximum of the vectors with nonnegative integer
    coordinates; the others count 0.  Graded counts take q = 2**shift wider
    than any coefficient, each at most the product over beta of
    1 + min_k floor(top_k / beta_k), the multiples of beta under top; a
    graded cell c packs height(c) + 1 of them, height(top) / 2 + 1 on average.

    >>> rs = build_root_system(RootSystemSpec("A", 2))
    >>> kostant_counts(rs, [(2, 2), (1, 0), (-1, 0)])
    [3, 1, 0]
    """
    coords = [_coordinates(rs, xi) for xi in xis]
    top = tuple(map(max, zip(*filter(None, coords)))) or (0,) * rs.rank
    bound = math.prod(
        1 + min(t // b for t, b in zip(top, beta) if b) for beta in rs.positive_roots
    )
    shift = bound.bit_length() if graded else 0
    width = shift * (sum(top) // 2 + 1) if graded else bound.bit_length()
    size = math.prod(t + 1 for t in top) * (36 + 4 * -(-width // 30))
    if size > MAX_TABLE_BYTES:
        raise ValueError(f"Kostant table of ~{size} bytes exceeds the budget {MAX_TABLE_BYTES}")
    cells, strides = _table(rs.positive_roots, top, shift)
    values = [0 if c is None else cells[sum(map(mul, c, strides))] for c in coords]
    if not graded:
        return values
    mask = (1 << shift) - 1
    degrees = range(sum(top) + 1)
    return [QPolynomial(v >> k * shift & mask for k in degrees) for v in values]


def kostant_partition(rs: RootSystem, xi) -> int:
    """Number of expressions of xi as a nonnegative integer sum of positive roots.

    Vectors with a fractional or negative coordinate have no expression and
    count 0; the zero vector counts 1.

    >>> rs = build_root_system(RootSystemSpec("A", 3))
    >>> kostant_partition(rs, (1, 1, 1))
    4
    >>> kostant_partition(rs, (-1, 0, 0))
    0
    """
    return kostant_counts(rs, [xi])[0]


def kostant_partition_q(rs: RootSystem, xi) -> QPolynomial:
    """The q-graded refinement: the q^k coefficient counts k-part expressions.

    >>> rs = build_root_system(RootSystemSpec("A", 3))
    >>> print(kostant_partition_q(rs, (1, 1, 1)))
    q^3 + 2q^2 + q
    >>> print(kostant_partition_q(rs, (0, 0, 0)))
    1
    """
    return kostant_counts(rs, [xi], graded=True)[0]


def has_partition(rs: RootSystem, xi) -> bool:
    """Decide kostant_partition(rs, xi) > 0 without counting.

    The simple roots are themselves positive roots, so any vector with
    nonnegative integer coordinates has at least the expression using only
    simple roots; conversely every expression forces nonnegative integer
    coordinates.  Membership tests over large groups stay cheap this way.

    >>> rs = build_root_system(RootSystemSpec("A", 3))
    >>> has_partition(rs, (0, 1, 2))
    True
    >>> has_partition(rs, (0, Fraction(1, 2), 0))
    False
    """
    return _coordinates(rs, xi) is not None
