"""Kostant partition counting, plain and q-graded, over exact integers.

kostant_partition(rs, xi) counts the ways to write xi as a sum of positive
roots with nonnegative integer multiplicities; kostant_partition_q refines
the count by total number of roots used, returning a polynomial whose q^k
coefficient counts the expressions of k parts.  The zero vector has exactly
one expression (the empty one).

All counts come from one table, the product over positive roots beta of
1/(1 - q x^beta) on a box [0, top]; plain counts are that table at q = 1.
The simple roots seed every cell c with q^height(c), and each other root
updates the box by strided slices, one arithmetic progression of cells per
point of the axes outside its largest group of axes (see _table).
kostant_counts reads a whole batch from one table, or raises
ValueError (exit 1 in the CLI) before allocating one whose estimated memory
exceeds MAX_TABLE_BYTES.  The module holds one table at a time, the last one
built, and keeps it after the call: a later batch for the same root system
and grading whose box fits inside the held one is read from it, so a sweep
of weights under one box builds that box once.  Any other batch empties the
slot before its own table is built.

>>> rs = build_root_system(RootSystemSpec("A", 2))
>>> kostant_partition(rs, (1, 1))
2
>>> print(kostant_partition_q(rs, (1, 1)))
q^2 + q
>>> kostant_partition(rs, (0, 0))
1
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import gt, mul

from .rootsys import RootSystem, RootSystemSpec, build_root_system

__all__ = [
    "QPolynomial",
    "kostant_counts",
    "kostant_partition",
    "kostant_partition_q",
]

#: Largest table built, in bytes.  A cell costs a list slot and an int object,
#: about 36 bytes in CPython, plus 4 bytes per 30 bits of its width.  The
#: held table (_held) is the one table alive: it stays after its call, and it
#: is dropped before the next build, so two tables never coexist.  It also
#: stays while the next call searches its alternation set, whatever its root
#: system, and after the last call, so a process may hold one table and one
#: set at once, as a multiplicity call does while it builds its own table:
#: peak memory is bounded by MAX_TABLE_BYTES plus altset.MAX_SET_BYTES.  The
#: estimate holds only if no transient near the table's size outlives a step,
#: so the build keeps none: the seed looks q^height up from a list of small
#: int heights instead of shifting the cells of the axes built so far (half
#: the table when top_0 = 1), and a progression is rewritten _PIECE cells at a
#: time, so its new ints never coexist with all of its old ones.  Traced peaks
#: of graded kostant_counts on the residuals of A_10 (highest root,
#: -alpha_{1..10}), B_10 and D_10 (highest root, 0): 9.4, 7.8 and 2.8 MiB,
#: against estimates of 9.5, 7.8 and 2.8 MiB.
MAX_TABLE_BYTES = 2**29

#: Cells rewritten per slice assignment of a longer progression of the table.
_PIECE = 1024

#: The last table built, (rs, graded, top, shift, cells, strides), or None.
#: kostant_counts keeps it after the call and empties it before a build.
_held = None


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
        coeffs = tuple(map(int, coeffs))
        n = len(coeffs)
        while n and not coeffs[n - 1]:
            n -= 1
        object.__setattr__(self, "coeffs", coeffs[:n])

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
    """Exact coordinates of xi, or None when some entry is fractional or negative.

    Ints are taken as they are; every other entry goes through Fraction, so
    strings such as "3/2" keep their meaning.
    """
    if len(xi) != rs.rank:
        raise ValueError(f"expected a vector of length {rs.rank}, got {len(xi)}")
    out = tuple(c if type(c) is int else Fraction(c) for c in xi)
    if any(c.denominator != 1 or c < 0 for c in out):
        return None
    return tuple(map(int, out))


def _table(roots, top, shift: int):
    """The product of 1/(1 - q x^beta) over roots on [0, top], with q = 2**shift.

    Cells are flattened row-major; the strides are returned with them.  The
    simple roots, the unit vectors among the roots, together give q^height(c)
    to every cell c, so that is the seed.  Every other factor adds q times
    cell c - beta into each cell c >= beta, and a root that exceeds top on
    some axis has no such cell.  For each axis m, the group of axes m..n,
    with beta 0 on m+1..n and n as far right as that allows, indexes one
    arithmetic progression of the cells c >= beta: c_m from beta_m to
    top_m and axes m+1..n over their whole ranges, stride strides[n],
    (top_m + 1 - beta_m) strides[m] / strides[n] cells.  The group with the
    most cells is updated by one strided slice per point of the remaining
    axes, the points visited in lexicographic order.  beta is not simple, so
    it is nonzero on two axes, and a group holds at most one of them: c -
    beta is below c on some remaining axis and above it on none, so its
    point came earlier, its cell is already final, and the slice read never
    overlaps the slice written.
    """
    r = len(top)
    strides = [math.prod(t + 1 for t in top[k + 1 :]) for k in range(r)]
    heights = [0]
    for t in top:
        heights = [h + k for h in heights for k in range(t + 1)]
    powers = [1 << (k * shift) for k in range(sum(top) + 1)]
    cells = list(map(powers.__getitem__, heights))
    del heights
    for beta in roots:
        if sum(beta) == 1 or any(map(gt, beta, top)):
            continue
        # The group of axis k ends just before the first nonzero of beta past k.
        end, size = r - 1, 0
        for k in range(r - 1, -1, -1):
            if k + 1 < r and beta[k + 1]:
                end = k
            cells_in_group = (top[k] + 1 - beta[k]) * strides[k] // strides[end]
            if cells_in_group > size:
                size, m, n = cells_in_group, k, end
        stride = strides[n]
        step = sum(map(mul, beta, strides))
        span = size * stride
        piece = _PIECE * stride
        bases = [beta[m] * strides[m]]
        for k in (*range(m), *range(n + 1, r)):
            s = strides[k]
            bases = [
                b + x for b in bases for x in range(beta[k] * s, (top[k] + 1) * s, s)
            ]
        for base in bases:
            # In pieces, so a long progression's new ints never all coexist
            # with its old.
            for lo in range(base, base + span, piece):
                hi = min(lo + piece, base + span)
                cells[lo:hi:stride] = [
                    x + (y << shift)
                    for x, y in zip(
                        cells[lo:hi:stride], cells[lo - step : hi - step : stride]
                    )
                ]
    return cells, strides


def _table_shift(rs: RootSystem, top, graded: bool) -> int:
    """The shift of the table on [0, top], or ValueError past MAX_TABLE_BYTES.

    Graded counts take q = 2**shift wider than any coefficient, each at most
    the product over beta of 1 + min_k floor(top_k / beta_k), the multiples
    of beta under top; a graded cell c packs height(c) + 1 of them,
    height(top) / 2 + 1 on average.  Plain cells hold the bound itself.  The
    size estimate from these widths is checked before anything is
    allocated, and the build's traced peak stays near it (see
    MAX_TABLE_BYTES).  Narrower graded cells would need P(top), which only a
    plain table gives and which costs more to build than they save.
    """
    bound = math.prod(
        1 + min(t // b for t, b in zip(top, beta) if b) for beta in rs.positive_roots
    )
    shift = bound.bit_length() if graded else 0
    width = shift * (sum(top) // 2 + 1) if graded else bound.bit_length()
    size = math.prod(t + 1 for t in top) * (36 + 4 * -(-width // 30))
    if size > MAX_TABLE_BYTES:
        # The message names no size: one past 4300 digits cannot be formatted.
        raise ValueError(f"Kostant table exceeds the budget of {MAX_TABLE_BYTES} bytes")
    return shift


def kostant_counts(rs: RootSystem, xis, graded: bool = False) -> list:
    """Kostant counts (QPolynomials when graded) of every vector in xis.

    top is the componentwise maximum of the vectors with nonnegative integer
    coordinates; the others count 0.  The batch is read from the held table
    when it is for rs and graded and its top is at least top on every axis:
    a cell's partitions use only roots under it, and the held shift is at
    least the one top needs, so every cell under top reads as in a fresh
    build.  Otherwise the held table is dropped and one is built for top
    alone (never the union of the two boxes), after `_table_shift` checks
    its size.

    >>> rs = build_root_system(RootSystemSpec("A", 2))
    >>> kostant_counts(rs, [(2, 2), (1, 0), (-1, 0)])
    [3, 1, 0]
    """
    global _held
    coords = [_coordinates(rs, xi) for xi in xis]
    top = tuple(map(max, zip(*filter(None, coords)))) or (0,) * rs.rank
    held = _held
    if (
        held is None
        or held[0] is not rs
        or held[1] != graded
        or any(map(gt, top, held[2]))
    ):
        shift = _table_shift(rs, top, graded)
        held = _held = None
        held = _held = (rs, graded, top, shift, *_table(rs.positive_roots, top, shift))
    shift, cells, strides = held[3:]
    values = [0 if c is None else cells[sum(map(mul, c, strides))] for c in coords]
    if not graded:
        return values
    mask = (1 << shift) - 1
    return [
        QPolynomial(v >> k & mask for k in range(0, v.bit_length(), shift))
        for v in values
    ]


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

