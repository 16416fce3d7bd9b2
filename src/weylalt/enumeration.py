"""Fibonacci-flavored counting for type A alternation sets, verified two ways.

Counts always come from definitions: one search per rank, for
A_r(hr, -alpha_{1,r}), serves every negated root (`_zero_span`); h^i_r
counts the members whose residual zeros lie in [i, r], and p^i_r those
whose influence also avoids the last generator; both read one table per
rank (`_zero_spans`), and a sweep refuses an over-budget rank before it
searches any (`check_rank_budget`).  The closed forms, recurrences, and
generating functions are then checked against those definition values,
never used to produce them; that direction is what makes the verification
reports meaningful.

The series side is a small exact power-series engine over exponent boxes.
Everything downstream needs at most three variables (rank, start, end of
the negated root), truncated near degree 10, so sparse dicts of exponent
tuples are plenty.  Polynomials are such dicts, multiplied by `_poly_mul`;
each series is expanded by one division of integer polynomials whose
denominator has constant term 1 or -1, visiting the box's cells in
lexicographic order, so every coefficient is an integer.

>>> fibonacci(6)
8
>>> count_neg_simple(6, 3)
11
>>> series_expand({1: 1, 2: 1}, {0: 1, 1: -1, 2: -1, 3: -3, 4: -1}, 4).coefficient((4,))
8
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache

from .altset import _set_budget, compute
from .reporting import Report
from .rootsys import MAX_RANK, RootSystemSpec, build_root_system, neg_root

__all__ = [
    "PowerSeries",
    "DEFAULT_TRUNCATION",
    "MAX_SERIES_BYTES",
    "fibonacci",
    "count_neg_simple",
    "count_neg_height2",
    "highest_root_alternation_set",
    "check_rank_budget",
    "alternation_count",
    "p_value",
    "h_value",
    "verify_recurrences",
    "series_expand",
    "series_p",
    "series_h",
    "series_p_bivariate",
    "series_h_bivariate",
    "series_grand",
    "verify_generating_functions",
]

DEFAULT_TRUNCATION = 12

#: Largest series expansion, in bytes of estimated memory.  A cell of the
#: exponent box costs about 400 bytes (its exponent tuple and dict slot and
#: an int), plus 4 bytes per 30 bits of its coefficient; the padded flat list
#: `_divide` reads adds 8 bytes per padded cell.  The estimate is loose:
#: `series_grand(100)`, the largest `counts` and `gf` accept, is estimated at
#: 511 MiB, just under the budget, and its tracemalloc peak in CPython 3.11
#: measured 38.4 MiB (29.4 MiB before the flat list; 171,700 of its
#: 1,030,301 cells are nonzero).
MAX_SERIES_BYTES = 2**29


def fibonacci(n: int) -> int:
    """Fibonacci numbers with F_0 = 0, F_1 = 1, extended by F_{-1} = 0.

    The n = -1 value is a bookkeeping convention that keeps the closed-form
    dispatch total; it deliberately breaks the recurrence one step below 0.

    >>> [fibonacci(n) for n in range(-1, 8)]
    [0, 0, 1, 1, 2, 3, 5, 8, 13]
    """
    if n < -1:
        raise ValueError(f"fibonacci is defined here for n >= -1, got {n}")
    if n <= 0:
        return 0
    a, b = 0, 1
    for _ in range(n - 1):
        a, b = b, a + b
    return b


def count_neg_simple(r: int, i: int) -> int:
    """Closed-form |A_r(hr, -alpha_i)| for the highest root against one
    negated simple root.

    Boundary positions give F_{r+1}; interior positions split off two
    independent halves of the diagram.

    >>> count_neg_simple(5, 2)
    6
    """
    if not 1 <= i <= r:
        raise ValueError(f"need 1 <= i <= r, got i={i}, r={r}")
    if i in (1, r):
        return fibonacci(r + 1)
    return (
        fibonacci(r)
        + fibonacci(i - 1) * fibonacci(r - i - 1)
        + fibonacci(i - 2) * fibonacci(r - i)
    )


def count_neg_height2(r: int, i: int) -> int:
    """Closed-form |A_r(hr, -(alpha_i + alpha_{i+1}))|.

    The boundary value is written 3F_{r-1}: the equivalent split form
    F_{r+1} + F_{r-3} silently requires F_{-1} = 1 at r = 2, which clashes
    with the F_{-1} = 0 convention used everywhere else.

    >>> count_neg_height2(2, 1)
    3
    >>> count_neg_height2(4, 2)
    6
    """
    if not 1 <= i <= r - 1:
        raise ValueError(f"need 1 <= i <= r-1, got i={i}, r={r}")
    if i in (1, r - 1):
        return 3 * fibonacci(r - 1)
    return (
        fibonacci(r)
        + fibonacci(i - 2) * fibonacci(r - i)
        + 3 * fibonacci(i - 1) * fibonacci(r - i - 1)
        + fibonacci(i) * fibonacci(r - i - 2)
    )


@lru_cache(maxsize=None)
def highest_root_alternation_set(r: int):
    """A_r(hr, -alpha_{1,r}), searched once per rank and cached.

    It is the only type A search: every cell A_r(hr, -alpha_{i,j}) is read
    off it by the rule of `_zero_span`.
    """
    rs = build_root_system(RootSystemSpec("A", r))
    return compute(rs, rs.highest_root, neg_root(rs, 1, r))


def check_rank_budget(max_r: int) -> None:
    """Raise ValueError, before any search, if a rank in 1..max_r is over budget.

    Rank r searches A_r(hr, -alpha_{1,r}), whose h^1_r members the series
    H^1(x) counts in advance; the refusal is the one `compute` stops with.
    Ranks past rootsys.MAX_RANK are refused by their root system instead.
    """
    top = min(max_r, MAX_RANK)
    sizes = series_h(1, top)
    for r in range(1, top + 1):
        limit, over_budget = _set_budget(r)
        if sizes.coefficient((r,)) > limit:
            raise ValueError(over_budget)


def _zero_span(d) -> tuple[int, int]:
    """(first, last) 1-based coordinates where d is 0; (len(d) + 1, 0) if none.

    -alpha_{i,j} = -alpha_{1,r} + (the simple roots outside [i, j]), so a
    residual against -alpha_{i,j} is the residual d against -alpha_{1,r}
    minus 1 outside [i, j].  A_r(hr, -alpha_{i,j}) is therefore, in order,
    the members of `highest_root_alternation_set(r)` whose span lies inside
    [i, j]: i <= first and last <= j.
    """
    if 0 not in d:
        return len(d) + 1, 0
    return d.index(0) + 1, len(d) - d[::-1].index(0)


@lru_cache(maxsize=None)
def _zero_spans(r: int) -> Counter:
    """Members of A_r(hr, -alpha_{1,r}), counted by (first, last, outside).

    (first, last) is the member's `_zero_span`, and outside says whether r
    is outside its influence, that is, s_r is not in its witness word.
    """
    aset = highest_root_alternation_set(r)
    return Counter(
        (*_zero_span(d), r not in sigma.word)
        for sigma, d in zip(aset.elements, aset.residuals)
    )


def alternation_count(r: int, i: int, j: int) -> int:
    """|A_r(hr, -alpha_{i,j})| computed from the definition, one search per rank.

    The count sums the per-rank table `_zero_spans` over the spans inside
    [i, j], the rule of `_zero_span`.
    """
    if not 1 <= i <= j <= r:
        raise ValueError(f"need 1 <= i <= j <= r, got i={i}, j={j}, r={r}")
    return sum(n for (a, b, _), n in _zero_spans(r).items() if i <= a and b <= j)


def h_value(r: int, i: int) -> int:
    """h^i_r = |A_r(hr, -alpha_{i,r})|, from the definition.

    >>> [h_value(r, 1) for r in range(1, 5)]
    [1, 3, 5, 11]
    """
    return alternation_count(r, i, r)


def p_value(r: int, i: int) -> int:
    """p^i_r = members of A_r(hr, -alpha_{i,r}) whose influence avoids r.

    By the rule of `_zero_span`, A_r(hr, -alpha_{i,r}) is the members of
    the rank's cached A_r(hr, -alpha_{1,r}) whose zero span starts at i or
    later, so the count sums the table `_zero_spans` over those spans
    whose members leave r outside.

    >>> [p_value(r, 1) for r in range(1, 5)]
    [1, 2, 3, 8]
    """
    if not 1 <= i <= r:
        raise ValueError(f"need 1 <= i <= r, got i={i}, r={r}")
    return sum(n for (a, _, outside), n in _zero_spans(r).items() if outside and i <= a)


def verify_recurrences(max_r: int = 9) -> Report:
    """Check every counting recurrence over its stated range of indices.

    All values entering the identities come from the defining filters; a
    failure message pins down the earliest offending indices.
    """
    check_rank_budget(max_r)
    report = Report(title=f"counting recurrences up to rank {max_r}")
    report.check(p_value(1, 1) == 1, "anchor p^1_1 != 1")
    if max_r >= 2:
        report.check(p_value(2, 2) == 1, "anchor p^2_2 != 1")
    for i in range(1, max_r + 1):
        for r in range(i + 4, max_r + 1):
            expected = (
                p_value(r - 1, i)
                + p_value(r - 2, i)
                + 3 * p_value(r - 3, i)
                + p_value(r - 4, i)
            )
            report.check(
                p_value(r, i) == expected,
                f"four-term p recurrence fails at r={r}, i={i}",
            )
            expected = (
                h_value(r - 1, i)
                + h_value(r - 2, i)
                + 3 * h_value(r - 3, i)
                + h_value(r - 4, i)
            )
            report.check(
                h_value(r, i) == expected,
                f"four-term h recurrence fails at r={r}, i={i}",
            )
    for r in range(1, max_r + 1):
        for i in range(4, r + 1):
            report.check(
                p_value(r, i) == p_value(r - 1, i - 1) + p_value(r - 2, i - 2),
                f"diagonal p recurrence fails at r={r}, i={i}",
            )
        for i in range(3, r + 1):
            report.check(
                h_value(r, i) == h_value(r - 1, i - 1) + h_value(r - 2, i - 2),
                f"diagonal h recurrence fails at r={r}, i={i}",
            )
        for i in range(1, r):
            report.check(
                alternation_count(r, i, r - 1) == p_value(r, i),
                f"penultimate-column identity fails at r={r}, i={i}",
            )
            if r >= 2:
                report.check(
                    h_value(r, i) == p_value(r, i) + p_value(r - 1, i),
                    f"h = p + shifted p fails at r={r}, i={i}",
                )
    for r in range(3, max_r + 1):
        for i in range(1, r - 1):
            for j in range(i, r - 1):
                report.check(
                    alternation_count(r, i, j)
                    == alternation_count(r - 1, i, j)
                    + alternation_count(r - 2, i, j),
                    f"rank recurrence fails at r={r}, i={i}, j={j}",
                )
    return report


@dataclass(frozen=True, eq=False, slots=True)
class PowerSeries:
    """A sparse truncated power series with exact integer coefficients.

    Exponent tuples index the ordered `variables`; nothing beyond a
    variable's truncation bound is stored (the bound itself is kept).  The
    series is a read-only result: it is built once, by `_divide`, which
    stores only the nonzero coefficients inside the box, and only read
    afterwards.
    """

    variables: tuple[str, ...]
    truncation: tuple[int, ...]
    coeffs: dict

    def coefficient(self, exponents) -> int:
        exponents = tuple(exponents)
        if len(exponents) != len(self.variables):
            raise ValueError(
                f"expected {len(self.variables)} exponents, got {len(exponents)}"
            )
        return self.coeffs.get(exponents, 0)

    def terms(self):
        """Coefficients sorted by total degree, then exponents."""
        return sorted(self.coeffs.items(), key=lambda kv: (sum(kv[0]), kv[0]))


def _graded_box(truncation):
    """The box's cells in lexicographic order, so every e - f comes before e."""
    return itertools.product(*[range(t + 1) for t in truncation])


def _divide(numerator: dict, denominator: dict, variables, truncation) -> PowerSeries:
    """Truncated quotient of integer polynomials, by one pass over the box.

    The denominator's constant term must be 1 or -1, so each coefficient is
    an integer and nothing is ever divided.  Cells are visited in
    lexicographic order: for every denominator exponent f other than zero,
    e - f precedes e, so its coefficient is already known.

    Raises ValueError, before expanding, when the expansion's estimated
    memory exceeds MAX_SERIES_BYTES.  Each coefficient is found from those of
    lower total degree, so it grows at most like g**degree, where g is 1 plus
    the sum of the other denominator terms' sizes; the estimate takes
    ceil(log2(g)) bits per degree at the box's mean degree.
    """
    zero = (0,) * len(variables)
    constant = denominator.get(zero, 0)
    if not constant:
        raise ValueError("denominator has zero constant term")
    if constant not in (1, -1):
        raise ValueError(
            f"denominator's constant term must be 1 or -1, got {constant}"
        )
    den_rest = [(e, c) for e, c in denominator.items() if e != zero and c]
    growth = 1 + sum(abs(c) for _, c in den_rest)
    width = (growth - 1).bit_length() * sum(truncation) // 2
    size = math.prod(t + 1 for t in truncation) * (400 + 4 * width // 30)
    if size > MAX_SERIES_BYTES:
        raise ValueError(
            f"series expansion exceeds the budget of {MAX_SERIES_BYTES} bytes"
        )
    # The known coefficients live in one flat row-major list over the box,
    # padded on each axis's low side by the farthest a denominator term
    # reaches below it (exponents are never negative); padded cells stay 0,
    # so each term is one fixed offset and no read wraps.  A term reaching
    # past the whole box on some axis never meets a cell.
    terms = [(f, c) for f, c in den_rest if all(a <= t for a, t in zip(f, truncation))]
    lows = [max([0] + [f[k] for f, _ in terms]) for k in range(len(truncation))]
    dims = [lo + t + 1 for lo, t in zip(lows, truncation)]
    strides = [math.prod(dims[k + 1 :]) for k in range(len(dims))]
    offsets = [(sum(a * s for a, s in zip(f, strides)), c) for f, c in terms]
    flat = [0] * math.prod(dims)
    axes = [
        range(lo * s, (lo + t + 1) * s, s) for lo, t, s in zip(lows, truncation, strides)
    ]
    indices = map(sum, itertools.product(*axes))
    out: dict = {}
    for e, idx in zip(_graded_box(truncation), indices):
        total = numerator.get(e, 0)
        for off, c in offsets:
            total -= c * flat[idx - off]
        if total:
            total *= constant
            flat[idx] = total
            out[e] = total
    return PowerSeries(variables, truncation, out)


def _normalize_poly(poly: dict, nvars: int) -> dict:
    out = {}
    for e, c in poly.items():
        if isinstance(e, int):
            if nvars != 1:
                raise ValueError("integer exponents only make sense univariately")
            e = (e,)
        e = tuple(int(x) for x in e)
        if len(e) != nvars:
            raise ValueError(f"exponent {e} has wrong arity for {nvars} variables")
        if any(x < 0 for x in e):
            raise ValueError(f"exponent {e} is negative")
        out[e] = out.get(e, 0) + c
    return out


def series_expand(numerator: dict, denominator: dict, truncation, variables=("x",)) -> PowerSeries:
    """Expand a rational function numerator/denominator to a truncated series.

    Polynomials are sparse exponent-to-coefficient dicts; univariate input
    may use bare integer exponents and a bare integer truncation.  Exponents
    must be nonnegative, and the denominator's constant term must be 1 or -1.

    >>> fib = series_expand({0: 1}, {0: 1, 1: -1, 2: -1}, 5)
    >>> [fib.coefficient((n,)) for n in range(6)]
    [1, 1, 2, 3, 5, 8]
    """
    variables = tuple(variables)
    if isinstance(truncation, int):
        truncation = (truncation,) * len(variables)
    truncation = tuple(truncation)
    if len(truncation) != len(variables):
        raise ValueError("one truncation bound per variable is required")
    return _divide(
        _normalize_poly(numerator, len(variables)),
        _normalize_poly(denominator, len(variables)),
        variables,
        truncation,
    )


def _poly_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for e, c in a.items():
        for f, d in b.items():
            g = tuple(x + y for x, y in zip(e, f))
            out[g] = out.get(g, 0) + c * d
    return {e: c for e, c in out.items() if c}


# Shared denominator 1 - x - x^2 - 3x^3 - x^4 of the p and h series.
_DEN = {0: 1, 1: -1, 2: -1, 3: -3, 4: -1}

_P_NUM = {
    1: {1: 1, 2: 1},
    2: {2: 1, 3: 1, 4: 3, 5: 1},
    3: {3: 2, 4: 2, 5: 3, 6: 1},
}

# The i=2 h numerator is pinned by the first four values h^2_{2..5} =
# 2, 3, 8, 18 together with the shared four-term recurrence.
_H_NUM = {
    1: {1: 1, 2: 2, 3: 1},
    2: {2: 2, 3: 1, 4: 3, 5: 1},
    3: {3: 3, 4: 3, 5: 4, 6: 1},
}

_VARS2 = ("x", "s")
_VARS3 = ("x", "s", "t")

# Bivariate numerators xs(x^4 s + 3x^3 s + x + 1) for p and
# xs(x^4 s + 2x^3 s - x^2 s + xs + x^2 + 2x + 1) for h, both over
# (1 - x - x^2 - 3x^3 - x^4)(1 - xs - (xs)^2); they package the i <= 2
# series as anchors and the diagonal recurrence for i >= 3.
_P_NUM_BIVAR = {(1, 1): 1, (2, 1): 1, (4, 2): 3, (5, 2): 1}
_H_NUM_BIVAR = {
    (1, 1): 1,
    (2, 1): 2,
    (3, 1): 1,
    (2, 2): 1,
    (3, 2): -1,
    (4, 2): 2,
    (5, 2): 1,
}
_DEN_BIVAR = _poly_mul(
    {(k, 0): c for k, c in _DEN.items()},
    {(0, 0): 1, (1, 1): -1, (2, 2): -1},
)


def series_p(i: int, max_degree: int) -> PowerSeries:
    """P^i(x) for i <= 3, expanded to the requested degree."""
    if i not in _P_NUM:
        raise ValueError(f"closed univariate p series exist for i in 1..3, got {i}")
    return series_expand(_P_NUM[i], _DEN, max_degree)


def series_h(i: int, max_degree: int) -> PowerSeries:
    """H^i(x) for i <= 3, expanded to the requested degree."""
    if i not in _H_NUM:
        raise ValueError(f"closed univariate h series exist for i in 1..3, got {i}")
    return series_expand(_H_NUM[i], _DEN, max_degree)


def series_p_bivariate(max_x: int, max_s: int) -> PowerSeries:
    """P(x, s) = sum over i of P^i(x) s^i."""
    return series_expand(_P_NUM_BIVAR, _DEN_BIVAR, (max_x, max_s), _VARS2)


def series_h_bivariate(max_x: int, max_s: int) -> PowerSeries:
    """H(x, s) = sum over i of H^i(x) s^i."""
    return series_expand(_H_NUM_BIVAR, _DEN_BIVAR, (max_x, max_s), _VARS2)


def _substitute_xt(poly2: dict) -> dict:
    """Send a polynomial in (u, s) to (x, s, t) via u -> xt."""
    return {(a, b, a): c for (a, b), c in poly2.items()}


def series_grand(max_r: int) -> PowerSeries:
    """The trivariate series whose x^r s^i t^j coefficient is |A_r(hr, -alpha_{i,j})|.

    The series is ((1 - x) t H(xt, s) + P(xt, s) - xst/(1 - xst - (xst)^2))
    divided by t (1 - x - x^2).  The bivariate denominator D(u, s) already
    holds the factor 1 - us - u^2 s^2, so the bracket is N / D(xt, s) with
    N = (t - xt) H_num(xt, s) + P_num(xt, s) - xst DEN(xt), and one division
    of N / t by D(xt, s)(1 - x - x^2) expands the whole series.  The
    t-division is an exact exponent shift, checked rather than assumed.
    """
    numerator: dict = {}
    for poly in (
        _poly_mul({(0, 0, 1): 1, (1, 0, 1): -1}, _substitute_xt(_H_NUM_BIVAR)),
        _substitute_xt(_P_NUM_BIVAR),
        {(k + 1, 1, k + 1): -c for k, c in _DEN.items()},
    ):
        for e, c in poly.items():
            numerator[e] = numerator.get(e, 0) + c
    shifted: dict = {}
    for e, c in numerator.items():
        if not c:
            continue
        if e[2] == 0:
            raise ArithmeticError(
                f"combined numerator has a t-free term at {e}; cannot divide by t"
            )
        shifted[(e[0], e[1], e[2] - 1)] = c
    return _divide(
        shifted,
        _poly_mul(_substitute_xt(_DEN_BIVAR), {(0, 0, 0): 1, (1, 0, 0): -1, (2, 0, 0): -1}),
        _VARS3,
        (max_r, max_r, max_r),
    )


def verify_generating_functions(max_r: int = 9) -> Report:
    """Compare every series coefficient in range against definition values."""
    check_rank_budget(max_r)
    report = Report(title=f"generating functions up to rank {max_r}")
    for i in (1, 2, 3):
        sp = series_p(i, max_r)
        sh = series_h(i, max_r)
        for r in range(0, max_r + 1):
            expected_p = p_value(r, i) if i <= r else 0
            expected_h = h_value(r, i) if i <= r else 0
            report.check(
                sp.coefficient((r,)) == expected_p,
                f"[x^{r}] of the univariate p series, i={i}",
            )
            report.check(
                sh.coefficient((r,)) == expected_h,
                f"[x^{r}] of the univariate h series, i={i}",
            )
    bp = series_p_bivariate(max_r, max_r)
    bh = series_h_bivariate(max_r, max_r)
    for r in range(1, max_r + 1):
        for i in range(1, r + 1):
            report.check(
                bp.coefficient((r, i)) == p_value(r, i),
                f"[x^{r} s^{i}] of the bivariate p series",
            )
            report.check(
                bh.coefficient((r, i)) == h_value(r, i),
                f"[x^{r} s^{i}] of the bivariate h series",
            )
    grand = series_grand(max_r)
    for r in range(1, max_r + 1):
        for i in range(1, r + 1):
            for j in range(i, r + 1):
                report.check(
                    grand.coefficient((r, i, j)) == alternation_count(r, i, j),
                    f"[x^{r} s^{i} t^{j}] of the trivariate series",
                )
    return report
