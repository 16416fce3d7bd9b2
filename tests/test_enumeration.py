"""Count formulas, recurrences, and generating series against definitions."""

import pytest

from weylalt import enumeration
from weylalt.altset import compute
from weylalt.bas import compute_bas
from weylalt.enumeration import (
    PowerSeries,
    _zero_span,
    alternation_count,
    count_neg_height2,
    count_neg_simple,
    fibonacci,
    h_value,
    highest_root_alternation_set,
    p_value,
    series_expand,
    series_grand,
    series_h,
    series_h_bivariate,
    series_p,
    series_p_bivariate,
    verify_generating_functions,
    verify_recurrences,
)
from weylalt.rootsys import RootSystemSpec, build_root_system, neg_root


def test_fibonacci_values():
    assert [fibonacci(n) for n in range(-1, 9)] == [0, 0, 1, 1, 2, 3, 5, 8, 13, 21]
    with pytest.raises(ValueError):
        fibonacci(-2)


# Leading p and h blocks, three starting columns and four ranks each,
# frozen from the defining counts.
_P_BLOCK = {
    1: (1, 2, 3, 8),
    2: (1, 2, 6, 12),
    3: (2, 4, 9, 20),
}
_H_BLOCK = {
    1: (1, 3, 5, 11),
    2: (2, 3, 8, 18),
    3: (3, 6, 13, 29),
}


def test_leading_table_blocks():
    for i, block in _P_BLOCK.items():
        for offset, expected in enumerate(block):
            assert p_value(i + offset, i) == expected
    for i, block in _H_BLOCK.items():
        for offset, expected in enumerate(block):
            assert h_value(i + offset, i) == expected


def test_leading_column_sequence():
    # h^1_r for r = 1..10, catalogued externally as OEIS A196423 (a label
    # only; nothing is fetched).
    leading = (1, 3, 5, 11, 26, 55, 119, 263, 573, 1248)
    for r in range(1, 9):
        assert h_value(r, 1) == leading[r - 1]


def test_closed_forms_match_counts():
    for r in range(1, 9):
        for i in range(1, r + 1):
            assert count_neg_simple(r, i) == alternation_count(r, i, i)
        for i in range(1, r):
            assert count_neg_height2(r, i) == alternation_count(r, i, i + 1)


def test_span_counts_match_the_search():
    # Each cell searched on its own, against the one search per rank.
    for r in range(1, 10):
        rs = build_root_system(RootSystemSpec("A", r))
        for i in range(1, r + 1):
            for j in range(i, r + 1):
                aset = compute(rs, rs.highest_root, neg_root(rs, i, j))
                assert alternation_count(r, i, j) == len(aset), (r, i, j)


def test_zero_span_filter_is_each_cell():
    # Every cell, read off the rank's one set by zero span, equals its own
    # search: the same elements in order with the same witnesses, residuals
    # lowered by 1 outside [i, j], and the same basic members.
    for r in range(1, 9):
        rs = build_root_system(RootSystemSpec("A", r))
        whole = highest_root_alternation_set(r)
        rank_basics = compute_bas(rs, whole.lam, whole.mu, aset=whole).members
        spans = [_zero_span(d) for d in whole.residuals]
        for i in range(1, r + 1):
            for j in range(i, r + 1):
                kept = [
                    (sigma, d)
                    for sigma, d, (first, last) in zip(whole.elements, whole.residuals, spans)
                    if i <= first and last <= j
                ]
                cell = compute(rs, rs.highest_root, neg_root(rs, i, j))
                assert [s for s, _ in kept] == list(cell.elements), (r, i, j)
                assert [s.word for s, _ in kept] == [s.word for s in cell.elements]
                shifted = [
                    tuple(c if i <= k <= j else c - 1 for k, c in enumerate(d, 1))
                    for _, d in kept
                ]
                assert shifted == list(cell.residuals), (r, i, j)
                members = dict(kept)
                basics = tuple(s for s in rank_basics if s in members)
                assert basics == compute_bas(rs, cell.lam, cell.mu, aset=cell).members, (r, i, j)


def test_p_values_match_a_search_per_cell():
    # p_value filters the rank's one cached set; here each cell is searched.
    for r in range(1, 10):
        rs = build_root_system(RootSystemSpec("A", r))
        for i in range(1, r + 1):
            aset = compute(rs, rs.highest_root, neg_root(rs, i, r))
            want = sum(1 for sigma in aset if r not in sigma.word)
            assert p_value(r, i) == want, (r, i)


def test_closed_form_bounds():
    with pytest.raises(ValueError):
        count_neg_simple(3, 0)
    with pytest.raises(ValueError):
        count_neg_simple(3, 4)
    with pytest.raises(ValueError):
        count_neg_height2(3, 3)
    for bad in ((3, 2, 1), (3, 0, 2), (3, 1, 4), (0, 1, 1)):
        with pytest.raises(ValueError):
            alternation_count(*bad)
    with pytest.raises(ValueError):
        p_value(3, 4)


def test_recurrence_report():
    report = verify_recurrences(8)
    assert report.ok and report.checked > 0


def test_recurrences_search_once_per_rank(monkeypatch):
    # h and p values, and every cell, read one table per rank.
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return compute(*args, **kwargs)

    highest_root_alternation_set.cache_clear()
    enumeration._zero_spans.cache_clear()
    monkeypatch.setattr(enumeration, "compute", counted)
    assert verify_recurrences(6).ok
    assert sorted(rs.rank for rs, _, _ in calls) == [1, 2, 3, 4, 5, 6]


def test_series_expand_engine():
    fib = series_expand({1: 1}, {0: 1, 1: -1, 2: -1}, (10,))
    assert [int(fib.coefficient((n,))) for n in range(10)] == [
        0,
        1,
        1,
        2,
        3,
        5,
        8,
        13,
        21,
        34,
    ]
    with pytest.raises(ValueError, match="must be 1 or -1"):
        series_expand({0: 1}, {0: 2, 1: -1}, (5,))
    with pytest.raises(ValueError, match="zero constant term"):
        series_expand({0: 1}, {1: 1}, (4,))
    # A negative exponent is refused, not dropped from the expansion.
    with pytest.raises(ValueError, match="negative"):
        series_expand({0: 1}, {0: 1, -1: -1}, 4)
    with pytest.raises(ValueError, match="one truncation bound per variable"):
        series_expand({0: 1}, {0: 1}, (3, 2))


def test_power_series_box_discipline():
    s = PowerSeries(("x", "s"), (3, 2), {(0, 0): 1, (2, 1): 2})
    assert s.coefficient((2, 1)) == 2
    assert s.coefficient((1, 1)) == 0
    # The truncation bound itself is inside the box.
    assert PowerSeries(("x", "s"), (3, 2), {(3, 2): 5}).coefficient((3, 2)) == 5
    with pytest.raises(AttributeError):
        s.coeffs = {}
    with pytest.raises(ValueError, match="exponents"):
        s.coefficient((1,))


def test_univariate_series_match_tables():
    for i in (1, 2, 3):
        p = series_p(i, 10)
        h = series_h(i, 10)
        for r in range(1, 10):
            expected_p = p_value(r, i) if i <= r else 0
            expected_h = h_value(r, i) if i <= r else 0
            assert p.coefficient((r,)) == expected_p
            assert h.coefficient((r,)) == expected_h
    with pytest.raises(ValueError):
        series_p(4, 8)
    with pytest.raises(ValueError):
        series_h(0, 8)


def test_bivariate_series_match_tables():
    p = series_p_bivariate(9, 9)
    h = series_h_bivariate(9, 9)
    for r in range(1, 9):
        for i in range(1, r + 1):
            assert p.coefficient((r, i)) == p_value(r, i)
            assert h.coefficient((r, i)) == h_value(r, i)
    # Coordinates outside the valid wedge carry nothing.
    assert p.coefficient((2, 5)) == 0
    assert h.coefficient((0, 0)) == 0


def test_grand_series_spot_values():
    grand = series_grand(7)
    assert grand.coefficient((2, 1, 2)) == 3
    assert grand.coefficient((3, 1, 1)) == 3
    assert grand.coefficient((4, 1, 4)) == 11
    assert grand.coefficient((7, 2, 4)) == 32
    for r in range(1, 8):
        for i in range(1, r + 1):
            for j in range(i, r + 1):
                assert grand.coefficient((r, i, j)) == alternation_count(r, i, j)


def test_grand_series_refuses_a_t_free_numerator(monkeypatch):
    # A (0, 1) term of P_num survives u -> xt with no t, so N / t is no
    # polynomial.
    monkeypatch.setattr(
        enumeration, "_P_NUM_BIVAR", {**enumeration._P_NUM_BIVAR, (0, 1): 1}
    )
    with pytest.raises(ArithmeticError, match="t-free term"):
        series_grand(3)


def test_sequence_tables():
    assert p_value(4, 1) == 8
    assert h_value(6, 3) == 29
    assert alternation_count(5, 2, 4) == 12


def test_series_over_memory_budget_raises(monkeypatch):
    # About 400 bytes a cell plus the coefficient width: series_h(1, 30)
    # estimates 12.6 kB, series_h(1, 40) 16.7 kB and series_grand(5) 87 kB.
    monkeypatch.setattr(enumeration, "MAX_SERIES_BYTES", 15_000)
    assert series_h(1, 30).coefficient((10,)) == 1248
    with pytest.raises(ValueError, match="budget"):
        series_h(1, 40)
    with pytest.raises(ValueError, match="budget"):
        series_grand(5)


def test_generating_function_report():
    report = verify_generating_functions(7)
    assert report.ok and report.checked > 0
