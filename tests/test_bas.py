"""Basic allowable subwords, their dependence graph, and the factorization."""

import json

import pytest

from weylalt.altset import compute, compute_naive, sample_weight_pairs
from weylalt.bas import (
    EmptyAlternationSetError,
    ProductCase,
    classify_product,
    compute_bas,
    independent_subsets,
    reconstruct,
    to_dot,
    to_json,
    verify_bijection,
)
from weylalt.rootsys import RootSystemSpec, build_root_system, zero_weight
from weylalt.weyl import from_word, word_text


def _rs(family, rank):
    return build_root_system(RootSystemSpec(family, rank))


def _a4_setup():
    rs = _rs("A", 4)
    mu = tuple(-c for c in rs.highest_root)
    aset = compute(rs, rs.highest_root, mu)
    bas = compute_bas(rs, rs.highest_root, mu, aset=aset)
    return rs, aset, bas


def test_rank_four_members_and_edges():
    rs, _, bas = _a4_setup()
    assert {m.word for m in bas.members} == {
        (1,),
        (2,),
        (3,),
        (4,),
        (2, 3),
        (3, 2),
        (2, 3, 2),
    }
    assert len(bas.dependence_edges) == 18
    # Every edge really is a dependent pair, and no pair repeats.
    seen = set()
    for a, b in bas.dependence_edges:
        key = frozenset((a.word, b.word))
        assert key not in seen
        seen.add(key)


def test_dependence_graph_clique_and_fringe():
    rs, _, bas = _a4_setup()
    adjacency = {m.word: set() for m in bas.members}
    for a, b in bas.dependence_edges:
        adjacency[a.word].add(b.word)
        adjacency[b.word].add(a.word)
    clique = {(2,), (3,), (2, 3), (3, 2), (2, 3, 2)}
    for w in clique:
        assert clique - {w} <= adjacency[w]
    assert adjacency[(1,)] == {(2,), (2, 3), (3, 2), (2, 3, 2)}
    assert adjacency[(4,)] == {(3,), (2, 3), (3, 2), (2, 3, 2)}


def test_independent_subsets_enumeration():
    rs, aset, bas = _a4_setup()
    subsets = {tuple(m.word for m in s) for s in independent_subsets(bas)}
    assert subsets == {
        (),
        ((1,),),
        ((2,),),
        ((3,),),
        ((4,),),
        ((2, 3),),
        ((3, 2),),
        ((2, 3, 2),),
        ((1,), (3,)),
        ((1,), (4,)),
        ((2,), (4,)),
    }
    assert len(subsets) == len(aset)


def test_reconstruct_products():
    rs, _, _ = _a4_setup()
    s1 = from_word(rs, (1,))
    s3 = from_word(rs, (3,))
    s2 = from_word(rs, (2,))
    assert reconstruct(rs, ()).length == 0
    assert reconstruct(rs, (s1, s3)).word == (1, 3)
    assert reconstruct(rs, (s3, s1)) == reconstruct(rs, (s1, s3))
    with pytest.raises(ValueError, match="not independent"):
        reconstruct(rs, (s1, s2))


def test_bijection_report_sweep():
    rs, _, _ = _a4_setup()
    mu = tuple(-c for c in rs.highest_root)
    report = verify_bijection(rs, rs.highest_root, mu)
    assert report.ok
    for family, rank in (("A", 4), ("B", 3), ("C", 3), ("D", 4)):
        system = _rs(family, rank)
        for lam, target in sample_weight_pairs(system, 4, seed=7):
            assert verify_bijection(system, lam, target).ok


def test_monotonicity_report_and_validation():
    # nu lies below mu, so A(lambda, mu) sits inside A(lambda, nu), and
    # BAS(lambda, mu) is BAS(lambda, nu) restricted to A(lambda, mu).
    rs = _rs("A", 4)
    mu = tuple(-c for c in rs.highest_root)
    nu = tuple(m - a for m, a in zip(mu, (0, 1, 0, 0)))
    aset_mu = compute(rs, rs.highest_root, mu)
    aset_nu = compute(rs, rs.highest_root, nu)
    assert set(aset_mu.elements) < set(aset_nu.elements)
    bas_mu = compute_bas(rs, rs.highest_root, mu, aset=aset_mu)
    bas_nu = compute_bas(rs, rs.highest_root, nu, aset=aset_nu)
    restricted = {s for s in bas_nu.members if s in aset_mu}
    assert set(bas_mu.members) == restricted
    assert len(bas_nu.members) > len(bas_mu.members)


def test_empty_set_raises():
    rs = _rs("A", 4)
    with pytest.raises(EmptyAlternationSetError):
        compute_bas(rs, zero_weight(4), (10, 10, 10, 10))


def test_classify_product_cases():
    rs, aset, bas = _a4_setup()
    by_word = {m.word: m for m in bas.members}
    outside = classify_product(rs, by_word[(1,)], by_word[(2,)], bas, aset)
    assert outside.case is ProductCase.NOT_IN_A
    inside = classify_product(rs, by_word[(2,)], by_word[(3,)], bas, aset)
    assert inside.case is ProductCase.IN_S
    assert inside.product.word == (2, 3)
    shorter = classify_product(rs, by_word[(2, 3)], by_word[(3, 2)], bas, aset)
    assert shorter.case is ProductCase.SHORTER_INDEPENDENT_PRODUCT
    assert shorter.product.length == 0
    assert shorter.witness == ()
    with pytest.raises(ValueError, match="independent"):
        classify_product(rs, by_word[(1,)], by_word[(3,)], bas, aset)
    with pytest.raises(ValueError, match="expects two members"):
        classify_product(rs, from_word(rs, (1, 2)), by_word[(2,)], bas, aset)


@pytest.mark.parametrize("family,rank", [("A", 4), ("B", 4), ("C", 4), ("D", 5)])
def test_json_is_the_same_from_the_oracle_set(family, rank):
    rs = _rs(family, rank)
    for mu in (tuple(-c for c in rs.highest_root), zero_weight(rank)):
        searched = compute_bas(rs, rs.highest_root, mu)
        filtered = compute_bas(
            rs, rs.highest_root, mu, aset=compute_naive(rs, rs.highest_root, mu)
        )
        assert searched.members
        assert to_json(rs, searched) == to_json(rs, filtered)


def test_json_lists_members_and_dependence_edges():
    rs, _, bas = _a4_setup()
    data = json.loads(to_json(rs, bas))
    assert list(data) == ["family", "rank", "lambda", "mu", "members", "dependence_edges"]
    assert (data["family"], data["rank"]) == ("A", 4)
    assert data["lambda"] == ["1", "1", "1", "1"]
    assert data["mu"] == ["-1", "-1", "-1", "-1"]
    assert data["members"] == ["s1", "s2", "s3", "s4", "s2 s3", "s3 s2", "s2 s3 s2"]
    assert data["dependence_edges"][:2] == [["s1", "s2"], ["s1", "s2 s3"]]
    assert ["s1", "s3"] not in data["dependence_edges"]


def test_dot_output_shape():
    rs, _, bas = _a4_setup()
    dot = to_dot(bas)
    assert dot.startswith("graph basic_subword_dependence {")
    assert '"s2" -- "s3";' in dot
    assert dot.count("--") == 18
    assert word_text(bas.members[0].word) == "s1"
