"""Brute-force oracles for influences, basic subwords and independent subsets.

The package works on influence bitmasks.  These oracles share none of that
code: influences are `frozenset(sigma.word)`, Dynkin adjacency is read off
`rs.cartan`, connectivity is a search over node sets, and independent
subsets come from an include-or-skip recursion that blocks on sets of
elements.
"""

import dataclasses
import hashlib

import pytest

from weylalt.altset import compute, sample_weight_pairs
from weylalt.bas import BasSet, compute_bas, independent_subsets, to_json
from weylalt.rootsys import RootSystemSpec, build_root_system
from weylalt.weyl import (
    _connected_mask,
    _extend_mask,
    _influence_mask,
    _simple_matrices,
    enumerate_group,
    independent,
    influence,
)


def _rs(family, rank):
    return build_root_system(RootSystemSpec(family, rank))


def _neighbours(rs, i):
    return {j for j in range(1, rs.rank + 1) if j != i and rs.cartan[i - 1][j - 1]}


def _oracle_extended(rs, sigma):
    nodes = frozenset(sigma.word)
    return nodes.union(*(_neighbours(rs, i) for i in nodes))


def _oracle_connected(rs, sigma):
    nodes = frozenset(sigma.word)
    if not nodes:
        return True
    reached = {min(nodes)}
    frontier = list(reached)
    while frontier:
        i = frontier.pop()
        for j in _neighbours(rs, i) & nodes - reached:
            reached.add(j)
            frontier.append(j)
    return reached == nodes


def _nodes(mask):
    return frozenset(i + 1 for i in range(mask.bit_length()) if mask >> i & 1)


def _oracle_independent(rs, sigma, tau):
    return not frozenset(sigma.word) & _oracle_extended(rs, tau)


def _oracle_bas(rs, aset):
    members = [
        s for s in aset.elements if s.length and _oracle_connected(rs, s)
    ]
    edges = [
        (members[a], members[b])
        for a in range(len(members))
        for b in range(a + 1, len(members))
        if not _oracle_independent(rs, members[a], members[b])
    ]
    return members, edges


def _oracle_subsets(members, edges):
    blocked = {m: set() for m in members}
    for a, b in edges:
        blocked[a].add(b)
        blocked[b].add(a)
    out = []

    def grow(start, chosen):
        out.append(chosen)
        for k in range(start, len(members)):
            candidate = members[k]
            if all(candidate not in blocked[c] for c in chosen):
                grow(k + 1, chosen + (candidate,))

    grow(0, ())
    return out


@pytest.mark.parametrize("family,rank", [("A", 3), ("B", 3), ("C", 3), ("D", 4)])
def test_influence_predicates_on_every_element(family, rank):
    rs = _rs(family, rank)
    reflections = _simple_matrices(rs)
    group = enumerate_group(rs)
    for sigma in group:
        mask = _influence_mask(sigma)
        assert influence(sigma) == frozenset(sigma.word) == _nodes(mask)
        assert _nodes(_extend_mask(reflections, mask)) == _oracle_extended(rs, sigma)
        assert _connected_mask(reflections, mask) == _oracle_connected(rs, sigma)
    for sigma in group:
        for tau in group:
            want = _oracle_independent(rs, sigma, tau)
            assert independent(rs, sigma, tau) == want, (sigma, tau)


def _weight_pairs(rs):
    top = rs.highest_root
    return [(top, tuple(-c for c in top))] + sample_weight_pairs(rs, 3, seed=0)


# B_6 and D_6 have nearly complete dependence graphs at (highest root,
# -highest root).
@pytest.mark.parametrize(
    "family,rank", [("A", 5), ("B", 4), ("C", 4), ("D", 5), ("B", 6), ("D", 6)]
)
def test_compute_bas_and_subsets_against_oracles(family, rank):
    rs = _rs(family, rank)
    for lam, mu in _weight_pairs(rs):
        aset = compute(rs, lam, mu)
        bas = compute_bas(rs, lam, mu, aset=aset)
        members, edges = _oracle_bas(rs, aset)
        assert list(bas.members) == members
        assert list(bas.dependence_edges) == edges
        subsets = independent_subsets(bas)
        assert list(subsets) == _oracle_subsets(members, edges)
        assert len(subsets) == len(aset)


@pytest.mark.parametrize("family,rank", [("A", 7), ("B", 5), ("C", 5), ("D", 6)])
def test_blocked_masks_are_the_pairwise_relation(family, rank):
    rs = _rs(family, rank)
    for lam, mu in _weight_pairs(rs):
        bas = compute_bas(rs, lam, mu)
        members = bas.members
        assert len(bas.blocked) == len(members)
        for a, sigma in enumerate(members):
            for b, tau in enumerate(members):
                want = a != b and not independent(rs, sigma, tau)
                assert bool(bas.blocked[a] >> b & 1) == want, (sigma, tau)
            assert bas.blocked[a] >> len(members) == 0


def test_dependence_edges_are_derived_on_first_read_and_kept():
    rs = _rs("A", 4)
    bas = compute_bas(rs, rs.highest_root, tuple(-c for c in rs.highest_root))
    assert "dependence_edges" not in vars(bas)
    assert "dependence_edges" not in {f.name for f in dataclasses.fields(BasSet)}
    assert bas.dependence_edges is bas.dependence_edges
    assert bas.dependence_edges


# sha256 of to_json at (highest root, -highest root).
BAS_JSON_SHA256 = {
    ("A", 6): "2102a868ef255e32972352b68d93bb7adc7d6bfc5734c616f286d64b7206f8ed",
    ("B", 4): "0bb9d50f575975a46fa7acfc867300a156516bf42497c586a29511ed42217ea6",
    ("D", 5): "8ce870acb16cbe4a2d3b0900de5997f2955486f8865cb2bf17c17f2270ff43f7",
}


@pytest.mark.parametrize("family,rank", sorted(BAS_JSON_SHA256))
def test_bas_json_is_pinned(family, rank):
    rs = _rs(family, rank)
    top = rs.highest_root
    text = to_json(rs, compute_bas(rs, top, tuple(-c for c in top)))
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert digest == BAS_JSON_SHA256[(family, rank)]
