"""Basic allowable subwords: the irreducible members of an alternation set.

Nonidentity members whose influence is connected in the Dynkin diagram
cannot split as products of independent pieces; every other member factors
uniquely as a product of pairwise independent basic elements.  That makes
the basic allowable subwords a free generating tableau for the whole set:
`independent_subsets` composed with `reconstruct` is a bijection onto it,
and `verify_bijection` certifies that on any computed instance.

The extraction works on influence bitmasks (bit i-1 for s_i, see `weyl`).
Dependence is kept once, as one int mask per member over member indices,
built by slicing the members on Dynkin nodes rather than by testing pairs;
the edge list is derived from the masks on first read, and independent
subsets are enumerated by member index against an int mask of the members
still allowed.

>>> rs = build_root_system(RootSystemSpec("A", 4))
>>> bas = compute_bas(rs, rs.highest_root, neg_root(rs, 1, 4))
>>> len(bas.members), len(independent_subsets(bas))
(7, 11)
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from functools import cached_property, lru_cache

from .altset import AlternationSet, _weights, compute
from .reporting import Report
from .rootsys import (
    RootSystem,
    RootSystemSpec,
    Weight,
    as_weight,
    build_root_system,
    neg_root,
)
from .weyl import (
    Reflection,
    WeylElement,
    _connected_mask,
    _influence_mask,
    _simple_matrices,
    from_word,
    identity,
    independent,
    multiply,
    word_text,
)

__all__ = [
    "BasSet",
    "EmptyAlternationSetError",
    "TrichotomyError",
    "ProductCase",
    "ProductClassification",
    "compute_bas",
    "independent_subsets",
    "reconstruct",
    "verify_bijection",
    "classify_product",
    "to_json",
    "to_dot",
]


class EmptyAlternationSetError(ValueError):
    """The alternation set is empty, so no basic subwords exist."""


class TrichotomyError(RuntimeError):
    """A product of dependent basic elements fit none of the three cases."""


@dataclass(frozen=True, eq=False)
class BasSet:
    """Basic members plus their dependence, as one int mask per member.

    Bit b of blocked[a] is set when members a and b are not independent, so
    the masks are symmetric with no bit on the diagonal, and independent
    subsets are exactly the subsets no member's mask blocks.  The dependence
    edges are derived from the masks on first read.  Sets compare and hash
    by identity, so the cache keyed on one never hashes its members.
    """

    lam: Weight
    mu: Weight
    members: tuple[WeylElement, ...]
    blocked: tuple[int, ...]

    @cached_property
    def dependence_edges(self) -> tuple[tuple[WeylElement, WeylElement], ...]:
        """The dependent pairs (a, b), a before b, in member order."""
        members = self.members
        return tuple(
            (members[a], members[b])
            for a, row in enumerate(self.blocked)
            for b in range(a + 1, len(members))
            if row >> b & 1
        )

    @cached_property
    def _members(self) -> frozenset:
        return frozenset(self.members)

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self):
        return iter(self.members)


def _blocked_masks(reflections: tuple[Reflection, ...], masks) -> tuple[int, ...]:
    """Per member, the int mask of the other members it is not independent of.

    Member b blocks member k when b's influence meets k's grown influence.
    Slicing on Dynkin nodes gives that without a test per pair: on_node[n]
    holds the members whose influence contains n, near[n] ORs on_node over
    n's closed neighbourhood, and a member's mask ORs near over its own
    nodes.  That is m * r big-int ORs for m members at rank r.
    """
    on_node = [0] * len(reflections)
    for k, mask in enumerate(masks):
        for n in range(mask.bit_length()):
            if mask >> n & 1:
                on_node[n] |= 1 << k
    near = []
    for reflection in reflections:
        row = 0
        for j, _ in reflection:
            row |= on_node[j]
        near.append(row)
    blocked = []
    for k, mask in enumerate(masks):
        row = 0
        for n in range(mask.bit_length()):
            if mask >> n & 1:
                row |= near[n]
        blocked.append(row & ~(1 << k))
    return tuple(blocked)


def compute_bas(
    rs: RootSystem, lam, mu, aset: AlternationSet | None = None
) -> BasSet:
    """Extract the basic allowable subwords of the alternation set.

    The filter keeps nonidentity members with connected influence; the
    factorization bijection certified by `verify_bijection` is what makes
    this filter the right notion of irreducibility.  Each member's influence
    mask is computed once, connectivity is tested once per distinct mask,
    and `_blocked_masks` turns the masks into the dependence relation.
    """
    lam, mu = _weights(rs, lam, mu)
    if aset is None:
        aset = compute(rs, lam, mu)
    if not aset.elements:
        raise EmptyAlternationSetError(
            "the alternation set is empty; basic subwords are undefined"
        )
    reflections = _simple_matrices(rs)
    members, masks, connected = [], [], {}
    for sigma in aset.elements:
        mask = _influence_mask(sigma)
        if mask not in connected:
            connected[mask] = _connected_mask(reflections, mask)
        if sigma.length and connected[mask]:
            members.append(sigma)
            masks.append(mask)
    return BasSet(
        lam=lam,
        mu=mu,
        members=tuple(members),
        blocked=_blocked_masks(reflections, masks),
    )


def independent_subsets(bas: BasSet) -> tuple[tuple[WeylElement, ...], ...]:
    """All pairwise independent subsets of the members, the empty one included.

    Members are indexed in order and read their blocked masks off the set.
    A subset extends only by members after its last one that no chosen
    member blocks, kept as one `allowed` mask, so the output order is
    deterministic for a given member order and the recursion is no deeper
    than the largest independent subset.
    """
    members = bas.members
    blocked = bas.blocked
    out = []

    def grow(chosen: tuple[WeylElement, ...], allowed: int) -> None:
        out.append(chosen)
        while allowed:
            low = allowed & -allowed
            allowed ^= low
            k = low.bit_length() - 1
            grow(chosen + (members[k],), allowed & ~blocked[k])

    grow((), (1 << len(members)) - 1)
    return tuple(out)


def reconstruct(rs: RootSystem, subset) -> WeylElement:
    """Product of a pairwise independent subset; the empty set gives the identity.

    Independent elements commute, so the product does not depend on the
    ordering; that is checked here rather than assumed.

    >>> rs = build_root_system(RootSystemSpec("A", 4))
    >>> pair = (from_word(rs, (1,)), from_word(rs, (3,)))
    >>> word_text(reconstruct(rs, pair).word)
    's1 s3'
    """
    chosen = tuple(subset)
    if not chosen:
        return identity(rs)
    for a in range(len(chosen)):
        for b in range(a + 1, len(chosen)):
            if not independent(rs, chosen[a], chosen[b]):
                raise ValueError(
                    f"{word_text(chosen[a].word)} and {word_text(chosen[b].word)} "
                    "are not independent"
                )
            if multiply(rs, chosen[a], chosen[b]) != multiply(rs, chosen[b], chosen[a]):
                raise RuntimeError(
                    "independent elements failed to commute: "
                    f"{word_text(chosen[a].word)}, {word_text(chosen[b].word)}"
                )
    return multiply(rs, *chosen)


def verify_bijection(rs: RootSystem, lam, mu) -> Report:
    """Certify that reconstruct maps independent subsets bijectively onto the set."""
    lam = as_weight(lam)
    mu = as_weight(mu)
    report = Report(title=f"factorization bijection {rs.spec.family}_{rs.spec.rank}")
    aset = compute(rs, lam, mu)
    if not aset.elements:
        report.note("empty alternation set; no basic subwords to verify")
        return report
    bas = compute_bas(rs, lam, mu, aset=aset)
    subsets = independent_subsets(bas)
    products = [reconstruct(rs, s) for s in subsets]
    image = set(products)
    report.check(
        len(image) == len(products),
        "reconstruct is not injective on independent subsets",
    )
    report.check(
        image == set(aset.elements),
        lambda: (
            f"image has {len(image)} elements, "
            f"alternation set has {len(aset)}"
        ),
    )
    report.check(
        len(subsets) == len(aset),
        lambda: f"{len(subsets)} subsets against {len(aset)} members",
    )
    return report


class ProductCase(Enum):
    IN_S = "in-basic-set"
    SHORTER_INDEPENDENT_PRODUCT = "shorter-independent-product"
    NOT_IN_A = "outside-alternation-set"


@dataclass(frozen=True)
class ProductClassification:
    case: ProductCase
    product: WeylElement
    witness: tuple[WeylElement, ...] | None = None


@lru_cache(maxsize=4)
def _reconstruction_index(rs: RootSystem, bas: BasSet):
    """Map each product to the least-total-length independent subset.

    Callers classify all products of one basic set before moving to the
    next, so a few entries suffice and old sets are not kept alive.
    """
    subsets = sorted(
        independent_subsets(bas),
        key=lambda s: (sum(e.length for e in s), tuple(e.word for e in s)),
    )
    table = {}
    for subset in subsets:
        element = reconstruct(rs, subset)
        if element not in table:
            table[element] = (subset, sum(e.length for e in subset))
    return table


def classify_product(
    rs: RootSystem,
    sigma: WeylElement,
    tau: WeylElement,
    bas: BasSet,
    aset: AlternationSet,
) -> ProductClassification:
    """Sort the product of two dependent basic elements into its trichotomy case.

    Either sigma tau is itself basic, or it reconstructs from an independent
    subset of strictly smaller total length (the identity counts, via the
    empty subset), or it falls outside the alternation set.  Anything else
    raises TrichotomyError, which would falsify the trichotomy on this
    instance.
    """
    members = bas._members
    if sigma not in members or tau not in members:
        raise ValueError("classify_product expects two members of the basic set")
    if independent(rs, sigma, tau):
        raise ValueError(
            f"{word_text(sigma.word)} and {word_text(tau.word)} are independent; "
            "their product needs no classification"
        )
    product = multiply(rs, sigma, tau)
    if product in members:
        return ProductClassification(case=ProductCase.IN_S, product=product)
    entry = _reconstruction_index(rs, bas).get(product)
    if entry is not None and entry[1] < sigma.length + tau.length:
        return ProductClassification(
            case=ProductCase.SHORTER_INDEPENDENT_PRODUCT,
            product=product,
            witness=entry[0],
        )
    if product not in aset:
        return ProductClassification(case=ProductCase.NOT_IN_A, product=product)
    raise TrichotomyError(
        f"{word_text(sigma.word)} * {word_text(tau.word)} = "
        f"{word_text(product.word)} fits no trichotomy case"
    )


def to_json(rs: RootSystem, bas: BasSet) -> str:
    payload = {
        "family": rs.spec.family,
        "rank": rs.spec.rank,
        "lambda": [str(c) for c in bas.lam],
        "mu": [str(c) for c in bas.mu],
        "members": [word_text(s.word) for s in bas.members],
        "dependence_edges": [
            [word_text(a.word), word_text(b.word)]
            for a, b in bas.dependence_edges
        ],
    }
    return json.dumps(payload, indent=2) + "\n"


def to_dot(bas: BasSet) -> str:
    """Dependence graph; an edge marks a pair that is not independent."""
    lines = ["graph basic_subword_dependence {"]
    for sigma in bas.members:
        lines.append(f'  "{word_text(sigma.word)}";')
    for a, b in bas.dependence_edges:
        lines.append(f'  "{word_text(a.word)}" -- "{word_text(b.word)}";')
    lines.append("}")
    return "\n".join(lines) + "\n"
