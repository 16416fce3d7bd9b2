"""Weyl alternation sets: where the partition function stays positive.

For weights lambda and mu, the alternation set collects the group elements
sigma with P(sigma(lambda + rho) - mu - rho) > 0, the terms that actually
contribute to the alternating multiplicity formula.  For dominant integral
lambda the set is a lower ideal in both weak Bruhat orders, so it can be
grown from the identity by following cover edges and never enumerating the
full group; `compute` does exactly that and records the cover edges it
crossed, while `compute_naive` filters a full enumeration as an oracle.

>>> rs = build_root_system(RootSystemSpec("A", 3))
>>> aset = compute(rs, rs.highest_root, zero_weight(3))
>>> [word_text(s.word) for s in aset.elements]
['e', 's2']
"""

from __future__ import annotations

import json
import random
import warnings
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .kostant import QPolynomial, has_partition, kostant_counts
from .reporting import Report
from .rootsys import (
    RootSystem,
    RootSystemSpec,
    Weight,
    as_weight,
    build_root_system,
    fundamental_weights,
    is_dominant,
    is_integral,
    neg_root,
    wadd,
    wsub,
    zero_weight,
)
from .weyl import (
    WeylElement,
    _mat_act,
    _mat_mul,
    _simple_matrices,
    _word_matrix,
    act,
    enumerate_group,
    from_word,
    identity,
    parse_word,
    word_text,
)

__all__ = [
    "AlternationSet",
    "contains",
    "compute",
    "compute_naive",
    "multiplicity",
    "q_multiplicity",
    "verify_order_ideal",
    "verify_conjecture",
    "verify_subword_closure",
    "sample_weight_pairs",
    "to_json",
    "from_json",
    "to_dot",
]


@dataclass(frozen=True)
class AlternationSet:
    """The computed set, its weights, and the right-cover edges inside it.

    Elements are in breadth-first order (by length, then lexicographically
    by witness word); edges run upward from each element to the covers that
    stayed inside the set.
    """

    lam: Weight
    mu: Weight
    elements: tuple[WeylElement, ...]
    edges: tuple[tuple[WeylElement, WeylElement], ...]

    @cached_property
    def _images(self) -> frozenset:
        return frozenset(s.images for s in self.elements)

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __contains__(self, sigma: WeylElement) -> bool:
        return sigma.images in self._images


def contains(rs: RootSystem, lam, mu, sigma: WeylElement) -> bool:
    """Membership test: P(sigma(lambda + rho) - mu - rho) > 0.

    Positivity of the partition count is just integrality plus
    nonnegativity of the argument (see `kostant.has_partition`), so this
    never runs the counting recursion.
    """
    shifted = act(rs, sigma, wadd(as_weight(lam), rs.rho))
    return has_partition(rs, wsub(wsub(shifted, as_weight(mu)), rs.rho))


def _acceptance_test(rs: RootSystem, lam: Weight, mu: Weight):
    """Matrix-level membership predicate, shared by the two computations."""
    lam_rho = wadd(lam, rs.rho)
    mu_rho = wadd(mu, rs.rho)

    def accept(images) -> bool:
        moved = _mat_act(images, lam_rho)
        for a, b in zip(moved, mu_rho):
            diff = a - b
            if diff < 0:
                return False
            if isinstance(diff, Fraction) and diff.denominator != 1:
                return False
        return True

    return accept


def compute(rs: RootSystem, lam, mu) -> AlternationSet:
    """Grow the alternation set upward from the identity.

    Needs lambda dominant and integral, which is what makes the set an
    ideal in the weak orders; other lambda fall back to the exhaustive
    filter (with a warning) since the pruned search could then miss
    elements.
    """
    lam = as_weight(lam)
    mu = as_weight(mu)
    if not (is_dominant(rs, lam) and is_integral(rs, lam)):
        warnings.warn(
            "lambda is not dominant integral; falling back to full enumeration",
            stacklevel=2,
        )
        return compute_naive(rs, lam, mu)
    accept = _acceptance_test(rs, lam, mu)
    smats = _simple_matrices(rs)
    start = identity(rs)
    if not accept(start.images):
        return AlternationSet(lam=lam, mu=mu, elements=(), edges=())
    elements = [start]
    by_images = {start.images: start}
    status = {start.images: True}
    edges = []
    cursor = 0
    while cursor < len(elements):
        sigma = elements[cursor]
        cursor += 1
        for i in range(rs.rank):
            if not all(c >= 0 for c in sigma.images[i]):
                continue
            grown = _mat_mul(sigma.images, smats[i])
            known = status.get(grown)
            if known is None:
                known = accept(grown)
                status[grown] = known
                if known:
                    tau = WeylElement(
                        images=grown,
                        word=sigma.word + (i + 1,),
                        length=sigma.length + 1,
                    )
                    by_images[grown] = tau
                    elements.append(tau)
            if known:
                edges.append((sigma, by_images[grown]))
    return AlternationSet(
        lam=lam, mu=mu, elements=tuple(elements), edges=tuple(edges)
    )


def compute_naive(rs: RootSystem, lam, mu) -> AlternationSet:
    """Filter the whole group; the oracle `compute` is checked against."""
    lam = as_weight(lam)
    mu = as_weight(mu)
    accept = _acceptance_test(rs, lam, mu)
    smats = _simple_matrices(rs)
    elements = [s for s in enumerate_group(rs) if accept(s.images)]
    by_images = {s.images: s for s in elements}
    edges = []
    for sigma in elements:
        for i in range(rs.rank):
            if not all(c >= 0 for c in sigma.images[i]):
                continue
            grown = _mat_mul(sigma.images, smats[i])
            tau = by_images.get(grown)
            if tau is not None:
                edges.append((sigma, tau))
    return AlternationSet(
        lam=lam, mu=mu, elements=tuple(elements), edges=tuple(edges)
    )


def _alternating_sum(rs: RootSystem, lam, mu, graded: bool):
    """Signed Kostant counts at sigma(lambda + rho) - mu - rho, from one table."""
    lam_rho = wadd(as_weight(lam), rs.rho)
    mu_rho = wadd(as_weight(mu), rs.rho)
    aset = compute(rs, lam, mu)
    args = [wsub(act(rs, sigma, lam_rho), mu_rho) for sigma in aset]
    total = QPolynomial() if graded else 0
    for sigma, value in zip(aset, kostant_counts(rs, args, graded)):
        total = total - value if sigma.length % 2 else total + value
    return total


def multiplicity(rs: RootSystem, lam, mu) -> int:
    """Weight multiplicity via the alternating sum over the alternation set.

    >>> rs = build_root_system(RootSystemSpec("A", 2))
    >>> multiplicity(rs, rs.highest_root, zero_weight(2))
    2
    """
    return _alternating_sum(rs, lam, mu, graded=False)


def q_multiplicity(rs: RootSystem, lam, mu) -> QPolynomial:
    """q-graded weight multiplicity, summed over the alternation set only.

    >>> rs = build_root_system(RootSystemSpec("A", 3))
    >>> print(q_multiplicity(rs, rs.highest_root, (-1, 0, 0)))
    q^4 + q^3 - q
    """
    return _alternating_sum(rs, lam, mu, graded=True)


def verify_order_ideal(rs: RootSystem, lam, mu) -> Report:
    """Check the set is closed downward under both weak orders.

    Every cover below a member (drop one generator on the right, or on the
    left) must itself be a member.
    """
    lam = as_weight(lam)
    mu = as_weight(mu)
    report = Report(
        title=f"order ideal {rs.spec.family}_{rs.spec.rank}"
    )
    aset = compute(rs, lam, mu)
    smats = _simple_matrices(rs)
    images = {s.images for s in aset.elements}
    for sigma in aset.elements:
        inv = _word_matrix(rs, reversed(sigma.word))
        for i in range(rs.rank):
            if any(c < 0 for c in sigma.images[i]):
                below = _mat_mul(sigma.images, smats[i])
                report.check(
                    below in images,
                    lambda s=sigma, k=i: (
                        f"right cover below {word_text(s.word)} at s{k + 1} escapes the set"
                    ),
                )
            if any(c < 0 for c in inv[i]):
                below = _mat_mul(smats[i], sigma.images)
                report.check(
                    below in images,
                    lambda s=sigma, k=i: (
                        f"left cover below {word_text(s.word)} at s{k + 1} escapes the set"
                    ),
                )
    if not aset.elements:
        report.note("empty set; closure is vacuous")
    return report


def verify_subword_closure(rs: RootSystem, lam, mu) -> Report:
    """Check every consecutive subword of each witness lands in the set."""
    lam = as_weight(lam)
    mu = as_weight(mu)
    report = Report(
        title=f"subword closure {rs.spec.family}_{rs.spec.rank}"
    )
    aset = compute(rs, lam, mu)
    for sigma in aset.elements:
        w = sigma.word
        for a in range(len(w)):
            for b in range(a + 1, len(w) + 1):
                piece = from_word(rs, w[a:b])
                report.check(
                    piece in aset,
                    lambda s=sigma, p=w[a:b]: (
                        f"subword {word_text(p)} of {word_text(s.word)} escapes the set"
                    ),
                )
    if not aset.elements:
        report.note("empty set; closure is vacuous")
    return report


def sample_weight_pairs(rs: RootSystem, count: int, seed: int = 0):
    """Deterministic dominant-integral (lambda, mu) pairs for sweeps.

    mu is lambda minus a small nonnegative root combination, so the identity
    always belongs to the alternation set and nothing degenerates to empty.
    """
    rng = random.Random(f"{rs.spec.family}{rs.spec.rank}:{seed}")
    omegas = fundamental_weights(rs)
    pairs = []
    for _ in range(count):
        lam = zero_weight(rs.rank)
        for omega in omegas:
            c = rng.randint(0, 2)
            if c:
                lam = wadd(lam, tuple(c * x for x in omega))
        drop = zero_weight(rs.rank)
        for _ in range(rng.randint(0, 3)):
            beta = rng.choice(rs.positive_roots)
            m = rng.randint(1, 2)
            drop = wadd(drop, tuple(m * x for x in beta))
        pairs.append((as_weight(lam), as_weight(wsub(lam, drop))))
    return pairs


def _weight_strings(w: Weight) -> list[str]:
    return [str(c) for c in w]


def to_json(rs: RootSystem, aset: AlternationSet) -> str:
    """Serialize with reduced-word element names; stable byte-for-byte."""
    payload = {
        "family": rs.spec.family,
        "rank": rs.spec.rank,
        "lambda": _weight_strings(aset.lam),
        "mu": _weight_strings(aset.mu),
        "size": len(aset),
        "elements": [word_text(s.word) for s in aset.elements],
        "edges": [
            [word_text(a.word), word_text(b.word)] for a, b in aset.edges
        ],
    }
    return json.dumps(payload, indent=2) + "\n"


def from_json(rs: RootSystem, text: str) -> AlternationSet:
    data = json.loads(text)
    if data["family"] != rs.spec.family or data["rank"] != rs.spec.rank:
        raise ValueError(
            f"serialized set is for {data['family']}_{data['rank']}, "
            f"not {rs.spec.family}_{rs.spec.rank}"
        )
    lam = as_weight(data["lambda"])
    mu = as_weight(data["mu"])
    elements = tuple(from_word(rs, parse_word(w)) for w in data["elements"])
    by_name = {word_text(s.word): s for s in elements}
    edges = tuple((by_name[a], by_name[b]) for a, b in data["edges"])
    return AlternationSet(lam=lam, mu=mu, elements=elements, edges=edges)


def to_dot(aset: AlternationSet) -> str:
    """Hasse diagram of the recorded cover edges, drawn bottom to top."""
    lines = ["digraph alternation_set {", "  rankdir=BT;"]
    for sigma in aset.elements:
        lines.append(f'  "{word_text(sigma.word)}";')
    for a, b in aset.edges:
        lines.append(f'  "{word_text(a.word)}" -> "{word_text(b.word)}";')
    lines.append("}")
    return "\n".join(lines) + "\n"


def verify_conjecture(max_r: int = 7, identity_max_r: int = 6) -> Report:
    """Check q-multiplicity identities for the adjoint weights in type A.

    Three instance families: the closed form q^(r+j-i+1) + q^(r+j-i) -
    q^(j-i+1) for mu a negated positive root, the rank sum q + ... + q^r at
    mu = 0, and multiplicity one at every root.  These are bounded-rank
    instance checks; passing them proves nothing beyond the ranks swept.
    """
    report = Report(title=f"q-multiplicity instances up to rank {max_r}")
    for r in range(1, max_r + 1):
        rs = build_root_system(RootSystemSpec("A", r))
        for i in range(1, r + 1):
            for j in range(i, r + 1):
                expected = (
                    QPolynomial.monomial(r + j - i + 1)
                    + QPolynomial.monomial(r + j - i)
                    - QPolynomial.monomial(j - i + 1)
                )
                actual = q_multiplicity(rs, rs.highest_root, neg_root(rs, i, j))
                report.check(
                    actual == expected,
                    f"closed form misses at r={r}, i={i}, j={j}: got {actual}",
                )
    for r in range(1, identity_max_r + 1):
        rs = build_root_system(RootSystemSpec("A", r))
        expected = QPolynomial((0,) + (1,) * r)
        actual = q_multiplicity(rs, rs.highest_root, zero_weight(r))
        report.check(
            actual == expected,
            f"rank-sum identity misses at r={r}: got {actual}",
        )
        for root in rs.positive_roots:
            for sign in (1, -1):
                target = as_weight(sign * c for c in root)
                m = multiplicity(rs, rs.highest_root, target)
                report.check(
                    m == 1,
                    f"adjoint multiplicity at r={r}, weight {target}: got {m}",
                )
    report.note("instance verification only; no claim of proof")
    return report
