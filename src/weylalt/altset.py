"""Weyl alternation sets: where the partition function stays positive.

For weights lambda and mu, the alternation set collects the group elements
sigma with P(sigma(lambda + rho) - mu - rho) > 0, the terms that actually
contribute to the alternating multiplicity formula.  For dominant integral
lambda the set is a lower ideal in both weak Bruhat orders, so it can be
grown from the identity by following cover edges and never enumerating the
full group.  `compute` does exactly that with left covers s_j sigma, which
move only coordinate j of the integer residual d(sigma) = sigma(lambda +
rho) - mu - rho, and builds each member once, from the parent that drops
its least left descent.  `compute_naive`, the oracle, filters with the
membership predicate a set that provably holds every member without
assuming the ideal theorem: for dominant integral lambda the rho-bounded
lower ideal {sigma : sigma(2 rho) >= 2 rho - 2(lambda - mu)}, and the
whole group otherwise.

One rule finds right covers.  sigma s_i = (s_i sigma^-1)^-1, so the right
covers of sigma are the left covers of sigma^-1, read off the inverse key
sigma^-1(2 rho) by the left step.  A set's right-cover edges are derived
from its elements by that rule on first read, and the closure check finds
the covers below a member by the same signs, so neither the search nor the
check keeps any cover state.

The set carries each member's residual beside it.  One predicate maps an
element to its residual, or to None outside the set, by walking the
element's witness word from d(e) = lambda - mu with left steps; membership
and the oracle use it.  Multiplicities read the Kostant counts of the carried
residuals.

>>> rs = build_root_system(RootSystemSpec("A", 3))
>>> aset = compute(rs, rs.highest_root, zero_weight(3))
>>> [word_text(s.word) for s in aset.elements]
['e', 's2']
"""

from __future__ import annotations

import json
import math
import random
import warnings
from dataclasses import dataclass
from functools import cached_property
from operator import add, sub

from .kostant import QPolynomial, _table_shift, kostant_counts
from .reporting import Report
from .rootsys import (
    MAX_RANK,
    RootSystem,
    RootSystemSpec,
    Weight,
    as_weight,
    build_root_system,
    fundamental_weights,
    neg_root,
    wadd,
    wsub,
    zero_weight,
)
from .weyl import (
    WeylElement,
    _coroot_pairing,
    _group,
    _inverse_key,
    _moved,
    _neighbour_columns,
    _rho_shifted_pairings,
    _simple_matrices,
    _two_rho,
    _walk,
    enumerate_group,
    identity,
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
    "sample_weight_pairs",
    "to_json",
    "to_dot",
]

#: Largest alternation set `compute` grows, in bytes of estimated memory.  An
#: element is budgeted 1024 + 64 * rank bytes: its object, key sigma(2 rho),
#: word and residual, plus its share of the right-cover edges that `to_json`
#: and `to_dot` derive afterwards.  On the (highest root, -highest root) sets
#: of A_14 and A_15 in CPython 3.11, peak RSS measured 549 and 559 bytes per
#: element for `compute` alone (the frontier's pairing tuples included), and
#: 1083 and 1126 with the edges derived too (the inverse keys and the edge
#: pairs); the rest is room for entries too large for the small-int cache.
MAX_SET_BYTES = 2**28


def _set_budget(rank: int) -> tuple[int, str]:
    """The most elements a set of this rank may have, and the refusal past it.

    The one budget rule: `compute` stops a search once its set passes the
    limit, and `enumeration.check_rank_budget` checks the sizes a type A
    rank sweep will search for before it starts.
    """
    per_element = 1024 + 64 * rank
    limit = MAX_SET_BYTES // per_element
    return limit, (
        f"alternation set of more than {limit} elements exceeds the "
        f"budget of {MAX_SET_BYTES} bytes (~{per_element} per element "
        f"at rank {rank})"
    )


@dataclass(frozen=True)
class AlternationSet:
    """The computed set, its weights, and each member's residual.

    Elements are in breadth-first order (by length, then lexicographically
    by witness word); residuals[k] is the integer residual
    elements[k](lambda + rho) - mu - rho.
    """

    lam: Weight
    mu: Weight
    elements: tuple[WeylElement, ...]
    residuals: tuple[tuple[int, ...], ...]

    @cached_property
    def edges(self) -> tuple[tuple[WeylElement, WeylElement], ...]:
        """The right-cover edges inside the set, derived on first read.

        They run upward from each element to its covers sigma s_i that are
        members, in (element, i) order.
        """
        return _right_cover_edges(self.elements)

    @cached_property
    def _members(self) -> frozenset:
        return frozenset(self.elements)

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __contains__(self, sigma: WeylElement) -> bool:
        return sigma in self._members


def contains(rs: RootSystem, lam, mu, sigma: WeylElement) -> bool:
    """Membership test: P(sigma(lambda + rho) - mu - rho) > 0.

    The simple roots are positive roots, so the count is positive exactly
    when every coordinate of the argument is a nonnegative integer; this
    never counts.  It is the same test `compute_naive` filters with, over
    the rho-bounded set sigma(2 rho) >= 2 rho - 2(lambda - mu) when lambda
    is dominant integral (every member lies in it) and over the whole group
    otherwise.
    """
    return _residual_test(rs, *_weights(rs, lam, mu))(sigma) is not None


def _weights(rs: RootSystem, lam, mu) -> tuple[Weight, Weight]:
    """lambda and mu as exact weights; ValueError unless each has rank entries."""
    lam, mu = as_weight(lam), as_weight(mu)
    for name, w in (("lambda", lam), ("mu", mu)):
        if len(w) != rs.rank:
            raise ValueError(
                f"{name} has {len(w)} coordinates; "
                f"{rs.spec.family}_{rs.spec.rank} weights have {rs.rank}"
            )
    return lam, mu


def _residual_test(rs: RootSystem, lam: Weight, mu: Weight):
    """The membership predicate: sigma to its integer residual, or None outside.

    It walks sigma's witness word from d(e) = lambda - mu (in ints when that
    and the mu + rho offsets are integral), reads no images and shares
    nothing with `compute`, so the exhaustive filter stays an independent
    oracle.  `contains`, `compute_naive` and `typea.verify_forbidden` use
    it.
    """
    reflections = _simple_matrices(rs)
    start = [int(c) if c.denominator == 1 else c for c in wsub(lam, mu)]
    offsets = _rho_shifted_pairings(rs, mu)

    def residual(sigma: WeylElement) -> tuple[int, ...] | None:
        d = _walk(reflections, sigma.word, start, offsets)
        if min(d) < 0 or any(c.denominator != 1 for c in d):
            return None
        return tuple(map(int, d))

    return residual


def _dominant_integral(steps) -> bool:
    """Whether every <lambda + rho, alpha_i^vee> is an int >= 1."""
    return all(isinstance(n, int) and n >= 1 for n in steps)


def compute(rs: RootSystem, lam, mu) -> AlternationSet:
    """Grow the alternation set upward from the identity by left covers.

    Needs lambda dominant and integral, which is what makes the set an
    ideal in the weak orders; other lambda fall back to the exhaustive
    filter (with a warning) since the pruned search could then miss
    elements.

    Each frontier entry carries sigma's residual d = sigma(lambda + rho) -
    mu - rho and its pairings P_k = <sigma(lambda + rho), alpha_k^vee>,
    which start as <lambda + rho, alpha_k^vee> at the identity.  The left
    step s_j sigma subtracts p alpha_j from both vectors, with p = P_j, so
    d changes only at j and P only at j and j's Dynkin neighbours
    (`_neighbour_columns`).  Since lambda + rho is regular dominant, the
    step is a cover exactly when p > 0, the cover is a member exactly when
    d_j >= p, and the left descents of tau = s_j sigma are the k with
    Q_k < 0, Q being tau's pairings.

    Each member is built once, from its canonical parent: tau is kept only
    when j is its least left descent.  Witnesses are least reduced words,
    so sigma's least descent m is its witness's first letter; the
    off-diagonal Cartan entries are <= 0, so for m > j no Q_k with k < j is
    negative, for m < j off j's neighbours Q_m = P_m < 0, and only for a
    neighbour m < j are Q_1..Q_{j-1} read.  Looping over j outside and the
    layer inside then lists each layer by (least descent, parent), the
    order in which a breadth-first search first reaches each element by its
    lexicographically least reduced word, as `enumerate_group` does; the
    set is a lower ideal of the left weak order, so every member's
    canonical parent is a member and none is missed.  Raises ValueError
    unless lambda and mu have rank coordinates, and as soon as the set's
    estimated memory passes MAX_SET_BYTES.
    """
    lam, mu = _weights(rs, lam, mu)
    steps = _rho_shifted_pairings(rs, lam)
    if not _dominant_integral(steps):
        warnings.warn(
            "lambda is not dominant integral; falling back to full enumeration",
            stacklevel=2,
        )
        return compute_naive(rs, lam, mu)
    start_residual = wsub(lam, mu)
    if any(c < 0 or c.denominator != 1 for c in start_residual):
        return AlternationSet(lam=lam, mu=mu, elements=(), residuals=())
    r = rs.rank
    reflections = _simple_matrices(rs)
    neighbours = _neighbour_columns(rs)
    limit, over_budget = _set_budget(r)
    start = tuple(map(int, start_residual))
    # One layer of (element, residual, pairings).
    layer = [(identity(rs), start, tuple(steps))]
    elements = [layer[0][0]]
    residuals = [start]
    while layer:
        following = []
        for j, (column, lower) in enumerate(neighbours):
            reflection = reflections[j]
            for sigma, d, pairings in layer:
                p = pairings[j]
                if p <= 0 or d[j] < p:
                    continue
                word = sigma.word
                m = word[0] - 1 if word else r
                if m < j and not lower >> m & 1:
                    continue
                q = list(pairings)
                q[j] = -p
                for i, a in column:
                    q[i] -= p * a
                if m < j and min(q[:j]) < 0:
                    continue
                key = sigma.key
                tau = WeylElement(
                    rs=rs,
                    key=_moved(key, j, _coroot_pairing(key, reflection)),
                    word=(j + 1,) + word,
                )
                grown = _moved(d, j, p)
                following.append((tau, grown, tuple(q)))
                elements.append(tau)
                residuals.append(grown)
                if len(elements) > limit:
                    raise ValueError(over_budget)
        layer = following
    return AlternationSet(
        lam=lam, mu=mu, elements=tuple(elements), residuals=tuple(residuals)
    )


def _right_cover_edges(elements) -> tuple:
    """(sigma, sigma s_i) for each listed sigma s_i that covers sigma.

    The one right-cover rule: sigma s_i = (s_i sigma^-1)^-1 covers sigma
    exactly when <v, alpha_i^vee> > 0 for the inverse key v = sigma^-1(2 rho),
    and its inverse key is then the left step of v, which is looked up among
    the members' inverse keys.  Edges come out in (element, i) order, each
    end being the listed element.
    """
    if not elements:
        return ()
    reflections = _simple_matrices(elements[0].rs)
    members = {_inverse_key(sigma): sigma for sigma in elements}
    edges = []
    for v, sigma in members.items():
        for i, reflection in enumerate(reflections):
            p = _coroot_pairing(v, reflection)
            if p > 0:
                tau = members.get(_moved(v, i, p))
                if tau is not None:
                    edges.append((sigma, tau))
    return tuple(edges)


def compute_naive(rs: RootSystem, lam, mu) -> AlternationSet:
    """Filter the group with the membership predicate; the oracle of `compute`.

    For dominant integral lambda only the rho-bounded set {sigma :
    sigma(2 rho) >= 2 rho - 2(lambda - mu)} is walked, and it holds every
    member.  Write d(sigma) = sigma(lambda + rho) - mu - rho >= 0 for a
    member; then rho - sigma rho = (sigma lambda - lambda) + (lambda - mu) -
    d(sigma) <= lambda - mu, since lambda - sigma lambda is a nonnegative
    root combination for dominant lambda.  A left cover s_i sigma > sigma
    adds a positive multiple of alpha_i to rho - sigma rho, so the bounded
    set is a lower ideal of the left weak order, found by elementary means
    and not by the ideal theorem that `compute` rests on.  `weyl._group`
    walks it as the whole-group traversal restricted to it, so elements,
    witnesses and residuals come out as the whole-group filter gives them.
    Other lambda filter the whole group.  Either walk raises GroupSizeError
    past MAX_GROUP_ORDER elements.  Members come from the predicate alone,
    so they share nothing with the cover rule of `compute`.
    """
    lam, mu = _weights(rs, lam, mu)
    residual = _residual_test(rs, lam, mu)
    if _dominant_integral(_rho_shifted_pairings(rs, lam)):
        floor = tuple(
            math.ceil(t - 2 * c) for t, c in zip(_two_rho(rs), wsub(lam, mu))
        )
        group = _group(rs, floor)
    else:
        group = enumerate_group(rs)
    kept = [(s, d) for s in group if (d := residual(s)) is not None]
    return AlternationSet(
        lam=lam,
        mu=mu,
        elements=tuple(s for s, _ in kept),
        residuals=tuple(d for _, d in kept),
    )


def _alternating_sum(rs: RootSystem, lam, mu, graded: bool):
    """Signed Kostant counts of the set's residuals, from one table.

    Graded values are summed as coefficient lists, into one QPolynomial.
    """
    aset = compute(rs, lam, mu)
    values = kostant_counts(rs, aset.residuals, graded)
    if not graded:
        return sum(-v if s.length % 2 else v for s, v in zip(aset, values))
    total = [0] * max((len(v.coeffs) for v in values), default=0)
    for sigma, value in zip(aset, values):
        c = value.coeffs
        total[: len(c)] = map(sub if sigma.length % 2 else add, total, c)
    return QPolynomial(total)


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


def verify_order_ideal(rs: RootSystem, aset: AlternationSet) -> Report:
    """Check the given set's elements are closed downward in both weak orders.

    Every cover below a member (drop one generator on the right, or on the
    left) must itself be a member.  Both are read off keys by the left step:

    - s_i sigma lies below sigma when <sigma(2 rho), alpha_i^vee> < 0, and
      its key is the left step of sigma's key;
    - sigma s_i = (s_i sigma^-1)^-1 lies below sigma when
      <sigma^-1(2 rho), alpha_i^vee> < 0, and its inverse key is the left
      step of sigma's inverse key.
    """
    report = Report(
        title=f"order ideal {rs.spec.family}_{rs.spec.rank}"
    )
    reflections = _simple_matrices(rs)
    inverse_keys = [_inverse_key(sigma) for sigma in aset.elements]
    keys = {sigma.key for sigma in aset.elements}
    inverses = set(inverse_keys)
    for sigma, v in zip(aset.elements, inverse_keys):
        key = sigma.key
        for i, reflection in enumerate(reflections):
            q = _coroot_pairing(v, reflection)
            if q < 0:
                report.check(
                    _moved(v, i, q) in inverses,
                    lambda s=sigma, k=i: (
                        f"right cover below {word_text(s.word)} at s{k + 1} escapes the set"
                    ),
                )
            p = _coroot_pairing(key, reflection)
            if p < 0:
                report.check(
                    _moved(key, i, p) in keys,
                    lambda s=sigma, k=i: (
                        f"left cover below {word_text(s.word)} at s{k + 1} escapes the set"
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


def to_dot(aset: AlternationSet) -> str:
    """Hasse diagram of the set's right-cover edges, drawn bottom to top."""
    lines = ["digraph alternation_set {", "  rankdir=BT;"]
    for sigma in aset.elements:
        lines.append(f'  "{word_text(sigma.word)}";')
    for a, b in aset.edges:
        lines.append(f'  "{word_text(a.word)}" -> "{word_text(b.word)}";')
    lines.append("}")
    return "\n".join(lines) + "\n"


def verify_conjecture(max_r: int = 7) -> Report:
    """Check q-multiplicity identities for the adjoint weights in type A.

    Three instance families: the closed form q^(r+j-i+1) + q^(r+j-i) -
    q^(j-i+1) for mu a negated positive root at ranks 1..max_r, and the rank
    sum q + ... + q^r at mu = 0 and multiplicity one at every root at ranks
    1..6.  These are bounded-rank instance checks; passing them proves
    nothing beyond the ranks swept.

    Every box of the sweep lies inside the (1, r) box (2, ..., 2) of the top
    rank, so that table's size is checked before rank 1 is searched; ranks
    past rootsys.MAX_RANK are checked at the ceiling.
    """
    if max_r >= 1:
        rs = build_root_system(RootSystemSpec("A", min(max_r, MAX_RANK)))
        _table_shift(rs, (2,) * rs.rank, graded=True)
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
    for r in range(1, 7):
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
