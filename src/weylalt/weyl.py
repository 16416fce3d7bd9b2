"""Weyl group elements keyed by the integer vector sigma(2 rho).

2 rho is regular, so sigma -> sigma(2 rho) is injective: an element is stored
by that vector in simple-root coordinates, its key, and two elements are equal
exactly when their keys agree.  Each element also carries one reduced word as
a witness.  Words are tuples of 1-based generator indices read as function
composition: from_word((1, 2)) sends v to s_1(s_2(v)).

All arithmetic on elements lives here, as two moves on integer vectors:

- the left step s_i v = v - <v, alpha_i^vee> alpha_i changes only
  coordinate i.  Walking a word by left steps, last letter first, applies its
  product to a weight, which is how `act` works; on a key, the step is the
  left cover s_i sigma exactly when <sigma(2 rho), alpha_i^vee> > 0, which is
  how `from_word` tells a reduced word and `enumerate_group` grows the group
  (or, under a key floor, the part of it the `compute_naive` oracle filters).
  Right covers are the same step on the inverse key sigma^-1(2 rho), since
  sigma s_i = (s_i sigma^-1)^-1 (`_inverse_key`);
- the descent rule reads a reduced word off v = sigma(2 rho): the smallest
  i with <v, alpha_i^vee> < 0 is a left descent, and v -> s_i v removes it.
  Repeated until v is dominant, it spells the lexicographically least
  reduced word, whose length is the Coxeter length of sigma.

No element stores a matrix: `WeylElement.images`, whose column j is
sigma(alpha_{j+1}), is derived on demand with `act`.  Nothing in the package
reads it, since covers come from keys and inverse keys; it stays for the
benchmark's cover count and for tests.  `act` stays as the documented way to
apply an element to a weight, although `images` is its only caller here.

Influences are integer bitmasks, bit i-1 for s_i: the influence of sigma is
the OR over its witness word, and node i's closed Dynkin neighbourhood is
the support of the sparse simple reflection the left step uses.  Two
elements are independent when one's mask ANDs to zero with the other's
grown mask, which is how `independent` answers.

>>> rs = build_root_system(RootSystemSpec("A", 3))
>>> s13 = from_word(rs, (1, 3))
>>> s13.length
2
>>> word_text(from_word(rs, (1, 1)).word)
'e'
>>> act(rs, s13, rs.highest_root)
(0, 1, 0)
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .rootsys import RootSystem, RootSystemSpec, build_root_system

__all__ = [
    "WeylElement",
    "GroupSizeError",
    "MAX_GROUP_ORDER",
    "identity",
    "from_word",
    "multiply",
    "act",
    "influence",
    "independent",
    "enumerate_group",
    "group_order",
    "word_text",
]

Reflection = tuple[tuple[int, int], ...]

#: Most elements an exhaustive walk visits: `enumerate_group` refuses a
#: larger group up front, and the floored walk that the `compute_naive`
#: oracle takes for dominant integral lambda stops once it has visited more.
#: Only the exhaustive paths (that oracle and the non-dominant fallback of
#: `compute`) walk the group; the ideal search never does.
MAX_GROUP_ORDER = 50_000


class GroupSizeError(RuntimeError):
    """Raised when a full group enumeration would exceed MAX_GROUP_ORDER."""


@dataclass(frozen=True, eq=False, slots=True)
class WeylElement:
    """One group element: its key sigma(2 rho) and a reduced-word witness.

    Equality and hashing look only at the key; the witness is whichever
    reduced word the constructor saw first, and any two reduced words of the
    same element are interchangeable for everything computed here.
    """

    rs: RootSystem
    key: tuple[int, ...]
    word: tuple[int, ...]

    def __eq__(self, other) -> bool:
        if not isinstance(other, WeylElement):
            return NotImplemented
        return self.key == other.key

    def __hash__(self) -> int:
        return hash(self.key)

    def __repr__(self) -> str:
        return f"WeylElement({word_text(self.word)!r})"

    @property
    def length(self) -> int:
        """The Coxeter length: the witness is a reduced word."""
        return len(self.word)

    @property
    def images(self) -> tuple[tuple[int, ...], ...]:
        """The matrix of sigma: column j is sigma(alpha_{j+1}), computed by `act`."""
        r = self.rs.rank
        return tuple(
            act(self.rs, self, tuple(int(m == j) for m in range(r))) for j in range(r)
        )


@lru_cache(maxsize=None)
def _simple_matrices(rs: RootSystem) -> tuple[Reflection, ...]:
    """The simple reflections, sparsely, 0-based by generator.

    Entry i lists the pairs (j, a_ji) with a_ji = <alpha_j, alpha_i^vee>
    nonzero: s_i sends alpha_j to alpha_j - a_ji alpha_i.  Callers look the
    table up once per call and pass its entries to the steps below.
    """
    r = rs.rank
    return tuple(
        tuple((j, rs.cartan[j][i]) for j in range(r) if rs.cartan[j][i])
        for i in range(r)
    )


@lru_cache(maxsize=None)
def _neighbour_columns(rs: RootSystem) -> tuple[tuple[Reflection, int], ...]:
    """What the left step s_j does to the pairings, per node j, 0-based.

    s_j v = v - p alpha_j moves <v, alpha_i^vee> by -p a_ji, which is
    nonzero only at j (a_jj = 2) and at j's Dynkin neighbours.  Entry j
    holds the pairs (i, a_ji) over those neighbours i != j, and a bitmask
    of the neighbours below j (bit i for node i).
    """
    r = rs.rank
    entries = []
    for j in range(r):
        column = tuple((i, rs.cartan[j][i]) for i in range(r) if i != j and rs.cartan[j][i])
        entries.append((column, sum(1 << i for i, _ in column if i < j)))
    return tuple(entries)


@lru_cache(maxsize=None)
def _two_rho(rs: RootSystem) -> tuple[int, ...]:
    """2 rho, the sum of the positive roots: the key of the identity."""
    return tuple(int(2 * c) for c in rs.rho)


def _coroot_pairing(v, reflection: Reflection) -> int:
    """<v, alpha_i^vee> for v in simple-root coordinates."""
    pairing = 0
    for j, a in reflection:
        pairing += v[j] * a
    return pairing


def _rho_shifted_pairings(rs: RootSystem, w) -> list:
    """<w + rho, alpha_i^vee> for every i, as an int wherever it is an integer.

    <rho, alpha_i^vee> = 1, so each is <w, alpha_i^vee> + 1 and rho is never
    added.  Integral coordinates are paired as ints, so a w in the root
    lattice costs no Fraction arithmetic.
    """
    v = [c.numerator if c.denominator == 1 else c for c in w]
    pairings = [_coroot_pairing(v, refl) + 1 for refl in _simple_matrices(rs)]
    return [int(p) if p.denominator == 1 else p for p in pairings]


def _moved(v: tuple[int, ...], i: int, p: int) -> tuple[int, ...]:
    """v - p alpha_{i+1}: the left step, with p the pairing it subtracts."""
    return v[:i] + (v[i] - p,) + v[i + 1 :]


def _walk(reflections: tuple[Reflection, ...], word, v, offsets) -> list:
    """Apply a word to v by left steps s_i v = v - <v, alpha_i^vee> alpha_i.

    The last letter acts first.  With offsets the pairings of a weight m,
    the same steps carry a residual x - m to sigma(x) - m.
    """
    v = list(v)
    for i in reversed(word):
        i -= 1
        v[i] -= _coroot_pairing(v, reflections[i]) + offsets[i]
    return v


def _inverse_key(sigma: WeylElement) -> tuple[int, ...]:
    """sigma^-1(2 rho): 2 rho walked by left steps along the reversed witness.

    sigma s_i = (s_i sigma^-1)^-1, so the left step on this key is the right
    cover sigma s_i exactly when <sigma^-1(2 rho), alpha_i^vee> > 0, and it
    lies below sigma when the pairing is negative.
    """
    rs = sigma.rs
    word = sigma.word[::-1]
    return tuple(_walk(_simple_matrices(rs), word, _two_rho(rs), (0,) * rs.rank))


def _least_word(reflections: tuple[Reflection, ...], v) -> tuple[int, ...]:
    """The descent rule: the lexicographically least reduced word of sigma.

    Starts from v = sigma(2 rho) and takes the smallest i with
    <v, alpha_i^vee> < 0 (then s_i sigma < sigma) and replaces v by s_i v,
    until v is dominant, which happens only at the identity.
    """
    v = list(v)
    word = []
    i = 0
    while i < len(reflections):
        pairing = _coroot_pairing(v, reflections[i])
        if pairing < 0:
            v[i] -= pairing
            word.append(i + 1)
            i = 0
        else:
            i += 1
    return tuple(word)


def identity(rs: RootSystem) -> WeylElement:
    return WeylElement(rs=rs, key=_two_rho(rs), word=())


def from_word(rs: RootSystem, word) -> WeylElement:
    """Element for a word of 1-based generator indices.

    A reduced input is kept as the stored witness; a non-reduced one is
    replaced by the lexicographically least reduced word for the product.

    >>> rs = build_root_system(RootSystemSpec("A", 3))
    >>> from_word(rs, (2, 1, 2)) == from_word(rs, (1, 2, 1))
    True
    >>> from_word(rs, (1, 2, 1, 2)).word
    (2, 1)
    """
    word = tuple(word)
    for i in word:
        if not isinstance(i, int) or not 1 <= i <= rs.rank:
            raise ValueError(f"generator index {i!r} out of range 1..{rs.rank}")
    reflections = _simple_matrices(rs)
    key = list(_two_rho(rs))
    # The word is reduced exactly when every left step along it goes up.
    ascents = 0
    for i in reversed(word):
        i -= 1
        pairing = _coroot_pairing(key, reflections[i])
        ascents += pairing > 0
        key[i] -= pairing
    if ascents < len(word):
        word = _least_word(reflections, key)
    return WeylElement(rs=rs, key=tuple(key), word=word)


def multiply(rs: RootSystem, *elements: WeylElement) -> WeylElement:
    """Compose elements left to right (the leftmost acts last).

    >>> rs = build_root_system(RootSystemSpec("A", 2))
    >>> multiply(rs, from_word(rs, (1,)), from_word(rs, (1,))).length
    0
    """
    if not elements:
        raise ValueError("multiply needs at least one element")
    return from_word(rs, [i for e in elements for i in e.word])


def act(rs: RootSystem, sigma: WeylElement, w):
    """Apply sigma to a weight in simple-root coordinates, by left steps."""
    if len(w) != rs.rank:
        raise ValueError(f"expected a vector of length {rs.rank}, got {len(w)}")
    return tuple(_walk(_simple_matrices(rs), sigma.word, w, (0,) * rs.rank))


def _influence_mask(sigma: WeylElement) -> int:
    """The influence as a bitmask: bit i-1 is set when s_i occurs in the witness."""
    mask = 0
    for i in sigma.word:
        mask |= 1 << (i - 1)
    return mask


def _extend_mask(reflections: tuple[Reflection, ...], mask: int) -> int:
    """A node set grown by its Dynkin-diagram neighbors, as a bitmask.

    Node i contributes the support of reflections[i], which lists every j
    with a_ji nonzero, i itself included (a_ii = 2).
    """
    grown = 0
    for i, reflection in enumerate(reflections):
        if mask >> i & 1:
            for j, _ in reflection:
                grown |= 1 << j
    return grown


def _connected_mask(reflections: tuple[Reflection, ...], mask: int) -> bool:
    """Whether a node set spans a connected piece of the Dynkin diagram.

    Grows the lowest node's component inside the set until it stops; the
    empty set counts as connected.
    """
    seen = mask & -mask
    while seen:
        grown = _extend_mask(reflections, seen) & mask
        if grown == seen:
            break
        seen = grown
    return seen == mask


def influence(sigma: WeylElement) -> frozenset[int]:
    """Generator indices appearing in a reduced word for sigma.

    The set does not depend on which reduced word is chosen (braid and
    commutation moves preserve it), so reading the stored witness is safe.

    >>> rs = build_root_system(RootSystemSpec("A", 7))
    >>> sorted(influence(from_word(rs, (4, 6, 7))))
    [4, 6, 7]
    """
    return frozenset(sigma.word)


def independent(rs: RootSystem, sigma: WeylElement, tau: WeylElement) -> bool:
    """True when the influences of sigma and tau neither meet nor touch.

    Equivalent to influence(sigma) being disjoint from the extended
    influence of tau, which on bitmasks is one AND; the relation is
    symmetric, and independent elements commute.
    """
    grown = _extend_mask(_simple_matrices(rs), _influence_mask(tau))
    return not _influence_mask(sigma) & grown


def group_order(system: RootSystem | RootSystemSpec) -> int:
    """Order of the Weyl group, by the classical product formulas.

    Accepts either a built root system or its defining spec.
    """
    spec = getattr(system, "spec", system)
    r = spec.rank
    if spec.family == "A":
        return math.factorial(r + 1)
    if spec.family in ("B", "C"):
        return 2**r * math.factorial(r)
    return 2 ** (r - 1) * math.factorial(r)


def enumerate_group(rs: RootSystem) -> tuple[WeylElement, ...]:
    """Every group element, in breadth-first (length, then word) order.

    Each layer holds the left covers s_i sigma of the one below, found by
    the sign of <sigma(2 rho), alpha_i^vee>.  Looping over i outside and the
    layer inside reaches every element first by its lexicographically least
    reduced word (whose first letter is its smallest left descent), so that
    word is the witness and the layer comes out sorted by it.  Raises
    GroupSizeError for a group larger than MAX_GROUP_ORDER.

    >>> rs = build_root_system(RootSystemSpec("A", 2))
    >>> len(enumerate_group(rs))
    6
    """
    order = group_order(rs.spec)
    if order > MAX_GROUP_ORDER:
        raise GroupSizeError(
            f"Weyl group of {rs.spec.family}_{rs.spec.rank} has {order} elements, "
            f"above the cap of {MAX_GROUP_ORDER}"
        )
    return _group(rs)


def _group(rs: RootSystem, floor=None) -> tuple[WeylElement, ...]:
    """The elements whose keys stay >= floor coordinatewise, in group order.

    The breadth-first traversal of `enumerate_group`, taking the step
    sigma -> s_i sigma only when its key, which moves at coordinate i
    alone, keeps key[i] - p >= floor[i].  When the floored set is a lower
    ideal of the left weak order (closed under dropping a left descent),
    every member's least-word parent is a member, so the traversal visits
    exactly that set, each element by the same witness and in the same
    relative order as in the whole group.  With no floor, the floor is
    w0(2 rho) = -2 rho, the least key, which binds nowhere.  Raises
    GroupSizeError once more than MAX_GROUP_ORDER elements are visited.
    """
    reflections = _simple_matrices(rs)
    start = identity(rs)
    if floor is None:
        floor = tuple(-c for c in start.key)
    elif any(k < f for k, f in zip(start.key, floor)):
        return ()
    cap = MAX_GROUP_ORDER
    layer = [start]
    out = list(layer)
    while layer:
        following = {}
        for i, reflection in enumerate(reflections):
            least = floor[i]
            for sigma in layer:
                key = sigma.key
                pairing = _coroot_pairing(key, reflection)
                if pairing > 0 and key[i] - pairing >= least:
                    key = _moved(key, i, pairing)
                    if key not in following:
                        word = (i + 1,) + sigma.word
                        following[key] = WeylElement(rs=rs, key=key, word=word)
                        if len(out) + len(following) > cap:
                            raise GroupSizeError(
                                f"walk of the Weyl group of {rs.spec.family}_{rs.spec.rank} "
                                f"visited more than the cap of {cap} elements"
                            )
        layer = list(following.values())
        out.extend(layer)
    return tuple(out)


def word_text(word) -> str:
    """Format a generator-index tuple as space-separated letters, 'e' when empty.

    >>> word_text((1, 3))
    's1 s3'
    >>> word_text(())
    'e'
    """
    if not word:
        return "e"
    return " ".join(f"s{i}" for i in word)
