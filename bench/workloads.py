"""The benchmark's three workloads: inputs, operations and their references.

A workload is a list of operations that one fresh interpreter runs in order.
Building a workload is its set-up: it builds the root systems and draws the
seeded inputs.  Every operation carries a reference check that runs after the
timed phase.  Where a method exists that does not share the operation's code
path, the check uses it; elsewhere it compares a digest of the output the
seed commit serialized.

Why each workload exists (see README.md for the metrics each should move):

- ideal: a few huge alternation sets, so the time sits in the ideal search
  and in basic-subword and independent-subset extraction; no Kostant calls.
- graded: Kostant counting, many small tables (the criterion-11 sweep) and a
  few deep ones (multiples of omega_1 at mu = 0); the sets stay small.
- sweep: the command line over hundreds of small sets, the full-group oracle,
  the type A catalogs and encodings, the series engine and the 2-worker pool.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from dataclasses import dataclass
from math import comb
from typing import Callable

from weylalt import altset, bas, cli, enumeration, rootsys
from weylalt.kostant import QPolynomial

#: sha256 prefixes of serialized outputs at the seed commit, by operation.
DIGESTS = {
    "compute B_7": "9c34a6e22c01e84d",
    "compute D_7": "3e560614d41279b4",
    "compute B_3": "eb8105c4e53971fb",
    "compute D_4": "997f7c9a584dca95",
    "compute_bas A_11": "90f5e6184ac2fb6c",
    "compute_bas B_7": "12d535c694f3b1ea",
    "compute_bas D_7": "5e3c671f81e99190",
    "compute_bas A_5": "8b6f0c5adc419c3a",
    "compute_bas B_3": "98340a78a1624cfa",
    "compute_bas D_4": "88660c6def60ac46",
    "cli.counts 8": "b24d7a05b56ad093",
    "cli.counts 4": "81097767c644458c",
}


@dataclass(frozen=True)
class Op:
    """One timed operation and the check its output must pass afterwards.

    `check` returns None when the output matches its reference, and a short
    description of the mismatch otherwise.
    """

    label: str
    run: Callable[[], object]
    check: Callable[[object], str | None]


@dataclass(frozen=True)
class Workload:
    ops: tuple[Op, ...]
    largest: str


@dataclass(frozen=True)
class CliRun:
    """Exit code and captured standard output of one `weylalt.cli.run` call."""

    code: int
    text: str

    @property
    def checks(self) -> int:
        """Checks counted by a `verify --format json` report, else 0."""
        if not self.text.startswith("{"):
            return 0
        return sum(r["checked"] for r in json.loads(self.text)["reports"])


def build(name: str, seed: int, tiny: bool = False) -> Workload:
    """Set up a workload: build its root systems and draw its inputs."""
    return {"ideal": _ideal, "graded": _graded, "sweep": _sweep}[name](seed, tiny)


def _system(family: str, rank: int) -> rootsys.RootSystem:
    return rootsys.build_root_system(rootsys.RootSystemSpec(family, rank))


def _name(rs) -> str:
    return f"{rs.spec.family}_{rs.rank}"


def _digest_check(label: str, text: str) -> str | None:
    got = hashlib.sha256(text.encode()).hexdigest()[:16]
    want = DIGESTS.get(label)
    return None if got == want else f"digest {got}, reference {want}"


def _expect(got, want, what: str) -> str | None:
    return None if got == want else f"{what}: got {got}, reference {want}"


# -- ideal ------------------------------------------------------------------


def _ideal(seed: int, tiny: bool) -> Workload:
    # No seeded input: the sets are fixed by (highest root, -highest root).
    systems = (("A", 5), ("B", 3), ("D", 4)) if tiny else (("A", 11), ("B", 7), ("D", 7))
    ops = []
    for family, rank in systems:
        ops.extend(_ideal_ops(_system(family, rank)))
    family, rank = systems[0]
    return Workload(ops=tuple(ops), largest=f"compute {family}_{rank}")


def _ideal_ops(rs) -> list[Op]:
    name = _name(rs)
    lam = rs.highest_root
    mu = tuple(-c for c in lam)
    out = {}

    def run_compute():
        out["aset"] = altset.compute(rs, lam, mu)
        return out["aset"]

    def run_bas():
        out["bas"] = bas.compute_bas(rs, lam, mu, aset=out["aset"])
        return out["bas"]

    def check_compute(aset):
        if rs.spec.family == "A":
            # h^1_r, the x^r coefficient of the rational series H^1(x).
            want = enumeration.series_h(1, rs.rank).coefficient((rs.rank,))
            return _expect(len(aset), want, "set size against H^1")
        return _digest_check(f"compute {name}", altset.to_json(rs, aset))

    return [
        Op(f"compute {name}", run_compute, check_compute),
        Op(
            f"compute_bas {name}",
            run_bas,
            lambda b: _digest_check(f"compute_bas {name}", bas.to_json(rs, b)),
        ),
        Op(
            f"independent_subsets {name}",
            lambda: bas.independent_subsets(out["bas"]),
            # The factorization bijection: one independent subset per member.
            lambda subsets: _expect(len(subsets), len(out["aset"]), "subsets against set size"),
        ),
    ]


# -- graded -----------------------------------------------------------------


def _zero_weight_multiplicity(family: str, n: int, k: int) -> int:
    """Multiplicity of weight 0 in V(k omega_1), from invariant theory.

    V(k omega_1) is Sym^k C^(n+1) in type A, Sym^k C^(2n) in type C, and the
    degree-k harmonic polynomials on C^(2n+1) or C^(2n) in types B and D.
    Counting zero-weight monomials (and subtracting degree k - 2 for the
    harmonic ones) gives the closed forms below; k must make 0 a weight.
    """
    if family == "A":
        return int(k % (n + 1) == 0)
    half = k // 2
    if family in ("B", "C"):
        return comb(half + n - 1, n - 1)
    return comb(half + n - 2, n - 2)


def _graded(seed: int, tiny: bool) -> Workload:
    ops = []
    for r in range(1, (3 if tiny else 6) + 1):
        rs = _system("A", r)
        for i in range(1, r + 1):
            for j in range(i, r + 1):
                ops.append(_closed_form_op(rs, i, j))
    deep = (
        (("A", 3, 8), ("B", 3, 2), ("C", 3, 2), ("D", 4, 2), ("B", 4, 2))
        if tiny
        else (("A", 3, 40), ("B", 3, 8), ("C", 3, 8), ("D", 4, 6), ("B", 4, 4))
    )
    for family, rank, k in deep:
        rs = _system(family, rank)
        lam = tuple(k * c for c in rootsys.fundamental_weights(rs)[0])
        want = _zero_weight_multiplicity(family, rank, k)
        ops.extend(_pair_ops(rs, f"{k}w1", lam, rootsys.zero_weight(rank), want))
    for family, rank in (("B", 3), ("C", 3), ("D", 4)):
        rs = _system(family, rank)
        pairs = altset.sample_weight_pairs(rs, 1 if tiny else 2, seed)
        for n, (lam, mu) in enumerate(pairs):
            ops.extend(_pair_ops(rs, f"sample{n}", lam, mu, None))
    a3 = next(k for family, _, k in deep if family == "A")
    return Workload(ops=tuple(ops), largest=f"q_multiplicity A_3 {a3}w1")


def _closed_form_op(rs, i: int, j: int) -> Op:
    r = rs.rank
    want = (
        QPolynomial.monomial(r + j - i + 1)
        + QPolynomial.monomial(r + j - i)
        - QPolynomial.monomial(j - i + 1)
    )
    mu = rootsys.neg_root(rs, i, j)
    return Op(
        f"q_multiplicity A_{r} -a{i}..{j}",
        lambda: altset.q_multiplicity(rs, rs.highest_root, mu),
        lambda got: _expect(got, want, "criterion-11 closed form"),
    )


def _pair_ops(rs, tag: str, lam, mu, want: int | None) -> list[Op]:
    """multiplicity, then q_multiplicity, of one weight pair.

    The plain count is checked against `want` when a closed form exists; the
    graded count must evaluate at q = 1 to the closed form, or else to the
    plain count.
    """
    name = f"{_name(rs)} {tag}"
    out = {}

    def run_plain():
        out["m"] = altset.multiplicity(rs, lam, mu)
        return out["m"]

    def check_plain(got):
        return None if want is None else _expect(got, want, "zero-weight closed form")

    def check_graded(got):
        reference = want if want is not None else out.get("m")
        return _expect(got.evaluate(1), reference, "graded count at q = 1")

    return [
        Op(f"multiplicity {name}", run_plain, check_plain),
        Op(f"q_multiplicity {name}", lambda: altset.q_multiplicity(rs, lam, mu), check_graded),
    ]


#: The known-defect probe: a command that should print 1001 (weight 0 has
#: multiplicity min(a, b) + 1 in V(a omega_1 + b omega_2) of A_2 when 3 divides
#: a - b) but whose Kostant recursion exceeds the interpreter's recursion limit.
PROBE_ARGV = ("mult", "--family", "A", "--rank", "2", "--lambda", "1000,1000", "--mu", "zero")
PROBE_EXPECTED = "1001"


def run_probe() -> str | None:
    """Run the probe once; None when it gives the expected answer."""
    try:
        got = _cli(PROBE_ARGV)
    except Exception as exc:  # the probe exists to observe this failure
        return type(exc).__name__
    if got.code != 0 or got.text.strip() != PROBE_EXPECTED:
        return f"exit {got.code}, output {got.text.strip()[:60]!r}"
    return None


# -- sweep ------------------------------------------------------------------


def _cli(argv) -> CliRun:
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = cli.run(list(argv))
    return CliRun(code, buffer.getvalue())


def _sweep(seed: int, tiny: bool) -> Workload:
    top = 4 if tiny else 8
    for r in range(1, top + 2):
        _system("A", r)
    for family, rank in (("B", 3), ("C", 3), ("D", 4)):
        _system(family, rank)
    verify = [
        ("verify-catalog", ("catalog", "--max-rank", str(top))),
        ("verify-ideal", ("ideal", "--seed", str(seed)) + (("--pairs", "2") if tiny else ())),
        ("verify-appendix", ("appendix", "--max-rank", str(5 if tiny else 7))),
        ("verify-xbij", ("xbij", "--max-rank", str(top))),
    ]
    counts = ("counts", "--max-rank", str(top), "--jobs", "2")
    ops = [Op("cli.counts", lambda: _cli(counts), lambda got: _check_counts(got, top))]
    for label, argv in verify:
        full = ("verify",) + argv + ("--format", "json")
        ops.append(Op(f"cli.{label}", lambda a=full: _cli(a), _check_verify))
    return Workload(ops=tuple(ops), largest="cli.counts")


def _check_counts(got: CliRun, top: int) -> str | None:
    if got.code != 0:
        return f"exit {got.code}"
    rows = got.text.splitlines()[1:]
    if any(not row.endswith(",true") for row in rows):
        return "a count misses its series coefficient"
    return _digest_check(f"cli.counts {top}", got.text)


def _check_verify(got: CliRun) -> str | None:
    if got.code != 0 or not json.loads(got.text)["ok"]:
        return f"exit {got.code}, report not ok"
    return None
