"""Command-line front-end for alternation sets, subwords, and verifications.

Every subcommand is a thin composition of library calls: single
computations print as text or JSON, graph exports emit DOT, sweeps emit
CSV, and `verify` runs a named suite of module reports.  Exit status is 0
for success, 1 for a verification or computation failure (accompanied by a
machine-readable JSON document), and 2 for usage errors.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import re
import sys
import warnings
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial
from typing import Callable

from . import __version__
from .altset import (
    compute,
    compute_naive,
    multiplicity,
    q_multiplicity,
    sample_weight_pairs,
    verify_conjecture,
    verify_order_ideal,
)
from .altset import to_dot as altset_to_dot
from .altset import to_json as altset_to_json
from .bas import EmptyAlternationSetError, compute_bas, verify_bijection
from .bas import to_dot as bas_to_dot
from .bas import to_json as bas_to_json
from .enumeration import (
    DEFAULT_TRUNCATION,
    alternation_count,
    check_rank_budget,
    series_grand,
    series_h,
    series_h_bivariate,
    series_p,
    series_p_bivariate,
    verify_generating_functions,
    verify_recurrences,
)
from .reporting import Report
from .rootsys import (
    FAMILIES,
    RootSystem,
    RootSystemSpec,
    as_weight,
    build_root_system,
    neg_root,
    partition_to_weight,
    zero_weight,
)
from .typea import (
    catalog_bas,
    verify_catalogs,
    verify_forbidden,
    verify_sequence_encodings,
    verify_trichotomy,
)
from .weyl import GroupSizeError, word_text

__all__ = ["run", "entry", "UsageError"]

_SAMPLED_SYSTEMS = (("A", 4), ("B", 3), ("C", 3), ("D", 4))

_CONJECTURE_BANNER = (
    "== conjecture check ==\n"
    "The identities below are verified on bounded-rank instances only;\n"
    "passing checks do not constitute a proof."
)

# The decimal exponent of a coordinate such as 1e100; Fraction would expand
# it into a power of ten with that many digits.
_EXPONENT = re.compile(r"e[-+]?(\d+(?:_\d+)*)\s*$", re.IGNORECASE)


class UsageError(ValueError):
    """Bad flag values discovered after argparse accepts the shape."""


def _coordinate(text: str) -> Fraction:
    """Fraction(text), refusing an exponent above the integer digit limit.

    The limit is the one Python puts on integer literals
    (sys.get_int_max_str_digits), so no coordinate costs more to read than
    an integer the interpreter would accept.
    """
    exponent = _EXPONENT.search(text)
    limit = sys.get_int_max_str_digits()
    if exponent and limit and int(exponent.group(1)) > limit:
        raise ValueError(f"exponent of {text!r} exceeds {limit} digits")
    return Fraction(text)


def _parse_weight(rs: RootSystem, text: str, flag: str):
    item = text.strip()
    if item == "highest-root":
        return rs.highest_root
    if item == "zero":
        return zero_weight(rs.rank)
    if item.startswith("neg-root:"):
        bits = item.split(":")
        try:
            i, j = int(bits[1]), int(bits[2])
        except (IndexError, ValueError) as exc:
            raise UsageError(f"{flag}: expected neg-root:i:j, got {text!r}") from exc
        if len(bits) != 3:
            raise UsageError(f"{flag}: expected neg-root:i:j, got {text!r}")
        try:
            return neg_root(rs, i, j)
        except ValueError as exc:
            raise UsageError(f"{flag}: {exc}") from exc
    if item.startswith("partition:"):
        if rs.spec.family != "A":
            raise UsageError(f"{flag}: partition weights are specific to family A")
        body = item[len("partition:") :]
        try:
            parts = tuple(int(b) for b in body.split(","))
            return partition_to_weight(parts, rs.rank)
        except ValueError as exc:
            raise UsageError(f"{flag}: {exc}") from exc
    try:
        coords = tuple(_coordinate(b) for b in item.split(","))
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"{flag}: cannot parse weight {text!r}") from exc
    if len(coords) != rs.rank:
        raise UsageError(
            f"{flag}: expected {rs.rank} coordinates, got {len(coords)}"
        )
    return as_weight(coords)


def _emit(text: str, out: str | None) -> None:
    if not text.endswith("\n"):
        text += "\n"
    if out:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _cmd_altset(args, rs, lam, mu) -> int:
    aset = compute(rs, lam, mu)
    if args.format == "json":
        _emit(altset_to_json(rs, aset), args.out)
        return 0
    lines = [
        f"{rs.spec.family}_{rs.rank} alternation set: {len(aset)} elements",
    ]
    for sigma in aset.elements:
        lines.append(f"{sigma.length:>3}  {word_text(sigma.word)}")
    _emit("\n".join(lines), args.out)
    return 0


def _cmd_bas(args, rs, lam, mu) -> int:
    basset = compute_bas(rs, lam, mu)
    if args.format == "json":
        _emit(bas_to_json(rs, basset), args.out)
        return 0
    lines = [
        f"{rs.spec.family}_{rs.rank} basic allowable subwords: {len(basset)}",
    ]
    for sigma in basset.members:
        lines.append(f"{sigma.length:>3}  {word_text(sigma.word)}")
    lines.append(f"dependence edges: {len(basset.dependence_edges)}")
    _emit("\n".join(lines), args.out)
    return 0


def _cmd_mult(args, rs, lam, mu, graded: bool) -> int:
    value = q_multiplicity(rs, lam, mu) if graded else multiplicity(rs, lam, mu)
    if args.format == "text":
        _emit(str(value), args.out)
        return 0
    payload = {
        "family": rs.spec.family,
        "rank": rs.rank,
        "lambda": [str(c) for c in lam],
        "mu": [str(c) for c in mu],
    }
    if graded:
        payload["q_multiplicity"] = str(value)
        payload["coefficients"] = list(value.coeffs)
    else:
        payload["multiplicity"] = value
    _emit(json.dumps(payload, indent=2), args.out)
    return 0


def _cmd_hasse(args, rs, lam, mu) -> int:
    _emit(altset_to_dot(compute(rs, lam, mu)), args.out)
    return 0


def _cmd_depgraph(args, rs, lam, mu) -> int:
    _emit(bas_to_dot(compute_bas(rs, lam, mu)), args.out)
    return 0


def _cmd_catalog(args) -> int:
    try:
        entries = catalog_bas(args.rank, args.i, args.j)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    if args.format == "json":
        payload = {
            "rank": args.rank,
            "i": args.i,
            "j": args.j,
            "entries": [
                {"shape": e.shape, "k": e.k, "word": list(e.word)} for e in entries
            ],
        }
        _emit(json.dumps(payload, indent=2), args.out)
        return 0
    lines = [f"catalog for A_{args.rank}, root {args.i}..{args.j}: {len(entries)} entries"]
    for shape in "abcde":
        words = [word_text(e.word) for e in entries if e.shape == shape]
        lines.append(f"({shape})  " + (", ".join(words) if words else "(none)"))
    _emit("\n".join(lines), args.out)
    return 0


def _cmd_counts(args) -> int:
    check_rank_budget(args.max_rank)
    grand = series_grand(args.max_rank)
    triples = [
        (r, i, j)
        for r in range(1, args.max_rank + 1)
        for i in range(1, r + 1)
        for j in range(i, r + 1)
    ]
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["r", "i", "j", "count", "formula_value", "match"])
    for r, i, j in triples:
        count = alternation_count(r, i, j)
        formula = grand.coefficient((r, i, j))
        writer.writerow(
            [r, i, j, count, formula, str(count == formula).lower()]
        )
    _emit(buffer.getvalue(), args.out)
    return 0


def _gf_series(args):
    if args.series in ("p", "h"):
        if args.i is None:
            raise UsageError("--i is required for the univariate series")
        if args.i not in (1, 2, 3):
            raise UsageError(
                f"closed univariate {args.series} series exist for i in 1..3, got {args.i}"
            )
        builder = series_p if args.series == "p" else series_h
        return builder(args.i, args.max_degree)
    if args.series == "p-bivariate":
        return series_p_bivariate(args.max_degree, args.max_degree)
    if args.series == "h-bivariate":
        return series_h_bivariate(args.max_degree, args.max_degree)
    return series_grand(args.max_rank)


def _cmd_gf(args) -> int:
    series = _gf_series(args)
    terms = series.terms()
    if args.format == "json":
        payload = {
            "series": args.series,
            "variables": list(series.variables),
            "truncation": list(series.truncation),
            "terms": [
                {"exponents": list(e), "value": c} for e, c in terms
            ],
        }
        _emit(json.dumps(payload, indent=2), args.out)
        return 0
    lines = []
    for exponents, value in terms:
        label = " ".join(
            f"{v}^{e}" for v, e in zip(series.variables, exponents) if e
        )
        lines.append(f"{label or '1'}: {value}")
    _emit("\n".join(lines) if lines else "(zero series)", args.out)
    return 0


def _sampled_pairs(args):
    """A_4 at (highest root, -alpha_{i,j}), then sampled pairs per system."""
    rs = build_root_system(RootSystemSpec("A", 4))
    jobs = [
        (rs, rs.highest_root, neg_root(rs, i, j))
        for i in range(1, 5)
        for j in range(i, 5)
    ]
    for family, rank in _SAMPLED_SYSTEMS:
        system = build_root_system(RootSystemSpec(family, rank))
        for lam, mu in sample_weight_pairs(system, args.pairs, args.seed):
            jobs.append((system, lam, mu))
    return jobs


def _suite_ideal(args) -> Report:
    report = Report(title="order ideal and oracle agreement")
    for system, lam, mu in _sampled_pairs(args):
        fast = compute(system, lam, mu)
        report.absorb(verify_order_ideal(system, fast))
        naive = compute_naive(system, lam, mu)
        report.check(
            fast.elements == naive.elements,
            f"ideal and naive computations disagree in "
            f"{system.spec.family}_{system.rank} at lambda={lam}, mu={mu}",
        )
    return report


def _suite_bijection(args) -> Report:
    report = Report(title="independent-subset factorization")
    for system, lam, mu in _sampled_pairs(args):
        report.absorb(verify_bijection(system, lam, mu))
    return report


def _suite_appendix(max_r: int) -> Report:
    # The trichotomy half runs first, so that its set-budget pre-check
    # refuses an over-budget rank before verify_forbidden walks any rank.
    trichotomy = verify_trichotomy(max_r)
    report = Report(title="forbidden words and product trichotomy")
    report.absorb(verify_forbidden(max_r))
    report.absorb(trichotomy)
    return report


#: Suite name -> (default --max-rank, report builder taking the parsed
#: arguments and the rank, banner printed above the report).  The sampled
#: suites take --pairs and --seed instead of a rank.
_VERIFY_SUITES = {
    "ideal": (None, lambda args, max_r: _suite_ideal(args), None),
    "bijection": (None, lambda args, max_r: _suite_bijection(args), None),
    "catalog": (9, lambda args, max_r: verify_catalogs(max_r), None),
    "recurrences": (9, lambda args, max_r: verify_recurrences(max_r), None),
    "genfunc": (9, lambda args, max_r: verify_generating_functions(max_r), None),
    "conjecture": (7, lambda args, max_r: verify_conjecture(max_r), _CONJECTURE_BANNER),
    "appendix": (8, lambda args, max_r: _suite_appendix(max_r), None),
    "xbij": (10, lambda args, max_r: verify_sequence_encodings(max_r), None),
}


def _cmd_verify(args) -> int:
    default_rank, build, banner = _VERIFY_SUITES[args.suite]
    report = build(args, default_rank if args.max_rank is None else args.max_rank)
    payload = {"suite": args.suite, "ok": report.ok, "reports": [report.as_dict()]}
    if banner:
        payload["banner"] = banner
    if args.format == "json":
        _emit(json.dumps(payload, indent=2), args.out)
        return 0 if report.ok else 1
    lines = []
    if banner:
        lines.append(banner)
    lines.append(report.summary())
    for detail in report.failures:
        lines.append(f"  failure: {detail}")
    if not report.ok:
        lines.append(json.dumps(payload))
    _emit("\n".join(lines), args.out)
    return 0 if report.ok else 1


@dataclass(frozen=True)
class _Command:
    """One subcommand: help line, handler, flags and output formats.

    A weight-pair command takes the flags of _WEIGHT_PAIR_FLAGS, which are
    parsed into a root system and two weights before dispatch, and its
    handler is called as handler(args, rs, lam, mu); any other handler is
    called as handler(args).  Every command also takes --out, and --format
    when it has formats, the first being the default.
    """

    help: str
    handler: Callable[..., int]
    flags: tuple = ()
    formats: tuple[str, ...] = ("text", "json")
    weight_pair: bool = False


_WEIGHT_PAIR_FLAGS = (
    ("--family", {"required": True, "choices": list(FAMILIES)}),
    ("--rank", {"required": True, "type": int}),
    (
        "--lambda",
        {
            "dest": "lam",
            "required": True,
            "metavar": "WEIGHT",
            "help": "highest-root | zero | neg-root:i:j | partition:p1,p2,... | c1,c2,...",
        },
    ),
    ("--mu", {"required": True, "metavar": "WEIGHT"}),
)

_COMMANDS = {
    "altset": _Command("compute one alternation set", _cmd_altset, weight_pair=True),
    "bas": _Command("compute basic allowable subwords", _cmd_bas, weight_pair=True),
    "mult": _Command(
        "weight multiplicity", partial(_cmd_mult, graded=False), weight_pair=True
    ),
    "qmult": _Command(
        "q-graded weight multiplicity", partial(_cmd_mult, graded=True), weight_pair=True
    ),
    "hasse": _Command(
        "alternation-set cover graph as DOT", _cmd_hasse, formats=(), weight_pair=True
    ),
    "depgraph": _Command(
        "subword dependence graph as DOT", _cmd_depgraph, formats=(), weight_pair=True
    ),
    "catalog": _Command(
        "closed-form subword catalog (family A)",
        _cmd_catalog,
        flags=(
            ("--rank", {"required": True, "type": int}),
            ("--i", {"required": True, "type": int}),
            ("--j", {"required": True, "type": int}),
        ),
    ),
    "counts": _Command(
        "CSV sweep of alternation-set sizes",
        _cmd_counts,
        flags=(
            ("--max-rank", {"type": int, "default": 9}),
            ("--jobs", {"type": int, "default": 1, "help": "accepted; has no effect"}),
        ),
        formats=(),
    ),
    "gf": _Command(
        "series coefficients of the counting functions",
        _cmd_gf,
        flags=(
            (
                "--series",
                {
                    "required": True,
                    "choices": ["p", "h", "p-bivariate", "h-bivariate", "grand"],
                },
            ),
            ("--i", {"type": int, "default": None, "help": "series index for p/h"}),
            ("--max-degree", {"type": int, "default": DEFAULT_TRUNCATION}),
            ("--max-rank", {"type": int, "default": 8}),
        ),
    ),
    "verify": _Command(
        "run a named verification suite",
        _cmd_verify,
        flags=(
            ("suite", {"choices": list(_VERIFY_SUITES)}),
            ("--max-rank", {"type": int, "default": None}),
            ("--seed", {"type": int, "default": 0}),
            ("--pairs", {"type": int, "default": 20}),
        ),
    ),
}


@lru_cache(maxsize=1)
def _build_parser() -> argparse.ArgumentParser:
    """The one parser of the process; parse_args leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="weylalt",
        description="Weyl alternation sets, subword catalogs, and their checks.",
    )
    parser.add_argument("--version", action="version", version=f"weylalt {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        for flag, options in _WEIGHT_PAIR_FLAGS if command.weight_pair else command.flags:
            p.add_argument(flag, **options)
        if command.formats:
            p.add_argument(
                "--format", choices=list(command.formats), default=command.formats[0]
            )
        p.add_argument("--out", default=None, metavar="FILE")
    return parser


def run(argv=None) -> int:
    """Parse arguments, dispatch, and return the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    # Library warnings reach stderr as one plain line each, without the
    # source path and code line that warnings.showwarning would print.
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            return _dispatch(args)
        finally:
            for message in dict.fromkeys(str(w.message) for w in caught):
                print(f"warning: {message}", file=sys.stderr)


def _dispatch(args) -> int:
    try:
        floors = (("max_rank", 1), ("max_degree", 0), ("pairs", 0), ("jobs", 1))
        for flag, floor in floors:
            value = getattr(args, flag, None)
            if value is not None and value < floor:
                raise UsageError(f"--{flag.replace('_', '-')} must be at least {floor}")
        command = _COMMANDS[args.command]
        if not command.weight_pair:
            return command.handler(args)
        try:
            rs = build_root_system(RootSystemSpec(args.family, args.rank))
        except ValueError as exc:
            raise UsageError(str(exc)) from exc
        lam = _parse_weight(rs, args.lam, "--lambda")
        mu = _parse_weight(rs, args.mu, "--mu")
        return command.handler(args, rs, lam, mu)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (EmptyAlternationSetError, GroupSizeError, ValueError, OSError) as exc:
        print(json.dumps({"ok": False, "error": str(exc)}))
        return 1


def entry() -> None:
    sys.exit(run())


if __name__ == "__main__":
    entry()
