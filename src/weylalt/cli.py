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
import sys
from concurrent.futures import ProcessPoolExecutor
from fractions import Fraction

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
    verify_trichotomy,
    verify_x_bijection,
)
from .weyl import GroupSizeError, word_text

__all__ = ["run", "entry", "UsageError"]

_VERIFY_SUITES = (
    "ideal",
    "bijection",
    "catalog",
    "recurrences",
    "genfunc",
    "conjecture",
    "appendix",
    "xbij",
)

_SAMPLED_SYSTEMS = (("A", 4), ("B", 3), ("C", 3), ("D", 4))

_CONJECTURE_BANNER = (
    "== conjecture check ==\n"
    "The identities below are verified on bounded-rank instances only;\n"
    "passing checks do not constitute a proof."
)


class UsageError(ValueError):
    """Bad flag values discovered after argparse accepts the shape."""


def _system(args) -> RootSystem:
    try:
        return build_root_system(RootSystemSpec(args.family, args.rank))
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


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
        coords = tuple(Fraction(b) for b in item.split(","))
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


def _fraction_json(value: Fraction):
    return int(value) if value.denominator == 1 else str(value)


def _add_system_flags(parser) -> None:
    parser.add_argument("--family", required=True, choices=["A", "B", "C", "D"])
    parser.add_argument("--rank", required=True, type=int)


def _add_weight_flags(parser) -> None:
    parser.add_argument(
        "--lambda",
        dest="lam",
        required=True,
        metavar="WEIGHT",
        help="highest-root | zero | neg-root:i:j | partition:p1,p2,... | c1,c2,...",
    )
    parser.add_argument("--mu", required=True, metavar="WEIGHT")


def _add_output_flags(parser, formats=("text", "json")) -> None:
    if formats:
        parser.add_argument("--format", choices=list(formats), default=formats[0])
    parser.add_argument("--out", default=None, metavar="FILE")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="weylalt",
        description="Weyl alternation sets, subword catalogs, and their checks.",
    )
    parser.add_argument("--version", action="version", version=f"weylalt {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("altset", help="compute one alternation set")
    _add_system_flags(p)
    _add_weight_flags(p)
    _add_output_flags(p)

    p = sub.add_parser("bas", help="compute basic allowable subwords")
    _add_system_flags(p)
    _add_weight_flags(p)
    _add_output_flags(p)

    p = sub.add_parser("mult", help="weight multiplicity")
    _add_system_flags(p)
    _add_weight_flags(p)
    _add_output_flags(p)

    p = sub.add_parser("qmult", help="q-graded weight multiplicity")
    _add_system_flags(p)
    _add_weight_flags(p)
    _add_output_flags(p)

    p = sub.add_parser("hasse", help="alternation-set cover graph as DOT")
    _add_system_flags(p)
    _add_weight_flags(p)
    _add_output_flags(p, formats=())

    p = sub.add_parser("depgraph", help="subword dependence graph as DOT")
    _add_system_flags(p)
    _add_weight_flags(p)
    _add_output_flags(p, formats=())

    p = sub.add_parser("catalog", help="closed-form subword catalog (family A)")
    p.add_argument("--rank", required=True, type=int)
    p.add_argument("--i", required=True, type=int)
    p.add_argument("--j", required=True, type=int)
    _add_output_flags(p)

    p = sub.add_parser("counts", help="CSV sweep of alternation-set sizes")
    p.add_argument("--max-rank", type=int, default=9)
    p.add_argument("--jobs", type=int, default=1)
    _add_output_flags(p, formats=())

    p = sub.add_parser("gf", help="series coefficients of the counting functions")
    p.add_argument(
        "--series",
        required=True,
        choices=["p", "h", "p-bivariate", "h-bivariate", "grand"],
    )
    p.add_argument("--i", type=int, default=None, help="series index for p/h")
    p.add_argument("--max-degree", type=int, default=DEFAULT_TRUNCATION)
    p.add_argument("--max-rank", type=int, default=8)
    _add_output_flags(p)

    p = sub.add_parser("verify", help="run a named verification suite")
    p.add_argument("suite", choices=list(_VERIFY_SUITES))
    p.add_argument("--max-rank", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--pairs", type=int, default=20)
    _add_output_flags(p)
    return parser


def _cmd_altset(args) -> int:
    rs = _system(args)
    lam = _parse_weight(rs, args.lam, "--lambda")
    mu = _parse_weight(rs, args.mu, "--mu")
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


def _cmd_bas(args) -> int:
    rs = _system(args)
    lam = _parse_weight(rs, args.lam, "--lambda")
    mu = _parse_weight(rs, args.mu, "--mu")
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


def _mult_payload(args, graded: bool):
    rs = _system(args)
    lam = _parse_weight(rs, args.lam, "--lambda")
    mu = _parse_weight(rs, args.mu, "--mu")
    value = q_multiplicity(rs, lam, mu) if graded else multiplicity(rs, lam, mu)
    return rs, lam, mu, value


def _cmd_mult(args) -> int:
    rs, lam, mu, value = _mult_payload(args, graded=False)
    if args.format == "json":
        payload = {
            "family": rs.spec.family,
            "rank": rs.rank,
            "lambda": [str(c) for c in lam],
            "mu": [str(c) for c in mu],
            "multiplicity": value,
        }
        _emit(json.dumps(payload, indent=2), args.out)
    else:
        _emit(str(value), args.out)
    return 0


def _cmd_qmult(args) -> int:
    rs, lam, mu, value = _mult_payload(args, graded=True)
    if args.format == "json":
        payload = {
            "family": rs.spec.family,
            "rank": rs.rank,
            "lambda": [str(c) for c in lam],
            "mu": [str(c) for c in mu],
            "q_multiplicity": str(value),
            "coefficients": list(value.coeffs),
        }
        _emit(json.dumps(payload, indent=2), args.out)
    else:
        _emit(str(value), args.out)
    return 0


def _cmd_hasse(args) -> int:
    rs = _system(args)
    lam = _parse_weight(rs, args.lam, "--lambda")
    mu = _parse_weight(rs, args.mu, "--mu")
    _emit(altset_to_dot(compute(rs, lam, mu)), args.out)
    return 0


def _cmd_depgraph(args) -> int:
    rs = _system(args)
    lam = _parse_weight(rs, args.lam, "--lambda")
    mu = _parse_weight(rs, args.mu, "--mu")
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


def _count_cell(triple):
    return alternation_count(*triple)


def _cmd_counts(args) -> int:
    if args.jobs < 1:
        raise UsageError("--jobs must be at least 1")
    grand = series_grand(args.max_rank)
    triples = [
        (r, i, j)
        for r in range(1, args.max_rank + 1)
        for i in range(1, r + 1)
        for j in range(i, r + 1)
    ]
    if args.jobs > 1:
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            counts = list(pool.map(_count_cell, triples))
    else:
        counts = [_count_cell(t) for t in triples]
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["r", "i", "j", "count", "formula_value", "match"])
    for (r, i, j), count in zip(triples, counts):
        formula = grand.coefficient((r, i, j))
        writer.writerow(
            [r, i, j, count, _fraction_json(formula), str(count == formula).lower()]
        )
    _emit(buffer.getvalue(), args.out)
    return 0


def _gf_series(args):
    if args.series in ("p", "h"):
        if args.i is None:
            raise UsageError("--i is required for the univariate series")
        builder = series_p if args.series == "p" else series_h
        try:
            return builder(args.i, args.max_degree)
        except ValueError as exc:
            raise UsageError(str(exc)) from exc
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
                {"exponents": list(e), "value": _fraction_json(c)} for e, c in terms
            ],
        }
        _emit(json.dumps(payload, indent=2), args.out)
        return 0
    lines = []
    for exponents, value in terms:
        label = " ".join(
            f"{v}^{e}" for v, e in zip(series.variables, exponents) if e
        )
        lines.append(f"{label or '1'}: {_fraction_json(value)}")
    _emit("\n".join(lines) if lines else "(zero series)", args.out)
    return 0


def _suite_ideal(args) -> Report:
    report = Report(title="order ideal and oracle agreement")
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
    for system, lam, mu in jobs:
        report.absorb(verify_order_ideal(system, lam, mu))
        fast = compute(system, lam, mu)
        naive = compute_naive(system, lam, mu)
        report.check(
            fast.elements == naive.elements,
            f"ideal and naive computations disagree in "
            f"{system.spec.family}_{system.rank} at lambda={lam}, mu={mu}",
        )
    return report


def _suite_bijection(args) -> Report:
    report = Report(title="independent-subset factorization")
    rs = build_root_system(RootSystemSpec("A", 4))
    for i in range(1, 5):
        for j in range(i, 5):
            report.absorb(verify_bijection(rs, rs.highest_root, neg_root(rs, i, j)))
    for family, rank in _SAMPLED_SYSTEMS:
        system = build_root_system(RootSystemSpec(family, rank))
        for lam, mu in sample_weight_pairs(system, args.pairs, args.seed):
            report.absorb(verify_bijection(system, lam, mu))
    return report


def _run_suite(args) -> tuple[Report, str | None]:
    def max_rank(default: int) -> int:
        return default if args.max_rank is None else args.max_rank
    if args.suite == "ideal":
        return _suite_ideal(args), None
    if args.suite == "bijection":
        return _suite_bijection(args), None
    if args.suite == "catalog":
        return verify_catalogs(max_rank(9)), None
    if args.suite == "recurrences":
        return verify_recurrences(max_rank(9)), None
    if args.suite == "genfunc":
        return verify_generating_functions(max_rank(9)), None
    if args.suite == "conjecture":
        return verify_conjecture(max_rank(7)), _CONJECTURE_BANNER
    if args.suite == "appendix":
        report = Report(title="forbidden words and product trichotomy")
        report.absorb(verify_forbidden(max_rank(8)))
        report.absorb(verify_trichotomy(4, max_rank(8)))
        return report, None
    report = Report(title="sequence encodings")
    for r in range(1, max_rank(10) + 1):
        report.absorb(verify_x_bijection(r))
    return report, None


def _cmd_verify(args) -> int:
    report, banner = _run_suite(args)
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


_HANDLERS = {
    "altset": _cmd_altset,
    "bas": _cmd_bas,
    "mult": _cmd_mult,
    "qmult": _cmd_qmult,
    "hasse": _cmd_hasse,
    "depgraph": _cmd_depgraph,
    "catalog": _cmd_catalog,
    "counts": _cmd_counts,
    "gf": _cmd_gf,
    "verify": _cmd_verify,
}


def run(argv=None) -> int:
    """Parse arguments, dispatch, and return the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        for flag, floor in (("max_rank", 1), ("max_degree", 0), ("pairs", 0)):
            value = getattr(args, flag, None)
            if value is not None and value < floor:
                raise UsageError(f"--{flag.replace('_', '-')} must be at least {floor}")
        return _HANDLERS[args.command](args)
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
