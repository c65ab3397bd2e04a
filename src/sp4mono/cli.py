"""Command-line front end.

Subcommands:

    tables validate        re-derive and cross-check the 51-row dataset
    tables export          dump the dataset as JSON
    cert verify            verify built-in or user-supplied certificates
    form                   invariant form and anti-diagonalizing basis of a pair
    search                 gamma search and witness derivation for a table row
    report                 one-line summary per table row

Global flags (accepted before or after the subcommand): ``--json`` for
machine-readable output on stdout, ``--data PATH`` to load the dataset and
built-in certificates from an alternate directory (default: packaged data;
the SP4MONO_DATA environment variable supplies a default for --data).

Exit codes: 0 success, 1 verification failure, 2 invalid input,
3 search exhausted.  A batch of certificates exits 1 if any fails.  Every
invalid input exits 2 with a one-line diagnosis on stderr, from the single
handler in ``main``; pairs must have degree 4.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from . import certificates as cert_mod
from . import tables as tables_mod
from .basis import build_basis, checked_basis
from .cyclotomic import ExponentVector, IntPolynomial, from_exponents
from .forms import PUBLISHED_SCALING, SymplecticForm, invariant_form
from .linalg import MatrixQ
from .monodromy import levelt_triple
from .search import STATUS_EXHAUSTED, STATUS_FOUND, derive_witnesses, find_gamma, gcd_obstruction

EXIT_OK = 0
EXIT_VERIFICATION_FAILURE = 1
EXIT_INVALID_INPUT = 2
EXIT_SEARCH_EXHAUSTED = 3


def _print_json(payload) -> None:
    print(json.dumps(payload, indent=1))


def _diag(message: str) -> None:
    print(message, file=sys.stderr)


def _matrix_lines(m: MatrixQ, indent: str = "  ") -> str:
    widths = [max(len(str(m[i, j])) for i in range(m.nrows)) for j in range(m.ncols)]
    return "\n".join(
        indent + "[" + "  ".join(str(m[i, j]).rjust(widths[j]) for j in range(m.ncols)) + "]"
        for i in range(m.nrows)
    )


def _parse_row_spec(text: str) -> tuple[int, int]:
    parts = text.split(":")
    if len(parts) != 2:
        raise ValueError("row must be written table:row, e.g. 3:2")
    return int(parts[0]), int(parts[1])


def _load_rows(args):
    return tables_mod.dataset(Path(args.data) / "tables.json" if args.data else None)


def _load_builtins(args):
    return cert_mod.builtin_certificates(args.data)


# -- subcommand implementations -------------------------------------------
#
# Each raises on invalid input and leaves the diagnosis to ``main``.

def _cmd_tables_validate(args) -> int:
    report = tables_mod.validate_tables(_load_rows(args))
    if args.json:
        _print_json(report.to_json_dict())
    else:
        print("rows: %d" % report.row_count)
        for table_id in sorted(report.counts_by_table):
            print("table %d: %d rows" % (table_id, report.counts_by_table[table_id]))
        for status, count in sorted(report.status_counts.items()):
            print("status %-18s %d" % (status, count))
        if report.ok:
            print("violations: none")
        else:
            print("violations: %d" % len(report.violations))
            for v in report.violations:
                print("  " + str(v))
    return EXIT_OK if report.ok else EXIT_VERIFICATION_FAILURE


def _cmd_tables_export(args) -> int:
    _print_json({"rows": [r.to_json_dict() for r in _load_rows(args)]})
    return EXIT_OK


def _report_human(report) -> None:
    verdict = "certified" if report.arithmetic_certified else "FAILED"
    print("example %s: %s" % (report.example_id, verdict))
    if report.form_scalar is not None:
        print("  computed form = %s * stored form" % report.form_scalar)
    if report.gram is not None:
        print("  Gram constants: (%s, %s)" % report.gram)
    for step in report.steps:
        if step.matches_expected is None:
            note = "computed"
        else:
            note = "matches" if step.matches_expected else "MISMATCH"
        print("  %-4s %s" % (step.name, note))
    for w in report.witness_checks:
        print(
            "  witness %-4s claimed %-14s actual %-14s %s"
            % (w.name, w.claimed, w.actual or "-", "ok" if w.ok else "BAD")
        )
    if report.root_coverage is not None:
        print(
            "  coverage: complete=%s highest+second=%s"
            % (report.root_coverage.complete, report.root_coverage.highest_pair)
        )
    for failure in report.failures:
        print("  failure: %s" % failure)


def _cmd_cert_verify(args) -> int:
    if args.file:
        targets = [cert_mod.load_certificate(args.file)]
    else:
        targets = _load_builtins(args)
        if not args.all:
            if not 1 <= args.example <= len(targets):
                raise ValueError("--example must be between 1 and %d" % len(targets))
            targets = [targets[args.example - 1]]
    reports = [cert_mod.verify_certificate(cert) for cert in targets]
    if args.json:
        _print_json([r.to_json_dict() for r in reports])
    else:
        for report in reports:
            _report_human(report)
    return EXIT_OK if all(r.arithmetic_certified for r in reports) else EXIT_VERIFICATION_FAILURE


def _pair_from_args(args) -> tuple:
    if args.alpha or args.beta:
        if not (args.alpha and args.beta):
            raise ValueError("--alpha and --beta must be given together")
        alpha = ExponentVector.from_strings(args.alpha.split(","))
        beta = ExponentVector.from_strings(args.beta.split(","))
        return from_exponents(alpha), from_exponents(beta)
    if args.f or args.g:
        if not (args.f and args.g):
            raise ValueError("--f and --g must be given together")
        f = IntPolynomial.from_list([int(c) for c in args.f.split(",")])
        g = IntPolynomial.from_list([int(c) for c in args.g.split(",")])
        return f, g
    raise ValueError("give either --alpha/--beta or --f/--g")


def _cmd_form(args) -> int:
    f, g = _pair_from_args(args)
    triple = levelt_triple(f, g)
    form = invariant_form(triple)
    basis = build_basis(form, triple.v)
    if args.json:
        _print_json(
            {
                "f": f.to_list(),
                "g": g.to_list(),
                "v": triple.v.to_strings(),
                "form": form.to_json_dict(),
                "basis": basis.to_json_dict(),
                "gram": [str(basis.gram_c1), str(basis.gram_c2)],
            }
        )
    else:
        print("f = %s" % f)
        print("g = %s" % g)
        print("v = (%s)" % ", ".join(triple.v.to_strings()))
        print("invariant symplectic form (%s):" % form.normalization)
        print(_matrix_lines(form.omega))
        print("anti-diagonalizing basis (rows are eps1, eps2, eps2*, eps1*):")
        for v in basis.vectors:
            print("  (%s)" % ", ".join(v.to_strings()))
        print("Gram constants: (%s, %s)" % (basis.gram_c1, basis.gram_c2))
    return EXIT_OK


def _cmd_search(args) -> int:
    builtins = None
    if args.sv is not None:
        # --sv numbers rows as the source 51-row list does; the built-in
        # certificates record that number for their rows.
        builtins = _load_builtins(args)
        row_by_sv = {cert.sv_example: cert.example_id for cert in builtins}
        if args.sv not in row_by_sv:
            raise ValueError("--sv %d has no known table:row correspondence" % args.sv)
        table_id, row_no = _parse_row_spec(row_by_sv[args.sv])
    elif args.row:
        table_id, row_no = _parse_row_spec(args.row)
    else:
        raise ValueError("give --row table:row or --sv N")
    if args.budget < 0:
        raise ValueError("--budget must be >= 0")
    key = "%d:%d" % (table_id, row_no)
    row = tables_mod.row(table_id, row_no, _load_rows(args))
    triple = levelt_triple(row.f, row.g)
    # Progress goes to stderr: JSON events in --json mode, text otherwise.
    if args.json:
        progress = lambda event: _diag(json.dumps(event))  # noqa: E731
    else:
        progress = lambda event: _diag("search: length %(length)d, explored %(explored)d" % event)  # noqa: E731
    result = find_gamma(triple, args.max_len, args.max_exp, progress=progress)

    cov = None
    if result.status == STATUS_FOUND:
        # Rows shipping a certificate carry a published basis; the recipe
        # templates are tuned to that frame, so prefer it when available.
        cert = next((c for c in (builtins or _load_builtins(args)) if c.example_id == key), None)
        if cert is not None and cert.omega is not None:
            form = SymplecticForm(cert.omega, PUBLISHED_SCALING)
            basis = checked_basis(form, cert.basis_vectors)
        else:
            form = invariant_form(triple)
            basis = build_basis(form, triple.v)
        cov = derive_witnesses(triple, form, basis, result.gamma, args.budget)

    if args.json:
        _print_json(
            {
                "row": key,
                "gamma": result.to_json_dict(),
                "coverage": None if cov is None else cov.to_json_dict(),
            }
        )
    else:
        print("row %s" % key)
        print("gamma search: %s" % result.status)
        if result.status == STATUS_FOUND:
            print("  gamma = %s with e4 coefficient %d" % (result.gamma, result.e4_coeff))
            print("  words explored: %d" % result.explored)
            print("  coverage: %s (complete=%s)" % ([str(l) for l in cov.labels()], cov.complete))
        elif result.status == STATUS_EXHAUSTED:
            print("  explored %d words without a hit" % result.explored)
        else:
            print("  obstructed: gcd of v entries is %d" % result.obstruction_gcd)
    if result.status == STATUS_EXHAUSTED:
        return EXIT_SEARCH_EXHAUSTED
    return EXIT_OK


def _cmd_report(args) -> int:
    rows = _load_rows(args)
    builtins = _load_builtins(args)
    tables_report = tables_mod.validate_tables(rows)
    cert_reports = [cert_mod.verify_certificate(c) for c in builtins]
    cert_by_row = {c.example_id: r for c, r in zip(builtins, cert_reports)}
    certified = sum(1 for r in cert_reports if r.arithmetic_certified)

    entries = []
    for row in rows:
        key = "%d:%d" % (row.table_id, row.row_no)
        # A rejected pair is diagnosed by main under this label.
        args.label = "cannot build report: row %s" % key
        triple = levelt_triple(row.f, row.g)
        cert_report = cert_by_row.get(key)
        entries.append(
            {
                "row": key,
                "status": row.status,
                "lead": row.diff.leading_coefficient,
                "vgcd": gcd_obstruction(triple),
                "partner": "%d:%d" % tuple(row.partner),
                "certificate": None if cert_report is None else cert_report.arithmetic_certified,
            }
        )
    if args.json:
        _print_json({"tables_ok": tables_report.ok, "certificates_certified": certified, "rows": entries})
    else:
        print("dataset: %d rows, validation %s" % (len(rows), "ok" if tables_report.ok else "FAILED"))
        print("built-in certificates: %d/%d certified" % (certified, len(cert_reports)))
        for e in entries:
            cert_note = "-" if e["certificate"] is None else ("certified" if e["certificate"] else "FAILED")
            print(
                "  %-5s %-18s lead %3d  vgcd %d  partner %-5s  certificate %s"
                % (e["row"], e["status"], e["lead"], e["vgcd"], e["partner"], cert_note)
            )
    ok = tables_report.ok and certified == len(cert_reports)
    return EXIT_OK if ok else EXIT_VERIFICATION_FAILURE


# -- argument parsing ------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    # SUPPRESS keeps a subparser from overwriting a flag that was already
    # parsed at the top level (e.g. "sp4mono --json tables validate").
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--json", action="store_true", default=argparse.SUPPRESS, help="machine-readable output"
    )
    common.add_argument(
        "--data",
        metavar="PATH",
        default=argparse.SUPPRESS,
        help="directory holding tables.json and certificates/ (default: packaged data)",
    )

    parser = argparse.ArgumentParser(
        prog="sp4mono",
        parents=[common],
        description="Symplectic hypergeometric monodromy groups: forms, certificates, search.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    tables_p = sub.add_parser("tables", parents=[common], help="dataset operations")
    tables_sub = tables_p.add_subparsers(dest="subcommand", required=True)
    tables_sub.add_parser("validate", parents=[common]).set_defaults(
        func=_cmd_tables_validate, label="cannot load dataset"
    )
    tables_sub.add_parser("export", parents=[common]).set_defaults(
        func=_cmd_tables_export, label="cannot load dataset"
    )

    cert_p = sub.add_parser("cert", parents=[common], help="certificate operations")
    cert_sub = cert_p.add_subparsers(dest="subcommand", required=True)
    verify_p = cert_sub.add_parser("verify", parents=[common])
    group = verify_p.add_mutually_exclusive_group(required=True)
    group.add_argument("--example", type=int, metavar="N", help="built-in certificate number (1-8)")
    group.add_argument("--all", action="store_true", help="verify all built-in certificates")
    group.add_argument("--file", metavar="PATH", help="verify a certificate JSON file")
    verify_p.set_defaults(func=_cmd_cert_verify, label="cannot verify certificate")

    form_p = sub.add_parser("form", parents=[common], help="invariant form of a pair")
    form_p.add_argument("--alpha", metavar="A1,A2,A3,A4", help="exponent vector for f")
    form_p.add_argument("--beta", metavar="B1,B2,B3,B4", help="exponent vector for g")
    form_p.add_argument("--f", metavar="C0,...,C4", help="ascending coefficients of f")
    form_p.add_argument("--g", metavar="C0,...,C4", help="ascending coefficients of g")
    form_p.set_defaults(func=_cmd_form, label="invalid pair")

    search_p = sub.add_parser("search", parents=[common], help="gamma search for a table row")
    search_p.add_argument("--row", metavar="T:N", help="table:row, e.g. 3:2")
    search_p.add_argument("--sv", type=int, metavar="N", help="row via the source list numbering")
    search_p.add_argument("--max-len", type=int, default=2, help="maximum word length (default 2)")
    search_p.add_argument("--max-exp", type=int, default=8, help="maximum |exponent| (default 8)")
    search_p.add_argument("--budget", type=int, default=30, help="template parameter bound (default 30)")
    search_p.set_defaults(func=_cmd_search, label="cannot run search")

    report_p = sub.add_parser("report", parents=[common], help="summary across all rows")
    report_p.set_defaults(func=_cmd_report, label="cannot build report")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    args.json = getattr(args, "json", False)
    args.data = getattr(args, "data", None) or os.environ.get("SP4MONO_DATA")
    # The package's one input-error boundary.  ValueError (which every
    # package error class derives from), KeyError from a row lookup and
    # OSError from --data or --file mean invalid input: one stderr line,
    # exit 2.  Any other exception is a bug and propagates.  str() of a
    # KeyError quotes its message, so that is printed from args[0].
    try:
        return args.func(args)
    except (ValueError, KeyError, OSError) as exc:
        message = exc.args[0] if isinstance(exc, KeyError) and len(exc.args) == 1 else exc
        _diag("%s: %s" % (args.label, " ".join(str(message).split())))
        return EXIT_INVALID_INPUT


if __name__ == "__main__":
    sys.exit(main())
