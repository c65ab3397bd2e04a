"""Machine-checkable arithmeticity certificates.

A certificate packages one worked arithmeticity proof as data: the
exponent vectors of the pair, the published invariant form and
anti-diagonalizing basis, a list of named word definitions (words in the
generators plus products, powers and commutators of earlier names), the
published matrices those definitions must reproduce in basis coordinates,
and four witness names with claimed root labels.  ``verify_certificate``
rebuilds everything from the exponent vectors alone and replays each step
exactly; any divergence is reported, never glossed over.

Eight certificates ship with the package, one per worked example.  The
expression grammar for definitions:

    expr    := factor+                 juxtaposition is matrix product
    factor  := primary ('^' integer)?
    primary := NAME | '(' expr ')' | '[' expr ',' expr ']'

with [a, b] = a b a^-1 b^-1, and the base names A, B, C available in every
certificate (C = A^-1 B).
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, replace
from fractions import Fraction
from importlib import resources
from pathlib import Path
from typing import Iterator, Mapping

from .basis import checked_basis
from .cyclotomic import ExponentVector, from_exponents
from .forms import PUBLISHED_SCALING, SymplecticForm, check_symplectic, invariant_form
from .linalg import MatrixQ, VectorQ, proportionality
from .monodromy import levelt_triple
from .roots import RootCoverage, RootLabel, classify_unipotent, coverage, is_in_U


class CertificateError(ValueError):
    """Malformed certificate (bad expression, bad JSON, bad exponents)."""


# -- expression language -------------------------------------------------

_TOKEN = re.compile(r"\s*(?:(?P<name>[A-Za-z_][A-Za-z_0-9]*)|(?P<sym>\^|\(|\)|\[|\]|,)|(?P<int>-?\d+))")


def _tokenize(text: str) -> list:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None or m.end() == pos:
            if text[pos:].strip() == "":
                break
            raise CertificateError("cannot tokenize %r at position %d" % (text, pos))
        if m.group("name"):
            tokens.append(("name", m.group("name")))
        elif m.group("sym"):
            tokens.append(("sym", m.group("sym")))
        else:
            tokens.append(("int", int(m.group("int"))))
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, tokens, env: Mapping[str, MatrixQ], source: str):
        self.tokens = tokens
        self.pos = 0
        self.env = env
        self.source = source

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self):
        token = self.peek()
        if token is None:
            raise CertificateError("unexpected end of expression %r" % self.source)
        self.pos += 1
        return token

    def expect(self, sym: str):
        token = self.take()
        if token != ("sym", sym):
            raise CertificateError("expected %r in %r, got %r" % (sym, self.source, token))

    def parse_expr(self) -> MatrixQ:
        result = None
        while True:
            token = self.peek()
            if token is None or token in (("sym", ")"), ("sym", "]"), ("sym", ",")):
                break
            factor = self.parse_factor()
            result = factor if result is None else result * factor
        if result is None:
            raise CertificateError("empty expression in %r" % self.source)
        return result

    def parse_factor(self) -> MatrixQ:
        base = self.parse_primary()
        if self.peek() == ("sym", "^"):
            self.take()
            token = self.take()
            if token[0] != "int":
                raise CertificateError("expected integer exponent in %r" % self.source)
            return base ** token[1]
        return base

    def parse_primary(self) -> MatrixQ:
        token = self.take()
        if token[0] == "name":
            name = token[1]
            if name not in self.env:
                raise CertificateError("unknown name %r in %r" % (name, self.source))
            return self.env[name]
        if token == ("sym", "("):
            inner = self.parse_expr()
            self.expect(")")
            return inner
        if token == ("sym", "["):
            left = self.parse_expr()
            self.expect(",")
            right = self.parse_expr()
            self.expect("]")
            return left * right * left.inverse() * right.inverse()
        raise CertificateError("unexpected token %r in %r" % (token, self.source))


def evaluate_expression(expr: str, env: Mapping[str, MatrixQ]) -> MatrixQ:
    """Evaluate a definition expression against named matrices."""
    parser = _Parser(_tokenize(expr), env, expr)
    result = parser.parse_expr()
    if parser.peek() is not None:
        raise CertificateError("trailing tokens in %r" % expr)
    return result


# -- certificate data ----------------------------------------------------

@dataclass(frozen=True)
class Certificate:
    example_id: str
    alpha: ExponentVector
    beta: ExponentVector
    basis_vectors: tuple
    reversed_basis: bool
    definitions: tuple  # ((name, expr), ...) in dependency order
    expected: Mapping  # name -> MatrixQ, integral
    witnesses: tuple  # ((name, RootLabel), ...)
    omega: MatrixQ | None = None  # published standard-basis form
    gram: tuple | None = None  # published anti-diagonal constants (c1, c2)
    sv_example: int | None = None  # row number in the source 51-row list

    def __post_init__(self):
        seen = set(("A", "B", "C"))
        for name, _ in self.definitions:
            if name in seen:
                raise CertificateError("name %r defined twice" % name)
            seen.add(name)
        for name, _ in self.witnesses:
            if name not in seen:
                raise CertificateError("witness %r is never defined" % name)
        for name, m in self.expected.items():
            if name not in seen:
                raise CertificateError("expected matrix for undefined name %r" % name)
            if not m.is_integral():
                raise CertificateError("expected matrix for %r is not integral" % name)
            if (m.nrows, m.ncols) != (4, 4):
                raise CertificateError("expected matrix for %r is not 4x4" % name)
        if self.omega is not None and (self.omega.nrows, self.omega.ncols) != (4, 4):
            raise CertificateError("stored form is not 4x4")

    def to_json_dict(self) -> dict:
        out = {
            "example_id": self.example_id,
            "alpha": self.alpha.to_strings(),
            "beta": self.beta.to_strings(),
            "basis": [v.to_strings() for v in self.basis_vectors],
            "reversed_basis": self.reversed_basis,
            "definitions": [{"name": n, "expr": e} for n, e in self.definitions],
            "expected": {n: [[int(x) for x in row] for row in m.rows] for n, m in self.expected.items()},
            "witnesses": [{"name": n, "root": str(label)} for n, label in self.witnesses],
        }
        if self.omega is not None:
            out["omega"] = self.omega.to_strings()
        if self.gram is not None:
            out["gram"] = [str(self.gram[0]), str(self.gram[1])]
        if self.sv_example is not None:
            out["sv_example"] = self.sv_example
        return out


def certificate_from_json_dict(data: dict) -> Certificate:
    try:
        alpha = ExponentVector.from_strings(data["alpha"])
        beta = ExponentVector.from_strings(data["beta"])
        basis_vectors = tuple(VectorQ.from_strings(v) for v in data["basis"])
        definitions = tuple((d["name"], d["expr"]) for d in data["definitions"])
        if not all(isinstance(text, str) for d in definitions for text in d):
            raise CertificateError("definition names and expressions must be strings")
        expected = {
            name: MatrixQ(rows) for name, rows in data.get("expected", {}).items()
        }
        witnesses = tuple(
            (w["name"], RootLabel.from_text(w["root"])) for w in data["witnesses"]
        )
        omega = MatrixQ.from_strings(data["omega"]) if "omega" in data else None
        gram = None
        if "gram" in data:
            c1, c2 = map(Fraction, data["gram"])
            gram = (c1, c2)
        sv_example = data.get("sv_example")
        if sv_example is not None and type(sv_example) is not int:
            raise CertificateError("sv_example must be an integer")
        return Certificate(
            example_id=str(data["example_id"]),
            alpha=alpha,
            beta=beta,
            basis_vectors=basis_vectors,
            reversed_basis=bool(data.get("reversed_basis", False)),
            definitions=definitions,
            expected=expected,
            witnesses=witnesses,
            omega=omega,
            gram=gram,
            sv_example=sv_example,
        )
    except CertificateError:
        raise
    except (KeyError, TypeError, ValueError, AttributeError, ZeroDivisionError, OverflowError) as exc:
        raise CertificateError("malformed certificate: %s" % exc) from exc


def load_certificate(path: str | Path) -> Certificate:
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise CertificateError("cannot read certificate %s: %s" % (path, exc)) from exc
    return certificate_from_json_dict(data)


def builtin_certificates(data_dir: str | Path | None = None) -> list[Certificate]:
    """The eight certificates shipped with the package, in example order."""
    certs = []
    if data_dir is not None:
        root = Path(data_dir) / "certificates"
        for i in range(1, 9):
            certs.append(load_certificate(root / ("example%d.json" % i)))
        return certs
    base = resources.files("sp4mono").joinpath("data/certificates")
    for i in range(1, 9):
        text = base.joinpath("example%d.json" % i).read_text(encoding="utf-8")
        certs.append(certificate_from_json_dict(json.loads(text)))
    return certs


# -- verification --------------------------------------------------------

@dataclass(frozen=True)
class Step:
    name: str
    matrix: MatrixQ  # basis coordinates
    matches_expected: bool | None  # None when no published matrix exists


@dataclass(frozen=True)
class WitnessCheck:
    name: str
    claimed: RootLabel
    actual: RootLabel | None
    ok: bool


@dataclass(frozen=True)
class VerificationReport:
    example_id: str
    steps: tuple
    witness_checks: tuple
    root_coverage: RootCoverage | None
    arithmetic_certified: bool
    failures: tuple
    form_scalar: Fraction | None  # computed form = scalar * published form
    gram: tuple | None
    zariski_density_assumed: bool = True

    @property
    def ok(self) -> bool:
        return self.arithmetic_certified

    def to_json_dict(self) -> dict:
        return {
            "example_id": self.example_id,
            "arithmetic_certified": self.arithmetic_certified,
            "zariski_density_assumed": self.zariski_density_assumed,
            "form_scalar": None if self.form_scalar is None else str(self.form_scalar),
            "gram": None if self.gram is None else [str(self.gram[0]), str(self.gram[1])],
            "steps": [
                {
                    "name": s.name,
                    "matrix": s.matrix.to_strings(),
                    "matches_expected": s.matches_expected,
                }
                for s in self.steps
            ],
            "witnesses": [
                {
                    "name": w.name,
                    "claimed": str(w.claimed),
                    "actual": None if w.actual is None else str(w.actual),
                    "ok": w.ok,
                }
                for w in self.witness_checks
            ],
            "coverage": None if self.root_coverage is None else self.root_coverage.to_json_dict(),
            "failures": list(self.failures),
        }


_REVERSAL = MatrixQ([[0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0], [1, 0, 0, 0]])


def _clip(value) -> str:
    """Render a scalar without tripping the huge-int string guard."""
    numerator = value.numerator if isinstance(value, Fraction) else value
    if abs(numerator) < 10 ** 40:
        return str(value)
    return "<integer with about %d digits>" % round(numerator.bit_length() * 0.30103)


def _first_divergence(name: str, got: MatrixQ, want: MatrixQ) -> str:
    for i in range(want.nrows):
        for j in range(want.ncols):
            if got[i, j] != want[i, j]:
                return "%s: entry (%d, %d) is %s, expected %s" % (
                    name, i + 1, j + 1, _clip(got[i, j]), _clip(want[i, j]),
                )
    return "%s: matrices differ in shape" % name


def _failed_report(cert: Certificate, failures: list) -> VerificationReport:
    return VerificationReport(
        example_id=cert.example_id,
        steps=(),
        witness_checks=(),
        root_coverage=None,
        arithmetic_certified=False,
        failures=tuple(failures),
        form_scalar=None,
        gram=None,
    )


def verify_certificate(cert: Certificate) -> VerificationReport:
    """Recompute every step of a certificate and compare against its data.

    The pair is rebuilt from the exponent vectors, the invariant form is
    recomputed and matched against the stored form up to one rational
    scalar, the stored basis is checked to anti-diagonalize the stored
    form, each definition is evaluated exactly and compared to its
    published matrix, every defined element is checked to be symplectic,
    and the witnesses are classified into root groups (in the reversed
    basis when the certificate says so).  A mismatch in the data makes the
    report fail, and so does a pair, form or basis that cannot be built.

    Raises CertificateError when a definition is malformed or names a
    definition that comes after it; the command line reports that as
    invalid input (exit 2).  A stored form or expected matrix that is not
    4x4 never gets here: building the Certificate rejects it.
    """
    failures: list[str] = []

    try:
        f = from_exponents(cert.alpha)
        g = from_exponents(cert.beta)
        triple = levelt_triple(f, g)
    except ValueError as exc:
        return _failed_report(cert, ["pair construction failed: %s" % exc])

    form_scalar = None
    try:
        computed = invariant_form(triple)
    except ValueError as exc:
        return _failed_report(cert, ["invariant form computation failed: %s" % exc])

    if cert.omega is not None:
        try:
            reference = SymplecticForm(cert.omega, PUBLISHED_SCALING)
        except ValueError as exc:
            return _failed_report(cert, ["stored form rejected: %s" % exc])
        form_scalar = proportionality(computed.omega, reference.omega)
        if form_scalar is None:
            failures.append("computed invariant form is not proportional to the stored form")
    else:
        reference = computed

    try:
        basis = checked_basis(reference, cert.basis_vectors)
    except ValueError as exc:
        failures.append("stored basis rejected: %s" % exc)
        return _failed_report(cert, failures)
    gram = (basis.gram_c1, basis.gram_c2)
    if cert.gram is not None and gram != cert.gram:
        failures.append(
            "Gram constants %s do not match stored %s" % ((str(gram[0]), str(gram[1])), cert.gram)
        )

    t_mat = basis.matrix()
    t_inv = t_mat.inverse()

    env = {"A": triple.A, "B": triple.B, "C": triple.C}
    in_basis: dict[str, MatrixQ] = {}
    steps: list[Step] = []
    for name, expr in cert.definitions:
        m_std = evaluate_expression(expr, env)
        env[name] = m_std
        m_basis = t_inv * m_std * t_mat
        in_basis[name] = m_basis
        want = cert.expected.get(name)
        matches: bool | None = None
        if want is not None:
            matches = m_basis == want
            if not matches:
                failures.append(_first_divergence(name, m_basis, want))
        if not check_symplectic(m_std, reference):
            failures.append("%s: does not preserve the symplectic form" % name)
        steps.append(Step(name=name, matrix=m_basis, matches_expected=matches))
        if matches is False:
            # Downstream definitions build on a value that already diverged;
            # evaluating them proves nothing and can involve enormous powers
            # of no-longer-unipotent elements.  Stop at the first divergence.
            break

    # Root classification happens in the orientation where the witnesses
    # are upper triangular; a reversed certificate flips the basis order,
    # which conjugates by the reversal permutation and negates the Gram
    # constants.
    if cert.reversed_basis:
        cls_gram = (-gram[0], -gram[1])
        orient = lambda m: _REVERSAL * m * _REVERSAL  # noqa: E731
    else:
        cls_gram = gram
        orient = lambda m: m  # noqa: E731

    witness_checks: list[WitnessCheck] = []
    witness_matrices: list[MatrixQ] = []
    for name, claimed in cert.witnesses:
        if name not in in_basis:
            # Evaluation stopped at an earlier divergence.
            witness_checks.append(WitnessCheck(name, claimed, None, False))
            continue
        m = orient(in_basis[name])
        if not is_in_U(m, *cls_gram):
            witness_checks.append(WitnessCheck(name, claimed, None, False))
            failures.append("%s: not in the unipotent radical" % name)
            continue
        actual = classify_unipotent(m, *cls_gram)
        ok = actual == claimed
        if not ok:
            failures.append(
                "%s: classified as %s, certificate claims %s" % (name, actual, claimed)
            )
        witness_checks.append(WitnessCheck(name, claimed, actual, ok))
        witness_matrices.append(m)

    cov = coverage(witness_matrices, *cls_gram)
    if not cov.complete:
        failures.append("witnesses do not cover all four positive root groups")
    certified = not failures and cov.complete and cov.highest_pair

    return VerificationReport(
        example_id=cert.example_id,
        steps=tuple(steps),
        witness_checks=tuple(witness_checks),
        root_coverage=cov,
        arithmetic_certified=certified,
        failures=tuple(failures),
        form_scalar=form_scalar,
        gram=gram,
    )


# -- mutation sweep ------------------------------------------------------

_EXPONENT = re.compile(r"\^\s*(-?\d+)")


def exponent_mutations(cert: Certificate) -> Iterator[tuple[str, Certificate]]:
    """All certificates obtained by changing one written exponent by +-1.

    Used to confirm the certificate data actually pins the computation:
    every mutation must fail verification.
    """
    for idx, (name, expr) in enumerate(cert.definitions):
        for m_idx, match in enumerate(_EXPONENT.finditer(expr)):
            old = int(match.group(1))
            for delta in (1, -1):
                new_expr = (
                    expr[: match.start()] + "^" + str(old + delta) + expr[match.end():]
                )
                definitions = list(cert.definitions)
                definitions[idx] = (name, new_expr)
                label = "%s: exponent %d -> %d (occurrence %d)" % (
                    name, old, old + delta, m_idx + 1,
                )
                yield label, replace(cert, definitions=tuple(definitions))
