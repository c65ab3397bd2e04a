"""The three benchmark workloads and the reference outcomes they check.

Each workload turns a seeded ``random.Random`` into the ops of one pass.
An op is timed around ``Op.run`` alone; its outcome is compared with the
reference stored under ``reference/`` afterwards, outside the timed
region.  All inputs come from the frozen copy of the seed data under
``data/``, loaded through the package's public loaders.

- ``cli_mix``: in-process ``sp4mono.cli.main`` calls, the commands users
  run, half of them with ``--json``.
- ``deep_search``: ``find_gamma`` at word length 3, exponents up to 4, on
  every row, so the time goes to integer word evaluation.
- ``certify``: ``verify_certificate`` on the shipped certificates and on
  seed-drawn exponent mutants, the rational verifying path.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import re
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
DATA = HERE / "data"
REFERENCE = HERE / "reference"

OK, KNOWN_DEFECT, FAILED = "ok", "known_defect", "failed"

DEEP_MAX_LEN = 3
DEEP_MAX_EXP = 4
MUTANT_DELTAS = (1, -1, 2, -2, 3, -3)
MUTANTS_PER_PASS = 24

# Commands whose documented outcome is exit 2 (invalid input).
MALFORMED = (
    "search --row 9:9",
    "search --sv 1",
    "cert verify --example 12",
    "form --alpha 0,0,0,0",
    "form --f 1,1,1 --g 1,0,1",
    "search --row 4:1 --max-len 0",
)


@dataclass(frozen=True)
class Op:
    key: str
    run: Callable[[], object]


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def load_reference(name: str) -> dict:
    return json.loads((REFERENCE / ("%s.json" % name)).read_text(encoding="utf-8"))


# Ops look library functions up at call time, through the package and
# its modules, so that the tracer's wrappers are the ones called.


class CliMix:
    """One op is one ``sp4mono.cli.main(argv)`` call with output captured."""

    name = "cli_mix"

    def __init__(self, rows, certs, reference: dict | None):
        import sp4mono.cli

        self._cli = sp4mono.cli
        commands = ["tables validate", "tables export", "report"]
        commands += ["cert verify --example %d" % i for i in range(1, len(certs) + 1)]
        commands += [
            "form --f %s --g %s" % (_coeffs(r.f), _coeffs(r.g)) for r in rows
        ]
        commands += ["search --row %d:%d" % (r.table_id, r.row_no) for r in rows]
        commands += list(MALFORMED)
        self.commands = commands
        self.reference = reference

    def all_ops(self) -> list[Op]:
        return [self._op(c, as_json) for c in self.commands for as_json in (False, True)]

    def pass_ops(self, rng) -> list[Op]:
        order = list(self.commands)
        rng.shuffle(order)
        json_half = set(rng.sample(order, len(order) // 2))
        return [self._op(c, c in json_half) for c in order]

    def _op(self, command: str, as_json: bool) -> Op:
        argv = ["--data", str(DATA)] + (["--json"] if as_json else []) + command.split()
        cli = self._cli

        def run():
            out, err = io.StringIO(), io.StringIO()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:  # recorded as the op's outcome
                code = type(exc).__name__
            return {"exit": code, "stdout_sha256": sha256(out.getvalue())}

        return Op(("--json " if as_json else "") + command, run)

    def check(self, op: Op, outcome: dict) -> str:
        want = self.reference[op.key]
        if outcome == {"exit": want["exit"], "stdout_sha256": want["stdout_sha256"]}:
            return OK
        if outcome["exit"] == want.get("seed_defect"):
            return KNOWN_DEFECT
        return FAILED


class DeepSearch:
    """One op builds a row's triple and runs a length-3 gamma search."""

    name = "deep_search"

    def __init__(self, rows, certs, reference: dict | None):
        import sp4mono

        self._lib = sp4mono
        self.rows = rows
        self.reference = reference

    def all_ops(self) -> list[Op]:
        return [self._op(r) for r in self.rows]

    def pass_ops(self, rng) -> list[Op]:
        order = list(self.rows)
        rng.shuffle(order)
        return [self._op(r) for r in order]

    def _op(self, row) -> Op:
        lib = self._lib

        def run():
            triple = lib.levelt_triple(row.f, row.g)
            return lib.find_gamma(triple, max_len=DEEP_MAX_LEN, max_exp=DEEP_MAX_EXP).to_json_dict()

        return Op("%d:%d" % (row.table_id, row.row_no), run)

    def check(self, op: Op, outcome: dict) -> str:
        return OK if outcome == self.reference[op.key] else FAILED


class Certify:
    """One op is one ``verify_certificate`` call on an original or a mutant."""

    name = "certify"

    def __init__(self, rows, certs, reference: dict | None):
        import sp4mono

        self._lib = sp4mono
        self.originals = [("example %s" % c.example_id, c) for c in certs]
        self.mutants = list(_mutants(certs))
        self.reference = reference

    def all_ops(self) -> list[Op]:
        return [self._op(k, c) for k, c in self.originals + self.mutants]

    def pass_ops(self, rng) -> list[Op]:
        picked = self.originals + rng.sample(self.mutants, MUTANTS_PER_PASS)
        rng.shuffle(picked)
        return [self._op(k, c) for k, c in picked]

    def _op(self, key: str, cert) -> Op:
        lib = self._lib

        def run():
            report = lib.verify_certificate(cert)
            return {
                "certified": report.arithmetic_certified,
                "steps_matched": sum(s.matches_expected is True for s in report.steps),
                "failures": list(report.failures),
            }

        return Op(key, run)

    def check(self, op: Op, outcome: dict) -> str:
        # Theorem-level oracle first: originals certify, no mutant does.
        if outcome["certified"] != op.key.startswith("example "):
            return FAILED
        return OK if outcome == self.reference[op.key] else FAILED


WORKLOADS = {w.name: w for w in (CliMix, DeepSearch, Certify)}


def _coeffs(poly) -> str:
    return ",".join(str(c) for c in poly.to_list())


_EXPONENT = re.compile(r"\^\s*(-?\d+)")


def _mutants(certs):
    """Every certificate with one written exponent changed by +-1, +-2 or +-3."""
    for cert in certs:
        for idx, (name, expr) in enumerate(cert.definitions):
            for m_idx, match in enumerate(_EXPONENT.finditer(expr)):
                old = int(match.group(1))
                for delta in MUTANT_DELTAS:
                    new_expr = expr[: match.start()] + "^" + str(old + delta) + expr[match.end():]
                    definitions = list(cert.definitions)
                    definitions[idx] = (name, new_expr)
                    key = "mutant %s %s#%d %d->%d" % (cert.example_id, name, m_idx + 1, old, old + delta)
                    yield key, replace(cert, definitions=tuple(definitions))
