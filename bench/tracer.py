"""Span tracer that wraps sp4mono's public functions at run time.

The library source is not edited.  ``Tracer.install`` replaces each
traced function or method with a wrapper that records one span per call:
its name, start and end, the span that caused it, and the op it belongs
to.  Modules import each other by name (``from .monodromy import
evaluate_word``), so every module attribute that is the original function
is replaced, not only the defining one.  Operator methods of ``MatrixQ``
and ``MonodromyTriple.power`` are wrapped on their classes.

Spans are kept in compact arrays until ``summary`` turns them into
per-layer calls, self time (span time minus the time its child spans
cover) and counters.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from collections import defaultdict
from fractions import Fraction

# Traced layer name -> (module, attribute).  An attribute "Class.method"
# is wrapped on the class.  Every module of the package appears here.
TRACED = {
    "linalg.mul": ("sp4mono.linalg", "MatrixQ.__mul__"),
    "linalg.apply": ("sp4mono.linalg", "MatrixQ.apply"),
    "linalg.pow": ("sp4mono.linalg", "MatrixQ.__pow__"),
    "linalg.inverse": ("sp4mono.linalg", "MatrixQ.inverse"),
    "linalg.nullspace": ("sp4mono.linalg", "MatrixQ.nullspace"),
    "linalg.det": ("sp4mono.linalg", "MatrixQ.det"),
    "cyclotomic.from_exponents": ("sp4mono.cyclotomic", "from_exponents"),
    "cyclotomic.have_common_root": ("sp4mono.cyclotomic", "have_common_root"),
    "cyclotomic.is_primitive_pair": ("sp4mono.cyclotomic", "is_primitive_pair"),
    "cyclotomic.difference_data": ("sp4mono.cyclotomic", "difference_data"),
    "monodromy.levelt_triple": ("sp4mono.monodromy", "levelt_triple"),
    "monodromy.evaluate_word": ("sp4mono.monodromy", "evaluate_word"),
    "monodromy.power": ("sp4mono.monodromy", "MonodromyTriple.power"),
    "forms.invariant_form": ("sp4mono.forms", "invariant_form"),
    "forms.check_symplectic": ("sp4mono.forms", "check_symplectic"),
    "basis.checked_basis": ("sp4mono.basis", "checked_basis"),
    "basis.to_basis_coords": ("sp4mono.basis", "to_basis_coords"),
    "roots.is_in_U": ("sp4mono.roots", "is_in_U"),
    "roots.classify_unipotent": ("sp4mono.roots", "classify_unipotent"),
    "tables.dataset": ("sp4mono.tables", "dataset"),
    "tables.validate_tables": ("sp4mono.tables", "validate_tables"),
    "certificates.builtin_certificates": ("sp4mono.certificates", "builtin_certificates"),
    "certificates.verify_certificate": ("sp4mono.certificates", "verify_certificate"),
    "certificates.evaluate_expression": ("sp4mono.certificates", "evaluate_expression"),
    "search.find_gamma": ("sp4mono.search", "find_gamma"),
    "search.derive_witnesses": ("sp4mono.search", "derive_witnesses"),
    "cli.main": ("sp4mono.cli", "main"),
}

MODULES = sorted({name.split(".")[0] for name in TRACED})

# Functions whose results feed a counter; the others are not kept.
_OBSERVED = (
    "roots.is_in_U",
    "search.find_gamma",
    "search.derive_witnesses",
    "certificates.verify_certificate",
    "cli.main",
)

OP = "op"  # name of the root span around one workload op


def _entry_bits(x) -> int:
    if type(x) is int:
        return x.bit_length()
    return max(x.numerator.bit_length(), x.denominator.bit_length())


class Tracer:
    """Records spans while installed; ``summary`` aggregates them."""

    def __init__(self):
        self.names = [OP, *TRACED]
        self._index = {name: i for i, name in enumerate(self.names)}
        self.name = array("H")
        self.parent = array("l")
        self.op = array("l")
        self.t0 = array("d")
        self.t1 = array("d")
        self.raised: list[int] = []
        self.results: dict[int, object] = {}
        self.mul_rational = 0
        self.max_entry_bits = 0
        self._stack = [-1]
        self._op_id = -1
        self._originals: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def _wrap(self, name: str, fn):
        idx = self._index[name]
        stack = self._stack
        name_a, parent_a, op_a, t0_a, t1_a = self.name, self.parent, self.op, self.t0, self.t1
        clock = time.perf_counter
        observe = name in _OBSERVED
        is_mul = name == "linalg.mul"
        tracer = self

        def traced(*args, **kwargs):
            sid = len(t0_a)
            name_a.append(idx)
            parent_a.append(stack[-1])
            op_a.append(tracer._op_id)
            t1_a.append(0.0)
            stack.append(sid)
            t0_a.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                t1_a[sid] = clock()
                stack.pop()
                tracer.raised.append(sid)
                if observe:
                    tracer.results[sid] = exc
                raise
            t1_a[sid] = clock()
            stack.pop()
            if observe:
                tracer.results[sid] = result
            elif is_mul and hasattr(result, "rows"):
                tracer._count_product(result)
            return result

        return functools.wraps(fn)(traced)

    def _count_product(self, m) -> None:
        entries = [x for row in m.rows for x in row]
        if any(type(x) is Fraction for x in entries):
            self.mul_rational += 1
        bits = max(_entry_bits(x) for x in entries)
        if bits > self.max_entry_bits:
            self.max_entry_bits = bits

    def run_op(self, fn):
        """Call ``fn()`` inside a root span that carries a fresh op id."""
        self._op_id += 1
        return self._wrap(OP, fn)()

    def install(self) -> None:
        for name, (module_name, attr) in TRACED.items():
            module = importlib.import_module(module_name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth]
                self._originals.append((cls, meth, original))
                setattr(cls, meth, self._wrap(name, original))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(name, original)
            # Replace every alias, e.g. sp4mono.search.evaluate_word and
            # sp4mono.cli.find_gamma, and the package-level re-export.
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == "sp4mono" or mod_name.startswith("sp4mono.")):
                    continue
                for alias, value in list(vars(mod).items()):
                    if value is original:
                        self._originals.append((mod, alias, original))
                        setattr(mod, alias, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)
        self._originals.clear()

    # -- aggregation -----------------------------------------------------

    def summary(self) -> dict:
        """Per-layer totals: calls, self seconds and errors, plus counters."""
        names, name_a, parent_a, t0_a, t1_a = self.names, self.name, self.parent, self.t0, self.t1
        n = len(t0_a)
        self_s = [0.0] * n
        span_s = [0.0] * len(names)
        for i in range(n):
            d = t1_a[i] - t0_a[i]
            self_s[i] += d
            span_s[name_a[i]] += d
            p = parent_a[i]
            if p >= 0:
                self_s[p] -= d
        calls = defaultdict(int)
        self_total = defaultdict(float)
        for i in range(n):
            calls[names[name_a[i]]] += 1
            self_total[names[name_a[i]]] += self_s[i]
        errors = defaultdict(int)
        for sid in self.raised:
            errors[names[name_a[sid]].split(".")[0]] += 1

        def under(sid: int, target: int) -> bool:
            p = parent_a[sid]
            while p >= 0:
                if name_a[p] == target:
                    return True
                p = parent_a[p]
            return False

        derive = self._index["search.derive_witnesses"]
        counters = defaultdict(int)
        exits = defaultdict(int)
        for sid, result in self.results.items():
            name = names[name_a[sid]]
            if name == "cli.main":
                # An uncaught exception ends the real process with status 1.
                if isinstance(result, SystemExit):
                    result = result.code
                elif isinstance(result, BaseException):
                    result = 1
                exits[result] += 1
            elif isinstance(result, BaseException):
                continue
            elif name == "roots.is_in_U":
                if under(sid, derive):
                    counters["in_u_calls"] += 1
                    counters["in_u_true"] += bool(result)
            elif name == "search.find_gamma":
                counters["words_explored"] += result.explored
                if result.status != "obstructed":
                    counters["gamma_searched"] += 1
                    counters["gamma_found"] += result.status == "found"
            elif name == "search.derive_witnesses":
                counters["derive_complete"] += bool(result.complete)
            elif name == "certificates.verify_certificate":
                counters["certified"] += bool(result.arithmetic_certified)

        return {
            "calls": dict(calls),
            "self_s": dict(self_total),
            "errors": dict(errors),
            "op_s": span_s[self._index[OP]],
            "find_gamma_s": span_s[self._index["search.find_gamma"]],
            "mul_rational": self.mul_rational,
            "max_entry_bits": self.max_entry_bits,
            "exits": dict(exits),
            **counters,
        }
