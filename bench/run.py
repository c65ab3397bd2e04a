"""sp4mono benchmark: one seeded workload per process, checked against references.

    python3 bench/run.py --workload deep_search --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; sp4mono is imported from its ``src/``.
The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are the
end-to-end ones; with ``--trace 1`` they are the per-layer ones from a
traced run (see README.md in this directory).

Each run does one untimed warm-up of up to WARMUP_SECONDS, then blocks of
whole passes of the workload's ops, closed loop with one client, until at
least ``--seconds`` of op time is measured.  A block is the fewest whole
passes holding BLOCK_OPS ops.  Each op's time is scaled to reference host
speed (see hostspeed.py); each latency and rate is computed per block from
scaled times and the best block's value is reported, since other work on
a shared host only adds time.  ``gc.collect()`` runs between ops, outside
the timed region; the collector stays enabled during ops so the measured
program is the one users run.
"""

from __future__ import annotations

import argparse
import gc
import json
import random
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import hostspeed
from setup_probe import ROOT, SetupError, setup
from tracer import MODULES, TRACED, Tracer
from workloads import FAILED, KNOWN_DEFECT, WORKLOADS, load_reference

HERE = Path(__file__).resolve().parent

WARMUP_SECONDS = 2.0
# p90 is reported only with at least ten samples beyond it.
BLOCK_OPS = 100
# Set-up is timed in this process and in this many fresh interpreters.
SETUP_PROBES = 10


class Measured:
    """Latencies and check verdicts of the ops run in one measurement.

    ``blocks`` hold op times scaled to reference host speed; ``samples``
    are the wall-clock op times.
    """

    def __init__(self):
        self.blocks: list[list[float]] = []
        self.samples: list[float] = []
        self.verdicts: Counter = Counter()
        self.failures: list[str] = []
        self.words = 0
        self.passes = 0

    @property
    def op_s(self) -> float:
        return sum(self.samples)

    @property
    def ops_per_s(self) -> float:
        return len(self.samples) / self.op_s


def run_op(op, tracer: Tracer | None):
    """Run one op; an exception is its outcome, never the end of the run."""
    try:
        return op.run() if tracer is None else tracer.run_op(op.run)
    except Exception as exc:
        return {"raised": "%s: %s" % (type(exc).__name__, exc)}


def measure(workload, rng, seconds: float, block_ops: int, tracer: Tracer | None = None) -> Measured:
    got = Measured()
    clock = time.perf_counter
    while not got.blocks or got.op_s < seconds:
        block: list[float] = []
        while len(block) < block_ops:
            for op in workload.pass_ops(rng):
                gc.collect()
                before = hostspeed.kernel_seconds()
                start = clock()
                outcome = run_op(op, tracer)
                took = clock() - start
                after = hostspeed.kernel_seconds()
                got.samples.append(took)
                block.append(hostspeed.scale(took, before, after))
                verdict = workload.check(op, outcome)
                got.verdicts[verdict] += 1
                if verdict == FAILED:
                    got.failures.append(op.key)
                if isinstance(outcome, dict):
                    got.words += outcome.get("explored", 0)
            got.passes += 1
        got.blocks.append(block)
    return got


def warm_up(workload, rng) -> None:
    deadline = time.perf_counter() + WARMUP_SECONDS
    for op in workload.pass_ops(rng):
        run_op(op, None)
        if time.perf_counter() >= deadline:
            break


def setup_seconds(own: float) -> list[float]:
    """Scaled set-up time of this process and of SETUP_PROBES fresh interpreters."""
    times = [own]
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py")],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(done.stdout.split()[-1]))
    return times


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(got: Measured, setups: list[float]) -> dict:
    blocks = got.blocks
    return {
        "setup_s": metric(statistics.median(setups), "s"),
        "op_p50_ms": metric(min(statistics.median(b) for b in blocks) * 1e3, "ms"),
        "op_p90_ms": metric(
            min(statistics.quantiles(b, n=10, method="inclusive")[-1] for b in blocks) * 1e3, "ms"
        ),
        "ops_per_s": metric(max(len(b) / sum(b) for b in blocks), "1/s"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def per_layer(summary: dict, traced: Measured, plain: Measured) -> dict:
    passes = traced.passes
    out = {}
    for name in TRACED:
        out[name + ".calls"] = metric(summary["calls"].get(name, 0) / passes, "count/pass")
        out[name + ".self_s"] = metric(summary["self_s"].get(name, 0.0) / passes, "s/pass")
    for module in MODULES:
        out[module + ".errors"] = metric(summary["errors"].get(module, 0) / passes, "count/pass")
    out["linalg.mul_rational.calls"] = metric(summary["mul_rational"] / passes, "count/pass")
    out["linalg.max_entry_bits"] = metric(summary["max_entry_bits"], "bits")
    words = summary.get("words_explored", 0)
    out["search.words_explored"] = metric(words / passes, "count/pass")
    out["search.words_per_s"] = metric(_ratio(words, summary["find_gamma_s"]), "1/s")
    out["search.hit_ratio"] = metric(
        _ratio(summary.get("gamma_found", 0), summary.get("gamma_searched", 0)), "ratio"
    )
    out["search.template_in_U_ratio"] = metric(
        _ratio(summary.get("in_u_true", 0), summary.get("in_u_calls", 0)), "ratio"
    )
    out["search.complete_ratio"] = metric(
        _ratio(summary.get("derive_complete", 0), summary["calls"].get("search.derive_witnesses", 0)),
        "ratio",
    )
    out["certificates.certified_ratio"] = metric(
        _ratio(summary.get("certified", 0), summary["calls"].get("certificates.verify_certificate", 0)),
        "ratio",
    )
    for code in range(4):
        out["cli.exit_%d" % code] = metric(summary["exits"].get(code, 0) / passes, "count/pass")
    out["cli.known_defects"] = metric(traced.verdicts[KNOWN_DEFECT] / passes, "count/pass")
    unattributed = summary["self_s"].get("op", 0.0)
    out["trace.op_s"] = metric(summary["op_s"] / passes, "s/pass")
    out["trace.unattributed_s"] = metric(unattributed / passes, "s/pass")
    out["trace.overhead_ratio"] = metric(plain.ops_per_s / traced.ops_per_s - 1, "ratio")
    return out


def print_layers(summary: dict, passes: int) -> None:
    op_s = summary["op_s"]
    print("per-layer self time over %d traced pass(es), %.3f s of op time:" % (passes, op_s))
    ranked = sorted(summary["self_s"].items(), key=lambda kv: -kv[1])
    for name, self_s in ranked:
        print(
            "  %-36s calls %10d  self %9.4f s  %5.1f%%"
            % (name, summary["calls"][name], self_s, 100 * _ratio(self_s, op_s))
        )


def describe(name: str, got: Measured, label: str) -> None:
    attempted = len(got.samples)
    errors = got.verdicts[FAILED] + got.verdicts[KNOWN_DEFECT]
    print(
        "%s %s: %d passes, %d ops in %.3f s, failed %d, known defects %d, error_ratio %.6f (%d/%d)"
        % (name, label, got.passes, attempted, got.op_s, got.verdicts[FAILED],
           got.verdicts[KNOWN_DEFECT], errors / attempted, errors, attempted)
    )
    if got.failures:
        print("  failed ops: %s" % "; ".join(sorted(set(got.failures))[:10]))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        rows, certs, own_setup = setup()
    except SetupError as exc:
        print("benchmark cannot run: %s" % exc, file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](rows, certs, load_reference(args.workload))
    rng = random.Random(args.seed)
    warm_up(workload, rng)

    if args.trace:
        plain = measure(workload, rng, args.seconds / 2, 1)
        tracer = Tracer()
        tracer.install()
        try:
            traced = measure(workload, rng, args.seconds / 2, 1, tracer)
        finally:
            tracer.uninstall()
        summary = tracer.summary()
        describe(args.workload, plain, "plain")
        describe(args.workload, traced, "traced")
        print_layers(summary, traced.passes)
        metrics = per_layer(summary, traced, plain)
        runs = (plain, traced)
    else:
        got = measure(workload, rng, args.seconds, BLOCK_OPS)
        setups = setup_seconds(own_setup)
        metrics = end_to_end(got, setups)
        describe(args.workload, got, "timed")
        print("  setup_s is the median of %d set-ups" % len(setups))
        print("  latencies and ops_per_s: best of %d blocks of %s ops"
              % (len(got.blocks), "/".join(str(len(b)) for b in got.blocks[:8])))
        raw_ms = [x * 1e3 for x in got.samples]
        print("  wall clock, all ops: op_p50_ms %.6f op_p90_ms %.6f ops_per_s %.6f"
              % (statistics.median(raw_ms), statistics.quantiles(raw_ms, n=10, method="inclusive")[-1],
                 got.ops_per_s))
        if got.words:
            print("  words_per_s %.1f (%d words in %.3f s of op time)"
                  % (got.words / got.op_s, got.words, got.op_s))
        for name, m in metrics.items():
            print("  %-12s %14.6f %s" % (name, m["value"], m["unit"]))
        runs = (got,)

    attempted = sum(len(r.samples) for r in runs)
    failed = sum(r.verdicts[FAILED] for r in runs)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
