"""Write the reference outcome of every benchmark op to ``reference/``.

    python3 bench/make_reference.py

The stored files were written at the commit that introduced the benchmark
and are the oracle for every later one: rerun this only for an intended
change of results, and say so where the change is recorded.  Malformed CLI
commands are stored with their documented outcome, exit 2 and no stdout;
one that does something else at the time of writing keeps that outcome as
``seed_defect``, which the benchmark reports as a known defect until it is
fixed.
"""

from __future__ import annotations

import json
import sys

from setup_probe import setup
from workloads import MALFORMED, REFERENCE, WORKLOADS, sha256


def main() -> int:
    rows, certs, _ = setup()
    REFERENCE.mkdir(exist_ok=True)
    for name, cls in WORKLOADS.items():
        workload = cls(rows, certs, None)
        outcomes = {op.key: op.run() for op in workload.all_ops()}
        if name == "cli_mix":
            for key, outcome in outcomes.items():
                if key.removeprefix("--json ") in MALFORMED and outcome["exit"] != 2:
                    outcome["seed_defect"] = outcome["exit"]
                    outcome.update(exit=2, stdout_sha256=sha256(""))
        path = REFERENCE / ("%s.json" % name)
        path.write_text(json.dumps(outcomes, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        print("%s: %d outcomes -> %s" % (name, len(outcomes), path))
    return 0


if __name__ == "__main__":
    sys.exit(main())
