"""Set-up of one benchmark process: import sp4mono and load the pinned data.

``setup`` is what every workload process does before its first op.  Run
as a script, this file does the same in a fresh interpreter and prints
the seconds it took, so the benchmark can repeat set-up and report a
median.  Like op times, set-up time is scaled to reference host speed
(see hostspeed.py):

    python3 bench/setup_probe.py
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

import hostspeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DATA = HERE / "data"


class SetupError(RuntimeError):
    """The checkout does not hold the sp4mono sources."""


def setup():
    """Import sp4mono from the checkout and load the pinned dataset and certificates.

    Returns ``(rows, certs, seconds)``, the seconds scaled to reference
    host speed.  Raises SetupError when ``src/``
    of this checkout has no sp4mono package, so an installed copy
    elsewhere is never measured instead.
    """
    src = ROOT / "src"
    if not (src / "sp4mono" / "__init__.py").is_file():
        raise SetupError("no sp4mono sources under %s" % src)
    sys.path.insert(0, str(src))
    before = hostspeed.kernel_seconds()
    start = time.perf_counter()
    import sp4mono

    rows = sp4mono.dataset(DATA / "tables.json")
    certs = sp4mono.builtin_certificates(DATA)
    seconds = time.perf_counter() - start
    seconds = hostspeed.scale(seconds, before, hostspeed.kernel_seconds())
    if Path(sp4mono.__file__).resolve().parent != (src / "sp4mono").resolve():
        raise SetupError("imported sp4mono from %s, not from %s" % (sp4mono.__file__, src))
    return rows, certs, seconds


if __name__ == "__main__":
    print(repr(setup()[2]))
