"""What ``import gasman`` costs, each figure a median over fresh interpreters.

Every run starts a new interpreter and times ``import gasman`` alone.  Two
kinds of run alternate, so a drift of the host's speed touches both alike:

- *no bytecode cache*: gasman's sources are compiled on import and nothing
  is written, as in a fresh checkout whose runs write no ``__pycache__``;
- *from bytecode*: gasman is loaded from a cache compiled beforehand.

Both import a copy of ``src/gasman`` in a temporary directory, so a cache in
the checkout is neither read nor written.  The standard library loads from
its own cache in both.  A third kind of run, with neither timing, counts the
classes ``@dataclass`` decorates during the import and their total
decoration time: each generated method is compiled by its own ``exec``, which
makes decoration a large share of the import.

    python tests/import_cost.py

prints the three medians, over twelve interpreters each.  It only reports;
no figure is checked.  The decoration count wraps ``dataclasses``' private
``_process_class``, so it is a measuring aid, not a test.  Standard library
only.
"""

from __future__ import annotations

import compileall
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
RUNS = 12  # fresh interpreters per figure

TIME_IMPORT = """
import time
start = time.perf_counter()
import gasman
print(time.perf_counter() - start)
"""

COUNT_DECORATIONS = """
import dataclasses, json, time
process, decorated = dataclasses._process_class, []

def timed(cls, *args, **kwargs):
    start = time.perf_counter()
    out = process(cls, *args, **kwargs)
    if cls.__module__.split(".")[0] == "gasman":
        decorated.append(time.perf_counter() - start)
    return out

dataclasses._process_class = timed
import gasman
print(json.dumps([len(decorated), sum(decorated)]))
"""


def child(code: str, path: Path, cached: bool) -> str:
    env = {**os.environ, "PYTHONPATH": str(path)}
    flags = [] if cached else ["-B"]
    proc = subprocess.run([sys.executable, *flags, "-c", code], env=env, check=True,
                          stdout=subprocess.PIPE, text=True, timeout=60)
    return proc.stdout.splitlines()[-1]


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        bare, cached = Path(tmp, "bare"), Path(tmp, "cached")
        for root in (bare, cached):
            shutil.copytree(SRC / "gasman", root / "gasman",
                            ignore=shutil.ignore_patterns("__pycache__"))
        # ``py_compile`` writes even where PYTHONDONTWRITEBYTECODE is set.
        if not compileall.compile_dir(cached, quiet=1):
            raise SystemExit("error: compiling the cached copy failed")
        times = {"bare": [], "cached": []}
        counts, spent = set(), []
        for _ in range(RUNS):
            times["bare"].append(float(child(TIME_IMPORT, bare, cached=False)))
            times["cached"].append(float(child(TIME_IMPORT, cached, cached=True)))
            count, total = json.loads(child(COUNT_DECORATIONS, bare, cached=False))
            counts.add(count)
            spent.append(total)
    ms = {kind: 1000 * statistics.median(values) for kind, values in times.items()}
    print(f"python {sys.version.split()[0]}, {RUNS} fresh interpreters per figure")
    print(f"import gasman, no bytecode cache: median {ms['bare']:.1f} ms")
    print(f"import gasman, from bytecode:     median {ms['cached']:.1f} ms")
    print(f"dataclasses decorated at import: {'/'.join(map(str, sorted(counts)))}, "
          f"median {1000 * statistics.median(spent):.1f} ms in total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
