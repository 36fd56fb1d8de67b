"""One benchmark sample, run in a fresh interpreter by run.py.

    python3 perfbench/worker.py --calls CALLS.json --outdir DIR --trace 0|1
    python3 perfbench/worker.py --import-only

Imports cubicforms from the checkout's `src/` and times the import, then runs
each argv list in CALLS.json through `cubicforms.cli.main` in this process,
with `--output DIR/<i>.out` appended.  With `--trace 1` the package's layers
are wrapped first (see tracing.py) and the spans are written to DIR/spans.json.
The last line of stdout is one JSON object describing the sample.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def import_package() -> tuple:
    """Import cubicforms from this checkout; returns (module, seconds)."""
    if not (SRC / "cubicforms" / "__init__.py").is_file():
        sys.exit(f"no cubicforms package under {SRC}")
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import cubicforms
    import cubicforms.cli

    elapsed = time.perf_counter() - start
    if Path(cubicforms.__file__).resolve().parent != SRC / "cubicforms":
        sys.exit(f"imported cubicforms from {cubicforms.__file__}, not {SRC}")
    return cubicforms, elapsed


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--calls", type=Path)
    parser.add_argument("--outdir", type=Path)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--import-only", action="store_true")
    args = parser.parse_args()

    package, import_s = import_package()
    if args.import_only:
        print(json.dumps({"import_s": import_s}))
        return 0

    import numpy

    calls = json.loads(args.calls.read_text())
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)

    outputs = []
    codes = []
    start = time.perf_counter()
    cpu_start = time.process_time()
    for i, argv in enumerate(calls):
        path = args.outdir / f"{i}.out"
        codes.append(package.cli.main([*argv, "--output", str(path)]))
        outputs.append(str(path))
    wall_s = time.perf_counter() - start
    cpu_s = time.process_time() - cpu_start

    result = {
        "import_s": import_s,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "exit_codes": codes,
        "outputs": outputs,
        "numpy": numpy.__version__,
    }
    if tracer is not None:
        spans_path = args.outdir / "spans.json"
        spans_path.write_text(
            json.dumps({"spans": tracer.spans, "counters": tracer.counters})
        )
        result["spans"] = str(spans_path)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
