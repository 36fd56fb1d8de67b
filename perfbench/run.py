"""cubicforms CLI benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout that holds `src/cubicforms`.  Each sample runs
the workload's CLI calls (perfbench/workloads.json) in a fresh interpreter
(worker.py) with `--workers 1`, so the package's module caches start cold as
they do for a CLI user.  Every output is checked against the sha256 recorded
from the seed commit and against checks that do not depend on those digests.

--trace 0 takes samples until another one would overrun --seconds (at least
one), plus SETUP_SAMPLES import-only interpreters, and reports the end-to-end
metrics as medians.  --trace 1 takes one untraced and one traced sample and
reports the per-layer metrics of the traced one (see tracing.py).

Intermediate files go under `.perfbench_out/` in the checkout.  The last line
of stdout is the result JSON; the line before it records the environment.
Exit 0 when every output is correct, 1 when a check failed, 2 on bad usage or
a checkout without the package.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
OUT = ROOT / ".perfbench_out"

SETUP_SAMPLES = 4  # import-only interpreters, besides the workload samples
SAMPLE_TIMEOUT_S = 170


def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def git_sha() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# output checks that do not depend on the recorded digests
# ---------------------------------------------------------------------------


def check_census(text: str, spec: dict) -> list:
    lines = text.splitlines()
    if lines[:2] != ["schema:1", "X,S_unweighted,S_weighted,prediction,residual,gauge"]:
        return ["census: bad header"]
    rows = [line.split(",") for line in lines[2:]]
    xs = [int(r[0]) for r in rows]
    counts = [int(r[1]) for r in rows]
    if not rows or xs != sorted(set(xs)):
        return ["census: X is not strictly increasing"]
    if counts != sorted(counts):
        return ["census: S decreases in X"]
    return []


def check_enumerate(text: str, spec: dict) -> list:
    lines = text.splitlines()
    if not lines or lines[0] != "schema:1":
        return ["enumerate: no schema:1 header"]
    ns = [int(n) for n in re.findall(r'^\{"lattice":\d+,"sign":"[+-]","n":(\d+),', text, re.M)]
    problems = []
    if len(ns) != len(lines) - 1:
        problems.append("enumerate: malformed record lines")
    if len(ns) != spec["records"]:
        problems.append(f"enumerate: {len(ns)} records, want {spec['records']}")
    if any(a > b for a, b in zip(ns, ns[1:])):
        problems.append("enumerate: n decreases")
    return problems


def check_reports(text: str, spec: dict) -> list:
    reports = [line for line in text.splitlines() if not line.startswith(" ")]
    if not reports:
        return ["verify: no report lines"]
    return [f"verify: {line}" for line in reports if not line.startswith("[PASS] ")]


CHECKS = {
    "census": check_census,
    "enumerate": check_enumerate,
    "identities": check_reports,
    "oracle": check_reports,
}


def check_sample(name: str, spec: dict, sample: dict) -> list:
    """Reasons the sample failed; empty when every output is correct."""
    problems = [
        f"call {i} exited {code}" for i, code in enumerate(sample["exit_codes"]) if code
    ]
    for i, (path, want) in enumerate(zip(sample["outputs"], spec["sha256"], strict=True)):
        path = Path(path)
        try:
            if sha256_file(path) != want:
                problems.append(f"call {i}: output digest differs from the seed commit")
            problems += CHECKS[name](path.read_text(), spec)
        except (OSError, ValueError, IndexError) as exc:
            problems.append(f"call {i}: unreadable output ({exc!r})")
    return problems


# ---------------------------------------------------------------------------
# samples
# ---------------------------------------------------------------------------


def run_worker(args: list) -> tuple:
    """Run worker.py in a fresh interpreter; returns (result or None, error)."""
    try:
        proc = subprocess.run(
            [sys.executable, str(WORKER), *args],
            cwd=ROOT, capture_output=True, text=True, timeout=SAMPLE_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return None, f"worker timed out after {SAMPLE_TIMEOUT_S} s"
    if proc.returncode != 0:
        return None, f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"
    return json.loads(proc.stdout.splitlines()[-1]), None


def take_sample(name: str, spec: dict, rundir: Path, index: int, trace: int) -> dict:
    sample_dir = rundir / f"sample{index}"
    sample_dir.mkdir()
    result, error = run_worker(
        ["--calls", str(rundir / "calls.json"), "--outdir", str(sample_dir),
         "--trace", str(trace)]
    )
    if result is None:
        return {"trace": trace, "problems": [error]}
    result["trace"] = trace
    result["problems"] = check_sample(name, spec, result)
    result["output_bytes"] = sum(Path(p).stat().st_size for p in result["outputs"])
    for path in result.pop("outputs"):
        Path(path).unlink()
    return result


def setup_times(samples: list) -> list:
    times = [s["import_s"] for s in samples]
    for _ in range(SETUP_SAMPLES):
        result, error = run_worker(["--import-only"])
        if result is None:
            raise RuntimeError(error)
        times.append(result["import_s"])
    return times


def end_to_end(samples: list, env: dict) -> dict:
    env["setup_samples_s"] = setup_times(samples)
    return {
        "wall_s": statistics.median(s["wall_s"] for s in samples),
        "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in samples),
        "setup_s": statistics.median(env["setup_samples_s"]),
    }


def per_layer(samples: list) -> dict:
    untraced, traced = samples
    data = json.loads(Path(traced["spans"]).read_text())
    metrics = tracing.layer_metrics(data["spans"], data["counters"])
    metrics["cli.output_bytes"] = traced["output_bytes"]
    metrics["trace.overhead_s"] = traced["wall_s"] - untraced["wall_s"]
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "cubicforms" / "__init__.py").is_file():
        print(f"error: no src/cubicforms package in {ROOT}", file=sys.stderr)
        return 2
    config = json.loads((HERE / "workloads.json").read_text())
    if args.workload not in config["workloads"]:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    spec = config["workloads"][args.workload]

    env = {
        "workload": args.workload,
        "seed": args.seed,
        "seed_used": False,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
        "load_avg_start": os.getloadavg(),
        "fresh_interpreter_per_sample": True,
        "workers": 1,
    }
    rundir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    rundir.mkdir(parents=True)
    (rundir / "calls.json").write_text(json.dumps(spec["calls"]))

    samples = []
    if args.trace:
        samples.append(take_sample(args.workload, spec, rundir, 0, trace=0))
        samples.append(take_sample(args.workload, spec, rundir, 1, trace=1))
    else:
        start = time.monotonic()
        while True:
            began = time.monotonic()
            samples.append(take_sample(args.workload, spec, rundir, len(samples), trace=0))
            now = time.monotonic()
            if now - start + (now - began) > args.seconds:
                break

    failed = [s for s in samples if s["problems"]]
    for s in failed:
        for problem in s["problems"]:
            print(f"{args.workload}: {problem}", file=sys.stderr)
    measured = [s for s in samples if "wall_s" in s]
    # a traced run needs both of its samples; an untraced run needs one
    if not measured or (args.trace and len(measured) < len(samples)):
        print(f"error: no {args.workload} sample to report", file=sys.stderr)
        return 1
    metrics = per_layer(measured) if args.trace else end_to_end(measured, env)
    units = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
    result = {
        "correct": not failed,
        "attempted": len(samples),
        "failed": len(failed),
        "metrics": {
            name: {"value": value, "unit": units.get(name) or tracing.unit_of(name)}
            for name, value in metrics.items()
        },
    }
    env["numpy"] = measured[0]["numpy"]
    env["load_avg_end"] = os.getloadavg()
    (rundir / "result.json").write_text(
        json.dumps({"env": env, "samples": samples, "result": result}, indent=1)
    )
    print(json.dumps({"env": env}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
