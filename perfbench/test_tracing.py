"""Checks on the benchmark's tracing.

    python3 -m pytest perfbench -q

Each traced sample runs in a fresh interpreter through worker.py, as in the
benchmark, at bounds small enough to take a few seconds.
"""

from __future__ import annotations

import collections
import json
import subprocess
import sys
from pathlib import Path

import pytest

import tracing

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

# One small call per workload kind, so that every traced layer is reached.
TINY_CALLS = [
    ["density", "--lattice", "1", "--sign", "pos", "--max", "20000"],
    ["density", "--lattice", "1", "--sign", "neg", "--max", "20000"],
    ["enumerate", "--lattice", "1", "--sign", "neg", "--max", "3000"],
    ["verify", "--suite", "tables"],
    ["verify", "--suite", "relations", "--max", "50"],
    ["verify", "--suite", "non-relation"],
    ["verify", "--suite", "decomps"],
    ["verify", "--suite", "congruence"],
    ["verify", "--suite", "rank"],
    ["verify", "--suite", "euler"],
    ["verify", "--suite", "lambda", "--max", "50"],
    ["verify", "--suite", "dual"],
    ["verify", "--suite", "classification"],
    ["verify", "--suite", "local-densities"],
    ["verify", "--suite", "oracle", "--max", "10", "--box", "15"],
]


def _sample(tmp: Path, trace: int) -> dict:
    tmp.mkdir()
    calls = tmp / "calls.json"
    calls.write_text(json.dumps(TINY_CALLS))
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "--calls", str(calls),
         "--outdir", str(tmp), "--trace", str(trace)],
        capture_output=True, text=True, timeout=300, check=True,
    )
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["exit_codes"] == [0] * len(TINY_CALLS)
    result["texts"] = [Path(p).read_bytes() for p in result["outputs"]]
    if trace:
        result.update(json.loads(Path(result["spans"]).read_text()))
    return result


@pytest.fixture(scope="module")
def samples(tmp_path_factory) -> list:
    base = tmp_path_factory.mktemp("tiny")
    return [_sample(base / f"s{i}", trace) for i, trace in enumerate((1, 1, 0))]


def _counts(sample: dict) -> dict:
    counts = collections.Counter(name for name, *_ in sample["spans"])
    return {**{f"{k}.calls": v for k, v in counts.items()}, **sample["counters"]}


@pytest.fixture
def installed():
    sys.path.insert(0, str(SRC))
    import cubicforms.cli  # noqa: F401

    replaced = tracing.install(tracing.Tracer())
    try:
        yield sys.modules
    finally:
        tracing.uninstall(replaced)


def test_every_binding_site_is_wrapped(installed):
    mods = {k.split(".")[-1]: installed[k] for k in installed if k.startswith("cubicforms.")}
    named = [
        ("cli", "enumerate_classes"),
        ("cli", "brute_force_classes"),
        ("cli", "build_all_series"),
        ("series", "master_classes"),
        ("analytic", "master_classes"),
        ("enumeration", "master_classes"),
        ("enumeration", "orbit_bfs"),
        ("enumeration", "stabilizer_order"),
        ("enumeration", "is_irreducible"),
    ]
    # the attributes cli reaches as series_mod.*, latclass.* and analytic.*
    named += [(m, f) for m, f in tracing.TRACED if m in ("series", "latclass", "analytic")]
    for module, func in named:
        assert hasattr(getattr(mods[module], func), "__traced_original__"), f"{module}.{func}"
    assert tracing.unwrapped_bindings() == []


def test_uninstall_restores_originals(installed):
    replaced = tracing.install(tracing.Tracer())  # a second layer on top
    tracing.uninstall(replaced)
    assert replaced
    assert all(getattr(mod, attr) is original for mod, attr, original in replaced)


def test_every_traced_layer_is_reached(samples):
    reached = {name for name, *_ in samples[0]["spans"]}
    assert reached == {f"{m}.{f}" for m, f in tracing.TRACED}


def test_traced_counts_repeat_exactly(samples):
    assert _counts(samples[0]) == _counts(samples[1])


def test_tracing_leaves_outputs_unchanged(samples):
    assert samples[0]["texts"] == samples[2]["texts"]


def test_self_times_are_non_negative_and_sum_to_wall(samples):
    for sample in samples[:2]:
        own = tracing.self_times(sample["spans"])
        assert min(own) >= -1e-9
        wall = sample["wall_s"]
        tolerance = tracing.SUM_TOLERANCE_REL * wall + tracing.SUM_TOLERANCE_ABS_S
        assert abs(sum(own) - wall) <= tolerance
