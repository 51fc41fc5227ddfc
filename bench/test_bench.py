"""Tests of the benchmark's own code: the tail rule, span self-time
arithmetic, and that corrupted outputs fail a job's checks.

    PYTHONPATH=src python -m pytest -q bench/test_bench.py
"""

import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
for path in (BENCH.parent / "src", BENCH):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import isoslice.cli as cli  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from workloads import CheckFailed, OrgansLinear  # noqa: E402


@pytest.mark.parametrize(
    "n, percentile, value, above",
    [(18, 44, 8, 10), (11, 9, 1, 10), (100, 90, 90, 10), (1000, 99, 990, 10), (5, 0, 1, 4)],
)
def test_tail_is_highest_percentile_with_ten_jobs_above(n, percentile, value, above):
    times = [float(t) for t in range(n, 0, -1)]
    assert run.tail_percentile(times) == (percentile, value, above)


def test_self_time_subtracts_the_union_of_child_spans():
    S = tracing.Span
    spans = [
        S("cli.main", 0.0, 10.0, None, 0),
        S("volume.load", 1.0, 2.0, 0, 0),
        S("impute.volume", 2.0, 9.0, 0, 0),
        S("flow.estimate", 3.0, 6.0, 2, 0),
        S("flow.resample", 4.0, 5.0, 3, 0),
        S("impute.warp", 6.0, 7.0, 2, 0),
    ]
    assert tracing.self_times(spans) == [2.0, 1.0, 3.0, 2.0, 1.0, 1.0]
    m = tracing.layer_metrics(spans, {0: 12.5})
    assert m["flow.share"] == pytest.approx(3.0 / 12.5)
    assert m["impute.share"] == pytest.approx(4.0 / 12.5)
    assert m["trace.uncovered_frac"] == pytest.approx(2.5 / 12.5)
    shares = sum(m[f"{layer}.share"] for layer in tracing.LAYERS)
    assert shares + m["trace.uncovered_frac"] == pytest.approx(1.0)
    # Overlapping children are counted once, and a child is clipped to its parent.
    assert tracing.covered([(0.0, 2.0), (1.0, 3.0), (5.0, 6.0)]) == 4.0
    clipped = [S("cli.main", 0.0, 4.0, None, 0), S("volume.save", 3.0, 6.0, 0, 0)]
    assert tracing.self_times(clipped)[0] == 3.0


def test_recorder_nests_spans_and_restores_the_program():
    rec = tracing.Recorder()
    inner = rec.wrap("flow.resample", lambda: None, None)
    outer = rec.wrap("flow.estimate", lambda: inner(), None)
    outer()
    assert [(s.name, s.parent) for s in rec.spans] == [("flow.estimate", None), ("flow.resample", 0)]

    original = cli.main
    with rec.installed(job=3):
        assert cli.main is not original
    assert cli.main is original


def test_corrupted_outputs_fail_the_job(tmp_path):
    workload = OrgansLinear()
    workload.dims, workload.classes, workload.pool = (32, 32, 9), 5, 1
    (inp,) = workload.make_inputs(np.random.default_rng(0), tmp_path)
    _, results = run.run_chain(cli, workload.commands(inp, tmp_path))
    hashes = {}
    quality = run.check_job(workload, inp, results, tmp_path, hashes)
    assert quality["l1_ratio"] == 1.0
    out = workload.outputs(inp, tmp_path)[0]
    genuine = out.read_bytes()
    voxel = 32 * 32 * 4

    # One bit of a synthesized slice: only the repeat's hash tells.
    corrupted = bytearray(genuine)
    corrupted[len(genuine) - 6 * voxel] ^= 1
    out.write_bytes(bytes(corrupted))
    workload.check(inp, [r[1] for r in results], tmp_path)
    with pytest.raises(CheckFailed, match="hashes differ"):
        run.check_job(workload, inp, results, tmp_path, hashes)

    # One bit of an original slice fails even on first sight.
    corrupted = bytearray(genuine)
    corrupted[-1] ^= 1
    out.write_bytes(bytes(corrupted))
    with pytest.raises(CheckFailed, match="original slice"):
        run.check_job(workload, inp, results, tmp_path, {})

    # A truncated file and a failed exit code fail too.
    out.write_bytes(genuine[:-4])
    with pytest.raises(CheckFailed, match="payload size"):
        run.check_job(workload, inp, results, tmp_path, {})
    out.write_bytes(genuine)
    with pytest.raises(CheckFailed, match="exit code 1"):
        run.check_job(workload, inp, [(1, "", "error: boom")], tmp_path, {})
