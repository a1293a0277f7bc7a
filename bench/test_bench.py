"""The traced run is repeatable: one seed gives the same counts twice, and
its spans nest with non-negative self time.

Run from the repository root with ``python3 -m pytest bench``.
"""

from __future__ import annotations

import sys

import pytest

import run
import tracing
import workloads

if str(run.SRC) not in sys.path:
    sys.path.insert(0, str(run.SRC))

from simplexdist import cli  # noqa: E402


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_traced_batch_repeats_and_nests(workload):
    runner = run.Runner(cli)
    calls = workloads.make_batch(workload, 3, 0)
    _, first, first_outcomes = run.traced_batch(runner, calls)
    _, second, second_outcomes = run.traced_batch(runner, calls)

    assert runner.failed == 0
    assert first.absent == []
    counts = run.batch_counts(first, first_outcomes)
    assert counts == run.batch_counts(second, second_outcomes)
    assert counts["cli.main.calls"] == len(calls)

    spans = first.spans
    # every span was made by the program's CLI, none by the harness's checks
    roots = {index for index, _, _, parent, _, _ in spans if parent < 0}
    assert roots == {[hook.name for hook in tracing.HOOKS].index("cli.main")}
    child_ns = [0] * len(spans)
    for _, start, end, parent, _, _ in spans:
        if parent >= 0:
            _, p_start, p_end, _, _, _ = spans[parent]
            assert p_start <= start <= end <= p_end
            child_ns[parent] += end - start
    assert all(end - start - child >= 0 for (_, start, end, _, _, _), child in zip(spans, child_ns))
    assert all(entry["self_ns"] >= 0 for entry in tracing.aggregate(spans).values())


def test_tracer_restores_bindings_and_reports_missing_hooks(monkeypatch):
    from simplexdist import discover, geom

    original = geom.sample_points
    monkeypatch.delattr(discover, "rationalize")
    with tracing.Tracer() as tracer:
        assert discover.sample_points is not original
        assert geom.sample_points is discover.sample_points
    assert geom.sample_points is original and discover.sample_points is original
    assert tracer.absent == ["discover.rationalize"]
