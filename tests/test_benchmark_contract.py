"""The benchmark's contract with the program.

``perfbench/`` calls library functions by name, binds their parameter
names in its span counters, and runs the CLI with its options. One block
of each workload at seed 0 must run and pass the benchmark's own checks,
the library workloads also under the span tracer, so a change that breaks
any of those bindings fails here rather than in a benchmark run.
"""
import itertools
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import run  # noqa: E402
import spans  # noqa: E402
import tasks  # noqa: E402


def _first_block(workload) -> list:
    return list(itertools.islice(workload.cases, workload.block))


def _checks(workload, block, outs) -> list:
    return [workload.check(case, out) for case, out in zip(block, outs)]


@pytest.mark.parametrize("workload_class", [tasks.Design, tasks.Analysis])
def test_library_workload_passes_checks_traced_and_untraced(workload_class):
    workload = workload_class(0)
    block = _first_block(workload)
    outs = [workload.run(case) for case in block]
    assert _checks(workload, block, outs) == [None] * len(block)

    tracer = spans.Tracer()
    tracer.install()
    try:
        traced = [workload.run(case) for case in block]
    finally:
        tracer.uninstall()
    assert tracer.absent == []
    assert tracer.spans
    assert _checks(workload, block, traced) == [None] * len(block)


def test_cli_chain_passes_checks(tmp_path):
    workload = tasks.CliChain(0, run.ROOT, tmp_path, run.child_env())
    block = _first_block(workload)
    outs = [workload.run(case) for case in block]
    assert _checks(workload, block, outs) == [None] * len(block)
