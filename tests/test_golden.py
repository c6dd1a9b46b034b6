"""The golden micro runs of tests/golden.py against tests/golden.tsv."""

import pytest

from deskclip.verify import inject_fault

from tests import golden

QUEUE_RUNS = [label for label in golden.MICRO if "declip" in label or "defilip" in label]


@pytest.fixture(scope="module")
def micro(tmp_path_factory):
    workdir = tmp_path_factory.mktemp("golden")
    return workdir, golden.record(golden.MICRO, workdir)


def test_micro_runs_match_the_golden_file_and_a_resumed_run_its_uninterrupted_bytes(micro):
    workdir, recorded = micro
    failures, report = golden.compare(golden.load(), recorded)
    assert not failures, report
    for name in ("metrics.log", "final.ckpt", "best.ckpt"):
        resumed = golden.run_dir(workdir, golden.RESUMED) / name
        assert resumed.read_bytes() == (golden.run_dir(workdir, "vit/defilip") / name).read_bytes(), name


def test_a_queue_that_never_advances_fails_every_run_that_reads_the_queue(micro, tmp_path):
    expected = golden.load()
    assert golden.compare(expected, {label: micro[1][label] for label in QUEUE_RUNS})[0] == {}
    with inject_fault("queue-fifo"):
        broken = golden.record(QUEUE_RUNS, tmp_path)
    assert set(golden.compare(expected, broken)[0]) == set(QUEUE_RUNS)
