"""Workload rounds are reproducible, and their checks pass on the real program."""

import pytest

import worker
import workloads


def test_rounds_repeat_for_a_seed(tmp_path):
    a = workloads.QubitOneshot(5, str(tmp_path / "a"))
    b = workloads.QubitOneshot(5, str(tmp_path / "a"))
    c = workloads.QubitOneshot(6, str(tmp_path / "a"))
    (tmp_path / "a").mkdir()
    assert [op.argv for op in a.ops(2)] == [op.argv for op in b.ops(2)]
    assert [op.argv for op in a.ops(2)] != [op.argv for op in c.ops(2)]
    assert [op.argv for op in a.ops(2)] != [op.argv for op in a.ops(3)]


@pytest.mark.parametrize("name", ["qubit-scan", "qubit-oneshot", "chsh-protocol"])
def test_warmup_round_passes_its_checks(tmp_path, name):
    import cycshift.cli

    tally = worker.Tally()
    worker.run_round(workloads.WORKLOADS[name](3, str(tmp_path)), cycshift.cli.main,
                     workloads.WARMUP_ROUND, tally)
    assert tally.attempted > 0
    assert tally.failed == 0 and not tally.incorrect, tally.errors


def test_scan_check_rejects_a_scaled_program_output(tmp_path):
    import checks
    import cycshift.cli

    op = workloads.QubitScan(3, str(tmp_path)).ops(workloads.WARMUP_ROUND)[0]
    _, rc, text = worker.call(cycshift.cli.main, op.argv)
    assert rc == 0
    op.check(text)
    lines = text.splitlines()
    cells = lines[3].split(",")
    cells[3] = repr(float(cells[3]) * 1.001)
    lines[3] = ",".join(cells)
    with pytest.raises(checks.CheckError):
        op.check("\n".join(lines) + "\n")
