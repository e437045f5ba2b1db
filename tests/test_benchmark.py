import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_selftest_passes_and_cleans_up():
    """`benchmark/run.py --selftest` exits 0, ends with `selftest: ok` and
    leaves no selftest workdir behind."""
    work = ROOT / ".bench_work"
    before = set(work.glob("selftest-*"))
    proc = subprocess.run(
        [sys.executable, "benchmark/run.py", "--selftest"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines()[-1] == "selftest: ok", proc.stdout
    assert set(work.glob("selftest-*")) == before


def run_workload(workload, seed):
    """The result line of a one-second untraced run of a benchmark workload."""
    proc = subprocess.run(
        [sys.executable, "benchmark/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "0"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, result
    assert result["attempted"] > 0, result
    return result


def test_det_step_runs_end_to_end_and_checks_clean():
    """One short det_step run exits 0 with every step's output checked and
    none failed; its NMS check holds the greedy definition on real steps."""
    run_workload("det_step", 3)


def test_eval_10k_runs_end_to_end_and_checks_clean():
    """One short eval_10k run exits 0 with every image's counts equal to the
    constructed ones, through evaluate's IoU threshold kernel."""
    run_workload("eval_10k", 3)


def test_rec_step_runs_end_to_end_and_checks_clean():
    """One short rec_step run exits 0 with every crop, decode and loss held
    to its constructed or oracle value."""
    run_workload("rec_step", 3)


def test_oracle_verify_runs_end_to_end_and_checks_clean():
    """One short oracle_verify run exits 0 with every oracle comparison
    within its tolerance."""
    run_workload("oracle_verify", 3)
