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
