"""tools/startup.py runs each child it lists and reports one line for each."""
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_one_repetition_reports_every_child_and_counts_failures(tmp_path):
    good = ROOT / "configs" / "bernoulli-quarter-check.json"
    argv = [sys.executable, str(ROOT / "tools" / "startup.py"), str(ROOT / "src"), "--reps", "1",
            "--command", "check", str(good), "--command", "check", str(tmp_path / "absent.json")]
    proc = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1, proc.stderr  # the absent config's child exits 2
    header, *rows, tail = proc.stdout.splitlines()
    assert header.endswith("(1 runs)")
    names = ["-c pass", "import numpy", "import convspectra.cli", f"check {good}", f"check {tmp_path / 'absent.json'}"]
    assert [row.rsplit(maxsplit=4)[0] for row in rows] == names
    for row in rows:
        q1, median, q3, peak_mb = map(float, row.rsplit(maxsplit=4)[1:])
        assert 0 < q1 == median == q3 and peak_mb > 0
    assert tail == "1 children failed"
