"""tools/startup.py runs each child it lists and reports one line for each."""
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_one_repetition_reports_every_child_and_counts_failures(tmp_path):
    good = ROOT / "configs" / "bernoulli-quarter-check.json"
    # a spectrum writes a level file, so a config that names no output path
    # runs only with --out, as the bench's spectrum configs do
    spectrum = tmp_path / "spectrum.json"
    spectrum.write_text(json.dumps({"dimension": 1, "sequence": {"generator": "jorgensen-pedersen"},
                                    "spectrum": {"milestones": [1, 2]}}))
    argv = [sys.executable, str(ROOT / "tools" / "startup.py"), str(ROOT / "src"), "--reps", "1",
            "--command", "check", str(good), "--command", "spectrum", str(spectrum),
            "--command", "check", str(tmp_path / "absent.json")]
    proc = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1, proc.stderr  # the absent config's child exits 2
    header, *rows, tail = proc.stdout.splitlines()
    assert header.endswith("(1 runs)")
    names = ["-c pass", "import numpy", "import convspectra.cli", f"check {good}", f"spectrum {spectrum}",
             f"check {tmp_path / 'absent.json'}"]
    assert [row.rsplit(maxsplit=4)[0] for row in rows] == names
    for row in rows:
        q1, median, q3, peak_mb = map(float, row.rsplit(maxsplit=4)[1:])
        assert 0 < q1 == median == q3 and peak_mb > 0
    assert tail == "1 children failed"


def _startup_tool():
    spec = importlib.util.spec_from_file_location("startup_tool", ROOT / "tools" / "startup.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_each_child_writes_a_new_output_file(tmp_path):
    # the child exits 3 when its output file is already there: the tool
    # removes it after each child, so a repetition never overwrites one
    tool = _startup_tool()
    out = str(tmp_path / "child.out")
    code = ("import os, sys; found = os.path.exists(sys.argv[1]); "
            "open(sys.argv[1], 'w').write('x'); sys.exit(3 if found else 0)")
    for _ in range(2):
        wall_ms, peak_mb, rc = tool.run_child(["-c", code, out], dict(os.environ), out)
        assert rc == 0 and wall_ms > 0 and peak_mb > 0
        assert not os.path.exists(out)
    # without an output file to remove, the second child finds the first's
    assert [tool.run_child(["-c", code, out], dict(os.environ))[2] for _ in range(2)] == [0, 3]
