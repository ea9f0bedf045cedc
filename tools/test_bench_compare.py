"""Unit tests for bench_compare.py's --fail-on hard gate.

    python3 -m unittest discover -s tools -p 'test_*.py'
"""

import json
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent / "bench_compare.py"


def bench_file(directory, name, rows):
    """Writes a Google Benchmark JSON file with one row per {name: p50_us}."""
    path = Path(directory) / name
    doc = {"context": {}, "benchmarks": [{"name": n, "p50_us": v} for n, v in rows.items()]}
    path.write_text(json.dumps(doc))
    return str(path)


class FailOnGate(unittest.TestCase):
    def run_compare(self, base_rows, cur_rows, gate):
        with tempfile.TemporaryDirectory() as tmp:
            base = bench_file(tmp, "base.json", base_rows)
            cur = bench_file(tmp, "cur.json", cur_rows)
            return subprocess.run(
                [sys.executable, str(SCRIPT), base, cur, "--warn-only", "--fail-on", gate],
                capture_output=True,
                text=True,
            )

    def test_regression_beyond_gate_fails(self):
        result = self.run_compare({"serve/8/0": 100.0}, {"serve/8/0": 130.0}, "serve/.*:p50_us:0.25")
        self.assertEqual(result.returncode, 1, result.stdout)
        self.assertIn("HARD REGRESSION", result.stdout)

    def test_change_within_gate_passes(self):
        result = self.run_compare({"serve/8/0": 100.0}, {"serve/8/0": 120.0}, "serve/.*:p50_us:0.25")
        self.assertEqual(result.returncode, 0, result.stdout)

    def test_gate_matching_no_common_row_fails(self):
        # A renamed row: each name is in one file only, so the gate checks nothing.
        result = self.run_compare({"serve/8/0/0": 100.0}, {"serve/8/0": 100.0}, "serve/.*:p50_us:0.25")
        self.assertNotEqual(result.returncode, 0, result.stdout)
        self.assertIn("matches no row", result.stdout)


if __name__ == "__main__":
    unittest.main()
