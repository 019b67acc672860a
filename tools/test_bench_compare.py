#!/usr/bin/env python3
"""Unit checks for tools/bench_compare.py's gating rules.

Run directly (python3 tools/test_bench_compare.py) or through ctest
(bench_compare_rules). A /threads:n row is gated only when both sides'
contexts report at least n CPUs.
"""

import contextlib
import io
import json
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import bench_compare  # noqa: E402


def bench_doc(num_cpus, rows):
    return {
        "context": {"host_name": "h", "num_cpus": num_cpus,
                    "mhz_per_cpu": 2000},
        "benchmarks": [{"name": name, "run_type": "iteration",
                        "real_time": ns} for name, ns in rows.items()],
    }


class UngatedReason(unittest.TestCase):
    def test_rows_without_thread_suffix_are_gated(self):
        host = {"num_cpus": 1}
        self.assertIsNone(bench_compare.ungated_reason(
            "BM_IpSelection/4000", host, host))

    def test_thread_rows_need_n_cpus_on_both_sides(self):
        one, four = {"num_cpus": 1}, {"num_cpus": 4}
        name = "BM_IpSelection/4000/threads:4"
        self.assertIsNone(bench_compare.ungated_reason(name, four, four))
        self.assertIn("baseline num_cpus=1 < 4",
                      bench_compare.ungated_reason(name, one, four))
        self.assertIn("fresh num_cpus=1 < 4",
                      bench_compare.ungated_reason(name, four, one))
        self.assertIsNone(bench_compare.ungated_reason(
            "BM_IpSelection/4000/threads:1", one, one))

    def test_unknown_cpu_count_stays_gated(self):
        self.assertIsNone(bench_compare.ungated_reason(
            "BM_X/threads:4", {"num_cpus": None}, {"num_cpus": 8}))


class StrictExit(unittest.TestCase):
    def run_compare(self, base_cpus, fresh_cpus):
        rows_base = {"BM_X/threads:4": 100.0, "BM_Y": 100.0}
        rows_fresh = {"BM_X/threads:4": 300.0, "BM_Y": 101.0}
        with tempfile.TemporaryDirectory() as tmp:
            paths = []
            for tag, cpus, rows in (("base", base_cpus, rows_base),
                                    ("fresh", fresh_cpus, rows_fresh)):
                path = os.path.join(tmp, tag + ".json")
                with open(path, "w") as fh:
                    json.dump(bench_doc(cpus, rows), fh)
                paths.append(path)
            out, err = io.StringIO(), io.StringIO()
            argv = sys.argv
            sys.argv = ["bench_compare.py", "--strict"] + paths
            try:
                with contextlib.redirect_stdout(out), \
                        contextlib.redirect_stderr(err):
                    status = bench_compare.main()
            finally:
                sys.argv = argv
        return status, out.getvalue()

    def test_oversubscribed_row_is_reported_not_gated(self):
        status, out = self.run_compare(1, 4)
        self.assertEqual(status, 0)
        self.assertIn("BM_X/threads:4: baseline num_cpus=1 < 4 threads", out)

    def test_row_on_large_enough_hosts_is_gated(self):
        status, out = self.run_compare(4, 4)
        self.assertEqual(status, 1)
        self.assertIn("<< REGRESSION", out)


if __name__ == "__main__":
    unittest.main()
