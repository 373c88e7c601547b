"""Self-tests of the benchmark: generator determinism, span arithmetic, and
that every output check rejects a deliberately perturbed output.

    python3 bench/selftest.py

Kept out of the package's pytest suite (the file name does not match
test_*.py) so the benchmark stays separate from the tier-1 tests.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import sys
import tempfile
import threading
import time
import unittest
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from cfbelo import cli  # noqa: E402


def _run_ops(name: str, seed: int, only: tuple[str, ...] = ()) -> tuple[dict[str, tuple[str, str]], checks.Expected]:
    """Generate a workload, run each op (or those in `only`) once in
    process, return outputs."""
    workload = workloads.generate(name, seed)
    outputs = {}
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        workload.write(workdir)
        for op in workloads.workload_ops(name, workdir):
            if only and op.name not in only:
                continue
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.main(list(op.argv))
            assert rc == 0, (op, err.getvalue()[-300:])
            outputs[op.name] = (out.getvalue(), err.getvalue())
    return outputs, checks.expected_for(workload, ROOT)


class GeneratorTest(unittest.TestCase):
    def test_same_seed_same_bytes(self):
        for name in workloads.SHAPES:
            with self.subTest(workload=name):
                self.assertEqual(workloads.generate(name, 11).files, workloads.generate(name, 11).files)

    def test_any_seed_same_shape(self):
        for name in workloads.SHAPES:
            with self.subTest(workload=name):
                a, b = workloads.generate(name, 11), workloads.generate(name, 12)
                self.assertNotEqual(a.files["games.csv"], b.files["games.csv"])
                self.assertEqual(sorted(a.files), sorted(b.files))
                self.assertEqual(len(a.games), len(b.games))
                self.assertEqual(a.teams, b.teams)
                self.assertEqual(a.expected_rejects, b.expected_rejects)
                per_season = {s: sum(g.season == s for g in a.games) for s in workloads.SEASONS}
                self.assertEqual(per_season, {s: sum(g.season == s for g in b.games) for s in workloads.SEASONS})

    def test_shapes(self):
        season = workloads.generate("export-season", 1)
        self.assertEqual((len(season.games), len(season.teams)), (35000, 715))
        fbs = workloads.generate("fbs-clean", 1)
        self.assertEqual((len(fbs.games), len(fbs.teams)), (7980, 130))
        self.assertEqual(season.expected_rejects, {reason: 20 for reason in workloads.REASONS})
        for real in workloads.real_team_names():
            self.assertIn(real, fbs.teams)


def _span(sid, start, end, parent=None, thread=0):
    return tracer.Span(sid, f"s{sid}", parent, thread, start, end)


class SpanArithmeticTest(unittest.TestCase):
    def test_union_of_overlapping_intervals(self):
        self.assertAlmostEqual(tracer.union_length([(1, 5), (3, 8), (9, 10)]), 8.0)
        self.assertAlmostEqual(tracer.union_length([]), 0.0)

    def test_self_time_subtracts_union_not_sum(self):
        parent = _span(0, 0.0, 10.0)
        # Two children on two threads overlap on [3, 5]: covered is 7, not 9.
        children = [_span(1, 1.0, 5.0, parent=0, thread=1), _span(2, 3.0, 8.0, parent=0, thread=2)]
        self.assertAlmostEqual(tracer.self_time(parent, children), 3.0)

    def test_self_time_clips_children_to_parent(self):
        parent = _span(0, 2.0, 6.0)
        self.assertAlmostEqual(tracer.self_time(parent, [_span(1, 1.0, 3.0, parent=0)]), 3.0)

    def test_pool_threads_link_to_client_span(self):
        t = tracer.Tracer()
        barrier = threading.Barrier(2, timeout=5)

        def arm(_):
            barrier.wait()  # both arms run at the same time
            time.sleep(0.05)

        arm = t.wrap("arm", arm)
        root = t.open("root")
        with ThreadPoolExecutor(max_workers=2) as pool:
            list(pool.map(arm, range(2)))
        t.close(root)
        arms = [s for s in t.spans if s.name == "arm"]
        self.assertEqual(len(arms), 2)
        self.assertEqual({s.parent for s in arms}, {root.sid})
        self.assertEqual(len({s.thread for s in arms}), 2)
        stats = tracer.summarize(t.spans)
        covered = tracer.union_length((s.start, s.end) for s in arms)
        self.assertLess(covered, sum(s.end - s.start for s in arms))
        self.assertAlmostEqual(stats.self_s["root"], (root.end - root.start) - covered, places=9)
        self.assertGreaterEqual(stats.self_s["root"], 0.0)


def _perturbations():
    def bump_rating(doc):
        doc["entries"][0]["rating"] += 1e-3

    def swap_top(doc):
        top = doc["seasons"][3]["elo_top"]
        top[0]["team"], top[1]["team"] = top[1]["team"], top[0]["team"]

    def cfp_rank(doc):
        doc["entries"][-1]["cfp_rank"] = 9  # committee ranks are 1-4

    def tau(doc):
        doc["reference_agreement"][5]["kendall_tau"] += 0.01

    def n_games(doc):
        doc["n_games"] += 1

    def drop_sweep_row(doc):
        doc.pop()

    return {
        "rate": [bump_rating],
        "snapshot": [bump_rating, cfp_rank],
        "compare": [swap_top],
        "agreement": [swap_top, tau],
        "backtest": [n_games],
        "sweep": [drop_sweep_row],
    }


class OutputCheckTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.fbs, cls.fbs_expected = _run_ops("fbs-clean", 5)
        cls.ingest, cls.ingest_expected = _run_ops("export-season", 5, only=("ingest_csv", "ingest_json"))

    def test_unperturbed_outputs_pass(self):
        for outputs, expected in ((self.fbs, self.fbs_expected), (self.ingest, self.ingest_expected)):
            for op, (out, err) in outputs.items():
                with self.subTest(op=op):
                    self.assertIsNone(checks.check(op, out, err, expected))

    def test_perturbed_json_outputs_fail(self):
        for op, perturbations in _perturbations().items():
            out, err = self.fbs[op]
            for perturb in perturbations:
                with self.subTest(op=op, perturbation=perturb.__name__):
                    doc = copy.deepcopy(json.loads(out))
                    perturb(doc)
                    self.assertIsNotNone(checks.check(op, json.dumps(doc), err, self.fbs_expected))

    def test_backtest_window_is_checked(self):
        out, err = self.fbs["backtest"]
        windowed = copy.copy(self.fbs_expected)
        windowed.window = (2019, 2023)
        self.assertIsNotNone(checks.check("backtest", out, err, windowed))

    def test_ingest_csv_dropped_row_fails(self):
        out, err = self.ingest["ingest_csv"]
        lines = out.splitlines(keepends=True)
        self.assertIsNotNone(checks.check("ingest_csv", "".join(lines[:100] + lines[101:]), err, self.ingest_expected))

    def test_ingest_json_changed_score_fails(self):
        out, err = self.ingest["ingest_json"]
        doc = json.loads(out)
        doc[7]["home_points"] += 1
        self.assertIsNotNone(checks.check("ingest_json", json.dumps(doc), err, self.ingest_expected))

    def test_ingest_reject_count_mismatch_fails(self):
        out, err = self.ingest["ingest_csv"]
        lines = err.splitlines(keepends=True)
        first_reject = next(i for i, line in enumerate(lines) if line[:1].isdigit())
        fewer = "".join(lines[:first_reject] + lines[first_reject + 1:])
        self.assertIsNotNone(checks.check("ingest_csv", out, fewer, self.ingest_expected))

    def test_stdout_differing_across_passes_fails(self):
        def rec(digest, rc=0):
            return run.OpRecord("rate", False, rc, 0.1, digest, 0, 0)

        self.assertEqual(run.count_failed([rec("a"), rec("a")], {"rate": None}), 0)
        self.assertEqual(run.count_failed([rec("a"), rec("b"), rec("a")], {"rate": None}), 1)
        self.assertEqual(run.count_failed([rec("a"), rec("a", rc=2)], {"rate": None}), 1)
        self.assertEqual(run.count_failed([rec("a"), rec("a")], {"rate": "wrong"}), 2)


if __name__ == "__main__":
    unittest.main()
