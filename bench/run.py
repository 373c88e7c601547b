"""cfbelo benchmark: seeded workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload export-season --seed 7 --seconds 45 --trace 0

Run from anywhere inside a checkout; the program is imported from the
checkout's `src/`. Steps:

1. A child process generates the workload's input files from the seed.
2. Fresh interpreters measure set-up: `import cfbelo.cli` plus the first load
   of the bundled reference data, which every CLI call pays (`setup_s`),
   timed inside each child so process start-up noise stays out.
3. This process, which has not touched the generated data, drives
   `cfbelo.cli.main` as a closed loop with one client: each op starts when
   the previous one returns, one pass runs every op of the workload once, and
   passes repeat until `--seconds` have elapsed. Each op's stdout and stderr
   go to files. `gc.collect()` runs between ops, outside the timed region.
   Peak RSS is read after the first pass.
4. With `--trace 1`, every second pass runs with spans around the public
   layer functions (see tracer.py); the other passes stay untraced, and the
   difference in pass time is the tracing overhead.
5. Every op's output is checked against ground truth (checks.py), and every
   repetition's stdout must be byte-identical to the first.

The last line of stdout is one JSON object: `correct`, `attempted`, `failed`
and `metrics` (the end-to-end metrics with `--trace 0`, the per-layer ones
with `--trace 1`). The lines before it are a readable report.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKLOADS = ("export-season", "fbs-clean")
OP_NAMES = ("rate", "snapshot", "compare", "agreement", "backtest", "sweep", "ingest_csv", "ingest_json")
SETUP_RUNS = 15

_SETUP_CHILD = """\
import time
t0 = time.perf_counter()
import cfbelo.cli
t1 = time.perf_counter()
from cfbelo import datasets
datasets.bundled_aliases()
datasets.bundled_selections()
datasets.bundled_snapshots()
datasets.bundled_conferences()
t2 = time.perf_counter()
print(t1 - t0, t2 - t1)
"""


@dataclass
class OpRecord:
    op: str
    traced: bool
    rc: int
    seconds: float
    digest: str
    stderr_lines: int
    stderr_bytes: int


@dataclass
class PassRecord:
    traced: bool
    spans: list = field(default_factory=list)


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def measure_setup(runs: int) -> list[tuple[float, float]]:
    """(import, load) seconds in each of `runs` fresh interpreters, after one
    untimed run that fills the bytecode cache."""
    cmd = [sys.executable, "-c", _SETUP_CHILD]
    env = _child_env()
    results = []
    for i in range(runs + 1):
        done = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True, timeout=60, check=True)
        if i:
            import_s, load_s = (float(x) for x in done.stdout.split())
            results.append((import_s, load_s))
    return results


def _count(path: Path) -> tuple[str, int, int]:
    """sha256, newline count and size of a file, read in chunks."""
    digest = hashlib.sha256()
    lines = size = 0
    with path.open("rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
            lines += chunk.count(b"\n")
            size += len(chunk)
    return digest.hexdigest(), lines, size


def run_op(cli, argv: tuple[str, ...], out_path: Path, err_path: Path, tracer=None, op: str = "") -> tuple[int, float]:
    with out_path.open("w", encoding="utf-8") as out, err_path.open("w", encoding="utf-8") as err:
        gc.collect()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if tracer is None:
                rc = cli.main(list(argv))
            else:
                span = tracer.open("cli.main", op=op)
                try:
                    rc = cli.main(list(argv))
                finally:
                    tracer.close(span)
            out.flush()
            err.flush()
        seconds = time.perf_counter() - start
    return rc, seconds


def run_passes(ops, workdir: Path, seconds: float, trace: bool):
    """Closed loop over the ops until `seconds` have elapsed. Returns the op
    and pass records and the peak RSS (MiB) after the first pass."""
    import tracer as tracing
    from cfbelo import cli, datasets

    # Lazy set-up that every CLI call pays is measured by setup_s instead.
    datasets.bundled_aliases()
    datasets.bundled_selections()
    datasets.bundled_snapshots()

    outdir = workdir / "out"
    outdir.mkdir()
    records: list[OpRecord] = []
    passes: list[PassRecord] = []
    peak_rss_mb = 0.0
    deadline = time.perf_counter() + seconds
    while True:
        pass_no = len(passes)
        traced = trace and pass_no % 2 == 1
        tracer = tracing.Tracer() if traced else None
        if tracer is not None:
            tracing.install_layer_spans(tracer)
        try:
            for op in ops:
                stem = f"{op.name}.first" if pass_no == 0 else op.name
                out_path, err_path = outdir / f"{stem}.out", outdir / f"{stem}.err"
                rc, op_s = run_op(cli, op.argv, out_path, err_path, tracer, op.name)
                digest, _, _ = _count(out_path)
                _, err_lines, err_bytes = _count(err_path)
                records.append(OpRecord(op.name, traced, rc, op_s, digest, err_lines, err_bytes))
        finally:
            if tracer is not None:
                tracer.unpatch()
        passes.append(PassRecord(traced, tracer.spans if tracer is not None else []))
        if pass_no == 0:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        done_kinds = {p.traced for p in passes}
        if time.perf_counter() >= deadline and (not trace or done_kinds == {True, False}):
            break
    return records, passes, peak_rss_mb


def run_probes(probes, workdir: Path) -> list[tuple[str, int, int, str]]:
    """(name, exit code, expected code, last stderr line) per defect probe."""
    from cfbelo import cli

    results = []
    for op, want in probes:
        out_path, err_path = workdir / "out" / f"{op.name}.out", workdir / "out" / f"{op.name}.err"
        rc, _ = run_op(cli, op.argv, out_path, err_path)
        lines = err_path.read_text(encoding="utf-8", errors="replace").splitlines()
        results.append((op.name, rc, want, lines[-1] if lines else ""))
    return results


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def pass_seconds(records: list[OpRecord]) -> float:
    """One full pass over the workload's ops, each at its median time.

    Summing per-op medians, rather than taking the median of pass totals,
    keeps a slow moment in one op from moving the whole pass."""
    by_op: dict[str, list[float]] = {}
    for r in records:
        by_op.setdefault(r.op, []).append(r.seconds)
    return sum(_median(v) for v in by_op.values())


def layer_metrics(records, passes, setup, probes, n_file_games: int) -> dict[str, tuple[float, str]]:
    import tracer as tracing

    untraced = [r for r in records if not r.traced]
    metrics: dict[str, tuple[float, str]] = {}
    for name in OP_NAMES:
        metrics[f"op.{name}_s"] = (_median([r.seconds for r in untraced if r.op == name]), "s")
    metrics["cli.stderr_lines"] = (_median([r.stderr_lines for r in records]), "lines/op")
    metrics["cli.stderr_bytes"] = (_median([r.stderr_bytes for r in records]), "B/op")
    metrics["cli.import_s"] = (_median([s[0] for s in setup]), "s")
    metrics["datasets.load_s"] = (_median([s[1] for s in setup]), "s")

    per_pass = []
    for p in passes:
        if not p.traced:
            continue
        stats = tracing.summarize(p.spans)
        busy, calls, attrs = stats.busy_s, stats.calls, stats.attrs
        folded = attrs.get("engine.replay.games", 0)
        folding_ops = sum(name == "engine.replay" for _, name in stats.by_root)
        parse_s = busy.get("ingest.parse_games", 0.0)
        rows = attrs.get("ingest.parse_games.rows", 0)
        per_pass.append({
            "cli.self_s": (stats.self_s.get("cli.main", 0.0), "s"),
            "cli.report_ingest_problems_s": (busy.get("cli.report_ingest_problems", 0.0), "s"),
            "ingest.parse_games_s": (parse_s, "s"),
            "ingest.parse_games_calls": (calls.get("ingest.parse_games", 0), "count"),
            "ingest.rows": (rows, "rows"),
            "ingest.rows_per_s": (rows / parse_s if parse_s else 0.0, "rows/s"),
            "ingest.warnings": (attrs.get("ingest.parse_games.warnings", 0), "count"),
            "ingest.rows_rejected": (attrs.get("ingest.parse_games.rejected", 0), "rows"),
            "ingest.games_to_csv_s": (busy.get("ingest.games_to_csv", 0.0), "s"),
            "engine.replay_s": (busy.get("engine.replay", 0.0), "s"),
            "engine.replay_calls": (calls.get("engine.replay", 0), "count"),
            "engine.games_folded": (folded, "games"),
            "engine.fold_useful_ratio": (folding_ops * n_file_games / folded if folded else 0.0, "ratio"),
            "engine.snapshot_at_s": (busy.get("engine.snapshot_at", 0.0), "s"),
            "engine.snapshot_at_calls": (calls.get("engine.snapshot_at", 0), "count"),
            "engine.rank_teams_s": (busy.get("engine.rank_teams", 0.0), "s"),
            "evaluation.backtest_s": (busy.get("evaluation.backtest", 0.0), "s"),
            "evaluation.backtest_calls": (calls.get("evaluation.backtest", 0), "count"),
            "evaluation.games_scored": (attrs.get("evaluation.backtest.games_scored", 0), "games"),
            "evaluation.sweep_k_s": (stats.self_s.get("evaluation.sweep_k", 0.0), "s"),
            "analysis.compare_all_s": (busy.get("analysis.compare_all", 0.0), "s"),
            "analysis.reference_agreement_s": (busy.get("analysis.reference_agreement", 0.0), "s"),
            "analysis.render_s": (busy.get("analysis.render", 0.0), "s"),
            "analysis.rendered_bytes": (attrs.get("analysis.render.bytes", 0), "B"),
            # Rows of the ROADMAP Baseline table that are one layer inside one op.
            "rate.engine.replay_s": (stats.by_root.get(("rate", "engine.replay"), 0.0), "s"),
            "compare.engine.snapshot_at_s": (stats.by_root.get(("compare", "engine.snapshot_at"), 0.0), "s"),
            "backtest.evaluation.backtest_s": (stats.by_root.get(("backtest", "evaluation.backtest"), 0.0), "s"),
        })
    for key, (_, unit) in per_pass[0].items():
        metrics[key] = (_median([p[key][0] for p in per_pass]), unit)

    metrics["trace.overhead_s"] = (pass_seconds([r for r in records if r.traced]) - pass_seconds(untraced), "s")
    metrics["probe.attempted"] = (len(probes), "count")
    metrics["probe.failed"] = (sum(rc != want for _, rc, want, _ in probes), "count")
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="cfbelo benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="how long the passes run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "cfbelo" / "__init__.py").is_file():
        print(f"bench: no cfbelo package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH))
    import workloads

    workdir = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        subprocess.run(
            [sys.executable, str(BENCH / "workloads.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--out", str(workdir)],
            env=_child_env(), cwd=ROOT, timeout=120, check=True,
        )
        setup = measure_setup(SETUP_RUNS)
        ops = workloads.workload_ops(args.workload, workdir)
        records, passes, peak_rss_mb = run_passes(ops, workdir, args.seconds, bool(args.trace))
        probes = run_probes(workloads.probe_ops(args.workload, workdir), workdir)
        return report(args, workdir, ops, setup, records, passes, peak_rss_mb, probes)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # other runs may still use it
            workdir.parent.rmdir()


def count_failed(records: list[OpRecord], problems: dict[str, str | None]) -> int:
    """Ops that exited non-zero, whose first output failed its check, or
    whose stdout differs from the first pass's."""
    first: dict[str, str] = {}
    failed = 0
    for r in records:
        first.setdefault(r.op, r.digest)
        failed += r.rc != 0 or problems[r.op] is not None or r.digest != first[r.op]
    return failed


def report(args, workdir, ops, setup, records, passes, peak_rss_mb, probes) -> int:
    import checks
    import workloads

    workload = workloads.generate(args.workload, args.seed)
    expected = checks.expected_for(workload, ROOT)
    problems: dict[str, str | None] = {}
    for op in ops:
        out_path, err_path = workdir / "out" / f"{op.name}.first.out", workdir / "out" / f"{op.name}.first.err"
        problems[op.name] = checks.check(
            op.name, out_path.read_text(encoding="utf-8"), err_path.read_text(encoding="utf-8"), expected
        )
    failed = count_failed(records, problems)

    print(f"cfbelo benchmark: workload {args.workload}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
    print(f"python {platform.python_version()}, nproc {os.cpu_count()}, passes {len(passes)}, "
          f"games {len(workload.games)}, teams {len(workload.teams)}")
    for op in ops:
        mine = [r for r in records if r.op == op.name]
        times = [r.seconds for r in mine if not r.traced]
        same = len({r.digest for r in mine}) == 1
        print(f"  {op.name + '_s':<14} median {_median(times):.4f} s  "
              f"min {min(times):.4f}  max {max(times):.4f}  n={len(times)}  "
              f"stderr_lines {_median([r.stderr_lines for r in mine]):g} lines/op  "
              f"exit {sorted({r.rc for r in mine})}  check {problems[op.name] or 'ok'}"
              f"{'' if same else '  STDOUT DIFFERS ACROSS PASSES'}")
    for name, rc, want, last in probes:
        verdict = "ok" if rc == want else f"FAILED, known defect ({last})"
        print(f"  probe {name}: exit {rc}, README promises {want}: {verdict}")
    print(f"  fail_ratio {failed}/{len(records)} ops")

    if args.trace:
        metrics = layer_metrics(records, passes, setup, probes, len(workload.games))
    else:
        metrics = {
            "setup_s": (_median([s[0] + s[1] for s in setup]), "s"),
            "wall_s": (pass_seconds([r for r in records if not r.traced]), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    for name, (value, unit) in metrics.items():
        print(f"metric {name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
