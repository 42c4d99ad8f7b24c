"""Compare fresh benchmark numbers against committed BENCH_*.json baselines.

Usage::

    python benchmarks/compare_baselines.py --baseline-dir /tmp/bench-baselines [--fresh-dir .]
    python benchmarks/compare_baselines.py ... --max-regression 0.2
    python benchmarks/compare_baselines.py ... --summary [--report-only]

The nightly CI job copies the *committed* ``BENCH_*.json`` files aside,
re-runs the cohort and trial-fuse benchmarks (which overwrite the files in
place), then invokes this script. Only **speedup ratios** are compared —
absolute wall times vary across runner hardware, while a mode-vs-mode
ratio on the same box is comparatively stable. A fresh ratio more than
``--max-regression`` (default 20%) below its committed baseline fails the
job; new keys (no baseline yet), missing fresh files, and a missing
baseline directory altogether (fresh-clone ``workflow_dispatch`` runs)
are reported but never fail.

``--summary`` additionally renders the comparison as a markdown table and
appends it to ``$GITHUB_STEP_SUMMARY`` (stdout when unset), so every CI
run shows the per-metric speedup trajectory on its summary page.
``--report-only`` keeps the exit code 0 regardless of regressions — for
informational jobs (the nightly ``full`` run) where the dedicated
``bench-regression`` job is the gate.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Dict, Iterator, List, Tuple

#: Benchmark files under the regression gate, with the JSON keys compared.
#: Every key is a speedup ratio (dimensionless, machine-comparable).
GATED_FILES = (
    "BENCH_cohort.json",
    "BENCH_trialfuse.json",
    "BENCH_evalfuse.json",
    "BENCH_population.json",
    "BENCH_backend.json",
    "BENCH_kernels.json",
)


def iter_speedups(blob: Dict, prefix: str = "") -> Iterator[Tuple[str, float]]:
    """Yield every (dotted.path, value) whose key names a speedup ratio."""
    for key, value in blob.items():
        path = f"{prefix}.{key}" if prefix else key
        if isinstance(value, dict):
            yield from iter_speedups(value, path)
        elif isinstance(value, (int, float)) and key.startswith("speedup"):
            yield path, float(value)


def load(path: str) -> Dict:
    with open(path) as fh:
        return json.load(fh)


def render_summary(rows: List[Tuple[str, ...]], max_regression: float) -> str:
    """Markdown speedup-ratio table (committed baseline vs fresh run)."""
    lines = [
        "## Benchmark speedup ratios (baseline vs fresh)",
        "",
        f"Regression threshold: >{max_regression:.0%} drop below the committed baseline.",
        "",
        "| file | metric | baseline | fresh | ratio | status |",
        "|---|---|---:|---:|---:|---|",
    ]
    for row in rows:
        lines.append("| " + " | ".join(row) + " |")
    if not rows:
        lines.append("| _no comparable metrics_ | | | | | |")
    return "\n".join(lines) + "\n"


def write_summary(text: str) -> None:
    """Append to $GITHUB_STEP_SUMMARY when set, else print to stdout."""
    path = os.environ.get("GITHUB_STEP_SUMMARY")
    if path:
        with open(path, "a") as fh:
            fh.write(text)
    else:
        print(text, end="")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--baseline-dir", required=True, help="directory holding the committed BENCH_*.json copies"
    )
    parser.add_argument(
        "--fresh-dir", default=".", help="directory holding the freshly produced BENCH_*.json"
    )
    parser.add_argument(
        "--max-regression",
        type=float,
        default=0.2,
        help="fail when a fresh speedup drops more than this fraction below baseline",
    )
    parser.add_argument(
        "--summary",
        action="store_true",
        help="append a markdown speedup table to $GITHUB_STEP_SUMMARY (stdout when unset)",
    )
    parser.add_argument(
        "--report-only",
        action="store_true",
        help="never fail the job; report (and summarize) regressions only",
    )
    args = parser.parse_args(argv)

    failures = []
    compared = 0
    summary_rows: List[Tuple[str, ...]] = []
    if not os.path.isdir(args.baseline_dir):
        # Fresh clone / first run: nothing to gate against.
        print(
            f"[baseline-gate] baseline dir {args.baseline_dir!r} does not exist — "
            "nothing to compare (fresh clone?)"
        )
    for name in GATED_FILES:
        base_path = os.path.join(args.baseline_dir, name)
        fresh_path = os.path.join(args.fresh_dir, name)
        if not os.path.exists(base_path):
            print(f"[baseline-gate] {name}: no committed baseline — skipping")
            continue
        if not os.path.exists(fresh_path):
            print(f"[baseline-gate] {name}: no fresh numbers produced — skipping")
            continue
        baseline = dict(iter_speedups(load(base_path)))
        fresh = dict(iter_speedups(load(fresh_path)))
        for key, base_value in sorted(baseline.items()):
            if key not in fresh:
                print(f"[baseline-gate] {name}:{key}: dropped from fresh output — skipping")
                summary_rows.append(
                    (name, key, f"{base_value:.3f}", "—", "—", "⚠️ dropped")
                )
                continue
            compared += 1
            floor = base_value * (1.0 - args.max_regression)
            status = "OK" if fresh[key] >= floor else "REGRESSION"
            print(
                f"[baseline-gate] {name}:{key}: baseline {base_value:.3f}, "
                f"fresh {fresh[key]:.3f} (floor {floor:.3f}) {status}"
            )
            ratio = fresh[key] / base_value if base_value else float("inf")
            summary_rows.append(
                (
                    name,
                    key,
                    f"{base_value:.3f}",
                    f"{fresh[key]:.3f}",
                    f"{ratio:.2f}x",
                    "✅ OK" if status == "OK" else "❌ REGRESSION",
                )
            )
            if fresh[key] < floor:
                failures.append(f"{name}:{key}")
        for key in sorted(set(fresh) - set(baseline)):
            print(f"[baseline-gate] {name}:{key}: new metric (no baseline), fresh {fresh[key]:.3f}")
            summary_rows.append((name, key, "—", f"{fresh[key]:.3f}", "—", "🆕 new"))

    if args.summary:
        write_summary(render_summary(summary_rows, args.max_regression))

    if failures:
        print(f"[baseline-gate] FAILED: {len(failures)} metric(s) regressed >"
              f"{args.max_regression:.0%}: {', '.join(failures)}")
        if args.report_only:
            print("[baseline-gate] --report-only: exit 0 despite regressions")
            return 0
        return 1
    print(f"[baseline-gate] passed: {compared} speedup metric(s) within {args.max_regression:.0%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
