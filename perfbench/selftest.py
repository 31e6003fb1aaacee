"""Sensitivity self-test: an injected slowdown in ``backward_counts`` is caught.

Usage, from the repository root::

    python3 perfbench/selftest.py

Runs ``run.py`` with seed :data:`SEED` for :data:`SECONDS` seconds, with
and without a fixed :data:`DELAY_MS` delay injected (through the
launcher's wrapper hook) into every ``CompiledDAG.backward_counts`` call
that builds the count table.  It passes when

* the traced ``kernel.backward_counts.ms_per_call`` on ``cold_count``
  rises by at least half the delay,
* ``cold_count``'s ``latency_p50_ms`` worsens by more than its bound in
  ``BENCHMARK.json`` (the regression gate would catch it), and
* ``hot_sample``'s ``latency_p50_ms`` stays within that bound (its
  tables are built during warm-up, so the delay must not show there).
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

SEED = 1
SECONDS = 8.0
#: About the cost of one ``cold_count`` request (~100 ms), so the slowdown
#: is far outside the latency bound there, while ``hot_sample`` builds
#: its tables during warm-up and must not see it.
DELAY_MS = 100.0


def run(workload: str, trace: int, delay_ms: float) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(SEED), "--seconds", str(SECONDS), "--trace", str(trace)]
    if delay_ms:
        cmd += ["--backward-delay-ms", str(delay_ms)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {done.returncode}:\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    return {name: entry["value"] for name, entry in result["metrics"].items()}


def main() -> int:
    bounds = {
        metric["name"]: metric["bound"]
        for metric in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    }
    bound = bounds["latency_p50_ms"]
    outcomes = []

    def report(label: str, base: float, slowed: float, passed: bool) -> None:
        print(f"{'PASS' if passed else 'FAIL'} {label}: {base:.4g} -> {slowed:.4g}")
        outcomes.append(passed)

    layer = [run("cold_count", 1, d) for d in (0, DELAY_MS)]
    name = "kernel.backward_counts.ms_per_call"
    report(f"cold_count {name} rises by >= {DELAY_MS / 2:g} ms",
           layer[0][name], layer[1][name],
           layer[1][name] - layer[0][name] >= DELAY_MS / 2)
    cold = [run("cold_count", 0, d) for d in (0, DELAY_MS)]
    report(f"cold_count latency_p50_ms worsens by more than its bound {bound:g}",
           cold[0]["latency_p50_ms"], cold[1]["latency_p50_ms"],
           cold[1]["latency_p50_ms"] > cold[0]["latency_p50_ms"] * (1 + bound))
    hot = [run("hot_sample", 0, d) for d in (0, DELAY_MS)]
    report(f"hot_sample latency_p50_ms stays within its bound {bound:g}",
           hot[0]["latency_p50_ms"], hot[1]["latency_p50_ms"],
           hot[1]["latency_p50_ms"] <= hot[0]["latency_p50_ms"] * (1 + bound))
    return 0 if all(outcomes) else 1


if __name__ == "__main__":
    raise SystemExit(main())
