"""Smoke test of the benchmark itself, at tiny sizes (about a minute).

    python3 perfbench/smoke.py

Checks, for every workload run.py knows (BENCHMARK.json lists the gated ones)
and both trace modes:
  * `run.py --tiny` exits 0 and its last line is one JSON object with exactly
    `correct`, `attempted`, `failed` and `metrics`, correct and with no failures;
  * the metric names are exactly BENCHMARK.json's end_to_end (trace 0) or
    per_layer (trace 1) names, with the same units, and every value is a finite number;
  * every printed name (metrics, report, fingerprint) matches [A-Za-z0-9_.-]+;
  * two untraced runs with the same seed print the same fingerprint.
It also checks BENCHMARK.json's own shape, and that the benchmark exits
nonzero without a result line when the repository's sources are missing.
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}

failures: list[str] = []


def expect(ok: bool, what: str) -> None:
    if not ok:
        failures.append(what)
        print(f"FAIL {what}")


def run(workload: str, seed: int, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = BENCH["command"] + ["--workload", workload, "--seed", str(seed), "--seconds", "1",
                              "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def tagged_line(stdout: str, tag: str) -> dict:
    for ln in stdout.splitlines():
        if ln.startswith(tag + " "):
            return json.loads(ln[len(tag) + 1:])
    return {}


def check_bench_shape() -> None:
    expect(set(BENCH) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"},
           "BENCHMARK.json keys")
    expect(1 <= BENCH["run_seconds"] <= 60 and isinstance(BENCH["run_seconds"], int), "run_seconds")
    expect(2 <= len(BENCH["workloads"]) <= 8, "workload count")
    names = [w["name"] for w in BENCH["workloads"]] + [m["name"] for m in BENCH["end_to_end"] + BENCH["per_layer"]]
    expect(len(names) == len(set(names)), "names are not unique")
    for n in names:
        expect(bool(NAME.match(n)), f"bad name {n!r}")
    for w in BENCH["workloads"]:
        expect(set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"], f"workload {w['name']}")
    for m in BENCH["end_to_end"]:
        expect(set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25, f"end_to_end {m['name']}")
    for m in BENCH["per_layer"]:
        expect(set(m) == {"name", "unit", "better"}, f"per_layer {m['name']}")
    for m in BENCH["end_to_end"] + BENCH["per_layer"]:
        expect(bool(UNIT.match(m["unit"])) and m["better"] in ("lower", "higher"), f"unit/better of {m['name']}")
    setup = [m for m in BENCH["end_to_end"] if m["name"] == "setup_s"]
    expect(len(setup) == 1 and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
           and setup[0]["bound"] == max(m["bound"] for m in BENCH["end_to_end"]), "setup_s entry")


def check_run(workload: str, trace: int) -> dict:
    proc = run(workload, 1, trace)
    where = f"{workload} trace={trace}"
    expect(proc.returncode == 0, f"{where}: exit code {proc.returncode}\n{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        expect(False, f"{where}: no output")
        return {}
    result = json.loads(lines[-1])
    expect(set(result) == RESULT_KEYS, f"{where}: result keys {sorted(result)}")
    expect(result.get("correct") is True and result.get("failed") == 0, f"{where}: not correct")
    expect(isinstance(result.get("attempted"), int) and result["attempted"] >= 1, f"{where}: attempted")
    declared = {m["name"]: m["unit"] for m in BENCH["per_layer" if trace else "end_to_end"]}
    metrics = result.get("metrics", {})
    expect(set(metrics) == set(declared), f"{where}: metric names differ: {sorted(set(metrics) ^ set(declared))}")
    for name, entry in metrics.items():
        expect(entry.get("unit") == declared.get(name), f"{where}: unit of {name}")
        value = entry.get("value")
        expect(isinstance(value, (int, float)) and math.isfinite(value), f"{where}: value of {name}")
    fingerprint = tagged_line(proc.stdout, "fingerprint")
    report = tagged_line(proc.stdout, "report")
    expect(bool(fingerprint) and bool(report), f"{where}: fingerprint or report line missing")
    for name in list(metrics) + list(report) + list(fingerprint):
        expect(bool(NAME.match(name)), f"{where}: printed name {name!r}")
    return fingerprint


def check_missing_sources() -> None:
    bare = ROOT / "perfbench" / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in BENCH["paths"]:
        shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run(BENCH["workloads"][0]["name"], 1, 0, cwd=bare)
    expect(proc.returncode != 0 and not proc.stdout.strip(), "bare checkout: must fail without a result")
    shutil.rmtree(bare, ignore_errors=True)


def all_workloads() -> list[str]:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    from workloads import WORKLOADS

    gated = [w["name"] for w in BENCH["workloads"]]
    expect(set(gated) <= set(WORKLOADS), "BENCHMARK.json names a workload run.py does not know")
    return gated + [name for name in WORKLOADS if name not in gated]


def main() -> int:
    check_bench_shape()
    for name in all_workloads():
        first = check_run(name, 0)
        again = check_run(name, 0)
        expect(first == again, f"{name}: fingerprint differs between runs with the same seed")
        check_run(name, 1)
        print(f"{name}: done", flush=True)
    check_missing_sources()
    print("smoke: " + ("FAIL" if failures else "PASS"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
