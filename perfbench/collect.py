"""Run the benchmark over many seeds and summarise its spread.

    python3 perfbench/collect.py --seeds 1-10 [--workloads contact_128,quiet_256]
                                 [--sets 2] [--trace 0|1] [--baseline perfbench/baseline.json]

Every run is `python3 perfbench/run.py --workload W --seed S --seconds N --trace T`
(N is BENCHMARK.json's run_seconds), one at a time. For each workload and
end-to-end metric it prints the median and the spread: the distance between
the first and third quartiles of the runs (statistics.quantiles, n=4) as a
share of the median. With --sets 2 the seeds run twice; fingerprints must
match exactly between the sets, and each set's median must stay within the
metric's bound of the first set's. The exit code is nonzero when a run
fails, a fingerprint differs, or a spread or median breaks its bound.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def parse_seeds(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def run_once(workload: str, seed: int, trace: int) -> dict:
    cmd = BENCH["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(BENCH["run_seconds"]), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    wall = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    tagged = {ln.split(" ", 1)[0]: json.loads(ln.split(" ", 1)[1]) for ln in lines[:-1] if " {" in ln}
    result = json.loads(lines[-1]) if lines else {}
    ok = proc.returncode == 0 and result.get("correct") is True
    if not ok:
        sys.stderr.write(proc.stderr[-4000:])
    return {"seed": seed, "wall_s": wall, "ok": ok, "result": result,
            "fingerprint": tagged.get("fingerprint"), "report": tagged.get("report")}


def spread(values: list[float]) -> tuple[float, float | None, float | None, float | None]:
    """Median, quartiles and (q3 - q1) / median; quartiles need at least 4 runs, a spread a nonzero median."""
    med = statistics.median(values)
    if len(values) < 4:
        return med, None, None, None
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / abs(med) if med else None


def _fmt(x: float | None) -> str:
    return "-" if x is None else f"{x:.5g}"


def worse_by(metric: dict, base: float, new: float) -> float:
    """Relative change of new vs base, positive when worse."""
    change = (new - base) / abs(base)
    return change if metric["better"] == "lower" else -change


def summarise(workload: str, runs: list[dict], metrics: list[dict]) -> tuple[dict, bool]:
    ok = True
    out = {}
    for m in metrics:
        values = [r["result"]["metrics"][m["name"]]["value"] for r in runs]
        med, q1, q3, sp = spread(values)
        limit = m.get("bound")
        flag = ""
        if limit is not None and sp is None:
            flag, ok = "  NO SPREAD (needs 4 runs and a nonzero median)", False
        elif limit is not None and sp > limit:
            flag, ok = "  SPREAD > BOUND", False
        elif limit is not None and sp > limit / 3:
            flag = "  (spread > bound/3)"
        print(f"  {workload:15s} {m['name']:40s} median {med:12.5g} {m['unit']:6s} "
              f"q1 {_fmt(q1):>12s} q3 {_fmt(q3):>12s} spread {_fmt(sp):>7s}{flag}")
        out[m["name"]] = {"median": med, "q1": q1, "q3": q3, "spread": sp, "unit": m["unit"]}
    return out, ok


def report_stats(runs: list[dict]) -> dict:
    """Median of every metric on the report line (null ones skipped)."""
    out = {}
    for name, entry in runs[0]["report"].items():
        if isinstance(entry, dict):
            values = [r["report"][name]["value"] for r in runs]
            if all(v is not None for v in values):
                out[name] = {"median": statistics.median(values), "unit": entry["unit"]}
        else:
            out[name] = {"median": statistics.median(r["report"][name] for r in runs)}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workloads", default=",".join(w["name"] for w in BENCH["workloads"]))
    ap.add_argument("--sets", type=int, default=1)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--baseline", help="write medians, fingerprints and the machine to this JSON file")
    args = ap.parse_args(argv)
    seeds = parse_seeds(args.seeds)
    metrics = BENCH["per_layer"] if args.trace else BENCH["end_to_end"]
    ok = True
    baseline = {"machine": machine(), "run_seconds": BENCH["run_seconds"], "seeds": seeds, "workloads": {}}
    t_all = time.perf_counter()
    for workload in args.workloads.split(","):
        sets = []
        for k in range(args.sets):
            runs = [run_once(workload, s, args.trace) for s in seeds]
            walls = [r["wall_s"] for r in runs]
            print(f"{workload} set {k}: {len(runs)} runs, wall median {statistics.median(walls):.1f} s, "
                  f"max {max(walls):.1f} s", flush=True)
            if not all(r["ok"] for r in runs):
                print(f"  FAILED runs: seeds {[r['seed'] for r in runs if not r['ok']]}")
                ok = False
                break
            stats, steady = summarise(workload, runs, metrics)
            ok &= steady
            sets.append((runs, stats))
        if len(sets) != args.sets:
            continue
        for k, (runs, stats) in enumerate(sets[1:], start=1):
            same = all(a["fingerprint"] == b["fingerprint"] for a, b in zip(sets[0][0], runs))
            print(f"  set {k} fingerprints {'identical' if same else 'DIFFER'} to set 0")
            ok &= same
            for m in metrics:
                if m.get("bound") is None:
                    continue
                w = worse_by(m, sets[0][1][m["name"]]["median"], stats[m["name"]]["median"])
                if w > m["bound"]:
                    print(f"  set {k} {m['name']} median worse by {w:.4f} > bound {m['bound']}")
                    ok = False
        runs0, stats0 = sets[0]
        baseline["workloads"][workload] = {
            "metrics": stats0,
            "report": report_stats(runs0) if not args.trace else None,
            "fingerprints": {str(r["seed"]): r["fingerprint"] for r in runs0},
            "wall_s_median": statistics.median(r["wall_s"] for r in runs0),
        }
    print(f"total wall {time.perf_counter() - t_all:.0f} s; {'OK' if ok else 'NOT OK'}")
    if args.baseline:
        write_baseline(Path(args.baseline), "traced" if args.trace else "untraced", baseline)
    return 0 if ok else 1


def write_baseline(path: Path, mode: str, section: dict) -> None:
    """Merge this mode's section into the baseline file, next to the machine."""
    doc = json.loads(path.read_text(encoding="utf-8")) if path.is_file() else {}
    doc["machine"] = section.pop("machine")
    part = doc.setdefault(mode, {"workloads": {}})
    part["run_seconds"], part["seeds"] = section["run_seconds"], section["seeds"]
    part["workloads"].update(section["workloads"])
    path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")


def machine() -> dict:
    import os

    import numpy

    return {"nproc": os.cpu_count(), "python": platform.python_version(), "numpy": numpy.__version__,
            "platform": platform.platform()}


if __name__ == "__main__":
    sys.exit(main())
