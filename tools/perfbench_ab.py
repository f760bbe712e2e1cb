#!/usr/bin/env python3
"""Alternating parent/change A/B of the repository benchmark (perfbench/).

Exports the parent revision with `git archive`, configures and builds the
perfbench binary of the parent and of the working tree in fresh build
directories under --workdir (a copied build tree would keep its CMake
cache's source path and rebuild the original tree), then runs --pairs
alternating pairs on every BENCHMARK.json workload: pair i runs the parent
first when i is even and the change first when i is odd, with seed i + 1
on both sides. Writes a BENCH_<n>.json-style report: per-pair end-to-end
metrics, per-metric quartiles, wins, the parent/change median ratio and
the median difference next to the parent's IQR.

--traced-workload W additionally runs one traced (--trace 1) pair on W and
records the --traced-metrics per-layer values of both sides.

Stdlib only. Example:
  tools/perfbench_ab.py --parent HEAD~1 --workdir /tmp/ab --pairs 10 \\
      --traced-workload resilient-observed \\
      --traced-metrics ckpt.capture_ms,ckpt.write_ms,ckpt.bytes --out BENCH.json
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import tarfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def sh(cmd: list[str], **kw) -> subprocess.CompletedProcess:
    return subprocess.run(cmd, check=True, **kw)


def export_parent(rev: str, dest: Path) -> str:
    commit = sh(["git", "-C", str(ROOT), "rev-parse", rev],
                capture_output=True, text=True).stdout.strip()
    dest.mkdir(parents=True)
    archive = dest.parent / "parent.tar"
    with archive.open("wb") as out:
        sh(["git", "-C", str(ROOT), "archive", commit], stdout=out)
    with tarfile.open(archive) as tar:
        tar.extractall(dest)
    archive.unlink()
    return commit


def build(tree: Path, build_dir: Path) -> Path:
    jobs = str(min(4, os.cpu_count() or 1))
    sh(["cmake", "-S", str(tree / "perfbench"), "-B", str(build_dir),
        "-DCMAKE_BUILD_TYPE=Release"], stdout=sys.stderr)
    sh(["cmake", "--build", str(build_dir), "--target", "perfbench", "-j", jobs],
       stdout=sys.stderr)
    return build_dir / "perfbench"


def source_digest(tree: Path) -> str:
    """The digest perfbench/run.py records: SHA-256 over src/ and perfbench/."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((tree / top).rglob("*")):
            if path.is_file():
                h.update(str(path.relative_to(tree)).encode())
                h.update(path.read_bytes())
    return h.hexdigest()[:16]


def run_bench(side: dict, workload: str, seed: int, seconds: float, trace: int) -> dict:
    work = side["work"] / f"{workload}-{seed}-t{trace}"
    cmd = [str(side["binary"]), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--reference-dir", str(side["tree"] / "perfbench" / "reference"),
           "--scratch", str(work / "scratch"),
           "--spans-out", str(work / "spans.json"),
           "--commit", side["commit"], "--sources", side["sources"]]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=175)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{side['name']} {workload} seed {seed} exited "
                           f"{proc.returncode}:\n{proc.stderr}")
    result = json.loads(lines[-1])
    if not result.get("correct"):
        raise RuntimeError(f"{side['name']} {workload} seed {seed}: correctness gate failed")
    return result


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def summarize(pairs: list[dict], metrics: list[dict]) -> dict:
    out: dict = {"pairs": len(pairs)}
    for m in metrics:
        name, lower = m["name"], m["better"] == "lower"
        parent = [p["parent"][name] for p in pairs]
        change = [p["change"][name] for p in pairs]
        wins = sum(1 for a, b in zip(parent, change) if (b < a if lower else b > a))
        ties = sum(1 for a, b in zip(parent, change) if a == b)
        qp, qc = quartiles(parent), quartiles(change)
        out[name] = {
            "parent": qp,
            "change": qc,
            "change_wins": wins,
            "ties": ties,
            "parent_over_change_median": qp["median"] / qc["median"],
            "median_delta_vs_parent_iqr": [abs(qp["median"] - qc["median"]),
                                           qp["q3"] - qp["q1"]],
        }
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git revision to compare against")
    parser.add_argument("--workdir", type=Path, required=True,
                        help="empty scratch directory for the export, builds and runs")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--traced-workload", default=None)
    parser.add_argument("--traced-metrics", default="")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]]
    metrics = bench["end_to_end"]

    args.workdir.mkdir(parents=True, exist_ok=True)
    parent_tree = args.workdir / "parent"
    parent_commit = export_parent(args.parent, parent_tree)
    sides = {}
    for name, tree, commit in (("parent", parent_tree, parent_commit),
                               ("change", ROOT, "working-tree")):
        sides[name] = {"name": name, "tree": tree, "commit": commit,
                       "sources": source_digest(tree), "work": args.workdir / f"run-{name}",
                       "binary": build(tree, args.workdir / f"build-{name}")}

    report: dict = {
        "command": f"perfbench --workload <w> --seed <pair index + 1> --seconds {args.seconds:g} "
                   "--trace 0, built by tools/perfbench_ab.py in fresh build directories",
        "parent": parent_commit,
        "sources": {name: s["sources"] for name, s in sides.items()},
        "protocol": f"{args.pairs} pairs per workload; pair i runs parent first when i is "
                    "even, change first when i is odd; both workloads run inside each pair",
        "pairs": {w: [] for w in workloads},
    }
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for w in workloads:
            entry = {"seed": i + 1, "first": order[0]}
            for name in order:
                res = run_bench(sides[name], w, i + 1, args.seconds, 0)
                entry[name] = {"failed": res["failed"],
                               **{m["name"]: res["metrics"][m["name"]]["value"]
                                  for m in metrics}}
            report["pairs"][w].append(entry)
            print(f"pair {i + 1} {w}: parent campaign_s {entry['parent']['campaign_s']:.3f}"
                  f", change {entry['change']['campaign_s']:.3f}", file=sys.stderr)
    report["summary"] = {w: summarize(report["pairs"][w], metrics) for w in workloads}

    if args.traced_workload:
        wanted = [m for m in args.traced_metrics.split(",") if m]
        seed = args.pairs + 1
        traced: dict = {"workload": args.traced_workload, "seed": seed}
        for name in ("parent", "change"):
            res = run_bench(sides[name], args.traced_workload, seed, args.seconds, 1)
            traced[name] = {m: res["metrics"][m]["value"] for m in wanted}
        report["traced"] = traced

    args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
