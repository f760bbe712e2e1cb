#!/usr/bin/env python3
"""Sweep-only bench binaries reject the flags they would ignore.

fig1_gemm_cap_sweep, table1_best_config, table2_platform_params and
ablation_dynamic_cap run no experiments, so they register only --csv,
--quick, --jobs and --summary-json. Every capture, resilience and
checkpoint flag must make them exit 2 with an "unknown flag" message and
write no file (not even the --summary-json they were also given).

    python3 tools/check_sweep_flags.py BINARY [BINARY ...]
"""
import subprocess
import sys
import tempfile
from pathlib import Path

EXPERIMENT_FLAGS = [
    ["--trace-json", "trace.json"],
    ["--metrics-json", "metrics.json"],
    ["--profile-json", "profile.json"],
    ["--profile-html", "report.html"],
    ["--telemetry-period-ms", "10"],
    ["--faults", "dropout@gpu0:t=1"],
    ["--fault-seed", "7"],
    ["--reconcile-ms", "500"],
    ["--degrade"],
    ["--cap-retries", "2"],
    ["--checkpoint", "run.gckp"],
    ["--checkpoint-every-ms", "5000"],
    ["--watchdog-ms", "5000"],
    ["--resume", "run.gckp"],
    ["--ckpt-kill-after", "1"],
]


def main() -> int:
    if len(sys.argv) < 2:
        print(__doc__, file=sys.stderr)
        return 2
    failures = []
    for binary in (str(Path(b).resolve()) for b in sys.argv[1:]):
        name = Path(binary).name
        for flag in EXPERIMENT_FLAGS:
            with tempfile.TemporaryDirectory() as tmp:
                cmd = [binary, "--quick", *flag, "--summary-json", "summary.json"]
                proc = subprocess.run(cmd, cwd=tmp, capture_output=True, text=True, timeout=60)
                written = sorted(p.name for p in Path(tmp).iterdir())
            if proc.returncode != 2 or "unknown flag" not in proc.stderr or written:
                failures.append(f"{name} {' '.join(flag)}: exit {proc.returncode}, "
                                f"stderr {proc.stderr.strip()!r}, wrote {written}")
    for line in failures:
        print("FAIL", line)
    if failures:
        return 1
    print(f"OK: {len(sys.argv) - 1} binaries reject {len(EXPERIMENT_FLAGS)} experiment flags")
    return 0


if __name__ == "__main__":
    sys.exit(main())
