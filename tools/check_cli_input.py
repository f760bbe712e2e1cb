#!/usr/bin/env python3
"""The greencap CLI rejects bad input with exit 2, never abort().

Each case below used to crash (uncaught exception, exit 134), fail late
(exit 1 from the power manager or the fault-plan parser), or silently run
with a default or a meaningless value (a negative period, a fault aimed at
a GPU the platform lacks). Every
one must now exit 2 with a one-line message naming the offending flag,
and write no file (not even the --metrics-json and --checkpoint it was
also given).

    python3 tools/check_cli_input.py BINARY
"""
import subprocess
import sys
import tempfile
from pathlib import Path

BAD_INPUT = [
    (["--config", "HHXZ"], "--config"),
    (["--config", "HHB"], "--config"),  # 3 letters on the 4-GPU default platform
    (["--platform", "bogus", "--n", "5760", "--nb", "2880"], "--platform"),
    (["--nb", "-5", "--n", "11520"], "--nb"),
    (["--n", "0", "--nb", "2880"], "--n"),
    (["--telemetry-period-ms", "-5"], "--telemetry-period-ms"),
    (["--cap-retries", "-1"], "--cap-retries"),
    (["--reconcile-ms", "-1"], "--reconcile-ms"),
    (["--checkpoint-every-ms", "-1"], "--checkpoint-every-ms"),
    (["--watchdog-ms", "-1"], "--watchdog-ms"),
    (["--ckpt-kill-after", "-1"], "--ckpt-kill-after"),
    (["--faults", "garbage"], "--faults"),  # unparsable spec
    (["--faults", "capfail@gpu9:count=2"], "--faults"),  # gpu9 on the 4-GPU platform
]
OUTPUTS = ["--metrics-json", "metrics.json", "--checkpoint", "run.gckp"]


def main() -> int:
    if len(sys.argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    binary = str(Path(sys.argv[1]).resolve())
    failures = []
    for args, flag in BAD_INPUT:
        with tempfile.TemporaryDirectory() as tmp:
            cmd = [binary, "--op", "potrf", *args, *OUTPUTS]
            proc = subprocess.run(cmd, cwd=tmp, capture_output=True, text=True, timeout=60)
            written = sorted(p.name for p in Path(tmp).iterdir())
        lines = proc.stderr.strip().splitlines()
        if proc.returncode != 2 or len(lines) != 1 or flag not in lines[0] or written:
            failures.append(f"{' '.join(args)}: exit {proc.returncode}, "
                            f"stderr {proc.stderr.strip()!r}, wrote {written}")
    for line in failures:
        print("FAIL", line)
    if failures:
        return 1
    print(f"OK: {len(BAD_INPUT)} bad inputs exit 2 with a one-line message")
    return 0


if __name__ == "__main__":
    sys.exit(main())
