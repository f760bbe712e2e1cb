#!/usr/bin/env python3
"""The greencap CLI rejects bad input with exit 2, never abort().

Each case below used to crash (uncaught exception, exit 134), fail late
(exit 1 from inside the run: the power manager, the fault-plan parser,
the scheduler table, the tile-size check), or silently run
with a default or a meaningless value (a negative period, a fault aimed at
a GPU the platform lacks). Every
one must now exit 2 with a one-line message naming the offending flag,
and write no file (not even the --metrics-json and --checkpoint it was
also given).

With --bench, a bench binary (fig3_double_configs) must reject the same
fault plans the same way, before its campaign starts: every config is
checked against its own platform, so a GPU that only the 4-GPU rows have
is refused too.

    python3 tools/check_cli_input.py BINARY [--bench BENCH_BINARY]
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
    (["--faults", "dropout@gpu99999999999:t=1"], "--faults"),  # gpu index outside int
    (["--faults", "capfail@gpu1:count=1e12"], "--faults"),  # count is not an integer
    (["--faults", "dropout@gpu0:t=nan"], "--faults"),  # used to crash the run
    (["--scheduler", "bogus"], "--scheduler"),
    (["--cpu-cap", "3:0.5"], "--cpu-cap"),  # 32-AMD-4-A100 has one CPU package
    (["--n", "23040", "--nb", "2000"], "--n"),  # n is not a multiple of nb
]
# The JSON form follows the spec form's value rules: no fractional gpu/count.
JSON_PLAN = '{"events":[{"kind":"capfail","gpu":1.7,"count":2.5}]}'
BENCH_BAD_INPUT = [
    (["--faults", "garbage"], "--faults"),
    (["--faults", "capfail@gpu9:count=2"], "--faults"),  # no platform has gpu9
    (["--faults", "dropout@gpu3:t=1"], "--faults"),  # the 2-GPU rows lack gpu3
]
OUTPUTS = ["--metrics-json", "metrics.json", "--checkpoint", "run.gckp"]


def check(cmd_prefix: list[str], cases: list) -> list[str]:
    failures = []
    for args, flag in cases:
        with tempfile.TemporaryDirectory() as tmp:
            cmd = [*cmd_prefix, *args, *OUTPUTS]
            proc = subprocess.run(cmd, cwd=tmp, capture_output=True, text=True, timeout=60)
            written = sorted(p.name for p in Path(tmp).iterdir())
        lines = proc.stderr.strip().splitlines()
        if proc.returncode != 2 or len(lines) != 1 or flag not in lines[0] or written:
            failures.append(f"{Path(cmd_prefix[0]).name} {' '.join(args)}: exit "
                            f"{proc.returncode}, stderr {proc.stderr.strip()!r}, wrote {written}")
    return failures


def main() -> int:
    argv = sys.argv[1:]
    bench = None
    if len(argv) == 3 and argv[1] == "--bench":
        bench = str(Path(argv[2]).resolve())
        argv = argv[:1]
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    binary = str(Path(argv[0]).resolve())
    with tempfile.TemporaryDirectory() as plans:
        plan = Path(plans) / "plan.json"
        plan.write_text(JSON_PLAN)
        cli_cases = [*BAD_INPUT, (["--config", "HHBB", "--faults", f"@{plan}"], "--faults")]
        failures = check([binary, "--op", "potrf"], cli_cases)
    cases = len(cli_cases)
    if bench is not None:
        failures += check([bench, "--quick"], BENCH_BAD_INPUT)
        cases += len(BENCH_BAD_INPUT)
    for line in failures:
        print("FAIL", line)
    if failures:
        return 1
    print(f"OK: {cases} bad inputs exit 2 with a one-line message")
    return 0


if __name__ == "__main__":
    sys.exit(main())
