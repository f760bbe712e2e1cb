#!/usr/bin/env python3
"""Exported artifacts keep their exact bytes from one commit to the next.

Runs two fixed commands in a scratch directory and compares the SHA-256 of
their stdout and of every artifact they write with a committed digest file
(sha256sum format, one "<digest>  <command>/<file>" line each):

  observed  the chaos_killpoints_observed CLI run (faulted, degrading
            POTRF-40 with every capture on), uninterrupted, plus
            --profile-html
  fig3      fig3_double_configs --quick with summary, trace, metrics,
            profile and profile-HTML exports

Other checks compare runs of one binary (--jobs N, kill-and-resume); this
one pins the bytes across commits. A change that alters model semantics
or an export format on purpose regenerates the file with --write and says
so.

    python3 tools/check_artifacts.py --cli build/tools/greencap \\
        --fig3 build/bench/fig3_double_configs \\
        --digests tests/artifact_digests.sha256 [--write]

Stdlib only. Exit 0 when every digest matches, 1 otherwise.
"""

from __future__ import annotations

import argparse
import hashlib
import subprocess
import sys
import tempfile
from pathlib import Path

OBSERVED = [
    "--platform", "32-AMD-4-A100", "--op", "potrf", "--n", "115200", "--nb", "2880",
    "--config", "HHBB",
    "--faults", "capfail@gpu1:count=2;straggler@gpu3:t=1,until=4,factor=2.5;"
                "drift@gpu0:t=2,watts=250;dropout@gpu2:t=5",
    "--degrade", "--reconcile-ms", "500", "--telemetry-period-ms", "10",
    "--trace-json", "trace.json", "--metrics-json", "metrics.json",
    "--decisions-json", "decisions.json", "--telemetry-json", "telemetry.json",
    "--profile-json", "profile.json", "--degradation-json", "degradation.json",
    "--profile-html", "profile.html",
]
FIG3 = [
    "--quick", "--summary-json", "summary.json", "--trace-json", "trace.json",
    "--metrics-json", "metrics.json", "--profile-json", "profile.json",
    "--profile-html", "profile.html",
]


def digests_of(name: str, cmd: list[str]) -> dict[str, str]:
    """Runs `cmd` in a fresh directory; digests of its stdout and files."""
    with tempfile.TemporaryDirectory() as tmp:
        proc = subprocess.run(cmd, cwd=tmp, capture_output=True, timeout=600)
        if proc.returncode != 0:
            sys.exit(f"{name}: exit {proc.returncode}\n{proc.stderr.decode(errors='replace')}")
        out = {f"{name}/stdout": hashlib.sha256(proc.stdout).hexdigest()}
        for path in sorted(Path(tmp).iterdir()):
            out[f"{name}/{path.name}"] = hashlib.sha256(path.read_bytes()).hexdigest()
        return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--cli", required=True, type=Path)
    parser.add_argument("--fig3", required=True, type=Path)
    parser.add_argument("--digests", required=True, type=Path)
    parser.add_argument("--write", action="store_true", help="rewrite the digest file")
    args = parser.parse_args()

    got = digests_of("observed", [str(args.cli.resolve()), *OBSERVED])
    got |= digests_of("fig3", [str(args.fig3.resolve()), *FIG3])
    if args.write:
        args.digests.write_text("".join(f"{d}  {k}\n" for k, d in sorted(got.items())))
        print(f"wrote {len(got)} digests to {args.digests}")
        return 0

    want = {}
    for line in args.digests.read_text().splitlines():
        digest, key = line.split(maxsplit=1)
        want[key] = digest
    failures = [f"{k}: expected {want[k][:16]}..., got {got.get(k, 'nothing')[:16]}"
                for k in sorted(want) if got.get(k) != want[k]]
    failures += [f"{k}: not in the digest file" for k in sorted(set(got) - set(want))]
    for failure in failures:
        print(f"FAIL {failure}")
    print(f"{len(want) - len(failures)}/{len(want)} artifact digests match"
          if not failures else f"{len(failures)} artifact digest mismatch(es)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
