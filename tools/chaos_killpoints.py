#!/usr/bin/env python3
"""Kill-point chaos suite for checkpoint/restart (docs/CHECKPOINTING.md).

Drives a checkpoint-aware GreenCap binary (a bench figure or the CLI)
through seeded kill points and proves the headline crash-consistency
property: a campaign killed at the Nth checkpoint write (--ckpt-kill-after
N fires _Exit(137) the instant the rename lands, like SIGKILL) and then
resumed — as many times as it takes — produces artifacts BYTE-IDENTICAL
to an uninterrupted run, and identical stdout.

For every kill point the suite also validates the surviving checkpoint
file with tools/check_checkpoint.py, and once per run it corrupts a
checkpoint (bit flip, then truncation) and asserts the resume rejects it
with a nonzero exit instead of continuing from garbage.

Each kill point runs in its own directory, so the reference run and the
kill points run concurrently (at most os.cpu_count() at a time); results
are reported in kill-point order.

Stdlib only. Exit 0 when every kill point round-trips, 1 otherwise.

Example (the CI invocation):
  chaos_killpoints.py --binary build/bench/fig3_double_configs \
      --kill-points 1,2,3,5,8 --every-ms 5000 \
      -- --quick --summary-json summary.json
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

KILL_EXIT = 137
MAX_RESUMES = 64


def run(cmd: list[str], cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True)


def artifact_args(template: list[str], directory: Path) -> tuple[list[str], list[Path]]:
    """Rewrites FILE operands of known artifact flags to bare filenames
    (each run uses its own cwd, so stdout lines naming the file stay
    identical across runs), returning the rewritten argv tail and the
    artifact paths to compare."""
    out: list[str] = []
    artifacts: list[Path] = []
    expects_file = False
    for tok in template:
        if expects_file:
            name = Path(tok).name
            artifacts.append(directory / name)
            out.append(name)
            expects_file = False
            continue
        out.append(tok)
        if tok.startswith("--") and tok.endswith(("-json", "-csv", "-html")):
            expects_file = True
    return out, artifacts


@dataclass
class KillOutcome:
    """What one kill point left behind; `resumed` is None on failure."""
    failures: list[str] = field(default_factory=list)
    kept: Path | None = None
    resumes: int = 0
    resumed: subprocess.CompletedProcess | None = None
    artifacts: list[Path] = field(default_factory=list)


def run_kill_point(args: argparse.Namespace, binary: Path, root: Path,
                   kill: int) -> KillOutcome:
    """Kills the run at the `kill`th checkpoint write, validates and keeps
    the surviving file, then resumes until the run completes."""
    out = KillOutcome()
    kdir = root / f"kill{kill}"
    kdir.mkdir()
    kill_args, out.artifacts = artifact_args(args.args, kdir)
    ckpt = kdir / "campaign.gckp"
    base = [str(binary), *kill_args, "--checkpoint", str(ckpt),
            "--checkpoint-every-ms", args.every_ms]

    proc = run([*base, "--ckpt-kill-after", str(kill)], kdir)
    if proc.returncode != KILL_EXIT:
        out.failures.append(
            f"kill={kill}: expected exit {KILL_EXIT} from the kill hook, "
            f"got {proc.returncode}")
        return out
    if not ckpt.is_file():
        out.failures.append(f"kill={kill}: no checkpoint file survived the kill")
        return out

    check = run([sys.executable, str(args.checker), str(ckpt)], kdir)
    if check.returncode != 0:
        out.failures.append(
            f"kill={kill}: surviving checkpoint failed validation:\n"
            f"{check.stderr}")
        return out
    out.kept = root / f"kept_{kill}.gckp"
    shutil.copyfile(ckpt, out.kept)

    while out.resumes < MAX_RESUMES:
        proc = run([*base, "--resume", str(ckpt)], kdir)
        out.resumes += 1
        if proc.returncode != KILL_EXIT:
            break
    if proc.returncode != 0:
        out.failures.append(
            f"kill={kill}: resume #{out.resumes} exited {proc.returncode}:\n"
            f"{proc.stderr}")
        return out
    out.resumed = proc
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--binary", type=Path, required=True,
                        help="checkpoint-aware GreenCap binary to drive")
    parser.add_argument("--kill-points", default="1,2,3,5,8",
                        help="comma-separated --ckpt-kill-after values (>=5 for CI)")
    parser.add_argument("--every-ms", default="5000",
                        help="--checkpoint-every-ms virtual period")
    parser.add_argument("--checker", type=Path,
                        default=Path(__file__).resolve().parent / "check_checkpoint.py",
                        help="check_checkpoint.py to validate surviving files")
    parser.add_argument("args", nargs="*",
                        help="binary arguments after '--'; FILE operands of "
                             "--*-json/--*-csv/--*-html flags are treated as "
                             "artifacts and compared byte-for-byte")
    args = parser.parse_args()
    binary = args.binary.resolve()
    kill_points = [int(k) for k in args.kill_points.split(",") if k]
    failures: list[str] = []

    with tempfile.TemporaryDirectory(prefix="chaos_killpoints_") as tmp:
        root = Path(tmp)

        # Reference: one uninterrupted run, no checkpointing at all.
        ref_dir = root / "ref"
        ref_dir.mkdir()
        ref_args, ref_artifacts = artifact_args(args.args, ref_dir)
        with ThreadPoolExecutor(max_workers=os.cpu_count() or 1) as pool:
            ref_future = pool.submit(run, [str(binary), *ref_args], ref_dir)
            kill_futures = [pool.submit(run_kill_point, args, binary, root, kill)
                            for kill in kill_points]
            ref = ref_future.result()
            outcomes = [f.result() for f in kill_futures]
        if ref.returncode != 0:
            print(f"FAIL reference run exited {ref.returncode}:\n{ref.stderr}",
                  file=sys.stderr)
            return 1
        for art in ref_artifacts:
            if not art.is_file():
                print(f"FAIL reference artifact {art.name} was not written",
                      file=sys.stderr)
                return 1

        last_checkpoint: Path | None = None
        for kill, out in zip(kill_points, outcomes):
            failures.extend(out.failures)
            if out.kept is not None:
                last_checkpoint = out.kept
            if out.resumed is None:
                continue
            ok = True
            if out.resumed.stdout != ref.stdout:
                ok = False
                failures.append(
                    f"kill={kill}: resumed stdout differs from the reference run")
            for ref_art, kill_art in zip(ref_artifacts, out.artifacts):
                if not kill_art.is_file():
                    ok = False
                    failures.append(f"kill={kill}: artifact {kill_art.name} missing")
                elif ref_art.read_bytes() != kill_art.read_bytes():
                    ok = False
                    failures.append(
                        f"kill={kill}: artifact {kill_art.name} is not "
                        f"byte-identical to the reference")
            if ok:
                print(f"kill={kill}: OK after {out.resumes} resume(s) — "
                      f"{len(out.artifacts)} artifact(s) byte-identical")

        # Corrupt-checkpoint rejection: a resume must refuse a bit-flipped
        # or truncated file with a nonzero exit, never run from garbage.
        if last_checkpoint is not None:
            cdir = root / "corrupt"
            cdir.mkdir()
            corrupt_args, _ = artifact_args(args.args, cdir)
            raw = bytearray(last_checkpoint.read_bytes())
            raw[len(raw) // 2] ^= 0x40
            flipped = cdir / "flipped.gckp"
            flipped.write_bytes(bytes(raw))
            truncated = cdir / "truncated.gckp"
            truncated.write_bytes(last_checkpoint.read_bytes()[: len(raw) * 2 // 3])
            for bad in (flipped, truncated):
                proc = run([str(binary), *corrupt_args, "--resume", str(bad)], cdir)
                if proc.returncode == 0:
                    failures.append(f"resume accepted corrupt checkpoint {bad.name}")
                elif "checkpoint" not in (proc.stderr + proc.stdout).lower():
                    failures.append(
                        f"rejection of {bad.name} does not mention the checkpoint:\n"
                        f"{proc.stderr}")
                else:
                    print(f"corrupt {bad.name}: rejected (exit {proc.returncode})")
        else:
            failures.append("no kill point produced a checkpoint to corrupt")

    if failures:
        for f in failures:
            print(f"FAIL {f}", file=sys.stderr)
        print(f"{len(failures)} failure(s)", file=sys.stderr)
        return 1
    print(f"chaos suite: {len(kill_points)} kill point(s) round-tripped "
          f"byte-identically; corrupt checkpoints rejected")
    return 0


if __name__ == "__main__":
    sys.exit(main())
