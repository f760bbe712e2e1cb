#!/usr/bin/env python3
"""Validate a GreenCap checkpoint file (.gckp) without the binary decoder.

Stdlib only. Checks everything a tool can check from the container format
alone (src/ckpt/file.hpp):

  * binary layout: magic "GCKP", format version 2, manifest/payload section
    lengths that exactly tile the file, 4-byte CRC trailer
  * integrity: the whole-file CRC-32 (IEEE) over every byte before the
    trailer, and the manifest's embedded payload_crc32/payload_bytes
    against the payload actually present
  * the manifest against tools/schema/checkpoint.schema.json (same
    draft-07 subset validator as tools/check_profile.py)
  * cross-section invariants: the payload opens with the campaign section
    tag "CAMP" whose experiment count equals the manifest's `completed`;
    campaign checkpoints carry t_virtual_s == 0 and a boundary/signal
    reason, run checkpoints a signal/watchdog reason
  * the payload's framing to its last byte: the campaign section's
    length-prefixed records, then the closing 0 byte that ends every
    payload (a 1 byte there was an older build's run marker)

Exit status 0 on success, 1 on any violation (one FAIL line each).
"""

from __future__ import annotations

import argparse
import json
import re
import struct
import sys
import zlib
from pathlib import Path

MAGIC = b"GCKP"
VERSION = 2
HEADER = struct.Struct("<4sIQ")  # magic, version, manifest length
CAMPAIGN_REASONS = {"boundary", "signal"}
RUN_REASONS = {"signal", "watchdog"}


def _type_ok(value, expected: str) -> bool:
    if expected == "object":
        return isinstance(value, dict)
    if expected == "array":
        return isinstance(value, list)
    if expected == "string":
        return isinstance(value, str)
    if expected == "integer":
        return isinstance(value, int) and not isinstance(value, bool)
    if expected == "number":
        return isinstance(value, (int, float)) and not isinstance(value, bool)
    if expected == "null":
        return value is None
    if expected == "boolean":
        return isinstance(value, bool)
    raise ValueError(f"unsupported schema type {expected!r}")


class Validator:
    def __init__(self, schema: dict):
        self.root = schema
        self.errors: list[str] = []

    def _resolve(self, node: dict) -> dict:
        while "$ref" in node:
            ref = node["$ref"]
            if not ref.startswith("#/"):
                raise ValueError(f"unsupported $ref {ref!r}")
            target = self.root
            for part in ref[2:].split("/"):
                target = target[part]
            node = target
        return node

    def check(self, value, node: dict, path: str) -> None:
        node = self._resolve(node)
        err = self.errors.append

        if "const" in node and value != node["const"]:
            err(f"{path}: expected const {node['const']!r}, got {value!r}")
            return
        if "enum" in node and value not in node["enum"]:
            err(f"{path}: {value!r} not in {node['enum']}")
            return
        if "type" in node:
            types = node["type"] if isinstance(node["type"], list) else [node["type"]]
            if not any(_type_ok(value, t) for t in types):
                err(f"{path}: expected {'/'.join(types)}, got {type(value).__name__}")
                return
        if isinstance(value, str) and "pattern" in node:
            if not re.search(node["pattern"], value):
                err(f"{path}: {value!r} does not match /{node['pattern']}/")
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            if "minimum" in node and value < node["minimum"]:
                err(f"{path}: {value} below minimum {node['minimum']}")
            if "maximum" in node and value > node["maximum"]:
                err(f"{path}: {value} above maximum {node['maximum']}")
        if isinstance(value, dict):
            props = node.get("properties", {})
            for key in node.get("required", []):
                if key not in value:
                    err(f"{path}: missing required property {key!r}")
            if node.get("additionalProperties") is False:
                for key in value:
                    if key not in props:
                        err(f"{path}: unexpected property {key!r}")
            for key, sub in props.items():
                if key in value:
                    self.check(value[key], sub, f"{path}.{key}")
        if isinstance(value, list) and "items" in node:
            for i, item in enumerate(value):
                self.check(item, node["items"], f"{path}[{i}]")


def parse_container(raw: bytes) -> tuple[dict | None, bytes, list[str]]:
    """Returns (manifest, payload, problems). Layout problems abort early —
    nothing after a bad length field can be trusted."""
    problems: list[str] = []
    if len(raw) < HEADER.size + 8 + 4:
        return None, b"", [f"file too short for a checkpoint ({len(raw)} bytes)"]

    magic, version, manifest_len = HEADER.unpack_from(raw, 0)
    if magic != MAGIC:
        return None, b"", [f"bad magic {magic!r} (expected {MAGIC!r})"]
    if version != VERSION:
        problems.append(f"unsupported format version {version} (expected {VERSION})")

    manifest_at = HEADER.size
    if manifest_len > len(raw) - manifest_at - 8 - 4:
        problems.append(
            f"truncated: manifest claims {manifest_len} bytes but only "
            f"{len(raw) - manifest_at - 12} fit before payload length and CRC"
        )
        return None, b"", problems
    manifest_json = raw[manifest_at : manifest_at + manifest_len]

    (payload_len,) = struct.unpack_from("<Q", raw, manifest_at + manifest_len)
    payload_at = manifest_at + manifest_len + 8
    remain = len(raw) - payload_at
    if payload_len > remain or remain - payload_len != 4:
        problems.append(
            f"truncated: payload claims {payload_len} bytes but {remain} "
            f"remain before the CRC"
        )
        return None, b"", problems
    payload = raw[payload_at : payload_at + payload_len]

    (stored_crc,) = struct.unpack_from("<I", raw, len(raw) - 4)
    actual_crc = zlib.crc32(raw[:-4]) & 0xFFFFFFFF
    if stored_crc != actual_crc:
        problems.append(
            f"CRC mismatch: file trailer {stored_crc:#010x}, "
            f"computed {actual_crc:#010x} — corrupt or bit-flipped"
        )

    try:
        manifest = json.loads(manifest_json)
    except json.JSONDecodeError as exc:
        problems.append(f"manifest is not valid JSON: {exc}")
        return None, payload, problems
    if not isinstance(manifest, dict):
        problems.append(f"manifest is {type(manifest).__name__}, expected an object")
        return None, payload, problems
    return manifest, payload, problems


def check_invariants(manifest: dict, payload: bytes) -> list[str]:
    problems: list[str] = []

    if manifest["payload_bytes"] != len(payload):
        problems.append(
            f"manifest payload_bytes {manifest['payload_bytes']} != "
            f"payload section length {len(payload)}"
        )
    payload_crc = zlib.crc32(payload) & 0xFFFFFFFF
    if manifest["payload_crc32"] != payload_crc:
        problems.append(
            f"manifest payload_crc32 {manifest['payload_crc32']:#010x} != "
            f"computed {payload_crc:#010x}"
        )

    kind, reason = manifest["kind"], manifest["reason"]
    allowed = CAMPAIGN_REASONS if kind == "campaign" else RUN_REASONS
    if reason not in allowed:
        problems.append(f"reason {reason!r} not valid for a {kind} checkpoint")
    if kind == "campaign" and manifest["t_virtual_s"] != 0:
        problems.append(
            f"campaign checkpoint carries t_virtual_s {manifest['t_virtual_s']} (expected 0)"
        )

    # Every payload opens with the campaign section: tag "CAMP" then a
    # u64 LE experiment count that must agree with the manifest.
    if len(payload) < 12:
        problems.append(f"payload too short for a campaign section ({len(payload)} bytes)")
        return problems
    if payload[:4] != b"CAMP":
        problems.append(f"payload does not open with the campaign tag (got {payload[:4]!r})")
        return problems
    (count,) = struct.unpack_from("<Q", payload, 4)
    if count != manifest["completed"]:
        problems.append(
            f"manifest claims {manifest['completed']} completed experiments "
            f"but the campaign section holds {count}"
        )
        return problems
    problems += check_framing(manifest, payload)
    return problems


def check_framing(manifest: dict, payload: bytes) -> list[str]:
    """Walks the payload after the campaign count: every length prefix must
    fit, and the closing 0 byte must be the payload's last."""
    at = 12

    def length_prefixed() -> bool:
        nonlocal at
        if at + 8 > len(payload):
            return False
        (n,) = struct.unpack_from("<Q", payload, at)
        if n > len(payload) - at - 8:
            return False
        at += 8 + n
        return True

    for i in range(manifest["completed"]):
        if not length_prefixed() or not length_prefixed() or at + 1 > len(payload):
            return [f"campaign section truncated in experiment #{i}"]
        at += 1
    if at + 1 > len(payload):
        return ["payload ends before its closing byte"]
    if payload[at] == 1:
        return ["payload carries a run marker (closing byte 1), written mid-run by an "
                "older build"]
    if payload[at] != 0:
        return [f"payload's closing byte is {payload[at]} (expected 0)"]
    if at + 1 != len(payload):
        return [f"{len(payload) - at - 1} trailing bytes after the campaign section"]
    return []


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("checkpoint", type=Path, help=".gckp file to validate")
    parser.add_argument(
        "--schema",
        type=Path,
        default=Path(__file__).resolve().parent / "schema" / "checkpoint.schema.json",
    )
    parser.add_argument(
        "--expect-kind", choices=["campaign", "run"], help="also require this manifest kind"
    )
    args = parser.parse_args()

    try:
        raw = args.checkpoint.read_bytes()
    except OSError as exc:
        print(f"error: {args.checkpoint}: {exc}", file=sys.stderr)
        return 1
    schema = json.loads(args.schema.read_text())

    manifest, payload, problems = parse_container(raw)
    if manifest is not None:
        validator = Validator(schema)
        validator.check(manifest, schema, "$")
        problems += validator.errors
        if not validator.errors:  # invariants assume the shape is right
            problems += check_invariants(manifest, payload)
            if args.expect_kind and manifest["kind"] != args.expect_kind:
                problems.append(
                    f"expected a {args.expect_kind} checkpoint, got {manifest['kind']!r}"
                )

    if problems:
        for p in problems:
            print(f"FAIL {p}", file=sys.stderr)
        print(f"{args.checkpoint}: {len(problems)} problem(s)", file=sys.stderr)
        return 1

    print(
        f"{args.checkpoint}: OK — {manifest['kind']} checkpoint "
        f"({manifest['reason']}), {manifest['completed']} completed experiment(s), "
        f"{manifest['payload_bytes']} payload bytes, CRCs verified"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
