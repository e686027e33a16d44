"""Offline forensics on recorded gradient streams.

The engine can dump one JSON-lines record per gradient contribution,
appended and flushed round by round, so a crashed run's finished rounds
stay readable. A record is the sorted-key JSON object
{"block": B, "class_id": c, "client_id": i, "round": r}, where B is the
base64 text of the block's little-endian float64 bytes, so a block reads
back bit for bit. The reader parses no JSON: it keeps a line of the
writer's exact shape and drops any other. This module replays such a file
through a defense without any federated training, emitting the same
verdicts the live run would have produced.
"""

from __future__ import annotations

import base64
import re

import numpy as np

from .forensics import GradientContribution, round_class_blocks

__all__ = ["stream_dump_hook", "write_contributions", "read_stream", "replay_stream"]

_HEAD = b'{"block": "'
_TAIL = re.compile(rb'", "class_id": %s, "client_id": %s, "round": %s}\n?'
                   % ((rb"(-?(?:0|[1-9][0-9]*))",) * 3))      # JSON integers


def _write_records(fh, contributions) -> None:
    """The one record format: a sorted-key JSON line per contribution, the
    bytes of json.dumps(record, sort_keys=True), in one write to the binary
    `fh`. The base64 alphabet needs no JSON escaping, so it is written as is."""
    fh.write(b"".join(b'{"block": "%s", "class_id": %d, "client_id": %d, "round": %d}\n' % (
        base64.b64encode(np.asarray(g.block, "<f8").tobytes()),
        int(g.class_id), int(g.client_id), int(g.round)) for g in contributions))


def stream_dump_hook(path, num_classes: int):
    """An engine stream_hook that appends per-class contribution records."""
    fh = open(path, "wb")

    def hook(round_idx, client_ids, deltas):
        blocks = round_class_blocks(deltas)
        _write_records(fh, (GradientContribution(cid, round_idx, c, blocks[i, c])
                            for i, cid in enumerate(client_ids) for c in range(num_classes)))
        fh.flush()

    hook.close = fh.close
    return hook


def write_contributions(path, stream) -> None:
    """Serialize a per-round contribution stream (list of lists)."""
    with open(path, "wb") as fh:
        for round_contribs in stream:
            _write_records(fh, round_contribs)


def read_stream(path):
    """Load a dumped stream, grouped by round in ascending order. The file
    is untrusted, and only a line of the writer's exact shape is kept:
    `_HEAD`, a strict base64 body that decodes to whole float64 values,
    then `_TAIL`, whose ids are JSON integers. Any other line is dropped,
    JSON that the writer never produces included: an escape, a repeated
    key, a CRLF ending or extra spaces."""
    by_round: dict[int, list] = {}
    with open(path, "rb", buffering=1 << 16) as fh:   # ~20 records a read, not ~3
        for line in fh:
            end = line.find(b'"', len(_HEAD)) if line.startswith(_HEAD) else -1
            if end < 0 or not (tail := _TAIL.fullmatch(line, end)):
                continue
            try:
                raw = base64.b64decode(line[len(_HEAD):end], validate=True)
                rnd, cid, cls = int(tail[3]), int(tail[2]), int(tail[1])
            except ValueError:      # bad base64, or an id past int()'s digit limit
                continue
            if len(raw) % 8 == 0:
                block = np.frombuffer(raw, "<f8").astype(float)
                by_round.setdefault(rnd, []).append(GradientContribution(cid, rnd, cls, block))
    return [by_round[r] for r in sorted(by_round)]


def replay_stream(defense, stream):
    """Feed a recorded stream to a defense; returns revocations as
    (round, client_id) pairs plus the final verdict of each client the
    defense admitted a contribution from."""
    events = []
    for round_contribs in stream:
        rnd = round_contribs[0].round if round_contribs else 0
        revoked, _ = defense.observe_contributions(rnd, round_contribs)
        events += [(rnd, cid) for cid in revoked]
    revoked_ids = {cid for _, cid in events}
    verdicts = {cid: ("revoked" if cid in revoked_ids else "active")
                for cid in sorted(defense.clients)}
    return events, verdicts
