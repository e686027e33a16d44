"""Offline forensics on recorded gradient streams.

The engine can dump one JSON-lines record per gradient contribution;
this module replays such a file through a defense without any federated
training, emitting the same verdicts the live run would have produced.
"""

from __future__ import annotations

import json

import numpy as np

from .forensics import GradientContribution, update_contributions

__all__ = ["stream_dump_hook", "write_contributions", "read_stream", "replay_stream"]


def _write_records(fh, contributions) -> None:
    """The one record format: a sorted-key JSON line per contribution."""
    for g in contributions:
        fh.write(json.dumps({
            "round": int(g.round), "client_id": int(g.client_id),
            "class_id": int(g.class_id),
            "block": [float(v) for v in g.block],
        }, sort_keys=True) + "\n")


def stream_dump_hook(path, num_classes: int):
    """An engine stream_hook that appends per-class contribution records."""
    fh = open(path, "w")

    def hook(round_idx, updates):
        _write_records(fh, (g for u in updates
                            for g in update_contributions(u, num_classes)))
        fh.flush()

    hook.close = fh.close
    return hook


def write_contributions(path, stream) -> None:
    """Serialize a per-round contribution stream (list of lists)."""
    with open(path, "w") as fh:
        for round_contribs in stream:
            _write_records(fh, round_contribs)


def read_stream(path):
    """Load a dumped stream, grouped by round in ascending order. The file
    is untrusted: only a JSON object whose `round`, `client_id` and
    `class_id` are ints (not bools) and whose `block` converts to a float
    array is kept; any other line is dropped."""
    by_round: dict[int, list] = {}
    with open(path, "rb") as fh:
        for line in fh:
            try:
                rec = json.loads(line)
                ids = rec["round"], rec["client_id"], rec["class_id"]
                block = np.asarray(rec["block"], dtype=float)
            except (ValueError, TypeError, KeyError, OverflowError, RecursionError):
                continue
            if all(type(v) is int for v in ids):
                g = GradientContribution(ids[1], ids[0], ids[2], block)
                by_round.setdefault(g.round, []).append(g)
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
