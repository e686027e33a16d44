"""Federated training loop.

Client selection, local SGD, FedAvg aggregation, revocation enforcement
and run logging. The loop owns all mutable state; a defense object only
sees the per-round updates and answers with client ids to revoke.

Honest clients collect a fresh local batch every round (streaming data,
seeded per (client, round)); a poisoning client replays its fixed
poisoned payload, which is what makes its contributions temporally
repetitive.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field

import numpy as np

from .attacks import effective_poison_for_round
from .config import ExperimentConfig, validate_config
from .detection import (ClientDataset, DetectorWeights, detector_loss_and_grad,
                        evaluate_per_class_ap, generate_client_dataset,
                        generate_federation_data)
from .seeding import make_rng

__all__ = [
    "ClientUpdate",
    "RoundRecord",
    "RunLog",
    "PopulationExhaustedError",
    "select_participants",
    "local_update",
    "fedavg_aggregate",
    "run_federation",
]


class PopulationExhaustedError(RuntimeError):
    """Fewer than two active clients remain."""

    def __init__(self, run_log=None, weights=None):
        super().__init__("population exhausted: fewer than 2 active clients")
        self.run_log = run_log
        self.weights = weights


@dataclass
class ClientUpdate:
    client_id: int
    round: int
    delta: DetectorWeights
    sample_count: int


@dataclass
class RoundRecord:
    round: int
    participants: list[int]
    ap: dict[int, float | None]
    poisoned: dict[int, bool]
    revocations: list[int]
    watchlist_events: list[int]
    duration_s: float = 0.0  # not serialized; kept out of determinism scope

    def to_json(self) -> str:
        return json.dumps({
            "round": self.round,
            "participants": self.participants,
            "ap": {str(c): (None if v is None else round(v, 10))
                   for c, v in self.ap.items()},
            "poisoned": {str(k): v for k, v in self.poisoned.items()},
            "revocations": self.revocations,
            "watchlist_events": self.watchlist_events,
        }, sort_keys=True)


@dataclass
class RunLog:
    records: list[RoundRecord] = field(default_factory=list)
    roles: dict[int, str] = field(default_factory=dict)

    def append(self, rec: RoundRecord) -> None:
        if self.records and rec.round <= self.records[-1].round:
            raise ValueError("round indices must be strictly increasing")
        self.records.append(rec)

    @property
    def revocation_history(self) -> list[tuple[int, int]]:
        return [(r.round, c) for r in self.records for c in r.revocations]

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(json.dumps({"roles": {str(k): v for k, v in self.roles.items()}},
                                sort_keys=True) + "\n")
            for rec in self.records:
                fh.write(rec.to_json() + "\n")


def select_participants(round_idx: int, active_clients, k: float,
                        master_seed: int) -> list[int]:
    """Uniform draw without replacement of max(2, round(k*|active|)) ids."""
    active = sorted(active_clients)
    if len(active) < 2:
        raise PopulationExhaustedError()
    size = max(2, int(np.floor(k * len(active) + 0.5)))
    size = min(size, len(active))
    rng = make_rng(master_seed, "select", round_idx)
    chosen = rng.choice(len(active), size=size, replace=False)
    return [active[i] for i in chosen]


def local_update(dataset: ClientDataset, weights: DetectorWeights, epochs: int,
                 learning_rate: float) -> DetectorWeights:
    """Locally trained weights minus the global weights.

    Full-batch gradient descent: each epoch is one plain gradient step.
    """
    if len(dataset) == 0:
        raise ValueError("empty dataset")
    w = weights.copy()
    for _ in range(epochs):
        _, grad = detector_loss_and_grad(w, dataset)
        w = w.sub(grad.scaled(learning_rate))
    return w.sub(weights)


def fedavg_aggregate(updates: list[ClientUpdate]) -> DetectorWeights:
    """Sample-count-weighted mean of the deltas."""
    if not updates:
        raise ValueError("no updates to aggregate")
    total = float(sum(u.sample_count for u in updates))
    out = updates[0].delta.scaled(updates[0].sample_count / total)
    for u in updates[1:]:
        out = out.add(u.delta.scaled(u.sample_count / total))
    return out


def run_federation(config: ExperimentConfig, defense=None, *,
                   stream_hook=None, eval_every: int = 1):
    """Execute the full federation; returns (final weights, RunLog).

    The attack layer poisons malicious clients' data before local
    training; the defense (if any) is fed each round's updates and may
    revoke clients, which are then excluded from all later selections.
    stream_hook(round, updates) is called with the raw updates, e.g. for
    gradient-stream dumps.
    """
    validate_config(config)
    fed, task, attack = config.federation, config.task, config.attack
    C, d, A = task.num_classes, task.feature_dim, task.num_anchors
    seed = fed.master_seed

    base_datasets, test, geom, offsets = generate_federation_data(
        seed, fed.num_clients, task.samples_per_client, C, d, A,
        test_samples=task.test_samples, feature_noise=task.feature_noise)

    role_rng = make_rng(seed, "roles")
    malicious = set(role_rng.choice(fed.num_clients, size=fed.num_malicious,
                                    replace=False).tolist()) if attack else set()
    log = RunLog(roles={i: ("malicious" if i in malicious else "honest")
                        for i in range(fed.num_clients)})

    weights = DetectorWeights.zeros(A, C, d)
    active = set(range(fed.num_clients))

    def dataset_for(client: int, rnd: int) -> ClientDataset:
        return generate_client_dataset(
            geom, make_rng(seed, "data", client, rnd), task.samples_per_client,
            C, d, A, feature_noise=task.feature_noise, offset=offsets[client])

    for rnd in range(fed.rounds):
        t0 = time.perf_counter()
        if len(active) < 2:
            raise PopulationExhaustedError(run_log=log, weights=weights)
        participants = select_participants(rnd, active, fed.participation_fraction, seed)

        updates, poisoned_flags = [], {}
        for cid in participants:
            if cid in malicious and rnd >= attack.onset_round:
                data, was_poisoned, _ = effective_poison_for_round(
                    attack, cid, rnd, base_datasets[cid], seed, background_class=C)
                if not was_poisoned:
                    data = dataset_for(cid, rnd)
            else:
                data = dataset_for(cid, rnd)
                was_poisoned = False
            poisoned_flags[cid] = bool(was_poisoned)
            delta = local_update(data, weights, fed.local_epochs, fed.learning_rate)
            updates.append(ClientUpdate(cid, rnd, delta, len(data)))

        weights = weights.add(fedavg_aggregate(updates))
        if stream_hook is not None:
            stream_hook(rnd, updates)

        revocations, watchlist_events = [], []
        if defense is not None:
            revocations, watchlist_events = defense.observe_round(rnd, updates)
            for cid in revocations:
                active.discard(cid)

        ap = (evaluate_per_class_ap(weights, test)
              if rnd % eval_every == 0 or rnd == fed.rounds - 1 else {})
        log.append(RoundRecord(rnd, sorted(participants), ap, poisoned_flags,
                               sorted(revocations), sorted(watchlist_events),
                               duration_s=time.perf_counter() - t0))
    return weights, log
