"""Federated training loop.

Client selection, local SGD, FedAvg aggregation, revocation enforcement
and run logging. The loop owns all mutable state; a defense object only
sees each round as (round, client ids, stacked deltas) and answers with
client ids to revoke.

Honest clients collect a fresh local batch every round (streaming data,
seeded per (client, round), the round's batches drawn in one pass); a
poisoning client replays one poisoned payload, built once from its
round-0 data, which is what makes its contributions temporally
repetitive. The round's P batches train as one stacked problem, and its
(P, ...) stack of deltas goes as it is to FedAvg, the stream hook and the
defense. A run whose revocations leave fewer than two active clients ends
there and returns its partial log.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field

import numpy as np

from .attacks import effective_poison_for_round, poison_payload
from .config import ExperimentConfig, validate_config
from .detection import (BatchTargets, ClientDataset, DetectorWeights, detector_grad,
                        evaluate_per_class_ap, generate_client_datasets,
                        generate_federation_data)
from .seeding import make_rng

__all__ = [
    "PHASES",
    "RoundRecord",
    "RunLog",
    "select_participants",
    "local_update",
    "fedavg_aggregate",
    "run_federation",
]


# Timed phases of a round, as RoundRecord fields. Participant selection and
# the stream hook fall in none of them, so they sum to at most duration_s.
PHASES = ("data_s", "train_s", "aggregate_s", "defense_s", "eval_s")


@dataclass
class RoundRecord:
    round: int
    participants: list[int]
    ap: dict[int, float | None]
    poisoned: dict[int, bool]
    revocations: list[int]
    watchlist_events: list[int]
    duration_s: float = 0.0  # this and the PHASES: not serialized, so kept
    data_s: float = 0.0      # out of the determinism scope
    train_s: float = 0.0
    aggregate_s: float = 0.0
    defense_s: float = 0.0
    eval_s: float = 0.0

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
        raise ValueError("population exhausted: fewer than 2 active clients")
    size = max(2, int(np.floor(k * len(active) + 0.5)))
    size = min(size, len(active))
    rng = make_rng(master_seed, "select", round_idx)
    chosen = rng.choice(len(active), size=size, replace=False)
    return [active[i] for i in chosen]


def local_update(dataset: ClientDataset, weights: DetectorWeights, epochs: int,
                 learning_rate: float) -> DetectorWeights:
    """Locally trained weights minus the global weights.

    Full-batch gradient descent: each epoch is one plain gradient step. A
    stacked (P, n, .) dataset trains P clients and returns P stacked deltas.
    The batch's label arrays are built once; the epochs compute the
    gradient alone.
    """
    if dataset.x.size == 0:
        raise ValueError("empty dataset")
    targets = BatchTargets.of(dataset, weights.shape_params[1])
    w = weights
    for _ in range(epochs):
        grad, _ = detector_grad(w, dataset.x, targets)
        w = w.sub(grad.scaled(learning_rate))
    return w.sub(weights)


def fedavg_aggregate(deltas: DetectorWeights, counts) -> DetectorWeights:
    """Sample-count-weighted mean of a (P, ...) stack of deltas."""
    counts = np.asarray(counts, dtype=float)
    if not counts.size:
        raise ValueError("no updates to aggregate")
    return DetectorWeights.from_vector(
        np.tensordot(counts / counts.sum(), deltas.to_vector(), axes=1),
        *deltas.shape_params)


def run_federation(config: ExperimentConfig, defense=None, *,
                   stream_hook=None, eval_every: int = 1):
    """Execute the federation; returns (final weights, RunLog).

    The attack layer poisons malicious clients' data before local
    training. Each round's participants (in selection order) and their
    (P, ...) stack of deltas are passed, as (round, client ids, deltas),
    to stream_hook (e.g. for gradient-stream dumps) and to the defense's
    observe_round, which may revoke clients; a revoked client is excluded
    from all later selections. Once fewer than two clients are active
    the run ends, and the weights and log so far are returned.

    AP is evaluated on rounds where `rnd % eval_every == 0` and on the
    run's last round: the configured last one, or the round whose
    revocations leave fewer than two active clients. So the last
    RoundRecord always carries the run's final AP.
    """
    validate_config(config)
    fed, task, attack = config.federation, config.task, config.attack
    C, d, A = task.num_classes, task.feature_dim, task.num_anchors
    seed = fed.master_seed

    test, geom, offsets = generate_federation_data(
        seed, fed.num_clients, C, d, A,
        test_samples=task.test_samples, feature_noise=task.feature_noise)

    role_rng = make_rng(seed, "roles")
    malicious = set(role_rng.choice(fed.num_clients, size=fed.num_malicious,
                                    replace=False).tolist()) if attack else set()
    log = RunLog(roles={i: ("malicious" if i in malicious else "honest")
                        for i in range(fed.num_clients)})

    weights = DetectorWeights.zeros(A, C, d)
    active = set(range(fed.num_clients))

    def datasets_for(clients: list[int], rnd: int) -> ClientDataset:
        """The clients' fresh (P, n, ...) data of a round, drawn in one pass."""
        return generate_client_datasets(
            geom, [make_rng(seed, "data", cid, rnd) for cid in clients],
            task.samples_per_client, C, d, A, feature_noise=task.feature_noise,
            offsets=offsets[clients])

    attackers = sorted(malicious)
    round0 = datasets_for(attackers, 0)
    payloads = {cid: poison_payload(attack, cid, round0[i], seed, C)
                for i, cid in enumerate(attackers)}

    for rnd in range(fed.rounds):
        t0 = time.perf_counter()
        if len(active) < 2:
            break
        participants = select_participants(rnd, active, fed.participation_fraction, seed)

        t_data = time.perf_counter()
        poisoned_flags = {cid: cid in malicious
                          and effective_poison_for_round(attack, cid, rnd, seed)
                          for cid in participants}
        honest = [cid for cid in participants if not poisoned_flags[cid]]
        batch = datasets_for(honest, rnd)
        if len(honest) < len(participants):
            row = {cid: i for i, cid in enumerate(honest)}
            batch = ClientDataset.stack([payloads[cid] if poisoned_flags[cid]
                                         else batch[row[cid]] for cid in participants])
        t_train = time.perf_counter()
        # all participants start from the same weights: one stacked problem
        deltas = local_update(batch, weights, fed.local_epochs, fed.learning_rate)

        t_aggregate = time.perf_counter()
        weights = weights.add(fedavg_aggregate(
            deltas, [task.samples_per_client] * len(participants)))
        t_aggregated = time.perf_counter()
        if stream_hook is not None:
            stream_hook(rnd, participants, deltas)

        t_defense = time.perf_counter()
        revocations, watchlist_events = [], []
        if defense is not None:
            revocations, watchlist_events = defense.observe_round(rnd, participants, deltas)
            for cid in revocations:
                active.discard(cid)

        t_eval = time.perf_counter()
        last = rnd == fed.rounds - 1 or len(active) < 2
        ap = evaluate_per_class_ap(weights, test) if rnd % eval_every == 0 or last else {}
        t_end = time.perf_counter()
        log.append(RoundRecord(rnd, sorted(participants), ap, poisoned_flags,
                               sorted(revocations), sorted(watchlist_events),
                               duration_s=t_end - t0, data_s=t_train - t_data,
                               train_s=t_aggregate - t_train,
                               aggregate_s=t_aggregated - t_aggregate,
                               defense_s=t_eval - t_defense, eval_s=t_end - t_eval))
    return weights, log
