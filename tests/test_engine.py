"""Federation loop: selection, local training, aggregation, logging."""

import dataclasses
import json

import numpy as np
import pytest

from stdlens import engine
from stdlens.attacks import apply_poison, poison_payload
from stdlens.config import AttackSpec
from stdlens.detection import (ClientDataset, DetectorWeights, detector_loss_and_grad,
                               generate_client_dataset, generate_federation_data)
from stdlens.engine import (RoundRecord, RunLog, fedavg_aggregate, local_update,
                            run_federation, select_participants)
from stdlens.metrics import run_experiment
from stdlens.seeding import make_rng
from tests.test_detection import _client_datasets, _empty, _random_pair


# -- FedAvg ------------------------------------------------------------------

def _constant_stack(values, A=1, C=2, d=4):
    """A (P, ...) stack of deltas, delta i with every entry values[i]."""
    size = len(DetectorWeights.zeros(A, C, d).to_vector())
    return DetectorWeights.from_vector(
        np.repeat(np.asarray(values, dtype=float)[:, None], size, axis=1), A, C, d)


def test_fedavg_weighted_mean_example():
    # values 1 (weight 1) and 3 (weight 3) average to 2.5; swapped weights
    # give 1.5
    agg = fedavg_aggregate(_constant_stack([1.0, 3.0]), [1, 3])
    assert np.allclose(agg.to_vector(), 2.5)
    agg = fedavg_aggregate(_constant_stack([1.0, 3.0]), [3, 1])
    assert np.allclose(agg.to_vector(), 1.5)


def test_fedavg_identical_updates_fixed_point():
    agg = fedavg_aggregate(_constant_stack([2.0] * 4), [5] * 4)
    assert np.allclose(agg.to_vector(), 2.0)


def test_fedavg_single_update_identity():
    stack = _constant_stack([1.7])
    assert np.allclose(fedavg_aggregate(stack, [9]).to_vector(), stack.to_vector()[0])


def test_fedavg_rejects_empty():
    with pytest.raises(ValueError):
        fedavg_aggregate(_constant_stack([]), [])


def test_fedavg_matches_accumulation_oracle():
    rng = make_rng(0, "fedavg-oracle")
    for _ in range(20):
        n = int(rng.integers(2, 8))
        vecs, counts, acc, total = [], [], None, 0
        for cid in range(n):
            vec = rng.standard_normal(1 * 3 * 4 + 1 * 2 * 4 * 4 + 1 * 2 * 4)
            cnt = int(rng.integers(1, 50))
            vecs.append(vec)
            counts.append(cnt)
            acc = vec * cnt if acc is None else acc + vec * cnt
            total += cnt
        agg = fedavg_aggregate(DetectorWeights.from_vector(np.stack(vecs), 1, 2, 4), counts)
        assert np.allclose(agg.to_vector(), acc / total, atol=1e-12)


# -- selection ---------------------------------------------------------------

def test_selection_is_deterministic_and_valid():
    active = set(range(30))
    a = select_participants(5, active, 0.2, master_seed=1)
    b = select_participants(5, active, 0.2, master_seed=1)
    assert a == b
    assert len(a) == 6
    assert len(set(a)) == len(a)
    assert set(a) <= active


def test_selection_full_participation():
    assert sorted(select_participants(0, range(10), 1.0, 0)) == list(range(10))


def test_selection_floor_of_two():
    assert len(select_participants(0, range(10), 0.01, 0)) == 2


def test_selection_varies_by_round():
    active = set(range(50))
    draws = {tuple(sorted(select_participants(r, active, 0.2, 3)))
             for r in range(20)}
    assert len(draws) > 1


def test_selection_exhausted_population():
    with pytest.raises(ValueError):
        select_participants(0, {4}, 0.5, 0)


# -- local training ----------------------------------------------------------

def test_local_update_decreases_loss():
    w, batch = _random_pair(20, n=30)
    loss0, _ = detector_loss_and_grad(w, batch)
    delta = local_update(batch, w, epochs=5, learning_rate=0.2)
    loss1, _ = detector_loss_and_grad(w.add(delta), batch)
    assert loss1 < loss0


def test_local_update_full_batch_single_epoch_is_one_gradient_step():
    w, batch = _random_pair(21, n=10)
    _, grad = detector_loss_and_grad(w, batch)
    delta = local_update(batch, w, epochs=1, learning_rate=0.1)
    assert np.allclose(delta.to_vector(), -0.1 * grad.to_vector(), atol=1e-12)


def test_stacked_round_matches_per_client_updates():
    # one round: four clients (one poisoned) train from the same weights
    datasets = _client_datasets(3, 4, 15, C=3, d=8, A=2)
    datasets[1] = apply_poison(AttackSpec("class", source_class=0, target_class=1),
                               datasets[1], np.ones(15, dtype=bool), None,
                               background_class=3)
    w, _ = _random_pair(23, A=2, C=3, d=8)
    deltas = local_update(ClientDataset.stack(datasets), w, epochs=3, learning_rate=0.5)
    vecs = []
    for i, ds in enumerate(datasets):
        delta = local_update(ds, w, epochs=3, learning_rate=0.5)
        assert np.abs(deltas.to_vector()[i] - delta.to_vector()).max() <= 1e-12
        vecs.append(delta.to_vector())
    counts = [len(ds) for ds in datasets]
    per_client = DetectorWeights.from_vector(np.stack(vecs), 2, 3, 8)
    assert np.allclose(fedavg_aggregate(deltas, counts).to_vector(),
                       fedavg_aggregate(per_client, counts).to_vector(), rtol=0, atol=1e-12)


def test_a_round_with_payload_rows_trains_on_the_per_client_bytes(tiny_config,
                                                                    monkeypatch):
    # a round's one-pass data, with the poisoning clients' payload rows in
    # their places, is the stack of the per-client datasets, byte for byte
    batches = []
    train = engine.local_update
    monkeypatch.setattr(engine, "local_update",
                        lambda ds, *a: batches.append(ds) or train(ds, *a))
    order = []
    _, log = engine.run_federation(
        tiny_config, stream_hook=lambda rnd, ids, deltas: order.append(list(ids)))
    fed, task = tiny_config.federation, tiny_config.task
    seed, C, d, A = fed.master_seed, task.num_classes, task.feature_dim, task.num_anchors
    _, geom, offsets = generate_federation_data(seed, fed.num_clients, C, d, A,
                                                test_samples=task.test_samples,
                                                feature_noise=task.feature_noise)

    def drawn(cid, rnd):
        return generate_client_dataset(geom, make_rng(seed, "data", cid, rnd),
                                       task.samples_per_client, C, d, A,
                                       feature_noise=task.feature_noise,
                                       offset=offsets[cid])

    payloads = {cid: poison_payload(tiny_config.attack, cid, drawn(cid, 0), seed, C)
                for cid, role in log.roles.items() if role == "malicious"}
    mixed = 0
    assert len(batches) == len(log.records) == len(order)
    for rec, batch, ids in zip(log.records, batches, order):
        expected = ClientDataset.stack([payloads[cid] if rec.poisoned[cid]
                                        else drawn(cid, rec.round) for cid in ids])
        for f in ("x", "classes", "bboxes", "objn"):
            got, want = getattr(batch, f), getattr(expected, f)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()
        mixed += 0 < sum(rec.poisoned[cid] for cid in ids) < len(ids)
    assert mixed >= 3


def test_local_update_rejects_empty_dataset():
    w, batch = _random_pair(22)
    with pytest.raises(ValueError):
        local_update(_empty(batch), w, 1, 0.1)


# -- run log -----------------------------------------------------------------

def _record(rnd):
    return RoundRecord(rnd, [0, 1], {0: 0.5, 1: None}, {0: False}, [], [])


def test_runlog_rejects_non_increasing_rounds():
    log = RunLog()
    log.append(_record(0))
    with pytest.raises(ValueError):
        log.append(_record(0))


def test_runlog_jsonl_round_trips(tmp_path):
    log = RunLog(roles={0: "honest", 1: "malicious"})
    log.append(RoundRecord(0, [0, 1], {0: 0.25}, {1: True}, [1], [0]))
    path = tmp_path / "runlog.jsonl"
    log.write_jsonl(path)
    lines = path.read_text().splitlines()
    assert json.loads(lines[0]) == {"roles": {"0": "honest", "1": "malicious"}}
    rec = json.loads(lines[1])
    assert rec["round"] == 0
    assert rec["ap"] == {"0": 0.25}
    assert rec["poisoned"] == {"1": True}
    assert rec["revocations"] == [1]
    assert log.revocation_history == [(0, 1)]


# -- full federation ---------------------------------------------------------

def test_run_federation_benign_round_count(tiny_benign_config):
    weights, log = run_federation(tiny_benign_config)
    assert len(log.records) == 10
    assert all(r == "honest" for r in log.roles.values())
    assert not any(rec.revocations for rec in log.records)


def test_run_federation_is_deterministic(tiny_config):
    _, log_a, _ = run_experiment(tiny_config)
    _, log_b, _ = run_experiment(tiny_config)
    assert [r.to_json() for r in log_a.records] == [r.to_json() for r in log_b.records]


def test_run_federation_marks_malicious_roles(tiny_config):
    _, log, _ = run_experiment(tiny_config)
    assert sum(1 for r in log.roles.values() if r == "malicious") == 2


def test_run_federation_poison_flags_only_on_malicious(tiny_config):
    _, log, _ = run_experiment(tiny_config)
    for rec in log.records:
        for cid, flag in rec.poisoned.items():
            if flag:
                assert log.roles[cid] == "malicious"


def test_run_federation_excludes_revoked_from_selection(tiny_config):
    cfg = dataclasses.replace(
        tiny_config,
        federation=dataclasses.replace(tiny_config.federation, rounds=20))
    _, log, _ = run_experiment(cfg)
    revoked_at = {}
    for rec in log.records:
        for cid in rec.revocations:
            revoked_at[cid] = rec.round
        for cid in rec.participants:
            assert rec.round <= revoked_at.get(cid, rec.round)


def test_benign_training_improves_ap(tiny_benign_config):
    cfg = dataclasses.replace(
        tiny_benign_config,
        federation=dataclasses.replace(tiny_benign_config.federation,
                                       rounds=30, learning_rate=1.0,
                                       local_epochs=2))
    _, log = run_federation(cfg)
    first = [v for v in log.records[0].ap.values() if v is not None]
    last = [v for v in log.records[-1].ap.values() if v is not None]
    assert np.mean(last) > np.mean(first)
