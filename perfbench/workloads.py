"""The four closed-loop workloads of the stdlens benchmark.

Each workload has one caller that starts an op only after the previous op
returned, as a researcher runs experiments back to back. Its inputs (the
experiment configs, and for the stream workloads the streams) are made
from the workload seed alone; stdlens sees only those generated inputs and
is driven through its public entry points. Op ``i`` uses input
``i % cycle``, so inputs repeat and every repeat must reproduce the digest
of the first op on the same input.

An op raises ``CheckFailed`` when its output is wrong; the runner counts
that op as failed.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import hashlib
import io
import json
import shutil
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import yaml

from stdlens import cli, config, forensics, metrics, replay, robust

# The canonical experiment, a copy of configs/class_poison.yaml (50 clients,
# 100 rounds, k=0.2, m=0.2, W=10). Kept here so that an edit to the repo's
# example config does not silently change the benchmark's workloads.
CANONICAL = {
    "federation": {
        "num_clients": 50, "rounds": 100, "participation_fraction": 0.2,
        "malicious_fraction": 0.2, "forensic_window": 10, "confidence_level": 0.99,
        "temporal_window": 1, "watchlist_threshold": 2, "local_epochs": 3,
        "learning_rate": 1.5, "master_seed": 1,
    },
    "task": {"feature_noise": 1.0},
    "attack": {"poison_type": "class", "source_class": 0, "target_class": 1},
    "defense": {"name": "stdlens"},
}


class CheckFailed(Exception):
    """An op's output is wrong."""


def check(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def derive(seed: int, *parts) -> int:
    """A 32-bit input seed for (workload seed, parts); independent of stdlens."""
    h = hashlib.blake2b(repr((int(seed),) + parts).encode(), digest_size=4)
    return int.from_bytes(h.digest(), "little")


@dataclass
class Outcome:
    """What one op produced, as far as the runner needs it."""

    rounds: int                 # federation rounds, or rounds fed to one defense
    digest: str                 # equal for equal inputs
    # (revoked ids, malicious ids) for every stdlens verdict set the op made
    stdlens: list = field(default_factory=list)
    final_ap_src: list = field(default_factory=list)


def write_config(path: Path, master_seed: int, poison: str) -> Path:
    raw = json.loads(json.dumps(CANONICAL))
    raw["federation"]["master_seed"] = int(master_seed)
    raw["attack"]["poison_type"] = poison
    path.write_text(yaml.safe_dump(raw, sort_keys=True))
    return path


def run_cli(args) -> str:
    """One in-process CLI command; returns what it echoed."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli.main.main(args=list(args), prog_name="stdlens", standalone_mode=False)
    return out.getvalue()


def sha256(*chunks) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk if isinstance(chunk, bytes) else repr(chunk).encode())
    return h.hexdigest()


def final_ap(records, class_id: int):
    """AP of class_id at the last round that evaluated it."""
    for rec in reversed(records):
        v = rec["ap"].get(str(class_id))
        if v is not None:
            return float(v)
    return None


def check_run_records(roles: dict, records: list, cfg, eval_every: int) -> None:
    """Structural checks on a serialized run log (roles and round records)."""
    fed = cfg.federation
    check(len(roles) == fed.num_clients, "roles do not cover every client")
    check(sum(r == "malicious" for r in roles.values()) == fed.num_malicious,
          "wrong number of malicious clients")
    check(1 <= len(records) <= fed.rounds, "wrong number of rounds")
    check([r["round"] for r in records] == list(range(len(records))),
          "round indices are not 0..n-1")
    clients = set(map(int, roles))
    revoked: set = set()
    for rec in records:
        parts = rec["participants"]
        check(len(parts) >= 2 and len(set(parts)) == len(parts), "bad participant set")
        check(not revoked & set(parts), "a revoked client took part again")
        check(set(parts) <= clients and set(rec["revocations"]) <= clients,
              "unknown client id")
        check(not revoked & set(rec["revocations"]), "a client was revoked twice")
        revoked |= set(rec["revocations"])
        if rec["round"] % eval_every == 0 or rec["round"] == fed.rounds - 1:
            check(sorted(rec["ap"]) == sorted(str(c) for c in range(cfg.task.num_classes)),
                  "AP missing for some class")
        for v in rec["ap"].values():
            check(v is None or 0.0 <= v <= 1.0, "AP outside [0, 1]")


class Workload:
    name = ""
    cycle = 1                   # number of distinct op inputs

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = Path(workdir)

    def prepare(self) -> str:
        """Make the inputs; returns a digest of them."""
        raise NotImplementedError

    def op(self, i: int) -> Outcome:
        raise NotImplementedError


class FedDefended(Workload):
    # The acceptance gate's dominant work (criteria 7-9): a canonical run with
    # the stdlens defense. Local training (~55%) and the forensic window (~35%)
    # are both heavy; AP evaluation every 10 rounds is light (~6%).
    name = "fed-defended"
    cycle = 3
    POISONS = ("class", "bbox", "objn")

    def prepare(self) -> str:
        paths = [write_config(self.workdir / f"defended-{j}.yaml",
                              derive(self.seed, self.name, j), self.POISONS[j])
                 for j in range(self.cycle)]
        self.configs = [config.load_config(p) for p in paths]
        return sha256(*(p.read_bytes() for p in paths))

    def op(self, i: int) -> Outcome:
        cfg = self.configs[i % self.cycle]
        weights, log, score = metrics.run_experiment(cfg, eval_every=10)
        lines = [rec.to_json() for rec in log.records]
        records = [json.loads(line) for line in lines]
        check_run_records({str(k): v for k, v in log.roles.items()}, records, cfg, 10)
        history = log.revocation_history
        malicious = {c for c, r in log.roles.items() if r == "malicious"}
        revoked = {c for _, c in history}
        check(score.true_positives == len(revoked & malicious)
              and score.false_positives == len(revoked - malicious),
              "score disagrees with the revocation history")
        vec = weights.to_vector()
        check(bool(np.isfinite(vec).all()), "non-finite global weights")
        return Outcome(
            rounds=len(log.records),
            digest=sha256("\n".join(lines), history, vec.tobytes()),
            stdlens=[(revoked, malicious)],
            final_ap_src=[final_ap(records, cfg.attack.source_class)])


class FedUndefended(Workload):
    # The CLI `run --defense none` on the canonical class-poison config. It
    # evaluates AP every round, so training and AP evaluation (~40%) dominate
    # and forensics is bypassed: a forensics or replay optimisation should
    # show no change here. It also covers the CLI's artifact writes.
    name = "fed-undefended"
    cycle = 3

    def prepare(self) -> str:
        self.paths = [write_config(self.workdir / f"undefended-{j}.yaml",
                                   derive(self.seed, self.name, j), "class")
                      for j in range(self.cycle)]
        self.configs = [config.load_config(p) for p in self.paths]
        return sha256(*(p.read_bytes() for p in self.paths))

    def op(self, i: int) -> Outcome:
        j = i % self.cycle
        cfg = self.configs[j]
        out = self.workdir / f"undefended-{j}"
        shutil.rmtree(out, ignore_errors=True)     # no stale artifacts to compare
        echoed = run_cli(["run", "--config", str(self.paths[j]), "--defense", "none",
                          "--out", str(out)])
        runlog = (out / "runlog.jsonl").read_bytes()
        curves = (out / "ap_curves.csv").read_bytes()
        score_bytes = (out / "score.json").read_bytes()
        head, *lines = runlog.decode().splitlines()
        records = [json.loads(line) for line in lines]
        check_run_records(json.loads(head)["roles"], records, cfg, 1)
        check(echoed.startswith(f"run complete: {len(records)} rounds, "
                                "0 malicious / 0 honest revoked"),
              f"unexpected CLI output {echoed!r}")
        check(all(not r["revocations"] and not r["watchlist_events"] for r in records),
              "an undefended run revoked or watchlisted a client")
        score = json.loads(score_bytes)
        check(score["true_positives"] == 0 and score["false_positives"] == 0,
              "score.json reports revocations")
        rows = list(csv.reader(io.StringIO(curves.decode())))
        check(len(rows) == len(records) + 1
              and rows[0] == ["round"] + [f"ap_{c}" for c in range(cfg.task.num_classes)],
              "ap_curves.csv does not match the run log")
        return Outcome(
            rounds=len(records),
            digest=sha256(runlog, curves, score_bytes),
            final_ap_src=[final_ap(records, cfg.attack.source_class)])


class StreamReplay(Workload):
    # Forensics and both baselines at the live block dimension (6*A*d = 288)
    # with no training at all. Set-up dumps the gradient stream of one live
    # stdlens run; each op writes the loaded stream back out, reads it again
    # and replays it through fresh stdlens, spatial and spectral defenses, so
    # the serializer's write path is measured beside its read path.
    name = "stream-replay"
    cycle = 1
    DEFENSES = ("stdlens", "spatial", "spectral")

    def prepare(self) -> str:
        path = write_config(self.workdir / "live.yaml", derive(self.seed, self.name, 0),
                            "class")
        live = self.workdir / "live"
        run_cli(["run", "--config", str(path), "--out", str(live), "--dump-stream"])
        head, *lines = (live / "runlog.jsonl").read_text().splitlines()
        roles = json.loads(head)["roles"]
        records = [json.loads(line) for line in lines]
        self.live_history = [(r["round"], c) for r in records for c in r["revocations"]]
        self.malicious = {int(c) for c, r in roles.items() if r == "malicious"}
        self.stream = replay.read_stream(live / "gradient_stream.jsonl")
        cfg = config.load_config(path)
        num_classes = max(g.class_id for contribs in self.stream for g in contribs) + 1
        self.config = dataclasses.replace(
            cfg, task=dataclasses.replace(cfg.task, num_classes=num_classes))
        return sha256(path.read_bytes(), self.live_history,
                      (live / "gradient_stream.jsonl").read_bytes())

    def op(self, i: int) -> Outcome:
        path = self.workdir / "roundtrip.jsonl"
        replay.write_contributions(path, self.stream)
        back = replay.read_stream(path)
        check(len(back) == len(self.stream), "round trip changed the number of rounds")
        for mine, theirs in zip(self.stream, back):
            check(len(mine) == len(theirs), "round trip changed a round's contributions")
            for a, b in zip(mine, theirs):
                check((a.round, a.client_id, a.class_id) == (b.round, b.client_id, b.class_id)
                      and a.block.dtype == b.block.dtype
                      and a.block.tobytes() == b.block.tobytes(),
                      "round trip changed a block")
        results = {}
        for name in self.DEFENSES:
            cfg = dataclasses.replace(
                self.config, defense=dataclasses.replace(self.config.defense, name=name))
            defense = metrics.build_defense(cfg, cfg.federation.master_seed)
            results[name] = replay.replay_stream(defense, back)
        events = results["stdlens"][0]
        check(events == self.live_history,
              "replayed stdlens revocations differ from the live run")
        return Outcome(
            rounds=len(back) * len(self.DEFENSES),
            digest=sha256(sorted(results.items())),
            stdlens=[({c for _, c in events}, self.malicious)])


class SyntheticStreams(Workload):
    # A criterion-6 style pair (attacked and benign) of synthetic streams:
    # 50 clients x 30 rounds, no unit-norm ingestion. The only workload that
    # measures the robust layer (~60% of this op). At low dimension kmeans
    # and the strike passes dominate forensics, so a projection change aimed
    # at dim 288 is bypassed here. Input j has block dim 4 + j, so every run
    # covers dims 4-16 alike and only the mixtures depend on the seed.
    name = "synthetic-streams"
    cycle = 13
    CLIENTS, ROUNDS = 50, 30

    def prepare(self) -> str:
        self.trials = [derive(self.seed, self.name, j) for j in range(self.cycle)]
        return sha256(self.trials)

    def op(self, i: int) -> Outcome:
        j = i % self.cycle
        rng = np.random.default_rng(self.trials[j])
        dim = 4 + j
        mixture = robust.random_premise_mixture(rng, dim, 0.2)
        stream_seed = int(rng.integers(0, 2 ** 32))
        h = hashlib.sha256()
        verdicts = []
        for benign in (False, True):
            stream, roles = robust.synth_two_population_stream(
                mixture, self.CLIENTS, self.ROUNDS, stream_seed,
                n_malicious=0 if benign else None)
            malicious = {c for c, r in roles.items() if r == "malicious"}
            check(len(malicious) == (0 if benign else int(0.2 * self.CLIENTS)),
                  "wrong number of malicious clients")
            check(len(stream) == self.ROUNDS
                  and all(len(c) == self.CLIENTS and all(g.round == r for g in c)
                          for r, c in enumerate(stream)),
                  "stream does not hold one contribution per client and round")
            blocks = np.stack([g.block for c in stream for g in c])
            check(blocks.shape == (self.ROUNDS * self.CLIENTS, dim)
                  and bool(np.isfinite(blocks).all()), "malformed stream blocks")
            defense = forensics.StdLensDefense(
                num_classes=1, window=10, omega=1, confidence=0.99,
                normalize_blocks=False, seed=j)
            revoked = []
            for contribs in stream:
                out, _ = defense.observe_contributions(contribs[0].round, contribs)
                revoked += out
            check(len(set(revoked)) == len(revoked) and set(revoked) <= set(roles),
                  "bad revocation list")
            h.update(blocks.tobytes())
            h.update(repr(revoked).encode())
            verdicts.append((set(revoked), malicious))
        return Outcome(rounds=2 * self.ROUNDS, digest=h.hexdigest(), stdlens=verdicts)


WORKLOADS = {w.name: w for w in (FedDefended, FedUndefended, StreamReplay,
                                 SyntheticStreams)}
