"""Acceptance gate: ten end-to-end criteria, one visible PASS/FAIL line each.

The federated runs here use the calibrated desk-scale operating point
(50 clients, 100 rounds, 20% participation, 20% malicious, forensic
window 10) and are cached so criteria that share runs do not recompute
them.
"""

import functools
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np
import pytest

from stdlens.config import (AttackSpec, DefenseConfig, ExperimentConfig,
                            FederationConfig, TaskConfig)
from stdlens.detection import ClientDataset, DetectorWeights, detector_loss_and_grad
from stdlens.engine import fedavg_aggregate
from stdlens.forensics import StdLensDefense, temporal_signature
from stdlens.metrics import run_experiment
from stdlens.robust import (random_premise_mixture, separability_check,
                            synth_two_population_stream, theorem1_premise_holds)
from stdlens.seeding import make_rng

pytestmark = pytest.mark.gate

SEEDS = list(range(1, 11))
N_MALICIOUS = 10
SOURCE = 0


_CAPSYS = None


@pytest.fixture(autouse=True)
def _capture_bypass(capsys):
    # the per-criterion verdict lines bypass output capture, so they show
    # in the test log without -s
    global _CAPSYS
    _CAPSYS = capsys
    yield
    _CAPSYS = None


def _report(num: int, name: str, passed: bool, detail: str) -> None:
    line = f"[criterion {num:2d}] {'PASS' if passed else 'FAIL'} {name}: {detail}"
    if _CAPSYS is not None:
        with _CAPSYS.disabled():
            print("\n" + line)
    else:
        print(line)
    assert passed, line


def _config(seed: int, poison: Optional[str] = None, defense: str = "none",
            beta: float = 0.0, gamma: float = 1.0, onset: int = 0
            ) -> ExperimentConfig:
    fed = FederationConfig(
        num_clients=50, rounds=100, participation_fraction=0.2,
        malicious_fraction=0.2, forensic_window=10, confidence_level=0.99,
        temporal_window=1, watchlist_threshold=2, master_seed=seed,
        local_epochs=3, learning_rate=1.5)
    task = TaskConfig(feature_noise=1.0)
    attack = None
    if poison is not None:
        attack = AttackSpec(poison_type=poison, source_class=SOURCE,
                            target_class=1, beta=beta, gamma=gamma,
                            onset_round=onset)
    return ExperimentConfig(fed, task, attack, DefenseConfig(name=defense))


@dataclass
class RunResult:
    final_ap_src: Optional[float]
    true_positives: int
    false_positives: int
    max_recall: float
    precision_at_max_recall: Optional[float]
    time_to_purge: Optional[int]
    revocation_history: list


@functools.lru_cache(maxsize=None)
def _run(seed: int, poison: Optional[str], defense: str, beta: float = 0.0,
         gamma: float = 1.0, onset: int = 0) -> RunResult:
    cfg = _config(seed, poison, defense, beta, gamma, onset)
    _, log, score = run_experiment(cfg, eval_every=cfg.federation.rounds)
    return RunResult(log.records[-1].ap.get(SOURCE), score.true_positives,
                     score.false_positives, score.max_recall,
                     score.precision_at_max_recall, score.time_to_purge,
                     log.revocation_history)


def _perfect(r: RunResult) -> bool:
    return r.true_positives == N_MALICIOUS and r.false_positives == 0


# -- 1: temporal-signature oracle equivalence --------------------------------

def _brute_force_signature(traj: np.ndarray, omega: int):
    n = len(traj)
    if n <= omega:
        return None
    total = 0.0
    for j in range(omega + 1, n + 1):        # 1-based trajectory index
        for k in range(1, omega + 1):
            total += float(np.abs(traj[j - 1] - traj[j - 1 - k]).sum())
    return total / (omega * n - omega ** 2)


def test_criterion_01_temporal_signature_oracle():
    rng = make_rng(0, "acc-eq1")
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 13))
        d = int(rng.integers(1, 9))
        omega = int(rng.integers(1, 4))
        traj = rng.standard_normal((n, d)) * 10
        got = temporal_signature(traj, omega)
        want = _brute_force_signature(traj, omega)
        assert (got is None) == (want is None)
        if want is not None:
            worst = max(worst, abs(got - want) / max(abs(want), 1e-30))
    elapsed = time.perf_counter() - t0
    _report(1, "temporal-signature oracle", worst < 1e-9 and elapsed < 5.0,
            f"1000 trajectories, max rel err {worst:.2e}, {elapsed:.2f}s")


# -- 2: separability theorem, empirically ------------------------------------

def test_criterion_02_separability_theorem():
    rng = make_rng(0, "acc-thm1")
    t0 = time.perf_counter()
    ok = 0
    for _ in range(100):
        d = int(rng.integers(2, 17))
        m = float(rng.uniform(0.05, 0.3))
        mix = random_premise_mixture(rng, d, m)
        assert theorem1_premise_holds(mix)[0]
        sep, _, _ = separability_check(mix, 10_000, rng)
        ok += bool(sep)
    elapsed = time.perf_counter() - t0
    _report(2, "separability under the premise", ok >= 99 and elapsed < 60.0,
            f"separable in {ok}/100 mixtures at n=1e4, {elapsed:.1f}s")


# -- 3: empirical rule anchors the sigma-zone z mapping ----------------------

def test_criterion_03_empirical_rule():
    draws = make_rng(0, "acc-sigma").standard_normal(100_000)
    fracs = [float((np.abs(draws) <= z).mean()) for z in (1, 2, 3)]
    ok = all(abs(f - t) <= 0.01 for f, t in zip(fracs, (0.68, 0.95, 0.99)))
    _report(3, "empirical 68/95/99 rule", ok,
            "fractions within 1/2/3 sigma = "
            + ", ".join(f"{f:.4f}" for f in fracs))


# -- 4: aggregation oracle ---------------------------------------------------

def test_criterion_04_fedavg_oracle():
    rng = make_rng(0, "acc-fedavg")
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 10))
        vecs, counts, acc, total = [], [], 0.0, 0
        for cid in range(n):
            vec = rng.standard_normal(2 * 3 * 5 + 2 * 2 * 4 * 5 + 2 * 2 * 5)
            cnt = int(rng.integers(1, 100))
            vecs.append(vec)
            counts.append(cnt)
            acc = acc + vec * cnt
            total += cnt
        deltas = DetectorWeights.from_vector(np.stack(vecs), 2, 2, 5)
        diff = np.abs(fedavg_aggregate(deltas, counts).to_vector() - acc / total)
        worst = max(worst, float(diff.max()))
    _report(4, "weighted-mean aggregation oracle", worst <= 1e-12,
            f"100 update sets, max componentwise err {worst:.2e}")


# -- 5: analytic gradients vs central finite differences ---------------------

def test_criterion_05_gradient_finite_differences():
    rng = make_rng(0, "acc-grad")
    A, C, d = 2, 2, 5
    eps, worst = 1e-5, 0.0
    for _ in range(100):
        w = DetectorWeights(0.4 * rng.standard_normal((A, C + 1, d)),
                            0.4 * rng.standard_normal((A, C, 4, d)),
                            0.4 * rng.standard_normal((A, C, d)))
        n = int(rng.integers(2, 7))
        classes = rng.integers(0, C + 1, size=(n, A))
        fg = classes < C
        boxes = np.zeros((n, A, 4))
        boxes[..., :2] = rng.uniform(0.3, 0.7, size=(n, A, 2))
        boxes[..., 2:] = rng.uniform(0.1, 0.4, size=(n, A, 2))
        boxes[~fg] = 0.0
        batch = ClientDataset(rng.standard_normal((n, d)), classes, boxes, fg)
        _, grad = detector_loss_and_grad(w, batch)
        vec, gvec = w.to_vector(), grad.to_vector()
        for i in range(len(vec)):
            vp, vm = vec.copy(), vec.copy()
            vp[i] += eps
            vm[i] -= eps
            lp, _ = detector_loss_and_grad(
                DetectorWeights.from_vector(vp, A, C, d), batch)
            lm, _ = detector_loss_and_grad(
                DetectorWeights.from_vector(vm, A, C, d), batch)
            fd = (lp - lm) / (2 * eps)
            worst = max(worst, abs(fd - gvec[i]) / max(abs(gvec[i]), 1e-3))
    _report(5, "gradient vs finite differences", worst < 1e-5,
            f"100 (weights, batch) pairs, max rel err {worst:.2e}")


# -- 6: defense soundness on synthetic streams -------------------------------

def _stream_trial(trial: int, benign: bool) -> bool:
    rng = make_rng(1234, "acc-stream", trial)
    d = int(rng.integers(4, 17))
    mix = random_premise_mixture(rng, d, 0.2)
    stream, roles = synth_two_population_stream(
        mix, 50, 30, int(rng.integers(0, 2 ** 32)),
        n_malicious=0 if benign else None)
    # synthetic blocks are already abstract gradient-space samples, so the
    # unit-norm ingestion used for live training gradients stays off
    defense = StdLensDefense(num_classes=1, window=10, omega=1,
                             confidence=0.99, normalize_blocks=False,
                             seed=trial)
    revoked: set = set()
    for contribs in stream:
        out, _ = defense.observe_contributions(contribs[0].round, contribs)
        revoked |= set(out)
    if benign:
        return not revoked
    return revoked == {c for c, r in roles.items() if r == "malicious"}


def test_criterion_06_synthetic_stream_soundness():
    t0 = time.perf_counter()
    attack_ok = sum(_stream_trial(t, benign=False) for t in range(200))
    benign_ok = sum(_stream_trial(t, benign=True) for t in range(200))
    elapsed = time.perf_counter() - t0
    _report(6, "synthetic-stream defense soundness",
            attack_ok >= 190 and benign_ok >= 190 and elapsed < 120.0,
            f"perfect purge in {attack_ok}/200, clean benign in "
            f"{benign_ok}/200, {elapsed:.1f}s")


# -- 7: end-to-end attack damage and defended recovery -----------------------

def test_criterion_07_end_to_end_three_poisons():
    t0 = time.perf_counter()
    benign = {s: _run(s, None, "none").final_ap_src for s in SEEDS}
    damage, perfect, gap = {}, {}, {}
    for poison in ("class", "bbox", "objn"):
        attacked = [_run(s, poison, "none") for s in SEEDS]
        defended = [_run(s, poison, "stdlens") for s in SEEDS]
        damage[poison] = float(np.mean(
            [benign[s] - a.final_ap_src for s, a in zip(SEEDS, attacked)]))
        perfect[poison] = sum(_perfect(r) for r in defended)
        gap[poison] = float(np.mean(
            [benign[s] - r.final_ap_src for s, r in zip(SEEDS, defended)]))
    elapsed = time.perf_counter() - t0
    ok = (all(v >= 0.10 for v in damage.values())
          and all(v >= 9 for v in perfect.values())
          and all(v <= 0.03 for v in gap.values())
          and elapsed < 600.0)
    _report(7, "end-to-end analog, three poisons", ok,
            "mean AP damage "
            + "/".join(f"{damage[p]:.3f}" for p in ("class", "bbox", "objn"))
            + ", perfect purge "
            + "/".join(str(perfect[p]) for p in ("class", "bbox", "objn"))
            + " of 10 seeds, mean defended gap "
            + "/".join(f"{gap[p]:.3f}" for p in ("class", "bbox", "objn"))
            + f", {elapsed:.0f}s")


# -- 8: adaptive attacks -----------------------------------------------------

def test_criterion_08_adaptive_attacks():
    std_beta = [_run(s, "class", "stdlens", beta=0.10) for s in SEEDS]
    spa_beta = [_run(s, "class", "spatial", beta=0.10) for s in SEEDS]
    n_std = sum(_perfect(r) for r in std_beta)
    n_spa_fooled = sum(r.precision_at_max_recall is None
                       or r.precision_at_max_recall < 1.0 for r in spa_beta)

    gamma_runs = [_run(s, "class", "stdlens", gamma=0.6) for s in SEEDS]
    n_gamma = sum(_perfect(r) for r in gamma_runs)

    onset = 50
    purge_by = onset + 3 * 10 - 1            # three full windows after onset
    n_onset = 0
    silent = True
    for s in SEEDS:
        r = _run(s, "class", "stdlens", onset=onset)
        silent &= all(rnd >= onset for rnd, _ in r.revocation_history)
        n_onset += (r.true_positives == N_MALICIOUS
                    and r.time_to_purge is not None
                    and r.time_to_purge <= purge_by)
    ok = (n_std >= 8 and n_spa_fooled >= 5 and n_gamma >= 8
          and n_onset >= 8 and silent)
    _report(8, "adaptive-attack analogs", ok,
            f"beta=0.10 perfect {n_std}/10 (smaller-cluster fooled "
            f"{n_spa_fooled}/10), gamma=0.6 perfect {n_gamma}/10, "
            f"onset=50 purge<=r{purge_by} {n_onset}/10, "
            f"pre-onset silence {silent}")


# -- 9: defense precision ordering -------------------------------------------

def test_criterion_09_baseline_ordering():
    n_ok = 0
    def prec(r):
        return -1.0 if r.precision_at_max_recall is None else r.precision_at_max_recall
    for s in SEEDS:
        p_std = prec(_run(s, "class", "stdlens"))
        p_spa = prec(_run(s, "class", "spatial"))
        p_spe = prec(_run(s, "class", "spectral"))
        n_ok += p_std >= p_spa >= p_spe
    _report(9, "precision ordering vs baselines", n_ok >= 8,
            f"stdlens >= spatial >= spectral in {n_ok}/10 seeds")


# -- 10: byte determinism ----------------------------------------------------

def test_criterion_10_byte_determinism(tmp_path):
    from stdlens.cli import main
    from click.testing import CliRunner
    import yaml

    cfg_path = tmp_path / "tiny.yaml"
    cfg_path.write_text(yaml.safe_dump({
        "federation": {"num_clients": 10, "rounds": 10,
                       "participation_fraction": 0.4,
                       "malicious_fraction": 0.2, "forensic_window": 5,
                       "master_seed": 7},
        "task": {"num_classes": 3, "feature_dim": 10, "num_anchors": 2,
                 "samples_per_client": 12, "test_samples": 60},
        "attack": {"poison_type": "class", "source_class": 0,
                   "target_class": 1},
    }))
    runner = CliRunner()
    outs = [tmp_path / "a", tmp_path / "b"]
    for out in outs:
        res = runner.invoke(main, ["run", "--config", str(cfg_path),
                                   "--out", str(out)])
        assert res.exit_code == 0, res.output
        res = runner.invoke(main, ["compare-defenses", "--config",
                                   str(cfg_path), "--out", str(out / "cmp"),
                                   "--seed", "3", "--defense", "stdlens",
                                   "--defense", "none"])
        assert res.exit_code == 0, res.output
        res = runner.invoke(main, ["attack-sweep", "--config", str(cfg_path),
                                   "--out", str(out / "sweep"), "--gamma", "0.5,1.0"])
        assert res.exit_code == 0, res.output
    same = all(
        (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
        for name in ("runlog.jsonl", "ap_curves.csv", "score.json",
                     "cmp/comparison.csv", "cmp/comparison.txt", "sweep/sweep.csv"))
    _report(10, "byte-identical artifacts", same,
            "runlog.jsonl, ap_curves.csv, score.json, comparison.csv/.txt, "
            "sweep.csv identical across repeated runs")
