"""Empirical separability machinery.

Two-population Gaussian mixtures, top-eigenvector projections and a
brute-force threshold scan to check whether the honest and poisoned
populations are separable below the contamination rate m. Also supplies
synthetic gradient-contribution streams for exercising defenses without
running any federated training.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .forensics import GradientContribution, covariance_top_eigh
from .seeding import make_rng

__all__ = [
    "PopulationSpec",
    "MixtureSpec",
    "top_eigenpair",
    "theorem1_premise_holds",
    "separability_check",
    "synth_two_population_stream",
    "random_premise_mixture",
]


@dataclass(frozen=True)
class PopulationSpec:
    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        cov = np.asarray(self.cov, dtype=float)
        if not np.allclose(cov, cov.T, atol=1e-12):
            raise ValueError("covariance must be symmetric")
        if scipy.linalg.eigvalsh(cov).min() < -1e-12:
            raise ValueError("covariance must be positive semi-definite")

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        return rng.multivariate_normal(self.mean, self.cov, size=n,
                                       method="cholesky" if _is_pd(self.cov) else "svd")

    def top_variance(self) -> float:
        return float(scipy.linalg.eigvalsh(self.cov)[-1])


def _is_pd(cov) -> bool:
    try:
        scipy.linalg.cholesky(cov)
        return True
    except scipy.linalg.LinAlgError:
        return False


@dataclass(frozen=True)
class MixtureSpec:
    honest: PopulationSpec
    poisoned: PopulationSpec
    m: float

    def __post_init__(self):
        if not (0.0 < self.m < 0.5):
            raise ValueError("m must be in (0, 0.5)")

    @property
    def delta(self) -> np.ndarray:
        return np.asarray(self.honest.mean) - np.asarray(self.poisoned.mean)

    @property
    def phi_squared(self) -> float:
        return max(self.honest.top_variance(), self.poisoned.top_variance())


def top_eigenpair(samples: np.ndarray):
    """Top eigenvector/value of the sample covariance, sign-canonicalized
    so the largest-magnitude entry is positive."""
    samples = np.asarray(samples, dtype=float)
    if samples.shape[0] < 2:
        raise ValueError("need at least 2 samples")
    _, cov, vals, vecs = covariance_top_eigh(samples, 1)
    if np.allclose(cov, 0.0):
        return np.eye(cov.shape[0])[0], 0.0
    v = vecs[:, 0]
    if v[np.argmax(np.abs(v))] < 0:
        v = -v
    return v, float(max(vals[0], 0.0))


def theorem1_premise_holds(mixture: MixtureSpec):
    """Check ||Delta||^2 >= 6*phi^2/m.

    Returns (holds, report) where report carries both sides of the
    inequality."""
    delta_sq = float(np.dot(mixture.delta, mixture.delta))
    phi_sq = mixture.phi_squared
    bound = 6.0 * phi_sq / mixture.m
    return delta_sq >= bound, {"delta_norm_sq": delta_sq,
                               "phi_sq": phi_sq, "bound": bound}


def separability_check(mixture: MixtureSpec, n_samples: int,
                       rng: np.random.Generator):
    """Empirical separability below error rate m.

    Draws (1-m)n honest and mn poisoned samples, projects everything on
    the pooled top eigenvector, and scans every midpoint threshold tau.
    Returns (separable, best_tau, (honest_violation, poisoned_violation))
    at the tau minimizing the larger violation."""
    if n_samples < 1000:
        raise ValueError("n_samples must be >= 1000")
    n_p = int(round(mixture.m * n_samples))
    n_h = n_samples - n_p
    xh = mixture.honest.sample(n_h, rng)
    xp = mixture.poisoned.sample(n_p, rng)
    pooled = np.vstack([xh, xp])
    v, _ = top_eigenpair(pooled)
    mu = pooled.mean(axis=0)
    t = np.abs((pooled - mu) @ v)
    is_honest = np.zeros(n_samples, dtype=bool)
    is_honest[:n_h] = True

    order = np.argsort(t, kind="stable")
    ts = t[order]
    honest_sorted = is_honest[order]
    # counts below-or-equal each candidate cut between ts[i] and ts[i+1]
    h_le = np.cumsum(honest_sorted)
    p_le = np.cumsum(~honest_sorted)
    taus = (ts[:-1] + ts[1:]) / 2.0
    honest_viol = (n_h - h_le[:-1]) / n_h          # Pr_H[|proj| > tau]
    pois_viol = p_le[:-1] / n_p                     # Pr_P[|proj| < tau]
    worst = np.maximum(honest_viol, pois_viol)
    best = int(np.argmin(worst))
    separable = bool(honest_viol[best] < mixture.m and pois_viol[best] < mixture.m)
    return separable, float(taus[best]), (float(honest_viol[best]),
                                          float(pois_viol[best]))


def random_premise_mixture(rng: np.random.Generator, d: int, m: float,
                           margin: float = 1.5) -> MixtureSpec:
    """A random mixture constructed to satisfy the separability premise
    with the given multiplicative margin on ||Delta||^2."""
    def random_cov(scale):
        a = rng.standard_normal((d, d))
        cov = a @ a.T / d
        top = scipy.linalg.eigvalsh(cov)[-1]
        return cov * (scale / top)
    phi_sq = rng.uniform(0.5, 2.0)
    cov_h = random_cov(phi_sq * rng.uniform(0.3, 1.0))
    cov_p = random_cov(phi_sq)
    direction = rng.standard_normal(d)
    direction /= np.linalg.norm(direction)
    norm_sq = margin * 6.0 * phi_sq / m
    mu_h = rng.standard_normal(d)
    mu_p = mu_h - direction * np.sqrt(norm_sq)
    return MixtureSpec(PopulationSpec(mu_h, cov_h), PopulationSpec(mu_p, cov_p), m)


def synth_two_population_stream(mixture: MixtureSpec, n_clients: int,
                                rounds: int, seed: int, *,
                                drift_scale: float = 0.02,
                                jitter_scale: float = 0.01,
                                class_id: int = 0,
                                n_malicious: int | None = None):
    """Synthetic gradient-contribution stream with ground-truth labels.

    Honest clients draw fresh samples from H each round, displaced along a
    fixed drift direction by round*drift_scale*||Delta||. Malicious
    clients draw one sample from P at round 0 and re-emit it with
    isotropic jitter of std jitter_scale*||Delta||. n_malicious defaults
    to floor(m * n_clients); pass 0 for a purely benign stream.

    Returns (per-round lists of GradientContribution, roles dict).
    """
    n_mal = (int(np.floor(mixture.m * n_clients))
             if n_malicious is None else int(n_malicious))
    if not (0 <= n_mal < n_clients):
        raise ValueError("n_malicious must be in [0, n_clients)")
    rng = make_rng(seed, "synth-stream")
    delta_norm = float(np.linalg.norm(mixture.delta))
    if delta_norm <= 0:
        delta_norm = np.sqrt(mixture.phi_squared)
    d = len(np.asarray(mixture.honest.mean))
    drift_dir = rng.standard_normal(d)
    drift_dir /= np.linalg.norm(drift_dir)
    drift = drift_scale * delta_norm * drift_dir
    jitter = jitter_scale * delta_norm

    mal_ids = set(range(n_mal))
    roles = {i: ("malicious" if i in mal_ids else "honest") for i in range(n_clients)}
    payloads = {i: mixture.poisoned.sample(1, rng)[0] for i in sorted(mal_ids)}

    stream = []
    for r in range(rounds):
        round_contribs = []
        for i in range(n_clients):
            if i in mal_ids:
                block = payloads[i] + jitter * rng.standard_normal(d)
            else:
                block = mixture.honest.sample(1, rng)[0] + r * drift
            round_contribs.append(GradientContribution(i, r, class_id, block))
        stream.append(round_contribs)
    return stream, roles
