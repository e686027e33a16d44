"""Empirical separability machinery.

Two-population Gaussian mixtures, a top-eigenvector projection and a
brute-force threshold scan to check whether the honest and poisoned
populations are separable below the contamination rate m. Also supplies
synthetic gradient-contribution streams for exercising defenses without
running any federated training.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .forensics import GradientContribution, covariance_top_eigh
from .seeding import make_rng

__all__ = [
    "PopulationSpec",
    "MixtureSpec",
    "theorem1_premise_holds",
    "separability_check",
    "synth_two_population_stream",
    "random_premise_mixture",
]

PREMISE_MARGIN = 1.5   # multiplicative margin of a random mixture on ||Delta||^2
DRIFT_SCALE = 0.02     # per-round honest drift of a synthetic stream, times ||Delta||
JITTER_SCALE = 0.01    # std of a replayed payload's jitter, times ||Delta||


@dataclass(frozen=True)
class PopulationSpec:
    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        cov = np.asarray(self.cov, dtype=float)
        if cov.ndim != 2 or cov.shape[0] != cov.shape[1]:
            raise ValueError("covariance must be a square matrix")
        if np.shape(self.mean) != cov.shape[:1]:
            raise ValueError("mean must be a vector of the covariance's dimension")
        if not np.allclose(cov, cov.T, atol=1e-12):
            raise ValueError("covariance must be symmetric")
        if np.linalg.eigvalsh(cov).min() < -1e-12:
            raise ValueError("covariance must be positive semi-definite")

    @property
    def dim(self) -> int:
        return len(self.mean)

    @cached_property
    def factor(self) -> np.ndarray:
        """F with F Fᵀ = cov, the factor `Generator.multivariate_normal`
        builds: the Cholesky factor, or u·sqrt(s) from the SVD when the
        covariance is singular. So `mean + z @ F.T` over standard normals z
        gives that method's samples bit for bit."""
        cov = np.asarray(self.cov, dtype=float)
        try:
            return np.linalg.cholesky(cov)
        except np.linalg.LinAlgError:
            u, s, _ = np.linalg.svd(cov)
            return u * np.sqrt(s)

    def transform(self, z: np.ndarray) -> np.ndarray:
        """Samples from standard normals `z` of shape (..., dim)."""
        return np.asarray(self.mean, dtype=float) + z @ self.factor.T

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        return self.transform(rng.standard_normal((n, self.dim)))

    def top_variance(self) -> float:
        return float(np.linalg.eigvalsh(self.cov)[-1])


@dataclass(frozen=True)
class MixtureSpec:
    honest: PopulationSpec
    poisoned: PopulationSpec
    m: float

    def __post_init__(self):
        if not (0.0 < self.m < 0.5):
            raise ValueError("m must be in (0, 0.5)")
        if self.honest.dim != self.poisoned.dim:
            raise ValueError("populations must have the same dimension")

    @property
    def delta(self) -> np.ndarray:
        return np.asarray(self.honest.mean) - np.asarray(self.poisoned.mean)

    @property
    def phi_squared(self) -> float:
        return max(self.honest.top_variance(), self.poisoned.top_variance())


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
    centered, _, vecs = covariance_top_eigh(pooled, 1)
    t = np.abs(centered @ vecs[:, 0])
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


def random_premise_mixture(rng: np.random.Generator, d: int, m: float) -> MixtureSpec:
    """A random mixture constructed to satisfy the separability premise
    with the multiplicative margin PREMISE_MARGIN on ||Delta||^2."""
    def random_cov(scale):
        a = rng.standard_normal((d, d))
        cov = a @ a.T / d
        top = np.linalg.eigvalsh(cov)[-1]
        return cov * (scale / top)
    phi_sq = rng.uniform(0.5, 2.0)
    cov_h = random_cov(phi_sq * rng.uniform(0.3, 1.0))
    cov_p = random_cov(phi_sq)
    direction = rng.standard_normal(d)
    direction /= np.linalg.norm(direction)
    norm_sq = PREMISE_MARGIN * 6.0 * phi_sq / m
    mu_h = rng.standard_normal(d)
    mu_p = mu_h - direction * np.sqrt(norm_sq)
    return MixtureSpec(PopulationSpec(mu_h, cov_h), PopulationSpec(mu_p, cov_p), m)


def synth_two_population_stream(mixture: MixtureSpec, n_clients: int, rounds: int,
                                seed: int, *, n_malicious: int | None = None):
    """Synthetic gradient-contribution stream with ground-truth labels.

    All of class 0. Honest clients draw fresh samples from H each round,
    displaced along a fixed direction by round*DRIFT_SCALE*||Delta||.
    Malicious clients draw one sample from P at round 0 and re-emit it with
    isotropic jitter of std JITTER_SCALE*||Delta||. n_malicious defaults
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
    d = mixture.honest.dim
    drift_dir = rng.standard_normal(d)
    drift_dir /= np.linalg.norm(drift_dir)
    drift = DRIFT_SCALE * delta_norm * drift_dir
    jitter = JITTER_SCALE * delta_norm

    roles = {i: ("malicious" if i < n_mal else "honest") for i in range(n_clients)}
    # Stacked (k, 1, d) products form each row as a 1×d product, as
    # `sample(1, rng)` does, so the blocks equal per-client draws bit for
    # bit; one flat (k, d) GEMM groups the sums differently.
    payloads = mixture.poisoned.transform(rng.standard_normal((n_mal, 1, d)))[:, 0]

    stream = []
    for r in range(rounds):
        # one client after another, the malicious ids 0..n_mal-1 first, each
        # drawing d normals: its jitter or its honest sample
        z = rng.standard_normal((n_clients, d))
        blocks = np.empty((n_clients, d))
        blocks[:n_mal] = payloads + jitter * z[:n_mal]
        blocks[n_mal:] = mixture.honest.transform(z[n_mal:, None, :])[:, 0] + r * drift
        stream.append([GradientContribution(i, r, 0, blocks[i]) for i in range(n_clients)])
    return stream, roles
