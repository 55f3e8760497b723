"""Seeded BMAP queue generator with an exact target load.

Every model the benchmark feeds to bmtrunc comes from here and reaches the
program only as a JSON model file.  The generator works in plain numpy and
never calls the library, so a change to bmtrunc cannot change its inputs.

A queue is described by a `QueueSpec`: the number of phases d, the load
rho = lambda / mu_inf, the catastrophe rate psi as a multiple of lambda, the
largest listed batch size k_max, an optional geometric batch tail, and the
service rule.  The random part (which phases talk to which, and how batch
mass is spread) is drawn once for every seed; the seed then moves each of
those rates by up to JITTER either way.  With a fresh structure per seed
the certificate search's work spread by a quarter from seed to seed, more
than the changes the benchmark is there to show.  The service rate is then
set from the measured arrival rate, so rho holds exactly whatever the draw.  Finally all
rates are scaled so the largest diagonal rate of the generator equals a
fixed `sigma`, which pins the uniformization depth sigma * t and keeps the
cost of an op independent of the draw.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

JITTER = 0.1


@dataclass(frozen=True)
class QueueSpec:
    """One queue shape.  rho is None for a pure-reset queue (no service)."""

    name: str
    d: int
    rho: float | None
    psi: float = 0.0
    k_max: int = 1
    tail_ratio: float | None = None
    mu_rule: str = "constant"
    sigma: float = 5.45


def _phase_stationary(gen: np.ndarray) -> np.ndarray:
    """eta with eta @ gen = 0 and eta summing to 1."""
    d = gen.shape[0]
    system = np.vstack([gen.T, np.ones((1, d))])
    rhs = np.zeros(d + 1)
    rhs[-1] = 1.0
    eta, *_ = np.linalg.lstsq(system, rhs, rcond=None)
    return eta


def queue_doc(spec: QueueSpec, shape_rng: np.random.Generator,
              seed_rng: np.random.Generator) -> dict:
    """Model-file document for one queue: rates drawn from `shape_rng`, each
    scaled by a factor within JITTER of 1 drawn from `seed_rng`."""

    def draw(low, high, shape):
        return (shape_rng.uniform(low, high, shape)
                * seed_rng.uniform(1.0 - JITTER, 1.0 + JITTER, shape))

    d, k_max = spec.d, spec.k_max
    off = draw(0.2, 1.0, (d, d))
    np.fill_diagonal(off, 0.0)
    batches = [draw(0.05, 0.5, (d, d)) * 0.5 ** k for k in range(k_max)]
    tail_coef = None
    tail_mass = np.zeros((d, d))
    tail_weighted = np.zeros((d, d))
    if spec.tail_ratio is not None:
        r = spec.tail_ratio
        m = k_max + 1
        tail_coef = draw(0.02, 0.1, (d, d))
        tail_mass = tail_coef * r ** m / (1.0 - r)
        tail_weighted = tail_coef * r ** m * (m - (m - 1) * r) / (1.0 - r) ** 2
    D0 = off.copy()
    np.fill_diagonal(D0, -(off.sum(axis=1) + sum(b.sum(axis=1) for b in batches)
                           + tail_mass.sum(axis=1)))
    eta = _phase_stationary(D0 + sum(batches) + tail_mass)
    weighted = sum((k + 1) * b for k, b in enumerate(batches)) + tail_weighted
    lam = float(eta @ weighted.sum(axis=1))
    mu = 0.0 if spec.rho is None else lam / spec.rho
    psi = spec.psi * lam
    scale = spec.sigma / (float(np.max(-np.diag(D0))) + psi + mu)
    mu_doc = {"table": [mu * scale]}
    if spec.mu_rule == "affine":
        mu_doc.update(eventual="affine", slope=0.05 * mu * scale)
    params = {
        "D": [(m * scale).tolist() for m in [D0, *batches]],
        "mu": mu_doc,
        "psi": psi * scale,
    }
    if tail_coef is not None:
        params["tail"] = {"coef": (tail_coef * scale).tolist(), "ratio": spec.tail_ratio}
    return {"d": d, "kind": "BmapQueue", "parameters": params}


def write_models(docs: dict, directory) -> dict:
    """Write each document as <name>.json; returns name -> path."""
    paths = {}
    for name, doc in docs.items():
        path = directory / f"{name}.json"
        path.write_text(json.dumps(doc))
        paths[name] = str(path)
    return paths
