"""Drift certificates and computable truncation error bounds.

A certificate is a geometric weight vector v together with constants c, b, K
such that Qv <= -c v + b (rows at levels above K get no offset).  drift_check
verifies it at every level: rows up to the model's fit horizon exactly, and
the rest through the model's exact slack law.  Once verified, the
last-column truncation at level n admits the closed-form
total-variation bound

    (b/c) * (4 exp(-c t) + 2 t * w(n)),    w(n) = sum_j |q(n,j;n,j)| / v(n,j),

minimized in t at theta/c with theta = max(-log(w(n)/(2c)), 0), giving
(4b/c)(theta+1)exp(-theta).  Certificates with K >= 1 are first converted to
level-0 form by shifting v above level 0 and paying for it in c and b.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .blockmat import BlockGeneratorModel, is_level
from .errors import (
    CertificateNotVerified,
    DriftViolated,
    FirstColumnUnreachable,
    InputError,
    KNotZero,
)
from .tolerances import DRIFT_TOL, WEIGHT_FLOOR
from .truncate import check_truncation_levels


def _check_level(k, what: str = "level") -> None:
    if not is_level(k):
        raise InputError(f"{what} must be an integer, got {k!r}")
    if k < 0:
        raise InputError(f"{what} must be >= 0, got {k}")


@dataclass(frozen=True)
class GeometricVector:
    """Weight rule v(k, i) = beta**k * u_i, plus an optional shift for k >= 1.

    The shift is how the K-to-0 certificate conversion perturbs v without
    touching level 0.  With u >= e, beta > 1 and shift >= 0 the rule is
    automatically >= e and block-increasing.
    """

    beta: float
    u: np.ndarray
    shift: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "u", np.asarray(self.u, dtype=float))
        if self.u.ndim != 1 or self.u.size == 0:
            raise InputError(f"weight profile must be a nonempty vector, got shape {self.u.shape}")
        if not 1.0 < self.beta < math.inf:
            raise InputError(f"geometric base must be finite and exceed 1, got {self.beta}")
        if not np.all(np.isfinite(self.u)):
            raise InputError(f"weight profile must be finite, got {self.u}")
        if float(self.u.min()) < WEIGHT_FLOOR:
            raise InputError(f"weight profile dips to {self.u.min()}, must be >= 1")
        if not 0.0 <= self.shift < math.inf:
            raise InputError(f"shift must be finite and >= 0, got {self.shift}")

    @property
    def d(self) -> int:
        return self.u.size

    def level(self, k: int) -> np.ndarray:
        _check_level(k)
        power = self._power(k)
        if math.isinf(power):
            first = next(j for j in range(k + 1) if math.isinf(self._power(j)))
            raise self._out_of_range(first)
        v = power * self.u
        if k >= 1:
            v = v + self.shift
        return v

    def levels(self, n: int) -> np.ndarray:
        """Flat weight vector over levels 0..n, the stack of `level(k)` bit
        for bit: the powers come from the same scalar pow."""
        _check_level(n)
        powers = np.array([self._power(k) for k in range(n + 1)])
        if np.isinf(powers[-1]):
            raise self._out_of_range(int(np.argmax(np.isinf(powers))))
        out = powers[:, None] * self.u[None, :]
        out[1:] += self.shift
        return out.reshape(-1)

    def _power(self, k: int) -> float:
        """beta**k by the scalar pow, inf past the float range."""
        try:
            return float(self.beta) ** k
        except OverflowError:
            return math.inf

    def _out_of_range(self, k: int) -> CertificateNotVerified:
        return CertificateNotVerified(
            f"weight beta**k passes the float range at level {k} (beta={self.beta:.6g})"
        )


@dataclass
class DriftCertificate:
    """Verified drift inequality data: Qv <= -c v + b 1(level <= K)."""

    v: GeometricVector
    c: float
    b: float
    K: int = 0
    verified: bool = False
    origin: str = ""


@dataclass
class BoundReport:
    """One truncation level's bound evaluation.

    c, b and weighted_diag are the ingredients of the bound curve in t, kept
    so bound_at reproduces any point of it; bound_min is its minimum, reached
    at t_star.  runtime_ms is the time bound_report took; bound_pipeline
    widens it to the level's whole cost, corner solve included.
    """

    n: int
    t_star: float
    bound_min: float
    c: float
    b: float
    weighted_diag: float
    theta: float
    true_tv: float | None = None
    runtime_ms: float = 0.0
    origin: str = ""

    def bound_at(self, t: float) -> float:
        if not t >= 0:
            raise InputError(f"time must be >= 0, got {t}")
        return (self.b / self.c) * (
            4.0 * math.exp(-self.c * t) + 2.0 * t * self.weighted_diag
        )


def drift_check(model: BlockGeneratorModel, v: GeometricVector, c: float, b: float,
                K: int = 0) -> DriftCertificate:
    """Verify Qv <= -c v + b 1(level <= K) at every level and certify it.

    Row k passes when its slack s(k) = (Qv)(k) + c v(k) - b 1(k <= K) is at
    most DRIFT_TOL * max(1, c max v(k), b).  Rows up to the fit horizon k_fit (> K)
    are checked exactly; past it the model's exact law (`slack_law`) gives
    s(k) = beta**k (a0 + a1 k) + g0 per phase.  If beta**k (a0 + a1 k) and
    beta**k a1 are nonpositive at k_fit, within its tolerance, the geometric
    part never rises again and no later slack exceeds s(k_fit).  Otherwise
    the law is walked while that part rises, and the first row it flags is
    recomputed exactly: a violation always names a real row and its slack.

    Each level's weight v(l) is computed once per check, at the first
    `level(l)` call a row makes (its own, or `apply_row`'s), and reused by
    the rows after it.  Weights are never computed ahead of the rows that
    read them, so a row that fails still raises DriftViolated before a
    deeper weight passes the float range, and a weight that passes it first
    raises CertificateNotVerified naming the first such level.
    """
    if not 0 < c < math.inf:
        raise InputError(f"decay rate c must be finite and positive, got {c}")
    if not b > 0:
        raise InputError(f"offset b must be positive, got {b}")
    _check_level(K, "offset level K")
    if v.d != model.d:
        raise InputError(f"weight profile has {v.d} phases, model has {model.d}")

    # v as apply_row reads it, each level's weight kept from its first call;
    # typed, so a level the vector refuses, such as 2.0, is still refused
    level = functools.lru_cache(maxsize=None, typed=True)(v.level)
    weights = SimpleNamespace(beta=v.beta, u=v.u, shift=v.shift, level=level)

    def check_row(k: int) -> float:  # raises if row k fails; returns its tolerance
        vk = weights.level(k)
        try:
            with np.errstate(over="raise", invalid="raise"):
                s = model.apply_row(k, weights) + c * vk - (b if k <= K else 0.0)
        except FloatingPointError:
            raise CertificateNotVerified(
                f"row {k} of the drift check passes the float range (beta={v.beta:.6g})"
            ) from None
        tau = DRIFT_TOL * max(1.0, c * float(np.max(vk)), b)
        worst = int(np.argmax(s))
        if s[worst] > tau:
            raise DriftViolated(level=k, phase=worst, slack=float(s[worst]))
        return tau

    k_fit = max(model.drift_fit_level(), K + 1)
    for k in range(k_fit + 1):
        tau = check_row(k)
    a0, a1, g0 = model.slack_law(v, c)
    beta, u_max, k = v.beta, float(np.max(v.u)), k_fit
    top = int(700.0 / math.log(beta))  # beta**k stays finite below it
    while float(np.max(beta ** k * np.maximum(a0 + a1 * k, a1))) > tau:
        if k >= top:
            raise CertificateNotVerified(f"slack still rising at level {k}")
        ks = np.arange(k + 1, min(k + 1024, top) + 1)
        pk = beta ** ks
        s = pk[:, None] * (a0 + a1 * ks[:, None]) + g0
        scale = np.maximum(max(1.0, b), c * (pk * u_max + v.shift))
        for k_bad in ks[s.max(axis=1) > DRIFT_TOL * scale]:
            check_row(int(k_bad))
        k = int(ks[-1])
    origin = (
        f"rows 0..{k_fit} checked exactly; beyond, the model's exact slack law "
        "covers every level"
    )
    return DriftCertificate(v=v, c=c, b=b, K=K, verified=True, origin=origin)


def weighted_diag_sum(cert: DriftCertificate, model: BlockGeneratorModel, n: int) -> float:
    """w(n) = sum_j |q(n,j;n,j)| / v(n,j)."""
    return float(np.sum(model.diag_abs(n) / cert.v.level(n)))


def _evaluate(cert: DriftCertificate, model: BlockGeneratorModel, n: int) -> BoundReport:
    """The one evaluation of the bound at level n: w(n), theta(n) =
    max(-log(w(n)/(2c)), 0), t_star = theta/c and the minimum
    (4b/c)(theta+1)e^{-theta}, which is 0 when w(n) = 0.  The certificate
    must be verified and in level-0 form."""
    if not cert.verified:
        raise CertificateNotVerified("certificate has not passed drift_check")
    if cert.K != 0:
        raise KNotZero(
            f"certificate carries an offset through level K={cert.K}; "
            "apply corollary_transform first"
        )
    check_truncation_levels(n)
    w = weighted_diag_sum(cert, model, n)
    theta = math.inf if w <= 0.0 else max(-math.log(w / (2.0 * cert.c)), 0.0)
    finite = not math.isinf(theta)
    return BoundReport(
        n=n,
        t_star=theta / cert.c if finite else math.inf,
        bound_min=(4.0 * cert.b / cert.c) * (theta + 1.0) * math.exp(-theta) if finite else 0.0,
        c=cert.c,
        b=cert.b,
        weighted_diag=w,
        theta=theta,
        origin=cert.origin,
    )


def theorem_bound(cert: DriftCertificate, model: BlockGeneratorModel, n: int, t: float) -> float:
    """The raw bound curve (b/c)(4 e^{-ct} + 2 t w(n)) at one time point."""
    return _evaluate(cert, model, n).bound_at(t)


def decay_exponent(cert: DriftCertificate, model: BlockGeneratorModel, n: int) -> float:
    """theta(n) = max(-log(w(n)/(2c)), 0), the dimensionless decay depth."""
    return _evaluate(cert, model, n).theta


def t_star(cert: DriftCertificate, model: BlockGeneratorModel, n: int) -> float:
    """Minimizing time of the bound curve: theta(n)/c."""
    return _evaluate(cert, model, n).t_star


def minimized_bound(cert: DriftCertificate, model: BlockGeneratorModel, n: int) -> float:
    """(4b/c)(theta+1)e^{-theta}: the bound curve's value at t_star."""
    return _evaluate(cert, model, n).bound_min


def corollary_transform(cert: DriftCertificate, model: BlockGeneratorModel) -> DriftCertificate:
    """Convert a level-K certificate into level-0 form.

    The offset rows 1..K are paid for by raising v above level 0 by the
    constant B sized so the column-0 rates at level K absorb b'.  That costs
    a factor 1+B in c and whatever the level-0 block takes out of b.  The
    result is re-verified from scratch rather than trusted.
    """
    if not cert.verified:
        raise CertificateNotVerified("transform input must be a verified certificate")
    if cert.K == 0:
        return cert
    reach = model.block(cert.K, 0).sum(axis=1)
    if float(reach.min()) <= 0.0:
        raise FirstColumnUnreachable(
            f"column-0 rates at level {cert.K} have a nonpositive row "
            f"(min {reach.min():.3e}); the offset cannot be absorbed"
        )
    B = cert.b / float(reach.min())
    c = cert.c / (1.0 + B)
    level0_out = model.block(0, 0).sum(axis=1)
    b = cert.b - B * float(level0_out.min())
    v = GeometricVector(beta=cert.v.beta, u=cert.v.u, shift=cert.v.shift + B)
    return drift_check(model, v, c, b, K=0)


def bound_report(cert: DriftCertificate, model: BlockGeneratorModel, n: int,
                 true_tv: float | None = None) -> BoundReport:
    """Evaluate the minimized bound at one truncation level n >= 1."""
    started = time.perf_counter()
    report = _evaluate(cert, model, n)
    report.true_tv = true_tv
    report.runtime_ms = (time.perf_counter() - started) * 1e3
    return report
