"""Answer checks computed apart from the library.

Nothing here calls into ``betacircuits``.  The checks read the same NNF
text and label table text that the program reads, parse them with their
own few lines, and evaluate the conditional

    P(q | e) = N / D,   N = WMC(q and e),   D = WMC(e)

at the label means.  N and D are multilinear in the leaf probabilities
(decomposable AND gates never share a variable), so the derivative of
either root with respect to one variable p_v is exactly its value at
p_v = 1 minus its value at p_v = 0.  That gives the first-order (delta
method) variance that the covariance evaluator documents,

    var = sum_v var[p_v] * (dN_v / D - N dD_v / D^2)^2,

clamped to [0, mean (1 - mean)].  Monte Carlo answers are compared with an
estimate drawn by this module's own sampler.

Every ``check_*`` function returns ``None`` for an accepted answer and a
one-line reason otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

#: Relative tolerance of the covariance evaluator's mean and variance.
CPB_REL = 1e-9
#: Relative tolerance of point-probability means (prob, mm).
POINT_REL = 1e-12
#: Absolute floor below which two variances count as equal (both ~ 0).
VAR_ABS = 1e-15
#: Monte Carlo answers must lie within this many combined standard errors.
MC_SIGMAS = 5.0
#: Agreement required between the cpb and mm actual RMSE of one cell.
RMSE_ABS = 1e-12


# ---------------------------------------------------------------------
# Inputs: NNF text, label text, evidence
# ---------------------------------------------------------------------

@dataclass(frozen=True)
class Nnf:
    """Parsed c2d NNF text: one (tag, payload) per node, root last."""

    nodes: tuple

    @classmethod
    def parse(cls, text: str) -> "Nnf":
        nodes = []
        for line in text.splitlines():
            toks = line.split()
            if not toks or toks[0] in ("nnf", "c"):
                continue
            if toks[0] == "L":
                nodes.append(("L", int(toks[1])))
            elif toks[0] == "A":
                nodes.append(("A", tuple(int(t) for t in toks[2:])))
            elif toks[0] == "O":
                nodes.append(("O", tuple(int(t) for t in toks[3:])))
            else:
                raise ValueError(f"unknown NNF line {line!r}")
        return cls(tuple(nodes))

    def variables(self) -> set[int]:
        return {abs(p) for tag, p in self.nodes if tag == "L"}

    def evaluate(self, literal_value) -> np.ndarray:
        """Bottom-up sum/product sweep; ``literal_value(lit)`` gives arrays."""
        values: list = []
        for tag, payload in self.nodes:
            if tag == "L":
                values.append(literal_value(payload))
            elif tag == "A":
                acc = 1.0
                for ch in payload:
                    acc = acc * values[ch]
                values.append(acc)
            else:
                acc = 0.0
                for ch in payload:
                    acc = acc + values[ch]
                values.append(acc)
        return values[-1]


def parse_labels(text: str) -> dict[int, tuple[float, float]]:
    """``var alpha_pos alpha_neg ...`` lines -> {var: (alpha_pos, alpha_neg)}."""
    out = {}
    for line in text.splitlines():
        toks = line.split()
        if toks and not toks[0].startswith("#"):
            out[int(toks[0])] = (float(toks[1]), float(toks[2]))
    return out


def beta_mean_var(a: float, b: float) -> tuple[float, float]:
    s = a + b
    m = a / s
    return m, m * (1.0 - m) / (s + 1.0)


# ---------------------------------------------------------------------
# Reference answers
# ---------------------------------------------------------------------

@dataclass(frozen=True)
class Reference:
    mean: float       # E[N] / E[D] at the label means
    variance: float   # first-order variance, clamped to the support bound


def _killed(query: int, evidence: Sequence[tuple[int, bool]]):
    """Literals forced to 0 in the N pass and in the D pass."""
    ev = {(-v if val else v) for v, val in evidence}
    return ev | {-query}, ev


def first_order(nnf: Nnf, labels: dict[int, tuple[float, float]],
                query: int, evidence: Sequence[tuple[int, bool]]) -> Reference:
    """Mean and clamped first-order variance of P(query | evidence)."""
    variables = sorted(nnf.variables() & labels.keys())
    col = {v: i for i, v in enumerate(variables)}
    width = 1 + 2 * len(variables)
    probs = {}
    variances = {}
    for v in variables:
        m, var = beta_mean_var(*labels[v])
        p = np.full(width, m)
        p[1 + 2 * col[v]] = 1.0
        p[2 + 2 * col[v]] = 0.0
        probs[v] = p
        variances[v] = var
    ones, zeros = np.ones(width), np.zeros(width)

    def sweep(killed):
        def lit(l):
            if l in killed:
                return zeros
            p = probs.get(abs(l))
            if p is None:
                return ones
            return p if l > 0 else 1.0 - p
        return nnf.evaluate(lit)

    kill_n, kill_d = _killed(query, evidence)
    n, d = sweep(kill_n), sweep(kill_d)
    if d[0] == 0.0:
        raise ValueError("reference: evidence has probability zero")
    mean = float(n[0] / d[0])
    var = 0.0
    for v in variables:
        i = 1 + 2 * col[v]
        dn, dd = n[i] - n[i + 1], d[i] - d[i + 1]
        g = dn / d[0] - n[0] * dd / (d[0] * d[0])
        var += variances[v] * float(g) ** 2
    return Reference(mean, min(max(var, 0.0), max(mean * (1.0 - mean), 0.0)))


@dataclass(frozen=True)
class Sample:
    mean: float
    variance: float
    n: int


def monte_carlo(nnf: Nnf, labels: dict[int, tuple[float, float]],
                query: int, evidence: Sequence[tuple[int, bool]],
                n: int, rng: np.random.Generator) -> Sample:
    """Sample every leaf probability from its beta, average N/D per draw."""
    variables = sorted(nnf.variables() & labels.keys())
    draws = {v: rng.beta(*labels[v], size=n) for v in variables}
    ones, zeros = np.ones(n), np.zeros(n)

    def sweep(killed):
        def lit(l):
            if l in killed:
                return zeros
            p = draws.get(abs(l))
            if p is None:
                return ones
            return p if l > 0 else 1.0 - p
        return nnf.evaluate(lit)

    kill_n, kill_d = _killed(query, evidence)
    num, den = sweep(kill_n), sweep(kill_d)
    ok = den > 0.0
    ratio = num[ok] / den[ok]
    return Sample(float(ratio.mean()), float(ratio.var(ddof=1)), int(ratio.size))


# -- the block circuit: a closed form that does not depend on its size --

def block_first_order(x: tuple[float, float], y: tuple[float, float],
                      z: tuple[float, float]) -> Reference:
    """P(x | (x and y) or (not x and z)) and its first-order variance.

    The AND of independent blocks conditioned on one block's x (evidence
    elsewhere) cancels every other block, so the query block alone
    decides the answer:  f = a / (a + c), a = px py, c = (1 - px) pz.
    """
    (px, vx), (py, vy), (pz, vz) = (beta_mean_var(*t) for t in (x, y, z))
    a, c = px * py, (1.0 - px) * pz
    s2 = (a + c) ** 2
    mean = a / (a + c)
    var = (vx * (py * pz / s2) ** 2 + vy * (px * c / s2) ** 2
           + vz * (a * (1.0 - px) / s2) ** 2)
    return Reference(mean, min(var, mean * (1.0 - mean)))


def block_monte_carlo(x, y, z, n: int, rng: np.random.Generator) -> Sample:
    px, py, pz = (rng.beta(*t, size=n) for t in (x, y, z))
    a = px * py
    f = a / (a + (1.0 - px) * pz)
    return Sample(float(f.mean()), float(f.var(ddof=1)), n)


# ---------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------

def _close(got: float, want: float, rel: float, floor: float = 0.0) -> bool:
    return (math.isfinite(got)
            and abs(got - want) <= rel * max(abs(got), abs(want)) + floor)


def check_cpb(ref: Reference, mean: float, variance: float) -> Optional[str]:
    if not _close(mean, ref.mean, CPB_REL):
        return f"cpb mean {mean!r} != reference {ref.mean!r}"
    if not _close(variance, ref.variance, CPB_REL, VAR_ABS):
        return f"cpb variance {variance!r} != reference {ref.variance!r}"
    return None


def check_prob(ref: Reference, mean: float) -> Optional[str]:
    if not _close(mean, ref.mean, POINT_REL):
        return f"prob mean {mean!r} != reference {ref.mean!r}"
    return None


def check_mm(ref: Reference, mean: float, variance: float) -> Optional[str]:
    if not _close(mean, ref.mean, POINT_REL):
        return f"mm mean {mean!r} != reference {ref.mean!r}"
    if not (0.0 <= variance <= mean * (1.0 - mean) * (1.0 + 1e-12)):
        return f"mm label variance {variance!r} outside [0, mean (1 - mean)]"
    return None


def check_sl(mean: float, variance: float, alpha_pos: float,
             alpha_neg: float) -> Optional[str]:
    if not (math.isfinite(mean) and -1e-12 <= mean <= 1.0 + 1e-12):
        return f"sl mean {mean!r} outside [0, 1]"
    if not (math.isfinite(variance) and 0.0 <= variance <= 0.25):
        return f"sl variance {variance!r} outside [0, 1/4]"
    if not (alpha_pos > 0.0 and alpha_neg > 0.0):
        return f"sl alphas ({alpha_pos!r}, {alpha_neg!r}) not positive"
    return None


def check_mc(mean: float, variance: float, n: int, ref: Sample) -> Optional[str]:
    if not (math.isfinite(mean) and math.isfinite(variance) and variance >= 0):
        return f"mc answer ({mean!r}, {variance!r}) not finite"
    se = math.sqrt(variance / n + ref.variance / ref.n)
    if abs(mean - ref.mean) > MC_SIGMAS * se:
        return (f"mc mean {mean!r} is {abs(mean - ref.mean) / se:.1f} standard "
                f"errors from the reference {ref.mean!r}")
    return None


def check_cell(backends: dict, expected_trials: int,
               gammas: Sequence[float]) -> list[str]:
    """Properties every calibration cell must have.

    ``backends`` maps a backend name to an object with ``trials``,
    ``failures``, ``actual_rmse`` and ``coverage`` (gamma -> fraction).
    """
    problems = []
    for name, m in sorted(backends.items()):
        if m.trials != expected_trials or m.failures != 0:
            problems.append(f"{name}: {m.trials} trials and {m.failures} "
                            f"failures, expected {expected_trials} and 0")
        cov = [m.coverage[g] for g in sorted(gammas)]
        if not all(0.0 <= c <= 1.0 for c in cov):
            problems.append(f"{name}: coverage outside [0, 1]")
        if any(b < a for a, b in zip(cov, cov[1:])):
            problems.append(f"{name}: coverage decreases as gamma grows")
    if "cpb" in backends and "mm" in backends:
        a, b = backends["cpb"].actual_rmse, backends["mm"].actual_rmse
        if not abs(a - b) <= RMSE_ABS:
            problems.append(f"cpb actual RMSE {a!r} != mm actual RMSE {b!r}")
    return problems
