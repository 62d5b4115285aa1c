"""Independent ground-truth checks for the distance-space machinery.

Most of this recomputes main-path quantities by a second, slower route:
Cartesian residuals of the defining central-configuration equations,
finite-difference derivatives and circumradius identities.  The uniqueness
sweep instead runs the solver's own multistart with many more starts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import serialize
from .chart import p_to_r, seeded_start, vw_to_p_floats
from .errors import NonRealizableError
from .geometry import (OPPOSITE_SLOT, PAIR_SIGN, MassVector, K_term, Q_term, _cols,
                       _fpow, _m, _r6, cayley_menger_H, is_geometric, moment_I,
                       potential_U, ptolemy_P)
from .inverse import CyclicShape, _chords
from .solver import SolverOptions, _multistart_blocks

_PAIR_INDEX = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))

EMBED_RTOL = 1e-9        # relative agreement of circumradii and embedded distances


@dataclass(frozen=True, eq=False)
class PlanarConfig:
    """Four planar points with masses; center of mass at the origin."""

    positions: np.ndarray   # shape (4, 2)
    masses: MassVector

    def __post_init__(self):
        pos = np.array(self.positions, dtype=float).reshape(4, 2)
        object.__setattr__(self, "positions", pos)
        rows = pos.tolist()
        scale = max(abs(c) for row in rows for c in row)
        com = _center_of_mass(rows, self.masses)
        if math.hypot(*com) > 1e-12 * scale:
            raise ValueError(f"center of mass {com} is not at the origin")

    def distances(self) -> tuple:
        """The six mutual distances in slot order, as floats."""
        return _pair_distances(self.positions.tolist())


def _center_of_mass(rows, masses: MassVector) -> tuple:
    m, total = masses.astuple(), masses.M
    return (sum(mi * x for mi, (x, _) in zip(m, rows)) / total,
            sum(mi * y for mi, (_, y) in zip(m, rows)) / total)


def _pair_distances(rows) -> tuple:
    return tuple(math.dist(rows[i], rows[j]) for i, j in _PAIR_INDEX)


def _heron_area(a: float, b: float, c: float) -> float:
    """Numerically stable triangle area (sorted-edge form, safe for the thin
    triangles that show up near the chart boundary)."""
    a, b, c = sorted((a, b, c), reverse=True)
    inner = c - (a - b)
    if inner < 0.0:
        raise NonRealizableError(f"sides {a:.6g}, {b:.6g}, {c:.6g} violate "
                                 "the triangle inequality")
    return 0.25 * math.sqrt((a + (b + c)) * inner * (c + (a - b)) * (a + (b - c)))


def circumradius(r) -> float:
    """Circumradius of the cyclic quadrilateral from triangle (1,2,3),
    cross-checked against triangle (1,2,4) to EMBED_RTOL."""
    r12, r13, r14, r23, r24, r34 = _r6(r)
    rc1 = r12 * r13 * r23 / (4.0 * _heron_area(r12, r13, r23))
    rc2 = r12 * r14 * r24 / (4.0 * _heron_area(r12, r14, r24))
    if abs(rc1 - rc2) > EMBED_RTOL * max(rc1, rc2):
        raise NonRealizableError(
            f"triangle circumradii disagree ({rc1:.12g} vs {rc2:.12g}); "
            "the four bodies are not concyclic")
    return rc1


def embed_cyclic(r, m) -> PlanarConfig:
    """Planar positions of a realizable cyclic distance vector, with the
    center of mass moved to the origin.

    The first three bodies are placed by trilateration and the fourth by
    its two circle-consistent candidates, keeping the one that reproduces
    r34; every mutual distance of the result matches the input to
    EMBED_RTOL relative to the largest.  The placement runs on Python
    floats.
    """
    values = _r6(r)
    scale = max(values)
    if not is_geometric(values):
        raise NonRealizableError("distance vector is not geometrically realizable")
    if (abs(K_term(values)) > 1e-6 * _fpow(scale, 3)
            or abs(ptolemy_P(values)) > 1e-6 * _fpow(scale, 2)):
        raise NonRealizableError("distance vector is not cyclic (P or K residual "
                                 "too large)")
    r12, r13, r14, r23, r24, r34 = values
    slack = EMBED_RTOL * _fpow(scale, 2)
    x3 = (r12 * r12 + r13 * r13 - r23 * r23) / (2.0 * r12)
    y3sq = r13 * r13 - x3 * x3
    if y3sq < -slack:
        raise NonRealizableError("triangle (1,2,3) cannot be embedded")
    y3 = math.sqrt(max(y3sq, 0.0))
    x4 = (r12 * r12 + r14 * r14 - r24 * r24) / (2.0 * r12)
    y4sq = r14 * r14 - x4 * x4
    if y4sq < -slack:
        raise NonRealizableError("triangle (1,2,4) cannot be embedded")
    y4 = math.sqrt(max(y4sq, 0.0))
    # the candidate below the axis only if it reproduces r34 strictly better
    miss_up = abs(math.hypot(x4 - x3, y4 - y3) - r34)
    miss_down = abs(math.hypot(x4 - x3, -y4 - y3) - r34)
    if miss_down < miss_up:
        y4, miss_up = -y4, miss_down
    if miss_up > EMBED_RTOL * scale:
        raise NonRealizableError("no embedding reproduces r34; input is not "
                                 "a realizable cyclic vector")
    masses = _m(m)
    rows = [[0.0, 0.0], [r12, 0.0], [x3, y3], [x4, y4]]
    cx, cy = _center_of_mass(rows, masses)
    rows = [[x - cx, y - cy] for x, y in rows]
    if not all(abs(d - a) <= EMBED_RTOL * scale
               for d, a in zip(_pair_distances(rows), values)):
        raise NonRealizableError("embedded distances do not reproduce the input")
    return PlanarConfig(positions=rows, masses=masses)


def cartesian_cc_residual(cfg: PlanarConfig, lambda_q: float | None = None,
                          fit: bool = False) -> float:
    """Worst-body residual of the defining equations
    lambda m_i q_i = sum_j m_i m_j (q_j - q_i) / r_ij^3.

    With fit=True the multiplier is chosen by least squares over all four
    bodies; otherwise lambda_q must be supplied.  Coincident bodies give an
    infinite residual.
    """
    rows, m = cfg.positions.tolist(), cfg.masses.astuple()
    force = [[0.0, 0.0] for _ in range(4)]
    for i, (xi, yi) in enumerate(rows):
        for j, (xj, yj) in enumerate(rows):
            if i == j:
                continue
            dx, dy = xj - xi, yj - yi
            d = math.hypot(dx, dy)
            d3 = d * d * d
            if d3 == 0.0:
                return math.inf
            c = m[i] * m[j] / d3
            force[i][0] += c * dx
            force[i][1] += c * dy
    target = [(mi * x, mi * y) for mi, (x, y) in zip(m, rows)]
    if fit:
        denom = sum(tx * tx + ty * ty for tx, ty in target)
        if denom == 0.0:
            raise ValueError("all bodies at the origin; multiplier is undefined")
        lambda_q = sum(fx * tx + fy * ty for (fx, fy), (tx, ty) in zip(force, target)) / denom
    elif lambda_q is None:
        raise ValueError("lambda_q is required unless fit=True")
    res = [math.hypot(fx - lambda_q * tx, fy - lambda_q * ty)
           for (fx, fy), (tx, ty) in zip(force, target)]
    return math.nan if any(math.isnan(x) for x in res) else max(res)


def embed_planar_lsq(r, m) -> PlanarConfig:
    """Best planar embedding of an arbitrary distance vector by classical
    multidimensional scaling (rank-2 projection of the Gram matrix).

    For non-realizable vectors the embedded distances differ from the input;
    this is the converse route used to show that rejected minimizers are
    genuinely far from any planar configuration."""
    D2 = np.zeros((4, 4))
    for (i, j), d in zip(_PAIR_INDEX, _r6(r)):
        D2[i, j] = D2[j, i] = d * d
    J = np.eye(4) - 0.25
    G = -0.5 * J @ D2 @ J
    vals, vecs = np.linalg.eigh(G)
    top = np.argsort(vals)[-2:]
    pos = vecs[:, top] * np.sqrt(np.maximum(vals[top], 0.0))
    masses = _m(m)
    pos -= masses.array @ pos / masses.M
    return PlanarConfig(positions=pos, masses=masses)


# --- finite differences ----------------------------------------------------

def _steps(r_arr: np.ndarray, h) -> np.ndarray:
    if h is None:
        return 1e-5 * np.maximum(1.0, r_arr)
    return np.broadcast_to(np.asarray(h, dtype=float), r_arr.shape)


def fd_gradient(f, r, h=None) -> np.ndarray:
    """Central-difference gradient of a scalar field on distance vectors.

    r is one vector (6,) or a stack (n, 6).  For a stack, f must map an
    (n, 6) array to its n values, and row i of the result is the gradient
    at row i, equal to the gradient of a one-vector call."""
    r_arr = np.transpose(_cols(r))
    hs = _steps(r_arr, h)
    out = np.zeros(r_arr.shape)
    for k in range(6):
        up, dn = r_arr.copy(), r_arr.copy()
        up[..., k] += hs[..., k]
        dn[..., k] -= hs[..., k]
        out[..., k] = (f(up) - f(dn)) / (2.0 * hs[..., k])
    return out


def fd_hessian(f, r, h=None) -> np.ndarray:
    """Central-difference Hessian of a scalar field on distance vectors.

    The default step (1e-5 per unit length) is tuned for gradients; second
    differences divide by h^2, so a coarser step around 1e-4 gives the
    better truncation/roundoff balance here.
    """
    r_arr = np.array(_r6(r))
    hs = _steps(r_arr, h)
    H = np.zeros((6, 6))
    f0 = f(r_arr.copy())
    for k in range(6):
        up, dn = r_arr.copy(), r_arr.copy()
        up[k] += hs[k]
        dn[k] -= hs[k]
        H[k, k] = (f(up) + f(dn) - 2.0 * f0) / hs[k] ** 2
    for k in range(6):
        for l in range(k + 1, 6):
            pp, pm, mp, mm = (r_arr.copy() for _ in range(4))
            pp[k] += hs[k]; pp[l] += hs[l]
            pm[k] += hs[k]; pm[l] -= hs[l]
            mp[k] -= hs[k]; mp[l] += hs[l]
            mm[k] -= hs[k]; mm[l] -= hs[l]
            H[k, l] = H[l, k] = (f(pp) - f(pm) - f(mp) + f(mm)) / (4.0 * hs[k] * hs[l])
    return H


# --- randomized shapes and uniqueness sweeps --------------------------------

SHAPE_MIN_GAP = 0.15          # default angular gap of sample_cyclic_shapes
SHAPE_RADIUS_RANGE = (0.5, 2.0)


def _cyclic_draws(n: int, seed: int, min_gap: float = SHAPE_MIN_GAP,
                  radius_range=SHAPE_RADIUS_RANGE):
    """Angles and radius of n random cyclic shapes, as Python floats, in
    the order the generator draws them.  The gaps are Dirichlet(1, 1, 1, 1)
    draws made as numpy's Dirichlet makes them for unit weights: four
    standard exponentials, each multiplied by one over their sum taken
    left to right."""
    rng = np.random.default_rng(seed)
    span = 2.0 * math.pi - 4.0 * min_gap
    for _ in range(n):
        e1, e2, e3, e4 = rng.standard_exponential(4).tolist()
        inv = 1.0 / (e1 + e2 + e3 + e4)
        g1, g2, g3 = (min_gap + e1 * inv * span, min_gap + e2 * inv * span,
                      min_gap + e3 * inv * span)
        yield (0.0, g1, g1 + g2, g1 + g2 + g3), float(rng.uniform(*radius_range))


def sample_cyclic_shapes(n: int, seed: int, min_gap: float = SHAPE_MIN_GAP,
                         radius_range=SHAPE_RADIUS_RANGE) -> list:
    """Deterministic batch of random cyclic shapes with a minimum angular
    separation, keeping all chords well away from zero."""
    return [CyclicShape(theta=theta, radius=radius)
            for theta, radius in _cyclic_draws(n, seed, min_gap, radius_range)]


@dataclass(frozen=True)
class UniquenessReport:
    """Endpoint clustering of independent multistart solves for one mass
    vector; more than one cluster contradicts uniqueness of the minimizer."""

    n_starts: int
    seed: int
    cluster_count: int
    clusters: tuple      # (representative r tuple, member count, U value)
    failures: tuple      # indices of starts that did not converge
    theorem_violated: bool

    def to_json_dict(self) -> dict:
        return {"n_starts": self.n_starts, "seed": self.seed,
                "cluster_count": self.cluster_count,
                "clusters": [{"r": list(rep), "count": count, "U": U}
                             for rep, count, U in self.clusters],
                "failures": list(self.failures),
                "theorem_violated": self.theorem_violated}

    def to_json(self) -> str:
        return serialize.dumps(self.to_json_dict())


def multistart_uniqueness(m, n_starts: int = 50, seed: int = 0) -> UniquenessReport:
    """Solve from n_starts seeded interior starts and report the clusters
    of the accepted endpoints, by the same acceptance and cluster rules as
    minimize_U.  Each cluster carries U at its first member's own r*.
    Raises ValueError for n_starts < 1, which would report no cluster."""
    if n_starts < 1:
        raise ValueError("need at least one start")
    masses = _m(m)
    (_, _, z, _, _, rows), = _multistart_blocks(
        [masses], [seeded_start(seed, i) for i in range(n_starts)], SolverOptions().gtol)
    row, = rows
    clusters = []
    for rep, members in row.clusters:
        first = z[:, members[0]].tolist()
        r = p_to_r(vw_to_p_floats(first[:3], first[3:]), masses)
        clusters.append((rep, len(members), potential_U(r, masses)))
    accepted = {j for _, members in row.clusters for j in members}
    return UniquenessReport(
        n_starts=n_starts, seed=seed, cluster_count=len(clusters), clusters=tuple(clusters),
        failures=tuple(j for j in range(n_starts) if j not in accepted),
        theorem_violated=len(clusters) > 1)


# --- identity battery -------------------------------------------------------

@dataclass(frozen=True)
class IdentityRow:
    name: str
    samples: int
    max_residual: float
    threshold: float

    def __post_init__(self):
        object.__setattr__(self, "max_residual", float(self.max_residual))

    @property
    def passed(self) -> bool:
        return self.max_residual <= self.threshold


BATTERY_CHUNK = 4096     # samples evaluated as one stack, bounding memory


def _chunks(n: int) -> list:
    """Sizes of the consecutive stacks that n samples are evaluated in."""
    return [min(BATTERY_CHUNK, n - start) for start in range(0, n, BATTERY_CHUNK)]


def _pow_each(x: np.ndarray, e: int) -> np.ndarray:
    """x ** e through the C library's pow, one value at a time, as a scalar
    float computes it; numpy's vectorized power may round the last bit
    differently, and even x * x differs from pow(x, 2) on rare inputs."""
    return np.array([v ** e for v in x.tolist()])


def _worst(maxima: list) -> float:
    """Largest of the per-stack maxima.  np.max propagates NaN where max()
    would drop it, so a sample that evaluates to NaN fails its row."""
    return float(np.max(maxima))


def run_identity_battery(samples: int, seed: int) -> list:
    """The randomized identity suite behind `ccc4 identities` and the
    acceptance criteria: the determinant factorization, the cyclic
    vanishing of K and H, gradient parallelism, the circumradius relation,
    and the homogeneity table.

    Each identity is evaluated on stacks of at most BATTERY_CHUNK samples,
    drawn from the generator in the order of one sample at a time, so each
    residual has the bits of its one-sample evaluation."""
    rng = np.random.default_rng(seed)

    # determinant factorization H/2 = P Q - K^2 against the raw determinant
    pech = []
    for n in _chunks(samples):
        arr = rng.uniform(0.05, 10.0, (n, 6))
        res = np.abs(0.5 * cayley_menger_H(arr)
                     - (ptolemy_P(arr) * Q_term(arr) - _pow_each(K_term(arr), 2)))
        pech.append(np.max(res / _pow_each(1.0 + arr.max(axis=1), 8)))
    rows = [IdentityRow("pech_identity", samples, _worst(pech), 1e-9)]

    sq = np.array([1.0, math.sqrt(2.0), 1.0, 1.0, math.sqrt(2.0), 1.0])
    ones = np.ones(6)
    rows.append(IdentityRow("pech_anchor_points", 2,
                            max(abs(Q_term(sq) - 8.0), abs(Q_term(ones) - 2.0)),
                            1e-12))

    # the chords of the shapes sample_cyclic_shapes(n_shapes, seed + 1)
    # draws; circumradius can raise for one shape, so it runs per shape,
    # and the invariants run on the stack of the chunk
    n_shapes = max(100, samples // 10)
    chords = [_chords(theta, radius)
              for theta, radius in _cyclic_draws(n_shapes, seed + 1)]
    worst_k, worst_h, worst_grad, worst_rc = [], [], [], []
    for start in range(0, n_shapes, BATTERY_CHUNK):
        chunk = chords[start:start + BATTERY_CHUNK]
        arr = np.array(chunk)
        rc = np.array([circumradius(row) for row in chunk])
        worst_k.append(np.max(np.abs(K_term(arr))))
        worst_h.append(np.max(np.abs(cayley_menger_H(arr))))
        q2 = 2.0 * Q_term(arr)
        q2_grad_p = q2[:, None] * (arr[:, OPPOSITE_SLOT] * PAIR_SIGN)
        fd_h = fd_gradient(cayley_menger_H, arr)
        worst_grad.append(np.max(np.abs(fd_h - q2_grad_p) / np.abs(q2_grad_p)))
        worst_rc.append(np.max(np.abs(q2 - 4.0 / _pow_each(rc, 2) * np.prod(arr, axis=1))
                               / np.abs(q2)))
    rows.append(IdentityRow("cyclic_K_vanishes", n_shapes, _worst(worst_k), 1e-10))
    rows.append(IdentityRow("cyclic_H_vanishes", n_shapes, _worst(worst_h), 1e-9))
    rows.append(IdentityRow("gradient_parallelism", n_shapes, _worst(worst_grad), 1e-6))
    rows.append(IdentityRow("circumradius_relation", n_shapes, _worst(worst_rc), 1e-9))

    # homogeneity degrees: U -1, I 2, P 2, K 3, Q 4, H 6 (the bordered
    # determinant is 288 V^2 and the volume scales as k^3, consistent with
    # deg P + deg Q = 2 deg K = 6 in the factorization).  Residuals are
    # normalized by the positive monomial sum of each function (P, K, Q can
    # cancel catastrophically, so relative-to-value is meaningless there).
    # One sample draws 6 distances, 4 masses and k in turn; a row of 11
    # uniforms scaled column by column is the same stream.
    n_hom = max(100, samples // 10)
    hom = []
    for n in _chunks(n_hom):
        x = rng.random((n, 11))
        arr = 0.2 + (3.0 - 0.2) * x[:, :6]
        masses = 0.2 + (5.0 - 0.2) * x[:, 6:10]
        k = 0.1 + (10.0 - 0.1) * x[:, 10]
        k2, k3, k4, k6 = (_pow_each(k, e) for e in (2, 3, 4, 6))
        scaled = k[:, None] * arr
        r12, r13, r14, r23, r24, r34 = arr.T
        scale_p = r12 * r34 + r14 * r23 + r13 * r24
        scale_k = (r12 * r13 * r23 + r12 * r14 * r24
                   + r13 * r14 * r34 + r23 * r24 * r34)
        scale_q = 6.0 * _pow_each(arr.max(axis=1), 4)
        u_want = potential_U(arr, masses) / k
        i_want = moment_I(arr, masses) * k2
        checks = [
            (potential_U(scaled, masses), u_want, u_want),
            (moment_I(scaled, masses), i_want, i_want),
            (ptolemy_P(scaled), ptolemy_P(arr) * k2, scale_p * k2),
            (K_term(scaled), K_term(arr) * k3, scale_k * k3),
            (Q_term(scaled), Q_term(arr) * k4, scale_q * k4),
        ]
        for got, want, scale in checks:
            hom.append(np.max(np.abs(got - want) / (1e-12 * np.abs(scale))))
        res_h = np.abs(cayley_menger_H(scaled) - cayley_menger_H(arr) * k6)
        hom.append(np.max(res_h / (1e-9 * _pow_each(1.0 + scaled.max(axis=1), 8))))
    rows.append(IdentityRow("homogeneity_degrees", n_hom, _worst(hom), 1.0))
    return rows
