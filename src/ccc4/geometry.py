"""Scalar invariants of four-body mutual-distance vectors.

A distance vector r = (r12, r13, r14, r23, r24, r34) uses the sequential
labeling convention: bodies are numbered consecutively around the
quadrilateral, so r13 and r24 are the diagonals.  That convention is a
documented contract of every function here; relabeling is the caller's job.

All functions are pure and safe to call concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Pair (i, j) behind each slot of a distance vector.
DISTANCE_PAIRS = ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4))

# Slot of the opposite pair: (12)<->(34), (13)<->(24), (14)<->(23).
OPPOSITE_SLOT = (5, 4, 3, 2, 1, 0)

# Sign with which each pair enters the cyclic-quadrilateral relation
# P = r12 r34 + r14 r23 - r13 r24 (diagonal products carry the minus).
PAIR_SIGN = (1.0, -1.0, 1.0, 1.0, -1.0, 1.0)


@dataclass(frozen=True)
class DistanceVector:
    """Six mutual distances in sequential labeling (r13, r24 diagonals)."""

    r12: float
    r13: float
    r14: float
    r23: float
    r24: float
    r34: float

    def __post_init__(self):
        for name, value in zip(self.__dataclass_fields__, self.astuple()):
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError(f"distance {name} must be positive and finite, got {value}")

    @classmethod
    def from_iterable(cls, values) -> "DistanceVector":
        vals = [float(x) for x in values]
        if len(vals) != 6:
            raise ValueError(f"expected 6 distances, got {len(vals)}")
        return cls(*vals)

    def astuple(self):
        return (self.r12, self.r13, self.r14, self.r23, self.r24, self.r34)

    @property
    def array(self) -> np.ndarray:
        return np.array(self.astuple(), dtype=float)

    def scaled(self, k: float) -> "DistanceVector":
        return DistanceVector(*(k * x for x in self.astuple()))


@dataclass(frozen=True)
class MassVector:
    """Four positive masses; the total mass M is derived."""

    m1: float
    m2: float
    m3: float
    m4: float

    def __post_init__(self):
        for name, value in zip(self.__dataclass_fields__, self.astuple()):
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError(f"mass {name} must be positive and finite, got {value}")

    @classmethod
    def from_iterable(cls, values) -> "MassVector":
        vals = [float(x) for x in values]
        if len(vals) != 4:
            raise ValueError(f"expected 4 masses, got {len(vals)}")
        return cls(*vals)

    def astuple(self):
        return (self.m1, self.m2, self.m3, self.m4)

    @property
    def array(self) -> np.ndarray:
        return np.array(self.astuple(), dtype=float)

    @property
    def M(self) -> float:
        return self.m1 + self.m2 + self.m3 + self.m4

    def products(self) -> np.ndarray:
        """Pairwise products m_i m_j in distance-slot order."""
        m = self.astuple()
        return np.array([m[i - 1] * m[j - 1] for i, j in DISTANCE_PAIRS])

    def normalized(self, total: float = 4.0) -> "MassVector":
        """Rescale so the masses sum to `total` (equal masses become all 1)."""
        k = total / self.M
        return MassVector(k * self.m1, k * self.m2, k * self.m3, k * self.m4)


def _r6(r) -> np.ndarray:
    if isinstance(r, DistanceVector):
        return r.array
    arr = np.asarray(r, dtype=float)
    if arr.shape != (6,):
        raise ValueError(f"expected 6 distances, got shape {arr.shape}")
    return arr


def _m(m) -> MassVector:
    return m if isinstance(m, MassVector) else MassVector.from_iterable(m)


def potential_U(r, m) -> float:
    """Newtonian potential sum m_i m_j / r_ij (homogeneous of degree -1)."""
    return float(np.sum(_m(m).products() / _r6(r)))


def moment_I(r, m) -> float:
    """Moment of inertia (1 / 2M) sum m_i m_j r_ij^2 about the center of mass."""
    masses = _m(m)
    return float(np.sum(masses.products() * _r6(r) ** 2) / (2.0 * masses.M))


def ptolemy_P(r) -> float:
    """Cyclic-quadrilateral defect r12 r34 + r14 r23 - r13 r24.

    Zero exactly on sequentially ordered cyclic quadrilaterals; positive on
    every other convex sequential quadrilateral and on tetrahedra.
    """
    r12, r13, r14, r23, r24, r34 = _r6(r)
    return float(r12 * r34 + r14 * r23 - r13 * r24)


def cayley_menger_H(r) -> float:
    """Cayley-Menger determinant of the four points, H = 288 V^2.

    Evaluated directly as the bordered 5x5 determinant of squared distances,
    never through the Ptolemy factorization, so the two stay independent
    cross-checks of each other.
    """
    r12, r13, r14, r23, r24, r34 = _r6(r) ** 2
    mat = np.array([
        [0.0, 1.0, 1.0, 1.0, 1.0],
        [1.0, 0.0, r12, r13, r14],
        [1.0, r12, 0.0, r23, r24],
        [1.0, r13, r23, 0.0, r34],
        [1.0, r14, r24, r34, 0.0],
    ])
    return float(np.linalg.det(mat))


def K_term(r) -> float:
    """Odd cubic K = r12 r13 r23 - r12 r14 r24 + r13 r14 r34 - r23 r24 r34.

    Together with P it factors the Cayley-Menger determinant (Pech
    decomposition H/2 = P Q - K^2); on geometrically realizable vectors with
    P = 0 it must vanish, so |K| serves as the co-circularity residual.
    """
    r12, r13, r14, r23, r24, r34 = _r6(r)
    return float(r12 * r13 * r23 - r12 * r14 * r24
                 + r13 * r14 * r34 - r23 * r24 * r34)


def Q_term(r) -> float:
    """The degree-4 cofactor Q of the Pech decomposition H/2 = P Q - K^2.

    Each line groups one opposite pair with the sum of the four other
    squared distances minus its own two.  (A widely reproduced misprint
    writes the second line's r12^2 + r34^2 as a product; the sum is what
    makes the decomposition hold against the raw determinant, which the
    randomized identity suite checks.)
    """
    r12, r13, r14, r23, r24, r34 = _r6(r)
    s12, s13, s14, s23, s24, s34 = (r12 * r12, r13 * r13, r14 * r14,
                                    r23 * r23, r24 * r24, r34 * r34)
    return float(r12 * r34 * (-s12 - s34 + s23 + s14 + s13 + s24)
                 + r14 * r23 * (s12 + s34 - s23 - s14 + s13 + s24)
                 - r13 * r24 * (s12 + s34 + s23 + s14 - s13 - s24))


@dataclass(frozen=True)
class ScalarReport:
    """Values of the six scalar functions at one (r, m)."""

    U: float
    I: float
    P: float
    H: float
    K: float
    Q: float

    @classmethod
    def evaluate(cls, r, m) -> "ScalarReport":
        return cls(U=potential_U(r, m), I=moment_I(r, m), P=ptolemy_P(r),
                   H=cayley_menger_H(r), K=K_term(r), Q=Q_term(r))


def triangle_margins(r) -> np.ndarray:
    """The twelve strict triangle margins r_ij + r_jk - r_ik, one per
    ordered side of each of the four triangles."""
    arr = _r6(r)
    slot = {frozenset(p): k for k, p in enumerate(DISTANCE_PAIRS)}
    margins = []
    for tri in ((1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4)):
        a, b, c = tri
        x = arr[slot[frozenset((a, b))]]
        y = arr[slot[frozenset((b, c))]]
        z = arr[slot[frozenset((a, c))]]
        margins.extend((x + y - z, y + z - x, z + x - y))
    return np.array(margins)


def is_geometric(r, *, eps_h_coeff: float = 1e-9, eps_tri: float = 1e-12) -> bool:
    """True iff r is realizable by four points in space.

    Requires H(r) >= -eps_h_coeff * max(1, max r)^8 (degree-8 scale of the
    determinant) and all twelve triangle inequalities strict with margin
    > eps_tri.  The margins make the open conditions decidable in floats.
    """
    arr = _r6(r)
    scale = max(1.0, float(arr.max()))
    if cayley_menger_H(arr) < -eps_h_coeff * scale**8:
        return False
    return bool(np.all(triangle_margins(arr) > eps_tri))


def in_D(r, m, tol: float = 1e-8, *, eps_h_coeff: float = 1e-9,
         eps_tri: float = 1e-12) -> bool:
    """True iff r is a normalized realizable cyclic vector: |I - 1| <= tol,
    |P| <= tol, geometric realizability, and |K| <= tol.

    K = 0 stands in for the coplanarity condition H = 0; the two are
    equivalent on realizable vectors with P = 0 and K is far better
    conditioned (degree 3 versus degree 8).
    """
    arr = _r6(r)
    if abs(moment_I(arr, m) - 1.0) > tol:
        return False
    if abs(ptolemy_P(arr)) > tol:
        return False
    if abs(K_term(arr)) > tol:
        return False
    return is_geometric(arr, eps_h_coeff=eps_h_coeff, eps_tri=eps_tri)


# --- relabelings preserving the sequential convention ---------------------
#
# The dihedral group of the quadrilateral: every body permutation that keeps
# the traversal sequential (diagonals stay diagonals).  Values are the image
# bodies (pi(1), pi(2), pi(3), pi(4)).
SEQUENTIAL_RELABELINGS = {
    "identity": (1, 2, 3, 4),
    "cycle1": (2, 3, 4, 1),
    "cycle2": (3, 4, 1, 2),
    "cycle3": (4, 1, 2, 3),
    "swap12_34": (2, 1, 4, 3),
    "swap14_23": (4, 3, 2, 1),
    "transpose13": (3, 2, 1, 4),
    "transpose24": (1, 4, 3, 2),
}

# Sign picked up by K under each relabeling (P is invariant under all
# eight).  Four-cycles and the two side swaps reverse the traversal parity
# and flip K; the half turn and the diagonal transpositions preserve it.
K_RELABEL_SIGN = {
    "identity": 1, "cycle1": -1, "cycle2": 1, "cycle3": -1,
    "swap12_34": -1, "swap14_23": -1, "transpose13": 1, "transpose24": 1,
}

_SLOT_OF_PAIR = {frozenset(p): k for k, p in enumerate(DISTANCE_PAIRS)}


def distance_index_permutation(body_perm) -> tuple:
    """Slot permutation induced by a body relabeling: slot k of the output
    holds r_{pi(i) pi(j)} for (i, j) = DISTANCE_PAIRS[k]."""
    return tuple(_SLOT_OF_PAIR[frozenset((body_perm[i - 1], body_perm[j - 1]))]
                 for i, j in DISTANCE_PAIRS)


def relabel_distances(r, body_perm) -> np.ndarray:
    arr = _r6(r)
    return arr[list(distance_index_permutation(body_perm))]


# (body permutation, slot permutation) of each sequential relabeling.
_RELABEL_TABLE = tuple((perm, distance_index_permutation(perm))
                       for perm in SEQUENTIAL_RELABELINGS.values())

RELABEL_RTOL = 1e-12     # relative tolerance of "equal masses"


def _admissible_entries(m):
    # np.allclose(masses[perm], masses, rtol=RELABEL_RTOL, atol=0) per
    # entry, in plain floats: |m_pi(i) - m_i| <= rtol |m_i|.
    masses = [float(x) for x in _m(m).astuple()]
    return [(perm, slots) for perm, slots in _RELABEL_TABLE
            if all(abs(masses[j - 1] - mi) <= RELABEL_RTOL * abs(mi)
                   for j, mi in zip(perm, masses))]


def admissible_relabelings(m):
    """Sequential relabelings that fix the mass vector, as body permutations.

    Used to identify symmetric copies of one solution before clustering
    multistart endpoints: with repeated masses, relabeled minimizers are the
    same physical configuration.
    """
    return [perm for perm, _ in _admissible_entries(m)]


def canonical_distance_tuple(r, m) -> tuple:
    """Lexicographically smallest relabeled copy of r over the relabelings
    admissible for the mass vector m."""
    arr = _r6(r).tolist()
    best = tuple(arr)
    for _, slots in _admissible_entries(m):
        cand = tuple(arr[k] for k in slots)
        if cand < best:
            best = cand
    return best
