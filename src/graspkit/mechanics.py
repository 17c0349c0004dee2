"""Contact frames, Coulomb friction cones, wrench transforms and the grasp map.

Contacts are point contacts with friction. Each carries a right-handed
orthonormal frame whose Z axis is the inward surface normal; the grasp map
stacks per-contact wrench blocks [R; skew(p - origin) R] into a 6 x 3k
matrix mapping contact-frame forces to the net object wrench.

``stacked_rotations``, ``stacked_grasp_maps`` and ``stacked_force_closure``
build many frames, maps and closure tests at once; the one-grasp functions
are one-row calls of them, so both round identically. Each input is checked
once, where it enters: normals in ``stacked_rotations``, a rotation in
``ContactFrame``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ContactFrame:
    origin: np.ndarray
    rotation: np.ndarray  # columns are the contact X, Y, Z axes; Z = inward normal
    mu: float

    def __post_init__(self):
        if self.mu <= 0:
            raise ValueError(f"mu must be positive, got {self.mu}")
        R = np.asarray(self.rotation, dtype=np.float64)
        if not np.allclose(R.T @ R, np.eye(3), atol=1e-9) or abs(np.linalg.det(R) - 1.0) > 1e-9:
            raise ValueError("rotation must be orthonormal with determinant +1")

    @property
    def inward_normal(self) -> np.ndarray:
        return self.rotation[:, 2]


@dataclass(frozen=True)
class GraspMap:
    """6 x 3k map from stacked contact-frame forces to the object wrench."""

    G: np.ndarray
    contacts: tuple[ContactFrame, ...]
    object_origin: np.ndarray


def skew(p: np.ndarray) -> np.ndarray:
    """Cross-product matrices: skew(p) @ v == p x v, for p of shape (..., 3)."""
    p = np.asarray(p, dtype=np.float64)
    S = np.zeros(p.shape + (3,))
    S[..., 0, 1], S[..., 0, 2] = -p[..., 2], p[..., 1]
    S[..., 1, 0], S[..., 1, 2] = p[..., 2], -p[..., 0]
    S[..., 2, 0], S[..., 2, 1] = -p[..., 1], p[..., 0]
    return S


def stacked_rotations(inward_normals) -> np.ndarray:
    """(..., 3, 3) contact rotations, one per row of ``inward_normals`` (..., 3).

    Column Z is the normalized inward normal. Column X is the normalized
    rejection of global +X from the normal, falling back to +Y when the
    normal is nearly parallel to X (|n . x| > 0.9); Y = Z x X completes the
    right-handed set. Raises ValueError unless every normal is unit length
    within 1e-6 (zero, NaN and inf fail); from such normals the result is a
    proper rotation to about 1e-15, so it is not re-checked. Each row rounds
    exactly like a one-row call, so stacking never changes a bit.
    """
    n = np.asarray(inward_normals, dtype=np.float64)
    norm = np.sqrt(np.vecdot(n, n))[..., np.newaxis]
    if not np.all(np.abs(norm - 1.0) <= 1e-6):
        raise ValueError("inward normal must be finite, nonzero and unit length")
    n = n / norm
    ref = np.where(np.abs(n[..., :1]) > 0.9, (0.0, 1.0, 0.0), (1.0, 0.0, 0.0))
    x = ref - np.vecdot(ref, n)[..., np.newaxis] * n
    x = x / np.sqrt(np.vecdot(x, x))[..., np.newaxis]
    return np.stack([x, np.cross(n, x), n], axis=-1)


def build_contact_frame(contact, inward_normal, mu: float = 0.5) -> ContactFrame:
    """Frame at ``contact`` with Z along the inward normal (see ``stacked_rotations``)."""
    return ContactFrame(
        origin=np.asarray(contact, dtype=np.float64),
        rotation=stacked_rotations(inward_normal),
        mu=mu,
    )


def in_friction_cone(f, mu: float) -> bool:
    """Coulomb cone test: tangential magnitude at most mu times normal, fz >= 0."""
    f = np.asarray(f, dtype=np.float64)
    return bool(f[2] >= 0.0 and math.hypot(f[0], f[1]) <= mu * f[2])


def stacked_grasp_maps(contacts, rotations, object_origin) -> np.ndarray:
    """(T, 6, 3k) grasp maps from contact points (T, k, 3) and rotations (T, k, 3, 3).

    Contact c fills columns 3c..3c+2 with the block [R; skew(p - o) R], the
    same products a one-map ``build_grasp_map`` call computes.
    """
    contacts = np.asarray(contacts, dtype=np.float64)
    rotations = np.asarray(rotations, dtype=np.float64)
    arm = contacts - np.asarray(object_origin, dtype=np.float64)
    blocks = np.concatenate([rotations, skew(arm) @ rotations], axis=-2)  # (T, k, 6, 3)
    T, k = contacts.shape[:2]
    return blocks.transpose(0, 2, 1, 3).reshape(T, 6, 3 * k)


def build_grasp_map(contacts, object_origin) -> GraspMap:
    """Assemble the 6 x 3k grasp map, one [R; skew(p - o) R] block per contact."""
    contacts = tuple(contacts)
    if not contacts:
        raise ValueError("grasp map needs at least one contact")
    origin = np.asarray(object_origin, dtype=np.float64)
    G = stacked_grasp_maps(
        [[frame.origin for frame in contacts]], [[frame.rotation for frame in contacts]], origin
    )[0]
    return GraspMap(G=G, contacts=contacts, object_origin=origin)


def stacked_force_closure(
    G,
    contacts,
    inward_normals,
    mu: float,
    sigma_min_threshold: float = 0.01,
    mode: str = "soft-pinch",
    torque_scale: float = 1.0,
) -> tuple[np.ndarray, np.ndarray]:
    """``force_closure`` of T two-contact grasps at once.

    ``G`` is (T, 6, 6), ``contacts`` and unit ``inward_normals`` are
    (T, 2, 3). One stacked SVD gives every grasp's singular values; the
    cone test runs on all rows. Returns (closure (T,) bool, sigma_min (T,)),
    row t equal to a one-grasp call.
    """
    if mu <= 0:
        raise ValueError(f"mu must be positive, got {mu}")
    if mode not in ("soft-pinch", "strict"):
        raise ValueError(f"unknown closure mode {mode!r}")
    if torque_scale <= 0:
        raise ValueError("torque_scale must be positive")
    scaled = np.array(G, dtype=np.float64)
    scaled[:, 3:, :] /= torque_scale
    singular = np.linalg.svd(scaled, compute_uv=False)  # descending per row
    considered = singular[:, :5] if mode == "soft-pinch" else singular
    sigma_min = considered[:, -1]

    contacts = np.asarray(contacts, dtype=np.float64)
    normals = np.asarray(inward_normals, dtype=np.float64)
    axis = contacts[:, 1] - contacts[:, 0]
    width = np.sqrt(np.vecdot(axis, axis))
    apart = width >= 1e-12
    axis = axis / np.where(apart, width, 1.0)[:, np.newaxis]
    cos_limit = math.cos(math.atan(mu))
    admissible = (np.vecdot(axis, normals[:, 0]) >= cos_limit - 1e-12) & (
        np.vecdot(-axis, normals[:, 1]) >= cos_limit - 1e-12
    )
    closure = apart & admissible & np.all(considered > sigma_min_threshold, axis=1)
    return closure, sigma_min


def force_closure(
    gm: GraspMap,
    mu: float,
    sigma_min_threshold: float = 0.01,
    mode: str = "soft-pinch",
    torque_scale: float = 1.0,
) -> tuple[bool, float]:
    """Classify a two-contact grasp by grasp-map singular values and cone geometry.

    Torque rows are divided by ``torque_scale`` (use the cloud's bounding
    sphere radius) so one threshold works across object sizes. Closure holds
    when the considered singular values all exceed the threshold AND the
    contact-to-contact line lies inside both friction cones. ``mode``
    "soft-pinch" ignores the smallest of the six singular values, which is
    structurally zero for every two-contact grasp: an equal and opposite
    squeeze along the contact line lies in G's null space (dually, no
    contact force makes a torque about that line). "strict" keeps all six,
    so it rejects every two-contact grasp. Returns (closure, smallest
    considered singular value).
    """
    if len(gm.contacts) != 2:
        raise ValueError("force_closure is defined for exactly 2 contacts")
    a, b = gm.contacts
    closure, sigma_min = stacked_force_closure(
        gm.G[np.newaxis],
        [[a.origin, b.origin]],
        [[a.inward_normal, b.inward_normal]],
        mu,
        sigma_min_threshold,
        mode=mode,
        torque_scale=torque_scale,
    )
    return bool(closure[0]), float(sigma_min[0])
