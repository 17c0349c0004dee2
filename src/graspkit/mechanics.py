"""Contact frames, Coulomb friction cones, wrench transforms and the grasp map.

Contacts are point contacts with friction. Each carries a right-handed
orthonormal frame whose Z axis is the inward surface normal; the grasp map
stacks per-contact wrench blocks [R; skew(p - origin) R] into a 6 x 3k
matrix mapping contact-frame forces to the net object wrench.

Force closure needs no frame. Every R R^T = I, so G G^T, and with it every
singular value of G, depends only on the contact positions, the origin and
the torque scale; the cone test needs only the contact line and the
normals. ``stacked_force_closure`` classifies many two-contact grasps from
positions and normals alone, and ``force_closure`` is its one-row call.
There is one closure rule, the soft-finger ("soft-pinch") reading: two hard
point contacts cannot resist a torque about the line joining them (Nguyen,
IJRR 1988), so that one structural null direction is not held against a
grasp, and every other singular value must clear the threshold.
The frame API (``build_contact_frame``, ``build_grasp_map``) stays for
callers that want G itself; ``plane_frame`` gives its X and Y axes and the
contact stage's projection basis. Each input is checked once, where it
enters: normals in ``build_contact_frame`` or ``stacked_force_closure``, a
rotation in ``ContactFrame``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import PlannerConfig


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


def _unit_normals(inward_normals) -> np.ndarray:
    """``inward_normals`` (..., 3) divided by their lengths. Raises ValueError
    unless every normal is unit length within 1e-6 (zero, NaN and inf fail)."""
    n = np.asarray(inward_normals, dtype=np.float64)
    norm = np.sqrt(np.vecdot(n, n))[..., np.newaxis]
    if not np.all(np.abs(norm - 1.0) <= 1e-6):
        raise ValueError("inward normal must be finite, nonzero and unit length")
    return n / norm


def plane_frame(normal: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The one tangent frame: unit u rejects global +X from the unit ``normal``
    (+Y where |n . x| > 0.9), and v = normal x u, so (u, v, normal) is right-handed.

    Elementwise arithmetic in one fixed order, no BLAS: n . ref of a unit
    axis is the matching component of n, |u| sums its squares x, y, z, and
    each component of v is one difference of two products, as in ``np.cross``."""
    n = np.asarray(normal, dtype=np.float64)
    ref, along = np.array([1.0, 0.0, 0.0]), n[0]
    if abs(along) > 0.9:
        ref, along = np.array([0.0, 1.0, 0.0]), n[1]
    u = ref - along * n
    u = u / math.sqrt(u[0] * u[0] + u[1] * u[1] + u[2] * u[2])
    v = np.array([n[1] * u[2] - n[2] * u[1], n[2] * u[0] - n[0] * u[2], n[0] * u[1] - n[1] * u[0]])
    return u, v


def build_contact_frame(contact, inward_normal, mu: float = PlannerConfig.mu) -> ContactFrame:
    """Frame at ``contact`` with columns ``plane_frame(n)`` and n, the inward
    normal checked and normalized by ``_unit_normals``."""
    n = _unit_normals(inward_normal)
    return ContactFrame(
        origin=np.asarray(contact, dtype=np.float64),
        rotation=np.column_stack([*plane_frame(n), n]),
        mu=mu,
    )


def in_friction_cone(f, mu: float) -> bool:
    """Coulomb cone test: tangential magnitude at most mu times normal, fz >= 0."""
    f = np.asarray(f, dtype=np.float64)
    return bool(f[2] >= 0.0 and math.hypot(f[0], f[1]) <= mu * f[2])


def build_grasp_map(contacts, object_origin) -> GraspMap:
    """Assemble the 6 x 3k grasp map, one [R; skew(p - o) R] block per contact."""
    contacts = tuple(contacts)
    if not contacts:
        raise ValueError("grasp map needs at least one contact")
    origin = np.asarray(object_origin, dtype=np.float64)
    G = np.hstack([np.vstack([c.rotation, skew(c.origin - origin) @ c.rotation]) for c in contacts])
    return GraspMap(G=G, contacts=contacts, object_origin=origin)


def stacked_force_closure(
    contacts,
    inward_normals,
    object_origin,
    mu: float,
    sigma_min_threshold: float = PlannerConfig.sigma_min_threshold,
    torque_scale: float = 1.0,
) -> tuple[np.ndarray, np.ndarray]:
    """Classify T two-contact grasps by grasp-map singular values and cone geometry.

    ``contacts`` and unit ``inward_normals`` are (T, 2, 3). Torque rows are
    divided by ``torque_scale`` (use the cloud's bounding sphere radius) so
    one threshold works across object sizes. With arms a_i = (p_i - o) /
    torque_scale, the Gram of the scaled grasp map is
    G G^T = [[2 I, -B], [B, C]], B = skew(a_1 + a_2), C = sum_i (|a_i|^2 I - a_i a_i^T),
    whatever the contact frames, and its eigenvalues are the squared
    singular values. The smallest is structurally zero for every
    two-contact grasp: an equal and opposite squeeze along the contact line
    lies in G's null space (dually, no contact force makes a torque about
    that line). A soft finger resists that torque by its contact patch, so
    the smallest is skipped and the second smallest is the one considered;
    keeping it would reject every two-contact grasp. Closure holds when the
    considered singular value exceeds the threshold AND the
    contact-to-contact line lies inside both friction cones. Returns
    (closure (T,) bool, second smallest singular value (T,)), row t equal
    to a one-row call.
    """
    if mu <= 0:
        raise ValueError(f"mu must be positive, got {mu}")
    if torque_scale <= 0:
        raise ValueError("torque_scale must be positive")
    normals = _unit_normals(inward_normals)
    contacts = np.asarray(contacts, dtype=np.float64)
    arms = (contacts - np.asarray(object_origin, dtype=np.float64)) / torque_scale
    gram = np.zeros((len(contacts), 6, 6))
    gram[:, :3, :3] = 2.0 * np.eye(3)
    gram[:, 3:, :3] = skew(arms[:, 0] + arms[:, 1])
    gram[:, :3, 3:] = -gram[:, 3:, :3]
    squared = np.einsum("tki,tki->t", arms, arms)[:, np.newaxis, np.newaxis]
    gram[:, 3:, 3:] = squared * np.eye(3) - np.einsum("tki,tkj->tij", arms, arms)
    sigma_min = np.sqrt(np.maximum(np.linalg.eigvalsh(gram)[:, 1], 0.0))  # ascending per row

    axis = contacts[:, 1] - contacts[:, 0]
    width = np.sqrt(np.vecdot(axis, axis))
    apart = width >= 1e-12
    axis = axis / np.where(apart, width, 1.0)[:, np.newaxis]
    cos_limit = math.cos(math.atan(mu))
    admissible = (np.vecdot(axis, normals[:, 0]) >= cos_limit - 1e-12) & (
        np.vecdot(-axis, normals[:, 1]) >= cos_limit - 1e-12
    )
    return apart & admissible & (sigma_min > sigma_min_threshold), sigma_min


def _closure_on_cloud(
    contacts, inward_normals, cloud, mu: float, sigma_min_threshold: float
) -> tuple[np.ndarray, np.ndarray]:
    """``stacked_force_closure`` about ``cloud``'s centroid, torque rows scaled
    by its bounding radius (at least 1e-12): the one way closure is judged on a cloud."""
    return stacked_force_closure(
        contacts, inward_normals, cloud.centroid(), mu, sigma_min_threshold,
        torque_scale=max(cloud.bounding_radius(), 1e-12),
    )


def force_closure(
    gm: GraspMap,
    mu: float,
    sigma_min_threshold: float = PlannerConfig.sigma_min_threshold,
    torque_scale: float = 1.0,
) -> tuple[bool, float]:
    """``stacked_force_closure`` of the grasp map's two contacts and origin.

    The grasp map's frames and ``G`` do not enter: its singular values
    follow from the contact positions alone. Returns (closure, smallest
    considered singular value).
    """
    if len(gm.contacts) != 2:
        raise ValueError("force_closure is defined for exactly 2 contacts")
    a, b = gm.contacts
    closure, sigma_min = stacked_force_closure(
        [[a.origin, b.origin]], [[a.inward_normal, b.inward_normal]], gm.object_origin, mu, sigma_min_threshold,
        torque_scale=torque_scale,
    )
    return bool(closure[0]), float(sigma_min[0])
