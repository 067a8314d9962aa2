"""The paper's robotic-arm object-tracking model (Section VII-A, Table II).

State ``x_k = (theta_0..theta_{K-1}, x, y, v_x, v_y)``: K joint angles
(``theta_0`` is the base rotation), the tracked object's position on the
fixed z=0 plane and its velocity. Dynamics: single-integrator joints driven
by a known control ``u``, double-integrator object. Measurements: one noisy
angle sensor per joint plus the camera at the end-effector observing the
object in its own moving frame — the highly non-linear part.

``state_dim = n_joints + 4`` (Table II: 5 joints -> dimension 9), and scaling
``n_joints`` scales the estimation problem, which is how the paper grows
state dimensionality in Fig. 4c.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.models.base import GroundTruth, StateSpaceModel
from repro.models.kinematics import camera_projection, camera_yz, joint_major
from repro.prng.streams import FilterRNG
from repro.utils.validation import check_positive_int


@dataclass(frozen=True)
class RobotArmParams:
    """Model parameters with the defaults of Table II."""

    n_joints: int = 5
    arm_length: float = 1.0  # meters, split equally over the links
    h_s: float = 0.1  # sampling time [s]
    sigma_theta: float = 0.1  # process noise on each joint angle [rad]
    sigma_xy: float = 0.1  # process noise on object position [m]
    sigma_v: float = 0.1  # process noise on object velocity [m/s]
    sigma_theta_meas: float = 0.1  # angle sensor noise [rad]
    sigma_camera: float = 0.1  # camera observation noise [m]
    control_amplitude: float = 0.2  # sinusoidal joint sweep [rad/s]
    control_period: float = 8.0  # sweep period [s]
    init_object: tuple[float, float] = (0.5, 0.0)
    init_spread_theta: float = 0.3  # prior spread over joint angles [rad]
    init_spread_xy: float = 0.3  # prior spread over object position [m]
    init_spread_v: float = 0.2  # prior spread over object velocity [m/s]
    #: camera field of view: maximum off-axis distance [m] at which the
    #: object is still detected. None = unlimited (the paper's setting).
    #: With a finite FOV, out-of-view measurements are censored (NaN) and
    #: the likelihood treats "no detection" as evidence.
    camera_fov: float | None = None
    #: probability a particle predicting the object in view would still see
    #: no detection (false negative floor for the censored likelihood).
    miss_probability: float = 1e-3

    def __post_init__(self):
        check_positive_int(self.n_joints, "n_joints")
        for name in ("arm_length", "h_s", "sigma_theta", "sigma_xy", "sigma_v", "sigma_theta_meas", "sigma_camera"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.camera_fov is not None and self.camera_fov <= 0:
            raise ValueError("camera_fov must be positive (or None for unlimited)")
        if not 0.0 < self.miss_probability < 1.0:
            raise ValueError("miss_probability must be in (0, 1)")


class RobotArmModel(StateSpaceModel):
    """N-joint arm + camera tracking model."""

    def __init__(self, params: RobotArmParams | None = None):
        p = self.params = params or RobotArmParams()
        K = self.n_joints = p.n_joints
        self.state_dim = K + 4
        self.measurement_dim = K + 2  # K angle sensors + 2 camera coordinates
        self.control_dim = K
        self.link_lengths = np.full(K, p.arm_length / K)
        self.process_sigma = np.repeat([p.sigma_theta, p.sigma_xy, p.sigma_v], [K, 2, 2])
        #: ``process_sigma`` per state dtype, tiled over the most particles a
        #: transition has drawn; its leading ``n * state_dim`` values scale
        #: ``n`` flat particles in one contiguous multiply.
        self._sigma_tiles: dict[np.dtype, np.ndarray] = {}

    # -- state layout helpers -------------------------------------------------
    def angles(self, states: np.ndarray) -> np.ndarray:
        return states[..., : self.n_joints]

    def object_position(self, states: np.ndarray) -> np.ndarray:
        return states[..., self.n_joints : self.n_joints + 2]

    def object_velocity(self, states: np.ndarray) -> np.ndarray:
        return states[..., self.n_joints + 2 : self.n_joints + 4]

    # -- known control input ----------------------------------------------------
    def control_at(self, k: int) -> np.ndarray:
        """Deterministic sinusoidal joint sweep with per-joint phase; the
        control is a *known* input, so the filters receive the same u_k."""
        p = self.params
        phases = np.linspace(0.0, np.pi, self.n_joints, endpoint=False)
        return p.control_amplitude * np.sin(2 * np.pi * p.h_s * k / p.control_period + phases)

    # -- filtering interface -------------------------------------------------
    def initial_particles(self, n: int, rng: FilterRNG, dtype=np.float64) -> np.ndarray:
        p = self.params
        mean = self.initial_mean()
        spread = np.repeat([p.init_spread_theta, p.init_spread_xy, p.init_spread_v], [self.n_joints, 2, 2])
        noise = rng.normal((n, self.state_dim), dtype=np.float64)
        return (mean[None, :] + spread[None, :] * noise).astype(dtype, copy=False)

    def initial_mean(self) -> np.ndarray:
        mean = np.zeros(self.state_dim)
        mean[self.n_joints : self.n_joints + 2] = self.params.init_object
        return mean

    def transition(self, states: np.ndarray, control: np.ndarray | None, k: int, rng: FilterRNG) -> np.ndarray:
        h, K, d = self.params.h_s, self.n_joints, self.state_dim
        states = np.asarray(states)
        dtype = states.dtype
        # Noise, control and velocity terms all run at the state dtype: a
        # float32 population draws float32 normals and never passes through
        # float64. The control and velocity terms are added one column at a
        # time, as long 1-D strided passes over the flat array: NumPy runs a
        # short inner dimension such as ``out[..., :K]`` slowly. Each column
        # add is bit-identical to ``out[..., :K] += hu`` and
        # ``out[..., K:K+2] += h * states[..., K+2:K+4]``
        # (tests/models/test_robot_arm.py).
        out = rng.normal(states.shape, dtype=dtype)
        flat = out.reshape(-1)
        flat *= self._sigma_tile(dtype, flat.size)
        out += states
        if control is not None:
            hu = (h * np.asarray(control)).astype(dtype, copy=False)
            if hu.shape == (K,):
                for j in range(K):
                    col = flat[j::d]
                    col += hu[j]
            else:
                out[..., :K] += hu
        src = states.reshape(-1)
        for j in (K, K + 1):
            col = flat[j::d]
            col += h * src[j + 2 :: d]
        return out

    def _sigma_tile(self, dtype: np.dtype, size: int) -> np.ndarray:
        tile = self._sigma_tiles.get(dtype)
        if tile is None or tile.size < size:
            tile = np.tile(self.process_sigma.astype(dtype), size // self.state_dim)
            self._sigma_tiles[dtype] = tile
        return tile[:size]

    def measurement_mean(self, states: np.ndarray) -> np.ndarray:
        """Noise-free measurement ``(theta_hat..., x_C, y_C)`` per particle."""
        states = np.asarray(states)
        cam = camera_projection(self.angles(states), self.link_lengths, self.object_position(states))
        return np.concatenate([self.angles(states), cam], axis=-1)

    def log_likelihood(self, states: np.ndarray, measurement: np.ndarray, k: int) -> np.ndarray:
        p, K = self.params, self.n_joints
        states = np.asarray(states)
        # Residuals and link sums run at the state dtype; the log-likelihood
        # is widened to float64 where each squared-residual sum is scaled.
        dtype = states.dtype if states.dtype.kind == "f" else np.dtype(np.float64)
        z = np.asarray(measurement, dtype=np.float64)
        zs = z.astype(dtype, copy=False)
        theta = joint_major(self.angles(states))
        dth = theta - zs[:K].reshape((K,) + (1,) * (theta.ndim - 1))
        ll = np.multiply(np.sum(dth * dth, axis=0), -0.5 / p.sigma_theta_meas**2, dtype=np.float64)
        y, zc = camera_yz(theta, self.link_lengths, states[..., K], states[..., K + 1])
        if p.camera_fov is not None and np.isnan(z[K:]).any():
            # Censored camera: "no detection" is itself evidence. Particles
            # that also predict the object out of view are consistent;
            # particles predicting it in view should (almost) have seen it.
            predicted_off = np.hypot(y, zc) > p.camera_fov
            return ll + np.where(predicted_off, 0.0, np.log(p.miss_probability))
        dy, dz = y - zs[K], zc - zs[K + 1]
        ll -= np.multiply(dy * dy + dz * dz, 0.5 / p.sigma_camera**2, dtype=np.float64)
        return ll

    # -- simulation interface -----------------------------------------------
    def initial_state(self, rng: FilterRNG) -> np.ndarray:
        return self.initial_mean()

    def observe(self, state: np.ndarray, k: int, rng: FilterRNG) -> np.ndarray:
        p = self.params
        z = self.measurement_mean(state)
        noise = rng.normal(z.shape, dtype=np.float64)
        sigma = np.concatenate([np.full(self.n_joints, p.sigma_theta_meas), np.full(2, p.sigma_camera)])
        out = z + sigma * noise
        if p.camera_fov is not None:  # object out of view: no camera detection
            off = np.linalg.norm(z[..., -2:], axis=-1, keepdims=True) > p.camera_fov
            out[..., -2:] = np.where(off, np.nan, out[..., -2:])
        return out

    # -- evaluation ------------------------------------------------------------
    def estimate_error(self, estimate: np.ndarray, truth: np.ndarray) -> float:
        """Object-position error [m] — the quantity the paper's accuracy
        figures (6, 7, 9) report."""
        return float(np.linalg.norm(self.object_position(np.asarray(estimate)) - self.object_position(np.asarray(truth))))


def simulate_arm_tracking(
    model: RobotArmModel,
    positions: np.ndarray,
    velocities: np.ndarray,
    rng: FilterRNG,
) -> GroundTruth:
    """Ground truth where the *object* follows a prescribed path exactly.

    The arm's joints evolve under the model dynamics (known control + process
    noise); the object's position/velocity are overridden with the given
    trajectory, as in the paper's lemniscate experiment. The filter still
    assumes the double-integrator object model, so there is realistic model
    mismatch.
    """
    positions = np.asarray(positions, dtype=np.float64)
    velocities = np.asarray(velocities, dtype=np.float64)
    if positions.shape != velocities.shape or positions.ndim != 2 or positions.shape[1] != 2:
        raise ValueError("positions and velocities must both be (T, 2)")
    T = positions.shape[0]
    K = model.n_joints
    x = model.initial_mean()
    states = np.empty((T, model.state_dim))
    meas = np.empty((T, model.measurement_dim))
    controls = np.empty((T, K))
    for k in range(T):
        u = model.control_at(k)
        controls[k] = u
        x = model.transition(x, u, k, rng)
        x[K : K + 2] = positions[k]
        x[K + 2 : K + 4] = velocities[k]
        states[k] = x
        meas[k] = model.observe(x, k, rng)
    return GroundTruth(states=states, measurements=meas, controls=controls)
