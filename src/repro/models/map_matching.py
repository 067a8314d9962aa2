"""Vehicle localization with map matching (related work [2]).

Park & Tosun's CPU/GPU particle-filter study — the closest prior work the
paper compares against — filters a vehicle's position from noisy GPS while
*matching* it to a road map. The standard formulation used here treats the
map as a prior: the likelihood combines the GPS innovation with a soft
penalty on the particle's distance to the nearest road segment, so particles
off the road network die out. The posterior is multi-modal whenever the GPS
uncertainty covers several roads — the non-Gaussian structure that makes
this a particle-filter problem.

The road network is a ``networkx`` graph whose nodes carry ``pos=(x, y)``
coordinates; edges are straight road segments.
"""

from __future__ import annotations

import numpy as np
import networkx as nx

from repro.models.base import GroundTruth, StateSpaceModel
from repro.prng.streams import FilterRNG
from repro.utils.validation import check_positive_int


def grid_road_network(n: int = 4, spacing: float = 100.0) -> nx.Graph:
    """An n x n Manhattan grid of roads with *spacing*-metre blocks."""
    check_positive_int(n, "n")
    g = nx.grid_2d_graph(n, n)
    g = nx.convert_node_labels_to_integers(g, label_attribute="grid")
    for node, data in g.nodes(data=True):
        i, j = data["grid"]
        data["pos"] = (i * spacing, j * spacing)
    return g


def random_route(graph: nx.Graph, n_hops: int, seed: int = 0) -> list[int]:
    """A non-backtracking random walk over the road graph."""
    check_positive_int(n_hops, "n_hops")
    rng = np.random.default_rng(seed)
    node = int(rng.integers(graph.number_of_nodes()))
    route = [node]
    prev = None
    for _ in range(n_hops):
        nbrs = [x for x in graph.neighbors(node) if x != prev]
        if not nbrs:
            nbrs = list(graph.neighbors(node))
        prev, node = node, int(nbrs[rng.integers(len(nbrs))])
        route.append(node)
    return route


class MapMatchingModel(StateSpaceModel):
    """Constant-velocity vehicle + GPS, with the road map as a prior.

    State ``(x, y, vx, vy)`` in metres / metres-per-second.
    """

    state_dim = 4
    measurement_dim = 2
    control_dim = 0

    def __init__(
        self,
        graph: nx.Graph,
        h_s: float = 1.0,
        sigma_gps: float = 15.0,
        sigma_road: float = 5.0,
        sigma_pos: float = 0.5,
        sigma_vel: float = 1.0,
        x0_mean: np.ndarray | None = None,
        x0_spread: float = 20.0,
    ):
        if graph.number_of_edges() == 0:
            raise ValueError("road network must have at least one edge")
        for f, v in (("sigma_gps", sigma_gps), ("sigma_road", sigma_road)):
            if v <= 0:
                raise ValueError(f"{f} must be positive")
        self.graph = graph
        self.h_s = float(h_s)
        self.sigma_gps = float(sigma_gps)
        self.sigma_road = float(sigma_road)
        self.sigma_pos = float(sigma_pos)
        self.sigma_vel = float(sigma_vel)
        pos = nx.get_node_attributes(graph, "pos")
        if len(pos) != graph.number_of_nodes():
            raise ValueError("every node needs a 'pos' attribute")
        # Segment endpoints (S, 2) each, precomputed for vectorized distance.
        self._a = np.array([pos[u] for u, v in graph.edges()], dtype=np.float64)
        self._b = np.array([pos[v] for u, v in graph.edges()], dtype=np.float64)
        self._ab = self._b - self._a
        self._ab_len2 = np.maximum(np.sum(self._ab * self._ab, axis=1), 1e-12)
        if x0_mean is None:
            start = self._a[0]
            x0_mean = np.array([start[0], start[1], 0.0, 0.0])
        self.x0_mean = np.asarray(x0_mean, dtype=np.float64)
        self.x0_spread = float(x0_spread)

    # -- geometry ------------------------------------------------------------
    def road_distance(self, points: np.ndarray) -> np.ndarray:
        """Distance from each point to the nearest road segment.

        ``points`` is ``(..., 2)``; vectorized over all segments at once.
        """
        p = np.asarray(points, dtype=np.float64)
        rel = p[..., None, :] - self._a  # (..., S, 2)
        t = np.sum(rel * self._ab, axis=-1) / self._ab_len2  # projection
        t = np.clip(t, 0.0, 1.0)
        closest = self._a + t[..., None] * self._ab
        d = np.linalg.norm(p[..., None, :] - closest, axis=-1)
        return d.min(axis=-1)

    # -- filtering interface -------------------------------------------------
    def initial_particles(self, n: int, rng: FilterRNG, dtype=np.float64) -> np.ndarray:
        z = rng.normal((n, 4), dtype=np.float64)
        spread = np.array([self.x0_spread, self.x0_spread, 2.0, 2.0])
        return (self.x0_mean[None, :] + spread * z).astype(dtype, copy=False)

    def transition(self, states: np.ndarray, control, k: int, rng: FilterRNG) -> np.ndarray:
        states = np.asarray(states)
        out = states.copy()
        noise = rng.normal(states.shape, dtype=states.dtype)
        out[..., :2] += self.h_s * states[..., 2:] + self.sigma_pos * noise[..., :2]
        out[..., 2:] += self.sigma_vel * noise[..., 2:]
        return out

    def log_likelihood(self, states: np.ndarray, measurement: np.ndarray, k: int) -> np.ndarray:
        pos = np.asarray(states)[..., :2]
        dz = pos - np.asarray(measurement)
        ll = -0.5 * np.sum(dz * dz, axis=-1) / self.sigma_gps**2
        # Map matching: penalize distance to the road network.
        d_road = self.road_distance(pos)
        return ll - 0.5 * (d_road / self.sigma_road) ** 2

    def initial_state(self, rng: FilterRNG) -> np.ndarray:
        return self.x0_mean.copy()

    def observe(self, state: np.ndarray, k: int, rng: FilterRNG) -> np.ndarray:
        return np.asarray(state)[:2] + self.sigma_gps * rng.normal((2,))

    def estimate_error(self, estimate: np.ndarray, truth: np.ndarray) -> float:
        return float(np.linalg.norm(np.asarray(estimate)[:2] - np.asarray(truth)[:2]))

    # -- ground truth ------------------------------------------------------------
    def simulate_route(self, route: list[int], speed: float, n_steps: int, rng: FilterRNG) -> GroundTruth:
        """A vehicle driving the node route at constant speed, with GPS."""
        pos_attr = nx.get_node_attributes(self.graph, "pos")
        waypoints = np.array([pos_attr[n] for n in route], dtype=np.float64)
        seg = np.diff(waypoints, axis=0)
        seg_len = np.linalg.norm(seg, axis=1)
        cum = np.concatenate([[0.0], np.cumsum(seg_len)])
        s = np.minimum(np.arange(n_steps) * speed * self.h_s, cum[-1] - 1e-9)
        idx = np.searchsorted(cum, s, side="right") - 1
        idx = np.clip(idx, 0, len(seg) - 1)
        frac = (s - cum[idx]) / np.maximum(seg_len[idx], 1e-12)
        positions = waypoints[idx] + frac[:, None] * seg[idx]
        velocities = seg[idx] / np.maximum(seg_len[idx], 1e-12)[:, None] * speed
        states = np.concatenate([positions, velocities], axis=1)
        meas = np.stack([self.observe(states[k], k, rng) for k in range(n_steps)])
        return GroundTruth(states=states, measurements=meas)
