"""Network description, traffic specification and random scenario generation.

A network is a directed connected graph of wireless transceivers with a full
matrix of channel power gains (interference has no range cutoff, only data
links are range limited), receiver noise powers, per-node self-interference
factors, peak power budgets and a common spreading (processing) gain.
Traffic is classified by destination: one commodity per destination set,
with i.i.d. per-slot Poisson bit arrivals at each source.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError

SCENARIO_FORMAT = "bpsim-scenario"
SCENARIO_VERSION = 1

# Minimum node separation accepted by the generator; d**-4 blows up below it.
MIN_NODE_DISTANCE = 1e-9
MAX_CONNECTIVITY_RETRIES = 100

# Default node power floor as a fraction of the cap; keeps log powers finite.
POWER_FLOOR_RATIO = 1e-6
_LOG_FLOOR_RATIO = np.log(POWER_FLOOR_RATIO)


@dataclass(frozen=True)
class NetworkModel:
    """Static radio network: topology, gains, noise, power budgets.

    ``gain`` is a full (n, n) matrix of linear power gains with a zero
    diagonal; every transmitter interferes at every receiver except itself.
    ``links`` are the ordered pairs that may carry data.

    Construction also derives the link view the physical layer and the
    solver read on every call: per-link gain, transmitter self-interference,
    receiver noise, the products theta * gain and processing_gain * gain and
    the log of the latter, plus per-node log power caps, out-degrees and the
    default power-exponent floor.  These arrays are read-only.
    """

    gain: np.ndarray            # (n, n), gain[i][j] from tx i to rx j, diag 0
    noise: np.ndarray           # (n,) receiver noise power
    theta: np.ndarray           # (n,) self-interference factor in [0, 1]
    power_cap: np.ndarray       # (n,) peak total transmit power, > 1
    processing_gain: float
    links: tuple[tuple[int, int], ...]

    # Derived link indexing, filled in __post_init__.
    src: np.ndarray = field(init=False, repr=False)
    dst: np.ndarray = field(init=False, repr=False)
    # Link view, filled in __post_init__.
    link_gain: np.ndarray = field(init=False, repr=False)       # (E,) gain[src, dst]
    link_theta: np.ndarray = field(init=False, repr=False)      # (E,) theta[src]
    link_noise: np.ndarray = field(init=False, repr=False)      # (E,) noise[dst]
    link_theta_gain: np.ndarray = field(init=False, repr=False)  # (E,) link_theta * link_gain
    link_kg: np.ndarray = field(init=False, repr=False)          # (E,) K * link_gain
    link_log_kg: np.ndarray = field(init=False, repr=False)     # (E,) log(link_kg)
    log_power_cap: np.ndarray = field(init=False, repr=False)   # (n,) log(power_cap)
    out_degree: np.ndarray = field(init=False, repr=False)      # (n,) outgoing links
    gamma_floor: np.ndarray = field(init=False, repr=False)     # (n,) default exponent floor

    def __post_init__(self):
        gain = np.asarray(self.gain, dtype=float)
        if gain.ndim != 2 or gain.shape[0] != gain.shape[1]:
            raise ConfigError(f"gain matrix must be square, got shape {gain.shape}")
        n = gain.shape[0]
        object.__setattr__(self, "gain", gain)
        for name in ("noise", "theta", "power_cap"):
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.shape != (n,):
                raise ConfigError(
                    f"{name} must hold one value per node ({n}), got shape {arr.shape}")
            object.__setattr__(self, name, arr)
        links = tuple((int(i), int(j)) for i, j in self.links)
        object.__setattr__(self, "links", links)
        src_ids, dst_ids = zip(*links) if links else ((), ())
        if links and not (0 <= min(min(src_ids), min(dst_ids))
                          and max(max(src_ids), max(dst_ids)) < n):
            bad = next(l for l in links if not (0 <= l[0] < n and 0 <= l[1] < n))
            raise ConfigError(f"link {bad} references an unknown node")
        src = np.array(src_ids, dtype=np.intp)
        dst = np.array(dst_ids, dtype=np.intp)
        object.__setattr__(self, "src", src)
        object.__setattr__(self, "dst", dst)
        link_gain = gain[src, dst]
        # Caps <= 1 give a meaningless floor and non-positive gains a NaN or
        # -inf log; validate_model reports both.
        with np.errstate(divide="ignore", invalid="ignore"):
            log_cap = np.log(self.power_cap)
            gamma_floor = 1.0 + _LOG_FLOOR_RATIO / log_cap
            link_kg = self.processing_gain * link_gain
            log_kg = np.log(link_kg)
        link_theta = self.theta[src]
        view = {
            "link_gain": link_gain,
            "link_theta": link_theta,
            "link_noise": self.noise[dst],
            "link_theta_gain": link_theta * link_gain,
            "link_kg": link_kg,
            "link_log_kg": log_kg,
            "log_power_cap": log_cap,
            "out_degree": np.bincount(src, minlength=n),
            "gamma_floor": gamma_floor,
        }
        for name, arr in view.items():
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def n(self) -> int:
        return self.gain.shape[0]

    @property
    def n_links(self) -> int:
        return len(self.links)

    def link_index(self) -> dict[tuple[int, int], int]:
        return {link: idx for idx, link in enumerate(self.links)}


@dataclass(frozen=True)
class Commodity:
    """One traffic class, identified by the set of nodes where it exits."""

    id: int
    destinations: frozenset[int]


@dataclass(frozen=True)
class TrafficSpec:
    """Commodities plus per (node, commodity) Poisson arrival means in bits/slot."""

    commodities: tuple[Commodity, ...]
    arrival_mean: np.ndarray    # (n, K)
    # Read-only (n, K), built once: True where node i keeps a buffer for
    # commodity k, that is everywhere except at the commodity's destinations.
    queue_mask: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        arrival_mean = np.asarray(self.arrival_mean, dtype=float)
        object.__setattr__(self, "arrival_mean", arrival_mean)
        nk = self.n_commodities
        if arrival_mean.ndim != 2 or arrival_mean.shape[1] != nk:
            raise ConfigError(
                f"arrival_mean must be (n, {nk}), got shape {arrival_mean.shape}")
        n = arrival_mean.shape[0]
        mask = np.ones((n, nk), dtype=bool)
        for k, com in enumerate(self.commodities):
            for d in com.destinations:
                # A negative index would silently mark a node from the end.
                if not 0 <= d < n:
                    raise ConfigError(
                        f"commodity {com.id} destination {d} is not a node")
                mask[d, k] = False
        mask.setflags(write=False)
        object.__setattr__(self, "queue_mask", mask)

    @property
    def n_commodities(self) -> int:
        return len(self.commodities)

    def second_moments(self) -> np.ndarray:
        """(n, K) second moments of the Poisson arrival counts, mean + mean**2."""
        a = self.arrival_mean
        return a + a * a


@dataclass(frozen=True)
class Scenario:
    """A concrete experiment instance: network, traffic and provenance."""

    model: NetworkModel
    traffic: TrafficSpec
    positions: np.ndarray       # (n, 2) coordinates in the unit disc
    seed: int

    def __post_init__(self):
        object.__setattr__(self, "positions", np.asarray(self.positions, dtype=float))


def link_radius(n: int) -> float:
    """Data-link range for an n-node disc deployment, 2.5 / sqrt(n)."""
    return 2.5 / np.sqrt(n)


def _gains_from_distances(dist: np.ndarray) -> np.ndarray:
    """Fourth-power path loss between every ordered pair, zero on the diagonal."""
    gain = dist ** -4.0
    np.fill_diagonal(gain, 0.0)
    return gain


def _links_from_distances(dist: np.ndarray, radius: float) -> list[tuple[int, int]]:
    """Ordered pairs closer than ``radius``, row-major; ``dist`` has an infinite diagonal."""
    src, dst = np.nonzero(dist < radius)
    return list(zip(src.tolist(), dst.tolist()))


def _connected(n: int, links: list[tuple[int, int]]) -> bool:
    """Connectivity of the undirected view of the link set."""
    if n == 0:
        return False
    adj = [[] for _ in range(n)]
    for i, j in links:
        adj[i].append(j)
        adj[j].append(i)
    seen = [False] * n
    stack = [0]
    seen[0] = True
    while stack:
        v = stack.pop()
        for w in adj[v]:
            if not seen[w]:
                seen[w] = True
                stack.append(w)
    return all(seen)


def reserve(shape: tuple, what: str) -> None:
    """Reject an array size numpy cannot hold before any work that needs it:
    ``np.empty`` writes no page, so a size that fits costs nothing here."""
    try:
        np.empty(shape)
    except (MemoryError, ValueError) as exc:
        raise ConfigError(f"{what}: {exc}") from None


def generate_scenario(n: int, arrival_mean: float, seed: int) -> Scenario:
    """Random disc scenario: n uniform nodes, range-limited links, one session per node.

    Deterministic in (n, arrival_mean, seed).  Positions are resampled (up to
    a bounded number of retries) until the induced graph is connected and no
    two nodes coincide.
    """
    if n < 2:
        raise ConfigError(f"need at least 2 nodes, got {n}")
    # NaN fails the comparison, so it is rejected with the infinities.
    if not 0 <= arrival_mean < np.inf:
        raise ConfigError(f"arrival mean must be finite and nonnegative, got {arrival_mean}")
    if seed < 0:
        raise ConfigError(f"seed must be a nonnegative integer, got {seed}")
    # The (n, n, 2) pairwise offsets are the largest array drawn below.
    reserve((n, n, 2), f"n={n} is too many nodes to generate")
    rng = np.random.default_rng(seed)
    radius = link_radius(n)
    positions = dist = None
    links: list[tuple[int, int]] = []
    for _ in range(MAX_CONNECTIVITY_RETRIES):
        r = np.sqrt(rng.random(n))
        phi = rng.random(n) * 2.0 * np.pi
        cand = np.column_stack([r * np.cos(phi), r * np.sin(phi)])
        diff = cand[:, None, :] - cand[None, :, :]
        cand_dist = np.sqrt((diff * diff).sum(axis=2))
        np.fill_diagonal(cand_dist, np.inf)
        if cand_dist.min() < MIN_NODE_DISTANCE:
            continue
        cand_links = _links_from_distances(cand_dist, radius)
        if _connected(n, cand_links):
            positions, dist, links = cand, cand_dist, cand_links
            break
    if positions is None:
        raise ConfigError(
            f"could not generate a connected {n}-node scenario in "
            f"{MAX_CONNECTIVITY_RETRIES} attempts (seed {seed})"
        )

    model = NetworkModel(
        gain=_gains_from_distances(dist),
        noise=np.full(n, 0.1),
        theta=np.full(n, 0.25),
        power_cap=np.full(n, 100.0),
        processing_gain=1e5,
        links=tuple(links),
    )
    commodities = []
    arrivals = np.zeros((n, n))
    for i in range(n):
        dest = int(rng.integers(0, n - 1))
        if dest >= i:
            dest += 1
        commodities.append(Commodity(id=i, destinations=frozenset({dest})))
        arrivals[i, i] = arrival_mean
    traffic = TrafficSpec(commodities=tuple(commodities), arrival_mean=arrivals)
    return Scenario(model=model, traffic=traffic, positions=positions, seed=seed)


def validate_model(model: NetworkModel) -> list[str]:
    """Check structural invariants; returns one message per violation."""
    out: list[str] = []
    n = model.n
    if np.any(np.diag(model.gain) != 0.0):
        out.append("gain diagonal must be zero (no self-gain)")
    for i, j in model.links:
        if i == j:
            out.append(f"link ({i}, {j}) is a self-loop")
        elif model.gain[i, j] <= 0:
            out.append(f"gain must be positive on link ({i}, {j})")
    offdiag = model.gain[~np.eye(n, dtype=bool)]
    if np.any(offdiag < 0):
        out.append("gains must be nonnegative")
    if np.any(~np.isfinite(model.gain)):
        out.append("gains must be finite")
    for j in range(n):
        if not model.noise[j] > 0:
            out.append(f"noise must be positive (node {j})")
    for i in range(n):
        if not model.power_cap[i] > 1:
            out.append(f"powerCap must exceed 1 (node {i})")
        if not (0.0 <= model.theta[i] <= 1.0):
            out.append(f"selfInterference must lie in [0, 1] (node {i})")
    if not model.processing_gain > 0:
        out.append("processingGain must be positive")
    if not _connected(n, list(model.links)):
        out.append("graph not connected")
    return out


def validate_traffic(traffic: TrafficSpec, n: int) -> list[str]:
    """Check traffic against an n-node network; destinations are in range by construction."""
    out: list[str] = []
    if traffic.arrival_mean.shape != (n, traffic.n_commodities):
        out.append(
            f"arrival_mean must be ({n}, {traffic.n_commodities}), "
            f"got {traffic.arrival_mean.shape}"
        )
        return out
    if np.any(~np.isfinite(traffic.arrival_mean)) or np.any(traffic.arrival_mean < 0):
        out.append("arrival means must be finite and nonnegative")
    for k, com in enumerate(traffic.commodities):
        if not com.destinations:
            out.append(f"commodity {com.id} has no destination")
        for d in com.destinations:
            if traffic.arrival_mean[d, k] > 0:
                out.append(
                    f"commodity {com.id} has arrivals at its own destination {d}"
                )
    return out


def validate_scenario(scenario: Scenario) -> list[str]:
    return validate_model(scenario.model) + validate_traffic(
        scenario.traffic, scenario.model.n
    )


def scenario_to_json(scenario: Scenario) -> str:
    """Serialize to the versioned plain-text scenario format."""
    m = scenario.model
    t = scenario.traffic
    doc = {
        "format": SCENARIO_FORMAT,
        "version": SCENARIO_VERSION,
        "seed": scenario.seed,
        "n": m.n,
        "positions": scenario.positions.tolist(),
        "links": [list(l) for l in m.links],
        "gain": m.gain.tolist(),
        "noise": m.noise.tolist(),
        "theta": m.theta.tolist(),
        "power_cap": m.power_cap.tolist(),
        "processing_gain": m.processing_gain,
        "commodities": [
            {"id": c.id, "destinations": sorted(c.destinations)} for c in t.commodities
        ],
        "arrival_mean": t.arrival_mean.tolist(),
    }
    return json.dumps(doc, indent=1, sort_keys=True)


def _json_scalar(value, kind: type, what: str):
    """``value`` as ``kind`` (int, or float, which also takes integers) when
    JSON gave it as such; booleans, fractions for integers and other types
    are malformed."""
    if isinstance(value, bool) or not isinstance(value, (int, float) if kind is float else int):
        raise TypeError(f"{what} must be {'a number' if kind is float else 'an integer'}, "
                        f"got {value!r}")
    return kind(value)


def _json_array(value, what: str) -> np.ndarray:
    """``value`` as a float array when every entry JSON gave, at any depth
    of nesting, is a number (booleans and strings are malformed)."""
    stack = [value]
    while stack:
        v = stack.pop()
        if isinstance(v, list):
            stack += v
        elif type(v) not in (int, float):       # a bool is not an int here
            raise TypeError(f"{what} must hold numbers, got {v!r}")
    return np.array(value, dtype=float)


def scenario_from_json(text: str) -> Scenario:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"scenario file is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"scenario file must hold a JSON object, not {type(doc).__name__}")
    if doc.get("format") != SCENARIO_FORMAT:
        raise ConfigError(f"unknown scenario format {doc.get('format')!r}")
    if type(doc.get("version")) is not int or doc["version"] != SCENARIO_VERSION:
        raise ConfigError(f"unsupported scenario version {doc.get('version')!r}")
    try:
        model = NetworkModel(
            gain=_json_array(doc["gain"], "gain"),
            noise=_json_array(doc["noise"], "noise"),
            theta=_json_array(doc["theta"], "theta"),
            power_cap=_json_array(doc["power_cap"], "power_cap"),
            processing_gain=_json_scalar(doc["processing_gain"], float, "processing_gain"),
            links=tuple(tuple(_json_scalar(e, int, "link endpoint") for e in l)
                        for l in doc["links"]),
        )
        # A file whose node count or positions disagree with its gains is corrupt.
        if _json_scalar(doc["n"], int, "n") != model.n:
            raise ValueError(f"n is {doc['n']!r} but the gain matrix has {model.n} nodes")
        positions = _json_array(doc["positions"], "positions")
        if positions.shape != (model.n, 2):
            raise ValueError(f"positions must be {model.n} (x, y) pairs")
        commodities = tuple(
            Commodity(id=_json_scalar(c["id"], int, "commodity id"),
                      destinations=frozenset(_json_scalar(d, int, "destination")
                                             for d in c["destinations"]))
            for c in doc["commodities"]
        )
        traffic = TrafficSpec(
            commodities=commodities,
            arrival_mean=_json_array(doc["arrival_mean"], "arrival_mean"),
        )
        scenario = Scenario(
            model=model,
            traffic=traffic,
            positions=positions,
            seed=_json_scalar(doc["seed"], int, "seed"),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"malformed scenario file: {exc}") from exc
    problems = validate_scenario(scenario)
    if problems:
        raise ConfigError("invalid scenario: " + "; ".join(problems))
    return scenario


def load_scenario(path) -> Scenario:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise ConfigError(f"scenario file {path} is not UTF-8: {exc}") from exc
    return scenario_from_json(text)


def save_scenario(scenario: Scenario, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(scenario_to_json(scenario))
        fh.write("\n")
