"""Scenario generation, validation and the scenario file format."""

import numpy as np
import pytest

from bpsim.errors import ConfigError
from bpsim.model import (Commodity, NetworkModel, TrafficSpec, generate_scenario,
                         link_radius,
                         scenario_from_json, scenario_to_json, validate_model,
                         validate_scenario)

from conftest import positions_model


def test_generated_disc_parameters():
    sc = generate_scenario(10, 4.0, seed=7)
    m = sc.model
    assert m.processing_gain == 1e5
    assert np.all(m.theta == 0.25)
    assert np.all(m.power_cap == 100.0)
    assert np.all(m.noise == 0.1)
    assert np.all(np.sqrt((sc.positions ** 2).sum(axis=1)) <= 1.0 + 1e-12)
    radius = link_radius(10)
    for (i, j) in m.links:
        d = np.linalg.norm(sc.positions[i] - sc.positions[j])
        assert d < radius
        assert np.isclose(m.gain[i, j], d ** -4.0)
    # links are exactly the in-range ordered pairs, both directions
    idx = m.link_index()
    for i in range(10):
        for j in range(10):
            if i == j:
                continue
            d = np.linalg.norm(sc.positions[i] - sc.positions[j])
            assert ((i, j) in idx) == (d < radius)
    assert validate_scenario(sc) == []


def test_generated_five_node_arrivals():
    sc = generate_scenario(5, 7.0, seed=3)
    assert sc.traffic.n_commodities == 5
    for i, com in enumerate(sc.traffic.commodities):
        (dest,) = com.destinations
        assert dest != i
        assert sc.traffic.arrival_mean[i, i] == 7.0
    # one session per node, nothing else
    assert sc.traffic.arrival_mean.sum() == 5 * 7.0


def test_gain_at_half_distance():
    m = positions_model(np.array([[0.0, 0.0], [0.5, 0.0]]), links=((0, 1), (1, 0)))
    assert np.isclose(m.gain[0, 1], 16.0)
    assert np.isclose(m.gain[1, 0], 16.0)


def test_generation_deterministic():
    a = generate_scenario(8, 4.0, seed=42)
    b = generate_scenario(8, 4.0, seed=42)
    assert np.array_equal(a.positions, b.positions)
    assert a.model.links == b.model.links
    assert np.array_equal(a.traffic.arrival_mean, b.traffic.arrival_mean)
    c = generate_scenario(8, 4.0, seed=43)
    assert not np.array_equal(a.positions, c.positions)


def test_rejects_tiny_networks():
    with pytest.raises(ConfigError):
        generate_scenario(1, 4.0, seed=0)
    with pytest.raises(ConfigError):
        generate_scenario(5, -1.0, seed=0)


def test_neighbor_count_stays_flat_with_size():
    # The 1/sqrt(n) link radius keeps the expected neighbor count flat in n.
    # Unit-disc boundary effects leave a measured ~26% gap between n=10 and
    # n=40; a broken radius scaling would change the count fourfold.
    def mean_degree(n, seeds):
        total = 0.0
        for s in seeds:
            sc = generate_scenario(n, 1.0, seed=s)
            total += len(sc.model.links) / n
        return total / len(seeds)

    small = mean_degree(10, range(120))
    large = mean_degree(40, range(120))
    assert abs(small - large) / large < 0.30
    assert max(small, large) / min(small, large) < 1.5


def test_validate_flags_bad_power_cap():
    m = positions_model(np.array([[0.0, 0.0], [0.5, 0.0]]), links=((0, 1), (1, 0)))
    bad = NetworkModel(gain=m.gain, noise=m.noise, theta=m.theta,
                       power_cap=np.array([0.5, 100.0]),
                       processing_gain=m.processing_gain, links=m.links)
    problems = validate_model(bad)
    assert any("powerCap must exceed 1" in p for p in problems)


def test_validate_flags_disconnected_graph():
    pos = np.array([[0, 0], [0.1, 0], [5, 5], [5.1, 5]], dtype=float)
    m = positions_model(pos, links=((0, 1), (1, 0), (2, 3), (3, 2)))
    problems = validate_model(m)
    assert any("not connected" in p for p in problems)


def test_validate_accepts_generated():
    sc = generate_scenario(6, 2.0, seed=5)
    assert validate_model(sc.model) == []


def test_scenario_json_roundtrip():
    sc = generate_scenario(6, 4.0, seed=11)
    text = scenario_to_json(sc)
    back = scenario_from_json(text)
    assert np.array_equal(back.positions, sc.positions)
    assert back.model.links == sc.model.links
    assert np.array_equal(back.model.gain, sc.model.gain)
    assert np.array_equal(back.traffic.arrival_mean, sc.traffic.arrival_mean)
    assert back.seed == sc.seed
    # serialization itself is stable
    assert scenario_to_json(back) == text


def test_scenario_json_rejects_garbage():
    with pytest.raises(ConfigError):
        scenario_from_json("{not json")
    with pytest.raises(ConfigError):
        scenario_from_json('{"format": "something-else", "version": 1}')


def test_queue_mask_built_once_and_read_only():
    traffic = TrafficSpec(
        commodities=(Commodity(id=0, destinations=frozenset({2})),
                     Commodity(id=1, destinations=frozenset({0, 1}))),
        arrival_mean=np.zeros((3, 2)))
    assert traffic.queue_mask.tolist() == [[True, False], [True, False], [False, True]]
    assert traffic.queue_mask is traffic.queue_mask
    with pytest.raises(ValueError):
        traffic.queue_mask[0, 0] = False


@pytest.mark.parametrize("destination", [3, -1])
def test_traffic_rejects_destination_outside_network(destination):
    with pytest.raises(ConfigError, match="destination"):
        TrafficSpec(commodities=(Commodity(id=0, destinations=frozenset({destination})),),
                    arrival_mean=np.zeros((3, 1)))


def test_traffic_rejects_arrival_shape():
    with pytest.raises(ConfigError, match="arrival_mean"):
        TrafficSpec(commodities=(Commodity(id=0, destinations=frozenset({1})),),
                    arrival_mean=np.zeros(3))
