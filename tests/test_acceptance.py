"""Acceptance gate: every criterion at its stated tolerance, one line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the PASS/FAIL
lines.  The drift-bound criterion asserts a pathwise inequality that the
dynamics provably do not satisfy (the recorded three-term bound exceeds the
realized drift by exactly 4 B'RT, which goes negative whenever arrivals hit
a net-receiving queue); it is implemented as stated and reports the measured
violation rate rather than being weakened.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from bpsim import phy
from bpsim.cli import main as cli_main
from bpsim.model import generate_scenario
from bpsim.policy import compute_weights
from bpsim.sim import default_sim_config, run_simulation
from bpsim.solver import (SolverConfig, exchange_messages, kkt_check,
                          solve_max_weight)
from bpsim.stability import RateRegionOracle, halfspace_margin, queue_norm

from conftest import (diamond_scenario, grid_search_two_tx, random_model,
                      random_weights, tandem_scenario, two_tx_instance)

SLOTS = 1000
RUNS = 10
PARAM_SETS = ((10, 4.0), (5, 7.0))


def _line(num: int, name: str, ok: bool, detail: str = "") -> None:
    print(f"ACCEPTANCE {num:>2} {name:<26} {'PASS' if ok else 'FAIL'}  {detail}")


# ----------------------------------------------------------------- fixtures

def _sv_job(args):
    n, mean, net_seed, arr_seed, scheme = args
    sc = generate_scenario(n, mean, seed=net_seed)
    tr = run_simulation(sc, scheme, SLOTS, default_sim_config(), seed=arr_seed)
    flat = tr.queue_vectors()
    b = tr.arrivals.reshape(SLOTS, -1)
    va = tr.vr_actual.reshape(SLOTS, -1)
    drift_tol = 1e-6 * np.maximum(1.0, np.abs(tr.drift))
    return {
        "scheme": scheme,
        "run": arr_seed,
        "curve": tr.total_backlog,
        "eq7_violations": int((flat[1:] > np.maximum(flat[:-1] - va + b, 0.0)
                               + 1e-8).sum()),
        "conservation_err": float(np.abs(flat[1:] - (flat[:-1] - va + b)).max()),
        "drift_violations": int((tr.drift > tr.drift_bound + drift_tol).sum()),
        "drift_violations_nominal": int(
            (tr.drift > tr.drift_bound_nominal + drift_tol).sum()),
        "negative_brt_slots": int((np.einsum("ij,ij->i", b, va) < 0).sum()),
    }


@pytest.fixture(scope="module")
def sv_experiment():
    """The full comparison experiment: fresh network per run, common arrivals
    across schemes, all three schemes, both parameter sets."""
    jobs = [(n, mean, 1000 + r, r, scheme)
            for (n, mean) in PARAM_SETS
            for scheme in ("instant", "iter-conv", "iter-once")
            for r in range(RUNS)]
    t0 = time.time()
    out: dict = {ps: {} for ps in PARAM_SETS}
    with ProcessPoolExecutor(max_workers=2) as pool:
        for args, res in zip(jobs, pool.map(_sv_job, jobs)):
            n, mean = args[0], args[1]
            out[(n, mean)].setdefault(res["scheme"], []).append(res)
    out["elapsed"] = time.time() - t0
    return out


@pytest.fixture(scope="module")
def solver_batch():
    """Certified solves of the two-transmitter instances, shared by several
    criteria (grid comparison, monotone ascent, certificate soundness)."""
    cfg = SolverConfig(kkt_tolerance=1e-6, max_iterations=3000)
    t0 = time.time()
    entries = []
    for seed in range(20):
        model, w = two_tx_instance(seed)
        w = np.asarray(w)
        final, diag = solve_max_weight(model, w, phy.uniform_power_state(model), cfg)
        entries.append((model, w, final, diag))
    return {"entries": entries, "elapsed": time.time() - t0}


# ---------------------------------------------------------------- criteria

def test_criterion_1_gradient_correctness():
    rng = np.random.default_rng(101)
    t0 = time.time()
    worst = 0.0
    step = 1e-6
    for _ in range(100):
        m = random_model(rng)
        st = phy.random_power_state(m, rng)
        w = random_weights(rng, m)
        met = phy.link_metrics(m, st)
        full = phy.alloc_grad_full(m, w, st, met)
        grad_g = m.log_power_cap * phy.power_marginal_gain(m, w, st, met)
        p0 = phy.link_powers(m, st)
        pn = phy.node_powers(m, st)

        def f_powers(p):
            return phy.objective_from_metrics(w, phy.link_metrics_from_powers(m, p))

        # two simplex-tangent allocation directions
        for _ in range(2):
            i = int(rng.integers(0, m.n))
            out = list(np.flatnonzero(m.src == i))
            if len(out) < 2:
                continue
            v = np.zeros(m.n_links)
            a, bq = rng.choice(out, size=2, replace=False)
            v[a], v[bq] = 1.0, -1.0
            fd = (f_powers(p0 + step * pn[i] * v)
                  - f_powers(p0 - step * pn[i] * v)) / (2 * step)
            an = float(np.dot(full, v))
            worst = max(worst, abs(fd - an) / max(1.0, abs(an)))
        # two power-exponent coordinates
        for _ in range(2):
            i = int(rng.integers(0, m.n))
            e = st.exponent

            def f_g(x):
                e2 = e.copy()
                e2[i] = x
                return phy.objective_value(m, w, phy.PowerState(st.alloc, e2))

            fd = (f_g(e[i] + step) - f_g(e[i] - step)) / (2 * step)
            worst = max(worst, abs(fd - grad_g[i]) / max(1.0, abs(grad_g[i])))
    elapsed = time.time() - t0
    ok = worst < 1e-5 and elapsed < 10.0
    _line(1, "gradient-correctness", ok,
          f"max rel err {worst:.2e}, {elapsed:.1f}s")
    assert worst < 1e-5
    assert elapsed < 10.0


def test_criterion_2_protocol_equivalence():
    rng = np.random.default_rng(102)
    worst = 0.0
    counts_ok = True
    thetas = [0.0, 0.25, 1.0]
    for trial in range(100):
        m = random_model(rng, theta=thetas[trial % 3])
        st = phy.random_power_state(m, rng)
        w = random_weights(rng, m)
        met = phy.link_metrics(m, st)
        direct = phy.power_marginal_gain(m, w, st, met)
        res = exchange_messages(m, w, st, met)
        scale = max(1.0, float(np.abs(direct).max()))
        worst = max(worst, float(np.abs(res.delta_gamma - direct).max()) / scale)
        counts_ok &= (res.broadcasts == m.n and res.feedbacks == m.n_links)
    ok = worst <= 1e-12 and counts_ok
    _line(2, "protocol-equivalence", ok,
          f"max rel err {worst:.2e}, counts {'exact' if counts_ok else 'WRONG'}")
    assert worst <= 1e-12
    assert counts_ok


def test_criterion_3_solver_optimality(solver_batch):
    t0 = time.time()
    worst_gap = 0.0
    all_kkt = True
    for model, w, final, diag in solver_batch["entries"]:
        f_grid, _, _ = grid_search_two_tx(model, w, res=200)
        f_sol = phy.objective_value(model, w, final)
        worst_gap = max(worst_gap, abs(f_sol - f_grid) / abs(f_grid))
        all_kkt &= kkt_check(model, w, final, 1e-6).passed
    elapsed = solver_batch["elapsed"] + (time.time() - t0)
    ok = worst_gap < 1e-3 and all_kkt and elapsed < 60.0
    _line(3, "solver-optimality", ok,
          f"max grid gap {worst_gap:.2e}, kkt<1e-6 {all_kkt}, {elapsed:.1f}s")
    assert worst_gap < 1e-3
    assert all_kkt
    assert elapsed < 60.0


def test_criterion_4_monotone_ascent(solver_batch):
    rng = np.random.default_rng(104)
    traces = [diag.objectives for _, _, _, diag in solver_batch["entries"]]
    for _ in range(40):
        m = random_model(rng)
        w = random_weights(rng, m)
        _, diag = solve_max_weight(m, w, phy.random_power_state(m, rng),
                                   SolverConfig(kkt_tolerance=1e-7,
                                                max_iterations=300))
        traces.append(diag.objectives)
    # a short warm-started scheme run contributes its per-slot traces too
    sc = generate_scenario(6, 3.0, seed=17)
    from bpsim.policy import make_scheme
    scheme = make_scheme("iter-conv", sc.model, sc.traffic,
                         default_sim_config().solver, iterations_per_slot=25)
    rng2 = np.random.default_rng(7)
    u = np.zeros((6, 6))
    for _ in range(30):
        u = u + rng2.poisson(sc.traffic.arrival_mean) * sc.traffic.queue_mask
        _, info = scheme.step(u)
        traces.append(info.objectives)
        u *= 0.7
    violations = 0
    steps = 0
    for objs in traces:
        for a, b in zip(objs, objs[1:]):
            steps += 1
            if b < a - 1e-9 * max(1.0, abs(a)):
                violations += 1
    ok = violations == 0
    _line(4, "monotone-ascent", ok, f"{steps} accepted steps, {violations} decreases")
    assert violations == 0


def test_criterion_5_kkt_soundness(solver_batch):
    rng = np.random.default_rng(105)
    optima_pass = True
    for model, w, _, _ in solver_batch["entries"]:
        _, g0, g1 = grid_search_two_tx(model, w, res=200, refine_stages=2)
        st = phy.PowerState(np.array([1.0, 1.0]), np.array([g0, g1, 1.0, 1.0]))
        optima_pass &= kkt_check(model, w, st, 1e-3).passed
    rejected = 0
    trials = 100
    for t in range(trials):
        model, w = two_tx_instance(200 + t)
        gf = model.gamma_floor
        g = gf + rng.random(model.n) * (0.95 - gf)   # interior, away from bounds
        st = phy.PowerState(np.array([1.0, 1.0]), g)
        if not kkt_check(model, np.asarray(w), st, 1e-3).passed:
            rejected += 1
    ok = optima_pass and rejected >= 99
    _line(5, "kkt-certificate-soundness", ok,
          f"grid optima pass {optima_pass}, rejected {rejected}/100 random points")
    assert optima_pass
    assert rejected >= 99


def test_criterion_6_queue_dynamics(sv_experiment):
    res = sv_experiment[(10, 4.0)]
    eq7 = sum(r["eq7_violations"] for lst in res.values() for r in lst)
    cons = max(r["conservation_err"] for lst in res.values() for r in lst)
    ok = eq7 == 0 and cons < 1e-6
    _line(6, "queue-dynamics", ok,
          f"eq(1) violations {eq7}, max conservation err {cons:.2e} "
          f"over {3 * RUNS} runs x {SLOTS} slots")
    assert eq7 == 0
    assert cons < 1e-6


def test_criterion_7_drift_bound(sv_experiment):
    res = sv_experiment[(10, 4.0)]
    viol = sum(r["drift_violations"] for lst in res.values() for r in lst)
    viol_nom = sum(r["drift_violations_nominal"] for lst in res.values() for r in lst)
    neg = sum(r["negative_brt_slots"] for lst in res.values() for r in lst)
    total = 3 * RUNS * SLOTS
    ok = viol == 0
    _line(7, "lyapunov-drift-bound", ok,
          f"violations {viol}/{total} (realized rates; bound-drift = 4 B'RT, "
          f"{neg} slots with B'RT<0), {viol_nom}/{total} with assigned rates")
    # The three-term bound is not a pathwise inequality for these dynamics:
    # it fails exactly on slots where arrivals land on net-receiving queues.
    # Asserted as stated; expected to fail.
    assert viol == 0, (
        f"three-term drift bound violated on {viol} of {total} slots "
        f"(exactly the {neg} slots with B'RT < 0); the bound is not pathwise")


def test_criterion_8_qualitative_reproduction(sv_experiment):
    elapsed = sv_experiment["elapsed"]
    all_bounded = True
    ordering = {}
    details = []
    for ps in PARAM_SETS:
        curves = {s: np.mean([r["curve"] for r in lst], axis=0)
                  for s, lst in sv_experiment[ps].items()}
        for s, c in curves.items():
            last_q = c[3 * SLOTS // 4:].mean()
            mid_q = c[SLOTS // 4: 3 * SLOTS // 4].mean()
            bounded = last_q <= 2.0 * mid_q
            all_bounded &= bounded
            if not bounded:
                details.append(f"{ps}/{s} unbounded ({last_q:.0f}>2x{mid_q:.0f})")
        conv = curves["iter-conv"][SLOTS // 2:].mean()
        once = curves["iter-once"][SLOTS // 2:].mean()
        ordering[ps] = (conv, once)
        details.append(f"{ps}: conv {conv:.0f} vs once {once:.0f}")
    order_ok = all(c <= o for c, o in ordering.values())
    ok = all_bounded and order_ok and elapsed < 900.0
    _line(8, "qualitative-reproduction", ok,
          f"bounded {all_bounded}, ordering {order_ok} ({'; '.join(details)}), "
          f"{elapsed:.0f}s")
    assert all_bounded
    assert order_ok, f"iter-conv <= iter-once ordering failed: {ordering}"
    assert elapsed < 900.0


def _geometry_instance(scenario):
    oracle = RateRegionOracle(scenario.model, scenario.traffic,
                              SolverConfig(kkt_tolerance=1e-7, max_iterations=2000))
    mask = oracle.mask()
    st = phy.uniform_power_state(scenario.model, exponent=0.8)
    met = phy.link_metrics(scenario.model, st)
    assert np.all(met.capacity > 1.6)
    # hand-built dominant point: every queue drains strictly
    n, nk = scenario.model.n, scenario.traffic.n_commodities
    from bpsim.sim import virtual_rates
    rate = np.zeros(scenario.model.n_links)
    com = np.zeros(scenario.model.n_links, dtype=np.intp)
    idx = scenario.model.link_index()
    if nk == 1:     # tandem: source feeds relay, relay drains faster
        rate[idx[(0, 1)]] = 1.0
        rate[idx[(1, 2)]] = 1.5
    else:           # diamond: two disjoint two-relay flows, rising rates
        for (lnk, k, r) in (((0, 1), 0, 1.0), ((0, 2), 0, 1.0),
                            ((1, 3), 0, 1.5), ((2, 3), 0, 1.5),
                            ((3, 1), 1, 1.0), ((3, 2), 1, 1.0),
                            ((1, 0), 1, 1.5), ((2, 0), 1, 1.5)):
            rate[idx[lnk]] = r
            com[idx[lnk]] = k
    assert np.all(rate <= np.maximum(met.capacity, 0.0) + 1e-9)
    abar = virtual_rates(rate, com, scenario.traffic, scenario.model)
    assert np.all(abar[mask] > 0)
    a = abar / 2.0
    eps = float(abar[mask].min() / 2.0)
    return oracle, mask, abar, a, eps


@pytest.mark.parametrize("scenario_builder", [tandem_scenario, diamond_scenario],
                         ids=["tandem", "diamond"])
def test_criterion_9_geometry_suite(scenario_builder):
    scenario = scenario_builder()
    oracle, mask, abar, a, eps = _geometry_instance(scenario)
    rng = np.random.default_rng(109)
    e = a + (eps / 2.0) * mask

    # halfspace gap on 100 pairs
    pool = oracle.sample_rates(120, rng)
    pairs = 0
    worst_margin = np.inf
    while pairs < 100:
        u = np.where(mask, rng.random(a.shape) * 5.0, 0.0)
        _, rstar = oracle.support(u)
        cands = [rstar]
        lam = rng.random(3)
        cands.extend(lam[i] * rstar + (1 - lam[i]) * pool[rng.integers(len(pool))]
                     for i in range(3))
        for y in cands:
            if float((u * y).sum()) >= float((u * e).sum()) and pairs < 100:
                pairs += 1
                margin = halfspace_margin(oracle, a, eps, u, y)
                worst_margin = min(worst_margin, margin)
    halfspace_ok = worst_margin >= -1e-9

    # cone membership implies the lagged-maximizer halfspace property
    members = 0
    property_ok = True
    for t in range(100):
        u = np.where(mask, 1.0 + rng.random(a.shape) * 6.0, 0.0)
        direction = np.where(mask, rng.normal(size=a.shape), 0.0)
        d_est = oracle.directional_excess(direction, abar, rng, samples=8)
        if d_est > 0:
            boundary = eps * queue_norm(u) / (2.0 * d_est)
            factor = rng.choice([0.3, 0.6, 0.8, 1.3, 2.5])
        else:
            boundary = queue_norm(u)
            factor = rng.choice([0.5, 2.0])
        u_prev = np.maximum(u + direction / queue_norm(direction)
                            * boundary * factor, 0.0)
        if oracle.cone_contains(abar, eps, u, u_prev,
                                rng=np.random.default_rng(1000 + t), samples=8):
            members += 1
            _, rstar = oracle.support(u_prev)
            if float((u * rstar).sum()) < float((u * e).sum()) - 1e-6:
                property_ok = False
    cone_ok = property_ok and members >= 20

    # homogeneity and convexity probes at 1e-5
    probe_ok = True
    for _ in range(5):
        u = np.where(mask, rng.random(a.shape) * 4.0, 0.0)
        v = np.where(mask, rng.random(a.shape) * 4.0, 0.0)
        su, ru = oracle.support(u)
        s2, r2 = oracle.support(2.0 * u)
        sv, _ = oracle.support(v)
        sm, _ = oracle.support(0.5 * (u + v))
        scale = max(1.0, abs(su), abs(sv))
        probe_ok &= abs(s2 - 2.0 * su) <= 1e-5 * max(1.0, abs(s2))
        probe_ok &= np.allclose(ru, r2, rtol=1e-4, atol=1e-6)
        probe_ok &= sm <= 0.5 * (su + sv) + 1e-5 * scale

    ok = halfspace_ok and cone_ok and probe_ok
    _line(9, "geometry-suite", ok,
          f"halfspace worst margin {worst_margin:.2e}, cone members {members}/100 "
          f"(property {'held' if property_ok else 'VIOLATED'}), probes {probe_ok}")
    assert halfspace_ok
    assert cone_ok
    assert probe_ok


def test_criterion_10_determinism(tmp_path):
    scen = tmp_path / "scen.json"
    assert cli_main(["generate", "n=5", "B=3", "seed=4", "--out", str(scen)]) == 0
    args = ["run", "--scenario", str(scen), "--slots", "30", "--runs", "2",
            "--seed", "11", "--iterations", "8", "--kkt-tol", "1e-3",
            "--max-iter", "30", "--per-queue"]
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert cli_main(args + ["--out", str(out1)]) == 0
    assert cli_main(args + ["--out", str(out2)]) == 0
    identical = True
    for p in sorted(out1.iterdir()):
        if (out2 / p.name).read_bytes() != p.read_bytes():
            identical = False
    ok = identical
    _line(10, "determinism", ok, f"{len(list(out1.iterdir()))} files byte-compared")
    assert identical
