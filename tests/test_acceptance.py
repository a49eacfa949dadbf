"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
report.  Tolerances are fixed here and match the package contracts.
"""

import functools
import time

import numpy as np

from tvconsensus import (
    Absolute,
    AdmmEngine,
    AgentRoles,
    Quadratic,
    StopRule,
    SubgradientEngine,
    ac_critical_lambda,
    build_network,
    certify_consensus_minimizer,
    coarea_decompose,
    complete_graph,
    disagreement,
    dual_norm_algorithm0,
    dual_norm_bruteforce,
    erdos_renyi,
    gossip_limit,
    harmonic_schedule,
    min_cut,
    perimeter,
    run,
    stubborn_limit,
    tv_norm,
    uniform_gossip_matrix,
)
from tvconsensus.config import load_config
from tvconsensus.harness import run_experiment

INF = float("inf")


def criterion(num, name):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.time()
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[criterion {num:02d}] {name}: FAIL")
                raise
            print(f"[criterion {num:02d}] {name}: PASS ({time.time() - start:.1f}s)")

        return wrapper

    return decorate


def connected_er(rng, n_max=12, p=0.5):
    while True:
        n = int(rng.integers(3, n_max + 1))
        g = erdos_renyi(n, p, int(rng.integers(0, 2**31)))
        if g.is_connected:
            return g


def centered(rng, n):
    u = rng.normal(size=n)
    return u - u.mean()


@criterion(1, "dual-norm oracle equivalence and iteration bound")
def test_criterion_01_dual_norm_oracle_equivalence():
    rng = np.random.default_rng(1001)
    start = time.time()
    for _ in range(500):
        g = connected_er(rng, n_max=12, p=0.5)
        u = centered(rng, g.n_vertices)
        fast = dual_norm_algorithm0(g, u)
        slow = dual_norm_bruteforce(g, u)
        assert abs(fast.value - slow.value) <= 1e-9
        assert fast.iterations <= g.n_edges
        assert not fast.anomaly
    assert time.time() - start < 30.0


@criterion(2, "coarea identity on random fields")
def test_criterion_02_coarea_identity():
    rng = np.random.default_rng(1002)
    start = time.time()
    for _ in range(1000):
        n = int(rng.integers(2, 17))
        g = erdos_renyi(n, 0.4, int(rng.integers(0, 2**31)))
        if g.n_edges == 0:
            continue
        x = rng.normal(scale=3.0, size=n)
        dec = coarea_decompose(g, x)
        assert abs(dec.integral() - tv_norm(g, x)) <= 1e-9
    assert time.time() - start < 5.0


@criterion(3, "max-flow duality certificate and capacity identity")
def test_criterion_03_maxflow_duality():
    rng = np.random.default_rng(1003)
    instances = []
    for _ in range(250):
        g = connected_er(rng, n_max=12, p=0.5)
        instances.append((g, centered(rng, g.n_vertices), float(rng.uniform(0.02, 2.0))))
    # include a production-sized instance
    g99 = complete_graph(99)
    x0 = np.random.default_rng(42).uniform(0.0, 1.0, 99)
    instances.append((g99, x0 - x0.mean(), 0.01))
    for g, u, lam in instances:
        net = build_network(g, u, lam)
        result = min_cut(net)
        assert abs(result.max_flow_value - result.cut_value) <= 1e-10
        subset = result.source_side
        identity = (
            lam * perimeter(g, subset)
            - float(u[list(subset)].sum() if subset else 0.0)
            + float(u[u > 0.0].sum())
        )
        assert abs(result.cut_value - identity) <= 1e-10


@criterion(4, "average consensus, supercritical regularization")
def test_criterion_04_ac_supercritical():
    start = time.time()
    g = complete_graph(99)
    x0 = np.random.default_rng(42).uniform(0.0, 1.0, 99)
    lam = 1.5 * ac_critical_lambda(g, x0)
    traj = run(
        AdmmEngine(lam, rho=1.0),
        g,
        x0,
        Quadratic(g, x0),
        AgentRoles.none(99),
        stop=StopRule(max_iterations=2000, disagreement_tol=1e-6, change_tol=INF),
    )
    assert traj.n_steps <= 2000
    assert traj.disagreement[-1] < 1e-6
    assert abs(float(traj.final_x.mean()) - x0.mean()) <= 1e-6
    assert np.abs(traj.mean - x0.mean()).max() <= 1e-10  # every iteration
    assert time.time() - start < 60.0


@criterion(5, "average consensus, subcritical non-consensus")
def test_criterion_05_ac_subcritical():
    g = complete_graph(99)
    x0 = np.random.default_rng(42).uniform(0.0, 1.0, 99)
    lam = 0.1 * ac_critical_lambda(g, x0)
    traj = run(
        AdmmEngine(lam, rho=1.0),
        g,
        x0,
        Quadratic(g, x0),
        AgentRoles.none(99),
        stop=StopRule(max_iterations=3000, disagreement_tol=-1.0, change_tol=-1.0),
    )
    tail = traj.disagreement[-101:]
    level = tail[-1]
    assert level > 1e-3
    assert np.abs(tail - level).max() / level < 1e-6


@criterion(6, "median consensus above the pattern level")
def test_criterion_06_median_consensus():
    g = complete_graph(99)
    rng = np.random.default_rng(42)
    x0 = rng.uniform(0.0, 1.0, 99)
    x0[:5] = 3.0  # outliers separate the mean from the median
    median = float(np.median(x0))
    lam = 0.5
    objs = Absolute(g, x0)
    roles = AgentRoles.none(99)

    adm = run(
        AdmmEngine(lam, rho=1.0), g, x0, objs, roles,
        stop=StopRule(max_iterations=30_000, disagreement_tol=INF, change_tol=1e-12),
        record_every=10**9,
    )
    assert np.abs(adm.final_x - median).max() <= 1e-4

    sub = run(
        SubgradientEngine(lam, harmonic_schedule(1.0)), g, x0, objs, roles,
        stop=StopRule(max_iterations=2000, disagreement_tol=-1.0, change_tol=-1.0),
        record_every=400,
    )
    gaps = np.abs(sub.mean - median)
    assert all(b <= a + 1e-9 for a, b in zip(gaps, gaps[1:]))  # monotone trend
    assert gaps[-1] < gaps[0]
    # convergence within 2000 iterations is explicitly not required


@criterion(7, "pinned-coalition robustness, all three closed-form cases")
def test_criterion_07_stubborn_three_cases():
    start = time.time()
    n_reg = 99
    g = complete_graph(n_reg + 1)  # one extra agent wired to every regular one
    gr = complete_graph(n_reg)
    x0r = np.random.default_rng(42).uniform(0.0, 1.0, n_reg)
    lam = 0.05
    assert lam >= ac_critical_lambda(gr, x0r)
    mean_r = float(x0r.mean())
    for a in (10.0, mean_r + 0.03, -10.0):
        prediction = stubborn_limit(x0r, a, lam, 1, graph_regular=gr)
        assert prediction.lambda_ok
        x0 = np.concatenate([x0r, [a]])
        roles = AgentRoles.from_pinned(n_reg + 1, {n_reg: a})
        traj = run(
            AdmmEngine(lam, rho=1.0), g, x0, Quadratic(g, x0), roles,
            stop=StopRule(max_iterations=30_000, disagreement_tol=INF, change_tol=1e-12),
            record_every=10**9,
        )
        achieved = traj.final_x[:n_reg]
        assert np.abs(achieved - prediction.x_star).max() <= 1e-4
        assert abs(float(achieved.mean()) - mean_r) <= lam * 1 + 1e-6
    assert time.time() - start < 120.0


@criterion(8, "linear gossip is captured by the pinned agents")
def test_criterion_08_gossip_capture():
    rng = np.random.default_rng(1008)
    while True:
        g = erdos_renyi(20, 0.3, int(rng.integers(0, 2**31)))
        if g.is_connected:
            break
    roles = AgentRoles.from_pinned(20, {0: 0.0, 1: 1.0})
    w = uniform_gossip_matrix(g)
    direct = gossip_limit(g, roles)
    regular = list(roles.regular_ids)

    finals = []
    for seed in (5, 6):
        x = np.random.default_rng(seed).uniform(-5.0, 5.0, 20)
        x[0], x[1] = 0.0, 1.0
        for _ in range(100_000):
            x_new = w @ x
            x_new[0], x_new[1] = 0.0, 1.0  # the pinned agents keep their values
            if np.abs(x_new - x).max() < 1e-15:
                x = x_new
                break
            x = x_new
        assert np.abs(x[regular] - direct).max() <= 1e-8
        finals.append(x[regular])
    assert np.abs(finals[0] - finals[1]).max() <= 1e-8  # initialization forgotten
    assert direct.max() - direct.min() > 1e-6  # consensus is not reached


@criterion(9, "subgradient and ADMM limits agree and are certified")
def test_criterion_09_engine_cross_agreement():
    rng = np.random.default_rng(2026)
    certified_any = False
    for _ in range(20):
        while True:
            n = int(rng.integers(4, 8))
            g = erdos_renyi(n, 0.6, int(rng.integers(0, 2**31)))
            if g.is_connected:
                break
        x0 = rng.uniform(-1.0, 2.0, n)
        crit = ac_critical_lambda(g, x0)
        lam = float(rng.uniform(0.3, 1.8)) * max(crit, 1e-3)
        objs = Quadratic(g, x0)
        roles = AgentRoles.none(n)
        adm = run(
            AdmmEngine(lam, 1.0), g, x0, objs, roles,
            stop=StopRule(200_000, INF, 1e-12), record_every=10**9,
        )
        sub = run(
            SubgradientEngine(lam), g, x0, objs, roles,
            stop=StopRule(100_000, -1.0, -1.0), record_every=10**9,
        )
        assert np.abs(adm.final_x - sub.final_x).max() <= 1e-4
        if disagreement(adm.final_x) < 1e-7:
            # limit lies on the consensus space: its value is the data mean
            assert abs(float(adm.final_x.mean()) - x0.mean()) <= 1e-4
            cert = certify_consensus_minimizer(g, objs, float(x0.mean()), lam)
            assert cert.verdict == "certified"
            certified_any = True
    assert certified_any


@criterion(10, "byte-identical replay of experiment configs")
def test_criterion_10_determinism(tmp_path):
    configs = {
        "ac.yaml": """
graph: {generator: complete, n: 25}
objective:
  kind: quadratic
  data: {source: uniform, seed: 7}
lambda: {multiplier: 1.5}
engines:
  - {name: admm, max_iterations: 1500}
  - {name: subgradient, max_iterations: 400, record_every: 40}
output: {directory: '%OUT%', prefix: rep}
""",
        "stub.yaml": """
graph: {generator: erdos_renyi, n: 14, p: 0.6, seed: 3}
objective:
  kind: quadratic
  data: {source: uniform, seed: 9}
lambda: {value: 0.3}
engines:
  - {name: admm, max_iterations: 4000, disagreement_tol: -1, change_tol: 1.0e-12}
  - {name: gossip, max_iterations: 30000}
stubborn: {vertices: [2], values: [4.0]}
output: {directory: '%OUT%', prefix: rep}
""",
    }
    for name, template in configs.items():
        outputs = []
        for attempt in ("first", "second"):
            outdir = tmp_path / f"{name}.{attempt}"
            cfg_path = tmp_path / f"{name}.{attempt}.yaml"
            cfg_path.write_text(template.replace("%OUT%", str(outdir)))
            result = run_experiment(load_config(str(cfg_path)))
            outputs.append(sorted(result.csv_paths.values()))
        for a, b in zip(*outputs):
            with open(a, "rb") as fa, open(b, "rb") as fb:
                assert fa.read() == fb.read()
