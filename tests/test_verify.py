import inspect
import math
from collections import Counter

import pytest

import reference
from covercount import cli, oracle, verify
from covercount.generate import cycle_graph
from covercount.graph import Graph, format_graph
from reference import sensitivity_bounds_suite as randrange_sensitivity_suite

# run_verification(seed=0) at the verify command's defaults, the run perfbench's verify-sweep times
DEFAULT_RUN_SUITES = [
    ("decay-bound", True, "worst_err=5.000e-01 bound_at_worst=1.500e+00"),
    ("decay-bound-dangling-free", True, "worst_err=5.000e-01 bound_at_worst=5.000e-01"),
    ("half-bound", True, "max_estimate=0.5 min_estimate=0.0"),
    ("fptas-eps=0.5", True, "worst_rel_err=2.220e-16 allowed=0.5"),
    ("fptas-eps=0.2", True, "worst_rel_err=2.220e-16 allowed=0.2"),
    ("fptas-eps=0.1", True, "worst_rel_err=2.220e-16 allowed=0.1"),
    ("exact-identities", True, "checked=860 violations=0"),
    ("dangling-combine-sensitivity", True, "trials=20000 worst_margin=-1.214e-05"),
    ("normal-combine-sensitivity", True, "trials=20000 worst_margin=-1.363e-04"),
]


def test_each_corpus_graph_reaches_the_oracle_once(monkeypatch):
    c4 = Graph.from_edges([(0, 1), (1, 2), (2, 3), (3, 0)])
    # parallel pair 0-1, normal 1-2, dangling at 2, free
    mixed = Graph.from_edges([(0, 1), (0, 1), (1, 2), (2,), ()])
    isolated = Graph([0, 1, 2], [(0, (0, 1))])
    corpus = [c4, mixed, isolated]
    monkeypatch.setattr(verify, "verification_corpus", lambda *_: list(corpus))

    calls = Counter()
    by_content = Counter()
    exact_count = oracle.exact_count
    exact_count_without = oracle.exact_count_without

    def counting(g, *args, **kwargs):
        by_content[format_graph(g)] += 1
        return exact_count(g, *args, **kwargs)

    def counting_without(g, *args, **kwargs):
        calls[id(g)] += 1
        return exact_count_without(g, *args, **kwargs)

    monkeypatch.setattr(verify, "exact_count", counting)
    monkeypatch.setattr(oracle, "exact_count", counting)
    monkeypatch.setattr(verify, "exact_count_without", counting_without)

    results = verify.run_verification(trials=1)

    assert all(r.passed for r in results), results
    # one forward-backward pass per corpus graph gives its count and every edge-deleted count
    assert [calls[id(g)] for g in corpus] == [1, 1, 1]
    assert sum(calls.values()) == len(corpus)
    counted = [format_graph(g) for g in corpus] + [format_graph(g.remove_edge(e)) for g in corpus for e in g.edge_ids]
    assert [by_content[text] for text in counted] == [0] * len(counted)


def test_a_graph_at_the_edge_cap_passes_the_identities(monkeypatch):
    # the free-edge doubling identity counts a graph one edge larger than g
    monkeypatch.setattr(verify, "verification_corpus", lambda *_: [cycle_graph(24)])

    results = verify.run_verification(max_edges=24, trials=1)

    assert all(r.passed for r in results), results


def test_a_count_past_float_range_is_judged_by_its_log(monkeypatch, capsys):
    # the normal edge is in every cover and the free edges double the count: 2^1030, past float range
    g = Graph.from_edges([(0, 1)] + [()] * 1030)
    monkeypatch.setattr(verify, "verification_corpus", lambda *_: [g])

    code = cli.main(["verify", "--max-edges", "1031", "--trials", "1"])

    out = capsys.readouterr().out
    assert code == 0, out
    assert "PASS fptas-eps=0.1 worst_rel_err=0.000e+00 allowed=0.1\n" in out


def test_half_bound_reports_the_smallest_estimate_it_saw(monkeypatch):
    # no 9-cycle estimate at depths 0..12 is 0, so a minimum that starts at 0 never moves
    g = cycle_graph(9)
    monkeypatch.setattr(verify, "verification_corpus", lambda *_: [g])
    smallest = min(min(verify.depth_sweep(g, e, verify.MAX_DEPTH)) for e in g.edge_ids)

    half = {r.name: r for r in verify.run_verification(trials=1)}["half-bound"]

    assert smallest == 0.2647058823529411
    assert half.passed
    assert half.detail == f"max_estimate=0.5 min_estimate={smallest!r}"


def test_half_bound_fails_an_estimate_one_ulp_above_one_half(monkeypatch):
    # a free edge's marginal is 1/2 exactly, so only the half bound, judged with no slack, can fail
    above = math.nextafter(0.5, 1.0)
    monkeypatch.setattr(verify, "verification_corpus", lambda *_: [Graph.from_edges([()])])
    monkeypatch.setattr(verify, "depth_sweep", lambda g, e, max_depth: [above] * (max_depth + 1))

    results = {r.name: r for r in verify.run_verification(trials=1)}

    assert results["decay-bound"].passed
    assert not results["half-bound"].passed
    assert results["half-bound"].detail == f"max_estimate={above!r} min_estimate=0.5"


@pytest.mark.parametrize(
    "depth, bound, failing",
    [
        (1, verify._SHARP_BOUND[1], {"decay-bound-dangling-free"}),
        # at depth 3 the float error is also above the sharp bound, 1/16
        (3, verify._DECAY_BOUND[3], {"decay-bound", "decay-bound-dangling-free"}),
    ],
    ids=["sharp", "decay"],
)
def test_decay_suites_fail_an_error_past_its_bound_that_the_float_error_meets(monkeypatch, depth, bound, failing):
    # edge 0's exact marginal is 1/3; an estimate fl(1/3) - bound has float error exactly the bound (1/4 at
    # depth 1, 3/16 at depth 3), but exact error bound + (1/3 - fl(1/3)), about 1.9e-17 above it
    g = Graph.from_edges([(0,), (0,)])
    sweep = verify.depth_sweep
    low = 1 / 3 - bound
    monkeypatch.setattr(verify, "verification_corpus", lambda *_: [g])
    monkeypatch.setattr(verify, "depth_sweep", lambda *a: [low if L == depth else v for L, v in enumerate(sweep(*a))])

    results = verify.run_verification(trials=1)

    assert abs(low - 1 / 3) == bound
    assert {r.name for r in results if not r.passed} == failing


def test_a_corpus_past_the_default_oracle_cap_passes():
    results = verify.run_verification(max_edges=30, instances=40, trials=1)

    assert all(r.passed for r in results), results


def test_the_verify_command_defaults_are_run_verifications():
    # perfbench's verify-sweep reads the parser's defaults; the acceptance gate calls run_verification()
    ns = cli.build_parser().parse_args(["verify"])
    params = inspect.signature(verify.run_verification).parameters
    parsed = {name: getattr(ns, name) for name in params}
    parsed["epsilons"] = tuple(parsed["epsilons"])
    assert parsed == {name: p.default for name, p in params.items()}


def test_the_default_run_reproduces_its_recorded_suites():
    assert [(r.name, r.passed, r.detail) for r in verify.run_verification(seed=0)] == DEFAULT_RUN_SUITES


@pytest.mark.parametrize("trials", [0, -5])
def test_sensitivity_suites_refuse_a_run_without_trials(trials):
    with pytest.raises(ValueError, match="trials must be at least 1"):
        verify.sensitivity_bounds_suite(0, trials)


@pytest.mark.parametrize("max_edges", [0, -3])
def test_verification_refuses_a_corpus_without_edges(max_edges):
    with pytest.raises(ValueError, match="max_edges must be at least 1"):
        verify.run_verification(max_edges=max_edges, instances=0, trials=1)


@pytest.mark.parametrize("seed", [1, 404, 12345])
def test_sensitivity_margins_skip_trials_without_a_bound(seed):
    # about one trial in nine has empty inputs, whose difference and bound are both 0
    results = verify.sensitivity_bounds_suite(seed, 200)
    assert all(r.passed for r in results), results
    for r in results:
        margin = float(r.detail.rsplit("=", 1)[1])
        assert -math.inf < margin < 0.0, r.detail


def test_sensitivity_margin_without_a_bounded_trial_is_minus_infinity():
    # seed 2's one dangling trial draws d = 0
    dangling, normal = verify.sensitivity_bounds_suite(2, 1)
    assert dangling.passed and dangling.detail == "trials=1 worst_margin=-inf"
    assert normal.passed and normal.detail == "trials=1 worst_margin=-2.638e-01"


@pytest.mark.parametrize("trials", [1, 7, 500, 5000])
def test_sensitivity_trials_draw_what_randrange_draws(trials):
    # the inlined getrandbits loop and per-trial draws replay the randrange/uniform spelling exactly
    for seed in range(20):
        assert verify.sensitivity_bounds_suite(seed, trials) == randrange_sensitivity_suite(seed, trials), seed


def test_sensitivity_combinators_get_what_randrange_feeds_them(monkeypatch):
    # SuiteResult's .3e would hide a last-bit slip in a rescaled product; the inputs' .hex() does not
    def recorders(module):
        log = []
        dangling, normal = module.dangling_combine, module.normal_combine

        def record_dangling(values):
            log.append(("dangling", math.prod(values, start=1.0).hex()))
            return dangling(values)

        def record_normal(x, y, z):
            # the reference's math.prod of an empty block is the int 1
            log.append(("normal", *(float(t).hex() for t in (x, y, z))))
            return normal(x, y, z)

        monkeypatch.setattr(module, "dangling_combine", record_dangling)
        monkeypatch.setattr(module, "normal_combine", record_normal)
        return log

    trials = 500
    got, want = recorders(verify), recorders(reference)
    for seed in range(20):
        got.clear()
        want.clear()
        verify.sensitivity_bounds_suite(seed, trials)
        randrange_sensitivity_suite(seed, trials)
        assert got == want, seed
        # both combinators run twice a trial, d = 0 trials included
        assert Counter(name for name, *_ in got) == {"dangling": 2 * trials, "normal": 2 * trials}, seed
