from collections import Counter

from covercount import oracle, verify
from covercount.generate import cycle_graph
from covercount.graph import Graph, format_graph


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

    def counting(g, *args, **kwargs):
        calls[id(g)] += 1
        by_content[format_graph(g)] += 1
        return exact_count(g, *args, **kwargs)

    monkeypatch.setattr(verify, "exact_count", counting)
    monkeypatch.setattr(oracle, "exact_count", counting)

    results = verify.run_verification(trials=1)

    assert all(r.passed for r in results), results
    assert [calls[id(g)] for g in corpus] == [1, 1, 1]
    deleted = [format_graph(g.remove_edge(e)) for g in corpus for e in g.edge_ids]
    assert [by_content[text] for text in deleted] == [1] * len(deleted)


def test_a_graph_at_the_edge_cap_passes_the_identities(monkeypatch):
    # the free-edge doubling identity counts a graph one edge larger than g
    monkeypatch.setattr(verify, "verification_corpus", lambda *_: [cycle_graph(24)])

    results = verify.run_verification(max_edges=24, trials=1)

    assert all(r.passed for r in results), results
