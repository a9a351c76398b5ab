"""scripts/bench_cycles.py names every instance whose sides disagree."""

from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def test_disagreements_name_instances_whose_nodes_or_values_differ(monkeypatch):
    monkeypatch.syspath_prepend(str(SCRIPTS))
    from bench_cycles import disagreements

    def row(side, instance, nodes, value_hex):
        return {"side": side, "instance": instance, "nodes": nodes, "value_hex": value_hex}

    rows = [row(side, "k8", 23415, "0x1.8p+4") for side in ("parent", "change") for _ in range(2)]
    rows += [row("parent", "grid6x6", 10, "0x1.0p+0"), row("change", "grid6x6", 11, "0x1.0p+0")]
    rows += [row("parent", "cycle9", 10, "0x1.0p+0"), row("change", "cycle9", 10, "0x1.8p+0")]
    rows.append({"side": "change", "instance": "k8", "error": "MemoryError"})
    assert disagreements(rows) == [
        "grid6x6: nodes=10 value=0x1.0p+0 from ['parent']; nodes=11 value=0x1.0p+0 from ['change']",
        "cycle9: nodes=10 value=0x1.0p+0 from ['parent']; nodes=10 value=0x1.8p+0 from ['change']",
    ]
