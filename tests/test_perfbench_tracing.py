"""perfbench's tracer patches package attributes by name; they must exist."""

from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_and_node_counter_patch_and_restore_every_name(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    targets = [(module, attr) for module, attr, _ in tracing.WRAPPED] + list(tracing.HOOKED)
    originals = [getattr(module, attr) for module, attr in targets]

    for patches in (tracing.Tracer(), tracing.NodeCounter()):
        patches.install()
        patches.restore()

    for (module, attr), original in zip(targets, originals):
        assert getattr(module, attr) is original, f"{module.__name__}.{attr}"
