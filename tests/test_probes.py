"""Every probe of the benchmark's traced runs installs on the src and
counts what it should, so a dropped or renamed binding fails tier-1."""

import importlib

from fairdp import cli
from test_cli import load_spans, write_config


def test_every_probe_installs_and_counts(tmp_path):
    spans = load_spans()
    saved = []
    for module_name, attr, _, _ in spans.LAYERS:
        module = importlib.import_module(module_name)
        saved.append((module, attr, getattr(module, attr)))
    try:
        tracer = spans.Tracer()
        spans.install(tracer, spans.LAYERS)
        # MINIMAL_SYNTH plans 2 epochs of 4 iterations; 17.5 allows 5
        path = write_config(tmp_path, tmp_path / "out", strategy="dpsgd-f",
                            training_extra="budget_target = 17.5")
        assert cli.main(["train", "--config", str(path)]) == 0
        metrics = spans.layer_metrics(tracer.spans)
    finally:
        for module, attr, binding in saved:
            setattr(module, attr, binding)
    # 6 budget checks (5 allowed, 1 refused), 2 epoch rows and the final epsilon
    assert metrics["privacy.to_epsilon.calls"] == 9
    # one plan in cmd_train and one in the private fit; the baseline releases nothing
    assert metrics["privacy.compose.calls"] == 2
    assert metrics["privacy.ledger_events"] == 2
    assert metrics["trainer.dp_step.calls"] == 8 + 5
