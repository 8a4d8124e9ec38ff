"""The benchmark in perfbench/ binds to package names; a rename must fail here.

``perfbench/layers.py`` rebinds package functions and ``numpy.linalg`` for a
traced run, and ``perfbench/run.py`` resolves certify's thread count for its
header on every run. Neither is exercised by any other test.
"""

import importlib
from pathlib import Path

import numpy as np

from schoenberg_lab import catalog_profile, cli, psd

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_layer_trace_installs_and_restores(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    layers = importlib.import_module("layers")
    eigvalsh, certify = np.linalg.eigvalsh, psd.certify_psd
    trace = layers.LayerTrace()
    try:
        trace.install()
        assert psd.certify_psd is not certify
        psd.certify_psd(catalog_profile("gaussian"), dim=2, trials=10, seed=1)
        assert trace.counts["psd.trials_run"] == 10
    finally:
        trace.uninstall()
    assert np.linalg.eigvalsh is eigvalsh
    assert psd.certify_psd is certify


def test_machine_header_resolves_threads(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    run = importlib.import_module("run")
    assert cli._resolve_threads(cli.build_parser().parse_args(["certify", "gaussian"])) == 1
    assert "cli threads=1" in run.machine_header(cli, None)[1]


def test_layer_trace_binds_handlers_after_the_parser_is_built(monkeypatch, capsys):
    # perfbench builds the parser and calls cli.main before it installs the
    # tracer; the tracer's handler spans must be recorded all the same
    monkeypatch.syspath_prepend(str(PERFBENCH))
    layers = importlib.import_module("layers")
    cli.build_parser()
    assert cli.main(["cm-check", "gaussian"]) == 0
    trace = layers.LayerTrace()
    try:
        trace.install()
        assert cli.main(["cm-check", "gaussian"]) == 0
    finally:
        trace.uninstall()
    capsys.readouterr()
    names = [span.name for span in trace.tracer.take()]
    assert names.count("cli.cmd_cm_check") == 1
    assert names.count("cli.main") == 1
