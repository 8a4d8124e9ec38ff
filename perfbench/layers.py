"""Outside-in tracing of schoenberg_lab's layers.

``LayerTrace.install`` rebinds public functions in the package's modules (and
``numpy.linalg.eigvalsh``/``eigh``) to wrappers that record a span per call
and count work at the same boundary. ``uninstall`` puts the originals back.
The package's own source is not touched.
"""

from __future__ import annotations

import statistics
import threading
from collections import Counter, defaultdict

import numpy as np

from schoenberg_lab import (cli, definetti, measures, monotonicity, profiles,
                            psd, recover, rng)

from spans import Tracer, self_times


def unit_of(name: str) -> str:
    """Unit of a metric of the traced run, read from its name.

    Layer times and counts are per pass; reference points are per measurement.
    """
    if name.endswith("_rms"):
        return "1"
    if name.endswith("_ratio"):
        return "ratio"
    if name.startswith(("ref.", "trace.")):
        return "s"
    return "s/pass" if name.endswith(("_s", ".s")) else "count/pass"


class LayerTrace:
    """Wrappers for one traced run; counts and spans are read per pass."""

    def __init__(self):
        self.tracer = Tracer()
        self.counts: Counter = Counter()
        self._saved: list = []
        self._local = threading.local()  # trial index of the current certify trial
        self._evaluated: set | None = None  # trial indices eigen-solved in this certify call
        self.certify_calls: list[tuple[int, int]] = []  # (trials evaluated, trials run)

    def _bind(self, owner, attr: str, name: str, body=None, on_result=None) -> None:
        original = getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, self.tracer.wrap(name, body(original) if body else original,
                                              on_result))

    def install(self) -> None:
        count = self.counts

        def certify_body(original):
            def certify(*args, **kwargs):
                self._evaluated = set()
                try:
                    report = original(*args, **kwargs)
                finally:
                    evaluated, self._evaluated = self._evaluated, None
                done = sum(1 for i in evaluated if i < report.trials_run)
                self.certify_calls.append((done, report.trials_run))
                count["psd.trials_run"] += report.trials_run
                count["psd.trials_evaluated"] += done
                return report
            return certify

        def trial_substream_body(original):
            def substream(seed, *key):
                if key and key[0] == rng.ROLE_TRIAL:
                    self._local.trial = key[1]
                return original(seed, *key)
            return substream

        def eigvalsh_body(original):
            def eigvalsh(*args, **kwargs):
                evaluated = self._evaluated
                if evaluated is not None:
                    evaluated.add(getattr(self._local, "trial", None))
                return original(*args, **kwargs)
            return eigvalsh

        def parallel_map_body(original):
            def parallel_map(fn, n_items, threads=1):
                return original(self.tracer.carry(fn), n_items, threads)
            return parallel_map

        lock = threading.Lock()  # certify's worker threads count profile evaluations

        def add(key, value_of):
            def on_result(args, kwargs, result):
                value = value_of(args, kwargs, result)
                with lock:
                    count[key] += value
            return on_result

        self._bind(cli, "main", "cli.main")
        for attr in [a for a in vars(cli) if a.startswith("cmd_")]:
            self._bind(cli, attr, f"cli.{attr}")

        self._bind(psd, "certify_psd", "psd.certify", body=certify_body)
        self._bind(psd, "gram_matrix", "psd.gram_matrix")
        self._bind(psd, "substream", "rng.substream", body=trial_substream_body)
        self._bind(psd, "parallel_map", "rng.parallel_map", body=parallel_map_body)
        self._bind(np.linalg, "eigvalsh", "psd.eigensolve", body=eigvalsh_body)
        self._bind(np.linalg, "eigh", "psd.eigensolve")
        self._bind(profiles.RadialProfile, "__call__", "profiles.eval",
                   on_result=add("profiles.eval.points", lambda a, k, r: np.size(a[1])))

        for module in (measures, definetti):
            self._bind(module, "substream", "rng.substream")
            self._bind(module, "draw_scales", "measures.draw_scales",
                       on_result=add("measures.draw_scales.draws", lambda a, k, r: len(r)))
        self._bind(measures, "ks_two_sample", "measures.ks_two_sample")
        self._bind(measures, "marginal_consistency_check", "measures.consistency")
        self._bind(measures, "resolve_measure", "measures.resolve")

        reps = add("definetti.replicates", lambda a, k, r: k.get("reps", 0))
        self._bind(definetti, "key_identity_mc", "definetti.key_identity_mc", on_result=reps)
        self._bind(definetti, "estimate_mixing", "definetti.estimate_mixing", on_result=reps)

        self._bind(recover, "recover_mixing", "recover.recover_mixing")
        self._bind(recover, "design_matrix", "recover.design_matrix")
        self._bind(recover, "nnls", "recover.nnls",
                   on_result=add("recover.nnls.iterations", lambda a, k, r: r[1]))
        self._bind(recover, "wasserstein1", "recover.compare")
        self._bind(recover, "ks_distance", "recover.compare")

        self._bind(monotonicity, "complete_monotonicity_check", "monotonicity.check")
        self._bind(monotonicity, "alternating_differences", "monotonicity.differences")

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def take_pass(self) -> tuple[list, dict]:
        """(spans, per-layer metrics) of the pass that just ended; resets both."""
        spans = self.tracer.take()
        counts = Counter(self.counts)
        self.counts.clear()  # the installed wrappers hold this Counter
        return spans, layer_metrics(spans, counts)


def layer_metrics(spans, counts) -> dict:
    """Per-layer metrics of one pass: work counts, busy time and self time."""
    selfs = self_times(spans)
    calls: Counter = Counter()
    total: dict = defaultdict(float)
    own: dict = defaultdict(float)
    for s in spans:
        calls[s.name] += 1
        total[s.name] += s.duration
        own[s.name] += selfs[s.id]
    run = counts["psd.trials_run"]
    return {
        "rng.substream.calls": calls["rng.substream"],
        "rng.substream.s": total["rng.substream"],
        "rng.parallel_map.calls": calls["rng.parallel_map"],
        "rng.parallel_map.s": total["rng.parallel_map"],
        "profiles.eval.calls": calls["profiles.eval"],
        "profiles.eval.points": counts["profiles.eval.points"],
        "profiles.eval.s": total["profiles.eval"],
        "psd.gram_matrix.calls": calls["psd.gram_matrix"],
        "psd.gram_matrix.self_s": own["psd.gram_matrix"],
        "psd.eigensolve.calls": calls["psd.eigensolve"],
        "psd.eigensolve.s": total["psd.eigensolve"],
        "psd.certify.self_s": own["psd.certify"],
        "psd.trials_run": run,
        "psd.trials_evaluated": counts["psd.trials_evaluated"],
        "psd.evaluated_ratio": counts["psd.trials_evaluated"] / run if run else 0.0,
        "measures.draw_scales.calls": calls["measures.draw_scales"],
        "measures.draw_scales.draws": counts["measures.draw_scales.draws"],
        "measures.draw_scales.s": total["measures.draw_scales"],
        "measures.ks_two_sample.calls": calls["measures.ks_two_sample"],
        "measures.ks_two_sample.s": total["measures.ks_two_sample"],
        "measures.consistency.self_s": own["measures.consistency"],
        "measures.resolve.s": total["measures.resolve"],
        "definetti.key_identity_mc.self_s": own["definetti.key_identity_mc"],
        "definetti.estimate_mixing.self_s": own["definetti.estimate_mixing"],
        "definetti.replicates": counts["definetti.replicates"],
        "recover.nnls.calls": calls["recover.nnls"],
        "recover.nnls.iterations": counts["recover.nnls.iterations"],
        "recover.nnls.s": total["recover.nnls"],
        "recover.design_matrix.s": total["recover.design_matrix"],
        "recover.recover_mixing.self_s": own["recover.recover_mixing"],
        "recover.compare.s": total["recover.compare"],
        "monotonicity.differences.calls": calls["monotonicity.differences"],
        "monotonicity.differences.s": total["monotonicity.differences"],
        "cli.self_s": sum(v for name, v in own.items() if name.startswith("cli.")),
    }


def summarize_passes(layer_passes) -> tuple[dict, list]:
    """(median time and exact count per pass, names of counts that varied)."""
    values, varying = {}, []
    for name in layer_passes[0]:
        column = [lp[name] for lp in layer_passes]
        if unit_of(name) == "s/pass":
            values[name] = statistics.median(column)
            continue
        values[name] = column[0]
        if any(v != column[0] for v in column):
            varying.append(name)
    return values, varying
