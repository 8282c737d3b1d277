"""The library calls a traced round records, and the per-layer metrics.

Times (``*_s``) are self seconds per round, a round being one sampling
operation and the workload's training steps; ``boltzmann.mcmc_s`` is
seconds per set-up.
Counts are normalised as follows:

- ``graphs.lg_edges``: line-graph edges per configuration;
- ``graphs.lg_active``: active line-graph edges per configuration, summed
  over the pruning rounds;
- ``network.tape_nodes``: tape nodes per field evaluation;
- ``autodiff.reverse_passes``, ``autodiff.reverse_visits``,
  ``flow.stages``: per sampling operation;
- ``flow.topology_reuse``: share of (configuration, RK4 stage) pairs, from
  the second stage on, whose kNN graph equals the previous stage's.
"""

from __future__ import annotations

import numpy as np

from nbflow import autodiff, boltzmann, flow, graphs, network, training
from spans import SpanRecorder

# span name == metric name: self seconds per round
TIME_METRICS = (
    "graphs.knn_s", "graphs.line_graph_s", "graphs.prune_s",
    "network.plan_s", "network.tape_forward_s", "autodiff.vjp_s",
    "flow.rate_s", "flow.rk4_s", "flow.sample_s", "boltzmann.weights_s",
    "training.ot_s", "training.batch_s", "training.loss_grad_s",
    "training.adam_s",
)
OP_SPANS = ("op.sample", "op.train")  # the benchmark's own calls

UNITS = {name: "s" for name in TIME_METRICS}
UNITS.update({
    "graphs.lg_edges": "count", "graphs.lg_active": "count",
    "network.tape_nodes": "count", "autodiff.reverse_passes": "count",
    "autodiff.reverse_visits": "count", "flow.stages": "count",
    "flow.topology_reuse": "ratio", "boltzmann.mcmc_s": "s",
    "trace.op_s": "s", "trace.unattributed_s": "s",
    "trace.overhead": "ratio",
})


def _same_graph(a, b) -> bool:
    return np.array_equal(a.src, b.src) and np.array_equal(a.dst, b.dst)


class LayerTrace:
    """Wraps the layers' public calls and counts what they did."""

    def __init__(self):
        rec = self.rec = SpanRecorder()
        self.kind = None           # "sample" or "train": the running operation
        self._plan_graphs = []     # kNN graphs of the plan being built
        self._last_plan = []
        self._prev_stage = None    # kNN graphs of the previous RK4 stage
        rec.wrap(graphs, "build_knn_graph", "graphs.knn_s",
                 after=lambda a, g, _: self._plan_graphs.append(g))
        rec.wrap(graphs, "build_line_graph", "graphs.line_graph_s",
                 after=self._line_graph_built)
        rec.wrap(graphs, "init_backtracking", "graphs.prune_s")
        rec.wrap(graphs, "prune_and_update", "graphs.prune_s",
                 after=lambda a, out, _: self._count("lg_active", a[0].n_active))
        rec.wrap(network, "make_plan", "network.plan_s",
                 before=self._plan_started, after=self._plan_built)
        rec.wrap(network, "build_field", "network.tape_forward_s",
                 after=self._field_built)
        rec.wrap(autodiff, "vjp", "autodiff.vjp_s")
        rec.wrap(autodiff.Tape, "vjp", "autodiff.vjp_s",
                 before=lambda a: a[0].n_reverse_visits,
                 after=self._reverse_pass_done)
        rec.wrap(flow.ModelField, "rate", "flow.rate_s",
                 after=self._stage_done)
        rec.wrap(flow, "rk4_integrate", "flow.rk4_s",
                 before=self._integration_started)
        rec.wrap(flow, "sample_with_likelihood", "flow.sample_s")
        rec.wrap(boltzmann, "importance_weights", "boltzmann.weights_s")
        rec.wrap(boltzmann, "ess_kish", "boltzmann.weights_s")
        rec.wrap(training, "minibatch_ot_coupling", "training.ot_s")
        rec.wrap(training, "make_cfm_batch", "training.batch_s")
        rec.wrap(training, "cfm_loss_and_grad", "training.loss_grad_s")
        rec.wrap(training.Adam, "step", "training.adam_s")

    def call(self, kind: str, fn):
        """Run one operation of ``kind`` inside its own span."""
        self.kind = kind
        self._count("ops")
        try:
            return self.rec.run(f"op.{kind}", fn)
        finally:
            self.kind = None

    def _count(self, name: str, value=1):
        self.rec.counts[f"{self.kind}.{name}"] += value

    def _line_graph_built(self, args, lg, _):
        self._count("line_graphs")
        self._count("lg_edges", lg.n_triples)

    def _plan_started(self, args):
        self._plan_graphs = []

    def _plan_built(self, args, plan, _):
        self._last_plan = self._plan_graphs

    def _field_built(self, args, fb, _):
        self._count("fields")
        self._count("tape_nodes", len(fb.tape))

    def _reverse_pass_done(self, args, out, visits_before):
        self._count("reverse_passes")
        self._count("reverse_visits", args[0].n_reverse_visits - visits_before)

    def _integration_started(self, args):
        self._prev_stage = None

    def _stage_done(self, args, out, _):
        self._count("stages")
        cur = self._last_plan
        if self._prev_stage is not None and len(cur) == len(self._prev_stage):
            self._count("topology_pairs", len(cur))
            self._count("topology_same", sum(
                _same_graph(a, b) for a, b in zip(cur, self._prev_stage)))
        self._prev_stage = cur

    def metrics(self, rounds: int, op_s: float, overhead: float,
                mcmc_s: float) -> dict[str, float]:
        """Per-layer metrics over ``rounds`` traced rounds.

        ``op_s`` is the mean traced round time, which the self times of
        the layers plus ``trace.unattributed_s`` add up to.
        """
        selfs = self.rec.self_times()
        c = self.rec.counts

        def total(name):
            return c[f"sample.{name}"] + c[f"train.{name}"]

        def ratio(num, den):
            return num / den if den else 0.0

        out = {name: selfs.get(name, 0.0) / rounds for name in TIME_METRICS}
        out.update({
            "graphs.lg_edges": ratio(total("lg_edges"), total("line_graphs")),
            "graphs.lg_active": ratio(total("lg_active"), total("line_graphs")),
            "network.tape_nodes": ratio(total("tape_nodes"), total("fields")),
            "autodiff.reverse_passes": ratio(c["sample.reverse_passes"],
                                             c["sample.ops"]),
            "autodiff.reverse_visits": ratio(c["sample.reverse_visits"],
                                             c["sample.ops"]),
            "flow.stages": ratio(c["sample.stages"], c["sample.ops"]),
            "flow.topology_reuse": ratio(c["sample.topology_same"],
                                         c["sample.topology_pairs"]),
            "boltzmann.mcmc_s": mcmc_s,
            "trace.op_s": op_s,
            "trace.unattributed_s": sum(selfs.get(s, 0.0)
                                        for s in OP_SPANS) / rounds,
            "trace.overhead": overhead,
        })
        return out
