"""Runtime scaling of one sampling step, hollow vs conventional GNN.

One step is a field evaluation plus one exact divergence.  The
conventional model needs n*d backward passes, so its divergence time
grows roughly like n^3 on a complete graph; the hollow model on a kNN
graph needs d passes and grows roughly linearly at fixed k.  The fitted
log-log slopes and the widening speed-up ratio are printed below.
The sweep is ``nbflow bench``'s at its default configuration.  Expect a
couple of minutes of wallclock.
"""

from nbflow import bench

ns = (8, 16, 32, 64)
hollow, baseline = [], []
print("n     hollow step (ms)   baseline step (ms)   speed-up")
for h, b in bench.scaling_sweep(ns, k=4, d=2, steps=2, n_hidden=32, repeats=3):
    hollow.append(h)
    baseline.append(b)
    print(f"{h.n:<5d} {h.rt * 1e3:14.2f}     {b.rt * 1e3:16.2f}   "
          f"{b.rt / h.rt:9.1f}x")

summary = bench.scaling_summary(hollow, baseline)
b_slope, b_err = summary["baseline_divergence_slope"]
h_slope, h_err = summary["hollow_step_slope"]
print(f"\nbaseline divergence time ~ n^{b_slope:.2f} (+/- {b_err:.2f})")
print(f"hollow step time         ~ n^{h_slope:.2f} (+/- {h_err:.2f})")
print(f"backward passes per step: hollow {hollow[0].reverse_passes}, "
      f"baseline {[r.reverse_passes for r in baseline]}")
