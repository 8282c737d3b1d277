"""Runtime scaling of one sampling step, hollow vs conventional GNN.

One step is a field evaluation plus one exact divergence.  The
conventional model needs n*d backward passes, so its divergence time
grows roughly like n^3 on a complete graph; the hollow model on a kNN
graph needs d passes and grows roughly linearly at fixed k.  The fitted
log-log slopes and the widening speed-up ratio are printed below.
Expect a couple of minutes of wallclock.
"""

import numpy as np

from nbflow import bench
from nbflow import network as net

rng = np.random.default_rng(0)
ns = (8, 16, 32, 64)
hollow, baseline = [], []
print("n     hollow step (ms)   baseline step (ms)   speed-up")
for n in ns:
    x = rng.standard_normal((n, 2))
    hcfg = net.ArchConfig(n_hidden=32, steps=2, knn_k=4).validate()
    bcfg = net.ArchConfig(n_hidden=32, steps=2, baseline=True).validate()
    h = bench.measure_step(net.init_params(hcfg, seed=1), hcfg, x, repeats=3)
    b = bench.measure_step(net.init_params(bcfg, seed=1), bcfg, x, repeats=3)
    hollow.append(h)
    baseline.append(b)
    print(f"{n:<5d} {h.rt * 1e3:14.2f}     {b.rt * 1e3:16.2f}   "
          f"{b.rt / h.rt:9.1f}x")

b_slope, b_err = bench.fit_scaling(ns, [r.rt_divergence for r in baseline])
h_slope, h_err = bench.fit_scaling(ns, [r.rt for r in hollow])
print(f"\nbaseline divergence time ~ n^{b_slope:.2f} (+/- {b_err:.2f})")
print(f"hollow step time         ~ n^{h_slope:.2f} (+/- {h_err:.2f})")
print(f"backward passes per step: hollow {hollow[0].reverse_passes}, "
      f"baseline {[r.reverse_passes for r in baseline]}")
