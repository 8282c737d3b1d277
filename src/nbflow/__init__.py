"""Non-backtracking message-passing flows with constant-cost exact divergence.

The package provides:

- ``autodiff``: a small reverse-mode tape over numpy arrays with detach
  and probe-vector Jacobian-diagonal extraction (d probes for the hollow
  field, n*d for brute force),
- ``graphs``: kNN graphs, non-backtracking line graphs, the dependence
  tracking table that drives edge pruning, and multi-head partitions,
- ``network``: the equivariant message-passing vector field whose Jacobian
  splits into a block-hollow and a block-diagonal part, plus a standard
  GNN baseline,
- ``flow``: the field with its exact divergence in one call
  (``field_and_divergence``), and fixed-step RK4 transport of samples and
  exact log-densities,
- ``training``: conditional flow matching with minibatch optimal-transport
  coupling and Adam,
- ``boltzmann``: analytic target energies, Metropolis MCMC data
  generation, importance weights and effective-sample-size metrics,
- ``bench``: runtime/backward-pass measurements and scaling-law fits,
- ``cli``: the ``nbflow`` command line entry point.
"""

from . import autodiff
from . import graphs
from . import network
from . import flow
from . import training
from . import boltzmann
from . import bench

__version__ = "0.1.0"

__all__ = [
    "autodiff", "graphs", "network", "flow", "training", "boltzmann",
    "bench",
]
