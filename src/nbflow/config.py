"""One table of the values every configuration key accepts.

``TABLE`` mirrors the JSON configuration and gives each key its kind,
(what the value must be, its test), which ``check`` applies.  Rules that
tie keys together stay with the config class that owns them.
"""

from __future__ import annotations

import math
import numbers

SWEEP_SHAPE = "at least 4 sweep points spanning at least a 4x range"


def sweep_ok(ns) -> bool:
    """Whether the sizes ``ns`` have the shape a slope fit needs."""
    return len(ns) >= 4 and max(ns) >= 4 * min(ns)


# the type tests come first only because they are faster than isinstance
def _integer(v) -> bool:
    return type(v) is int or (isinstance(v, numbers.Integral)
                              and not isinstance(v, bool))


def _finite(v) -> bool:  # an int of any size is finite
    if type(v) is float:
        return math.isfinite(v)
    return _integer(v) or (isinstance(v, numbers.Real)
                           and not isinstance(v, bool) and math.isfinite(v))


def _shape(v) -> tuple | None:
    """The shape of a rectangular nest of lists of finite numbers, or None."""
    v = v.tolist() if hasattr(v, "tolist") else v
    if not isinstance(v, (list, tuple)):
        return () if _finite(v) else None
    inner = {_shape(u) for u in v} or {()}
    return None if len(inner) > 1 or None in inner else (len(v), *inner.pop())


def integer(low: int) -> tuple:
    return f"an integer >= {low}", lambda v: _integer(v) and v >= low


def one_of(*choices) -> tuple:
    return (f"one of {', '.join(map(str, choices))}",
            lambda v: (v is None or isinstance(v, str)) and v in choices)


def optional(kind: tuple) -> tuple:
    return f"{kind[0]} or null", lambda v: v is None or kind[1](v)


POSITIVE = "a finite number > 0", lambda v: _finite(v) and v > 0
FLAG = "true or false", lambda v: isinstance(v, bool)
DIMENSION = "2 or 3", lambda v: _integer(v) and v in (2, 3)
ARRAY = optional(("a rectangular array of finite numbers",
                  lambda v: _shape(v) is not None))
SECTION = "an object", lambda v: isinstance(v, dict)

# section -> key -> kind, and the top level's seed and out_dir; train has
# no seed, because the top-level seed is the one seed
TABLE = {
    "system": {
        "kind": one_of("lennard_jones", "gaussian", "gaussian_mixture"),
        "n": integer(1), "d": DIMENSION, "beta": POSITIVE, "r_min": POSITIVE,
        "eps_lj": POSITIVE, "tau_lj": POSITIVE, "mixture_means": ARRAY,
        "mixture_sigmas": ARRAY, "mixture_weights": ARRAY},
    "model": {
        "n_hidden": integer(1), "n_rbf": integer(1), "rbf_cutoff": POSITIVE,
        "n_types": integer(1), "steps": integer(1), "pairwise_diff": FLAG,
        "attention": one_of(None, "product", "softmax"),
        "unique_nodes": integer(0), "knn_k": optional(integer(1)),
        "heads": optional(integer(1)), "overlap": integer(0),
        "baseline": FLAG, "prune": FLAG, "seed": integer(0)},
    "train": {
        "batch_size": integer(1), "lr_initial": POSITIVE,
        "lr_final": POSITIVE, "ramp_epochs": integer(0), "epochs": integer(1),
        "checkpoint_every": integer(1),
        "validation_fraction": ("a finite number in [0, 1)",
                                lambda v: _finite(v) and 0 <= v < 1),
        "sigma": ("a finite number >= 0", lambda v: _finite(v) and v >= 0)},
    "sample": {
        "count": integer(1), "divergence_mode": one_of("hollow", "brute", "fd"),
        "integrator_steps": integer(1), "batch_size": integer(1)},
    "mcmc": {
        "n_samples": integer(1), "step_size": POSITIVE, "burn_in": integer(0),
        "thin": integer(1)},
    "bench": {
        "n_list": (f"a list of integers >= 2, {SWEEP_SHAPE}",
                   lambda v: isinstance(v, list) and all(
                       _integer(n) and n >= 2 for n in v) and sweep_ok(v)),
        "k": integer(1), "d": DIMENSION, "steps": integer(1),
        "n_hidden": integer(1), "repeats": integer(3)},
    "seed": integer(0),
    "out_dir": ("a string", lambda v: isinstance(v, str)),
}


def check(section: str, values: dict) -> None:
    """Check ``values`` against ``TABLE[section]`` (the top level for "");
    a ValueError starts with the key, and the caller names the section."""
    kinds = TABLE[section] if section else TABLE
    for key, v in values.items():
        kind = kinds.get(key)
        if kind is None:
            raise ValueError(f"{key} is not a known key")
        what, ok = SECTION if type(kind) is dict else kind
        if not ok(v):
            raise ValueError(f"{key} must be {what}, got {v!r}")
