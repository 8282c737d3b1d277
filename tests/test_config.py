"""The table of config kinds: its coverage and the library's checks."""

import dataclasses

import numpy as np
import pytest

from nbflow import boltzmann as bz
from nbflow import cli, config
from nbflow import network as net
from nbflow import training as tr


def _fields(cls) -> set:
    return {f.name for f in dataclasses.fields(cls)}


def test_every_key_has_one_kind():
    # a field added later without a kind fails here
    sections = {"system": _fields(bz.SystemSpec),
                "model": _fields(net.ArchConfig),
                "train": _fields(tr.TrainConfig) - {"seed"},
                **{sec: set(cli.DEFAULT_CONFIG[sec])
                   for sec in ("sample", "mcmc", "bench")}}
    assert {sec: set(config.TABLE[sec]) for sec in sections} == sections
    assert set(config.TABLE) == set(cli.DEFAULT_CONFIG)


@pytest.mark.parametrize("section,key,value", [
    ("model", "steps", 2.0), ("model", "pairwise_diff", "false"),
    ("model", "baseline", 0), ("train", "epochs", 2.5),
    ("train", "sigma", float("nan")), ("train", "lr_initial", float("inf")),
    ("system", "mixture_sigmas", [float("nan"), 1.0]), ("", "seed", 1.5),
    ("", "out_dir", 5), ("mcmc", "step_size", float("inf"))])
def test_bad_value_message_starts_with_key(section, key, value):
    with pytest.raises(ValueError, match=f"^{key} must be .*, got "):
        config.check(section, {key: value})


def test_unknown_key_is_named():
    with pytest.raises(ValueError, match="^knn_q is not a known key"):
        config.check("model", {"knn_q": 3})
    with pytest.raises(ValueError, match="^seed is not a known key"):
        config.check("train", {"seed": 3})


def test_integers_are_strict_and_numpy_scalars_pass():
    assert [config.integer(1)[1](v) for v in (1, np.int64(2), 2.0, True, 0)] \
        == [True, True, False, False, False]
    # 10**400 does not fit a float, and is still a finite number
    assert [config.POSITIVE[1](v) for v in (10**400, np.float64(0.5), np.nan,
                                            True)] == [True, True, False, False]


@pytest.mark.parametrize("cls,kw,field", [
    (tr.TrainConfig, {"epochs": 2.5}, "epochs"),
    (tr.TrainConfig, {"sigma": np.nan}, "sigma"),
    (tr.TrainConfig, {"seed": -1}, "seed"),
    (bz.SystemSpec, {"kind": "gaussian", "n": 3, "d": 2,
                     "mixture_weights": [np.inf, 1.0]}, "mixture_weights")])
def test_validate_names_the_field(cls, kw, field):
    with pytest.raises(ValueError, match=f"^{field} must be"):
        cls(**kw).validate()


@pytest.mark.parametrize("weights", [None, [0.2, 0.7, 0.1], [3.0, 1.0, 1.0]])
def test_system_validate_is_idempotent(weights):
    spec = bz.SystemSpec(kind="gaussian_mixture", n=2, d=2,
                         mixture_means=[[0, 0], [1, 0], [0, 2]],
                         mixture_sigmas=[0.5, 1.0, 1.5],
                         mixture_weights=weights).validate()
    x = np.random.default_rng(0).standard_normal((2, 2))
    first = dataclasses.astuple(spec), bz.energy(x, spec)
    for _ in range(3):
        spec.validate()
    again = dataclasses.astuple(spec), bz.energy(x, spec)
    for a, b in zip(first[0] + (first[1],), again[0] + (again[1],)):
        np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("kw,field", [
    ({"step_size": np.inf}, "step_size"), ({"step_size": np.nan}, "step_size"),
    ({"thin": 0}, "thin"), ({"burn_in": -1}, "burn_in"),
    ({"n_samples": 2.0}, "n_samples")])
def test_mcmc_arguments_are_named(kw, field):
    spec = bz.SystemSpec(kind="gaussian", n=2, d=2).validate()
    with pytest.raises(ValueError, match=f"^{field} must be"):
        bz.mcmc_sample(spec, **{"n_samples": 4, "step_size": 0.5, **kw})
