import configparser
import contextlib
import csv
import dataclasses
import io
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vqspectral import anglenet, cli, training
from vqspectral.config import (
    ExperimentConfig,
    build_system,
    canonical_text,
    parse_config,
    parse_config_text,
)
from vqspectral.errors import ConfigurationError
from vqspectral.spectral import BENCHMARK_PDES

from conftest import fail_grad_total_at

GOLDEN = Path(__file__).parent / "golden"
CONFIGS = Path(__file__).parent.parent / "configs"

MINI_RUN_CFG = """
[benchmark]
pde = helm1d
boundary = dirichlet
n_modes = 8
k_squared = 4.0

[circuit]
ansatz = hardware_efficient_ry
layers = 3

[network]
hidden = 24
activation = gelu

[dataset]
family = trig_1d
train_size = 3
test_size = 3
seed = 3

[train]
objective = normalized
learning_rate = 0.005
epochs = 120
eval_every = 60
seed = 1
"""


# ---------------------------------------------------------------------------
# Config parsing


def test_defaults_round_trip():
    cfg = ExperimentConfig()
    text = canonical_text(cfg)
    assert parse_config_text(text) == cfg


@pytest.mark.parametrize("name", ["default"] + sorted(p.stem for p in CONFIGS.glob("*.cfg")))
def test_canonical_text_matches_golden(name):
    # every verb writes this text as resolved_config.txt; old ones must re-parse unchanged
    cfg = ExperimentConfig() if name == "default" else parse_config(CONFIGS / f"{name}.cfg")
    golden = (GOLDEN / "canonical" / f"{name}.txt").read_text(encoding="utf-8")
    assert canonical_text(cfg) == golden
    assert parse_config_text(golden) == cfg


def test_canonicalization_idempotent():
    cfg = parse_config_text(MINI_RUN_CFG)
    once = canonical_text(cfg)
    twice = canonical_text(parse_config_text(once))
    assert once == twice


_REALS = st.floats(allow_nan=False, allow_infinity=False)
_K_VALUES = st.floats(-1e154, 1e154)  # k^2 stays finite
_UNIT = st.floats(0.0, 1.0, exclude_max=True)
_POSITIVE = st.floats(0.0, 1e6, exclude_min=True)
_COUNTS = st.integers(1, 10_000)
_POWERS = st.integers(1, 12).map(lambda e: 1 << e)


def _tuples(values, min_size=0):
    return st.lists(values, min_size=min_size, max_size=4).map(tuple)


# the dataset families that sample a domain with this many directions
FAMILIES_BY_DIRECTIONS = {1: ["trig_1d"], 2: ["trig_2d", "wave_family"]}


def _directions(pde, dimensions):
    """Written out apart from the config: wave1d is space-time, joint_helm reads dimensions."""
    if pde == "joint_helm":
        return dimensions
    return 2 if pde == "wave1d" else int(pde[-2])


@st.composite
def _valid_configs(draw):
    """Any config _validate accepts: every field drawn, within its checked range."""
    k_min, k_max = sorted(draw(st.tuples(_K_VALUES, _K_VALUES)))
    pde, dimensions = draw(st.sampled_from(BENCHMARK_PDES)), draw(st.integers(1, 2))
    dirs = _directions(pde, dimensions)
    families = ["shallow_ry", *FAMILIES_BY_DIRECTIONS[dirs]]
    family = draw(st.sampled_from(families + ["joint_k"] * (pde == "joint_helm")))
    grid = family in FAMILIES_BY_DIRECTIONS[2]  # a conv network needs grid features
    values = dict(
        pde=st.just(pde),
        boundary=st.sampled_from(["dirichlet"] + ["neumann"] * (pde not in ("cd1d", "cd2d"))),
        # at least two qubits, at most 1024 unknowns
        n_modes=st.integers(2 // dirs, 10 // dirs).map(lambda e: 1 << e),
        dimensions=st.just(dimensions),
        epsilon=_REALS,
        k_squared=_REALS,
        nu=_REALS,
        nu2=_REALS,
        ansatz=st.sampled_from(["hardware_efficient_ry", "strongly_entangling"]),
        layers=_COUNTS,
        hidden=_tuples(_COUNTS),
        activation=st.sampled_from(["relu", "gelu", "identity"]),
        conv_channels=_tuples(_COUNTS) if grid else st.just(()),
        conv_kernel=_COUNTS.map(lambda k: 2 * k - 1),
        family=st.just(family),
        train_size=_COUNTS,
        test_size=st.integers(0, 10_000),
        data_seed=st.integers(0, 2**63),  # numpy seeds are non-negative
        k_min=st.just(k_min),
        k_max=st.just(k_max),
        k_is_squared=st.booleans() if k_min >= 0 else st.just(False),
        objective=st.sampled_from(["unnormalized", "normalized"]),
        optimizer=st.sampled_from(["adam", "lbfgs"]),
        learning_rate=_POSITIVE,
        beta1=_UNIT,
        beta2=_UNIT,
        adam_epsilon=_POSITIVE,
        epochs=_COUNTS,
        eval_every=_COUNTS,
        gradient_mode=st.sampled_from(["adjoint", "parameter_shift"]),
        net_seed=st.integers(0, 2**63),  # numpy seeds are non-negative
        # a study needs at least one entry of each list; there is no wave2d
        thresholds=_tuples(st.floats(0.0, allow_infinity=False), min_size=1),
        scaling_modes=_tuples(_POWERS, min_size=1),
        scaling_dims=_tuples(st.just(1) if pde == "wave1d" else st.integers(1, 2), min_size=1),
        signflip_seeds=_COUNTS,
    )
    assert set(values) == {f.name for f in dataclasses.fields(ExperimentConfig)}
    return ExperimentConfig(**{name: draw(strategy) for name, strategy in values.items()})


@settings(max_examples=100, deadline=None)
@given(_valid_configs())
def test_canonicalization_idempotent_property(cfg):
    text = canonical_text(cfg)
    assert parse_config_text(text) == cfg
    assert canonical_text(parse_config_text(text)) == text


def test_partial_config_fills_defaults():
    cfg = parse_config_text("[benchmark]\npde = rd1d\n")
    assert cfg.pde == "rd1d"
    assert cfg.layers == ExperimentConfig().layers


def test_unknown_section_rejected():
    with pytest.raises(ConfigurationError, match="quantum"):
        parse_config_text("[quantum]\nfoo = 1\n")


def test_unknown_key_rejected_by_name():
    with pytest.raises(ConfigurationError, match="n_qubits"):
        parse_config_text("[benchmark]\nn_qubits = 4\n")


def test_invalid_value_rejected():
    with pytest.raises(ConfigurationError, match="epochs"):
        parse_config_text("[train]\nepochs = many\n")


def test_invalid_enums_rejected():
    with pytest.raises(ConfigurationError):
        parse_config_text("[benchmark]\npde = heat1d\n")
    with pytest.raises(ConfigurationError):
        parse_config_text("[circuit]\nansatz = qaoa\n")


def test_seed_override():
    cfg = ExperimentConfig()
    seeded = cfg.with_seed(99)
    assert seeded.data_seed == 99 and seeded.net_seed == 100


def test_build_system_shapes():
    assert build_system(ExperimentConfig()).size == 16
    plane = "[dataset]\nfamily = trig_2d\n"  # the default trig_1d samples a line
    cfg2 = parse_config_text("[benchmark]\npde = rd2d\nn_modes = 4\n" + plane)
    assert build_system(cfg2).size == 16
    wave = parse_config_text("[benchmark]\npde = wave1d\nn_modes = 4\n" + plane)
    system = build_system(wave)
    assert system.size == 16 and system.direction_count == 2
    joint2 = parse_config_text(
        "[benchmark]\npde = joint_helm\ndimensions = 2\nn_modes = 4\n" + plane
    )
    assert build_system(joint2).parametric_parts is not None


# ---------------------------------------------------------------------------
# CLI verbs


def write_cfg(tmp_path, text):
    path = tmp_path / "experiment.cfg"
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_dry_run_prints_and_touches_nothing(tmp_path, capsys):
    cfg_path = write_cfg(tmp_path, MINI_RUN_CFG)
    out_dir = tmp_path / "out"
    code = cli.main(["run", "--config", cfg_path, "--out", str(out_dir), "--dry-run"])
    assert code == 0
    assert "[benchmark]" in capsys.readouterr().out
    assert not out_dir.exists()


def test_malformed_config_exits_two(tmp_path, capsys):
    cfg_path = write_cfg(tmp_path, "[benchmark]\nwavelength = 3\n")
    code = cli.main(["run", "--config", cfg_path, "--out", str(tmp_path / "o")])
    assert code == 2
    assert "wavelength" in capsys.readouterr().err


def test_scaling_with_overflowing_products_exits_one(tmp_path, capsys):
    # entries near 1e300 are finite, but the products of A^dag A overflow to inf and NaN
    text = (
        "[benchmark]\npde = cd1d\nn_modes = 4\nepsilon = 1e-300\nnu = 1e300\n"
        "[study]\nscaling_modes = 4\nscaling_dims = 1\n"
    )
    out_dir = tmp_path / "out"
    code = cli.main(["scaling", "--config", write_cfg(tmp_path, text), "--out", str(out_dir)])
    captured = capsys.readouterr()
    assert code == 1
    assert re.search(r"^error: cd1d\^dag cd1d: coefficient of [IXYZ]{2} is not finite$", captured.err)
    assert "RuntimeWarning" not in captured.err
    assert not (out_dir / "scaling.csv").exists()


def _exits_two_naming(tmp_path, capsys, text, name, verb="run", dry_run=True):
    cfg_path = write_cfg(tmp_path, text)
    argv = [verb, "--config", cfg_path, "--out", str(tmp_path / "o")] + ["--dry-run"] * dry_run
    assert cli.main(argv) == 2  # rejected at parse time, before the dry run prints
    captured = capsys.readouterr()
    assert name in captured.err and not captured.out


@pytest.mark.parametrize(
    "key, value",
    [
        ("eval_every", 0),
        ("eval_every", -3),
        ("epochs", 0),
        ("train_size", 0),
        ("test_size", -1),
        ("layers", 0),
        ("learning_rate", 0),
        ("hidden", "24,0"),
        ("signflip_seeds", 0),
    ],
)
def test_nonpositive_train_counts_exit_two(tmp_path, capsys, key, value):
    text = MINI_RUN_CFG + "\n[study]\nsignflip_seeds = 10\n"
    text = re.sub(rf"^{key} = .*$", f"{key} = {value}", text, flags=re.M)
    _exits_two_naming(tmp_path, capsys, text, key)


@pytest.mark.parametrize(
    "k_lines",
    ["k_min = 5.0\nk_max = 4.0", "k_min = -1.0\nk_is_squared = true"],
    ids=["reversed", "negative_k2"],
)
def test_bad_k_range_exits_two(tmp_path, capsys, k_lines):
    text = MINI_RUN_CFG.replace("[dataset]\n", f"[dataset]\n{k_lines}\n")
    _exits_two_naming(tmp_path, capsys, text, "[dataset] k_min")


@pytest.mark.parametrize("verb", ["run", "scaling"])
@pytest.mark.parametrize("dry_run", [True, False], ids=["dry", "real"])
@pytest.mark.parametrize(
    "pattern, line, name",
    [
        (r"^n_modes = .*$", "n_modes = 12", "[benchmark] n_modes"),
        (r"\Z", "[study]\nscaling_modes = 4,6\n", "[study] scaling_modes"),
        (r"\Z", "[study]\nscaling_modes = 1,4\n", "[study] scaling_modes"),
    ],
    ids=["n_modes-12", "scaling_modes-6", "scaling_modes-1"],
)
def test_modes_not_power_of_two_exit_two(tmp_path, capsys, verb, dry_run, pattern, line, name):
    text = re.sub(pattern, line, MINI_RUN_CFG, count=1, flags=re.M)
    _exits_two_naming(tmp_path, capsys, text, name, verb, dry_run)


@pytest.mark.parametrize("verb", ["run", "scaling"])
@pytest.mark.parametrize(
    "pattern, line, name",
    [
        (r"^pde = .*$", "pde = joint_helm\ndimensions = 3", "[benchmark] dimensions"),
        (r"^pde = .*$", "pde = joint_helm\ndimensions = 0", "[benchmark] dimensions"),
        (r"\Z", "[study]\nscaling_dims = 1,3\n", "[study] scaling_dims"),
    ],
    ids=["dimensions-3", "dimensions-0", "scaling_dims-3"],
)
def test_dimensions_outside_one_two_exit_two(tmp_path, capsys, verb, pattern, line, name):
    # before the fence, the run trained a 1D problem and scaling wrote rows labelled d=3
    text = re.sub(pattern, line, MINI_RUN_CFG, count=1, flags=re.M)
    _exits_two_naming(tmp_path, capsys, text, name, verb, dry_run=False)


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("pde", BENCHMARK_PDES)
def test_scaling_dims_must_name_a_buildable_pde(tmp_path, capsys, pde, d):
    # wave1d with scaling_dims = 2 passed parsing, then scaling stopped at assembly with
    # "unsupported pde/boundary combination: wave2d with d=2", naming no key
    family = FAMILIES_BY_DIRECTIONS[_directions(pde, 1)][0]
    text = (
        f"[benchmark]\npde = {pde}\n\n[dataset]\nfamily = {family}\n\n"
        f"[study]\nscaling_modes = 4\nscaling_dims = {d}\n"
    )
    if pde == "wave1d" and d == 2:
        _exits_two_naming(tmp_path, capsys, text, "[study] scaling_dims", "scaling", dry_run=False)
    else:
        argv = ["scaling", "--config", write_cfg(tmp_path, text), "--out", str(tmp_path / "o")]
        assert cli.main(argv) == 0


@pytest.mark.parametrize("kernel", [0, -1, 2, 4])
def test_conv_kernel_must_be_odd_and_positive(tmp_path, capsys, kernel):
    # conv_kernel = 0 on helm1d ran and exited 0; conv_kernel = 2 on rd2d passed the dry
    # run, then failed at run time with "conv kernel must be odd", naming no key
    text = MINI_RUN_CFG.replace("hidden = 24\n", f"hidden = 24\nconv_kernel = {kernel}\n")
    _exits_two_naming(tmp_path, capsys, text, "[network] conv_kernel")


@pytest.mark.parametrize("verb", ["run", "truncation", "scaling", "signflip"])
@pytest.mark.parametrize(
    "pde, family, n_modes",
    [
        ("helm1d", "trig_1d", 2048),
        ("helm1d", "trig_1d", 65536),
        ("rd2d", "trig_2d", 64),
        ("wave1d", "wave_family", 64),
    ],
)
def test_system_size_guard_exits_two(tmp_path, capsys, verb, pde, family, n_modes):
    # helm1d at n_modes = 65536 passed the dry run; a real run would build a ~68 GB operator
    text = f"[benchmark]\npde = {pde}\nn_modes = {n_modes}\n\n[dataset]\nfamily = {family}\n"
    _exits_two_naming(tmp_path, capsys, text, "[benchmark] n_modes", verb)


def test_system_size_guard_admits_the_limit():
    assert parse_config_text("[benchmark]\nn_modes = 1024\n").n_modes == 1024
    text = "[benchmark]\npde = rd2d\nn_modes = 32\n\n[dataset]\nfamily = trig_2d\n"
    assert build_system(parse_config_text(text)).size == cli.MAX_SYSTEM_SIZE


@pytest.mark.parametrize("dry_run", [True, False], ids=["dry", "real"])
@pytest.mark.parametrize("ansatz", ["hardware_efficient_ry", "strongly_entangling"])
def test_one_qubit_system_exits_two(tmp_path, capsys, ansatz, dry_run):
    # n_modes = 2 on a one-direction pde passed the dry run; the run then exited 2
    # with "hardware-efficient ansatz needs n >= 2", naming no key
    text = MINI_RUN_CFG.replace("n_modes = 8", "n_modes = 2")
    text = text.replace("ansatz = hardware_efficient_ry", f"ansatz = {ansatz}")
    _exits_two_naming(tmp_path, capsys, text, "[benchmark] n_modes", dry_run=dry_run)


@pytest.mark.parametrize("dry_run", [True, False], ids=["dry", "real"])
@pytest.mark.parametrize("pde, family", [("cd1d", "trig_1d"), ("cd2d", "trig_2d")])
def test_cd_family_needs_dirichlet_exits_two(tmp_path, capsys, pde, family, dry_run):
    # boundary = neumann on cd passed the dry run; the run then exited 2 at assembly
    # with "cd2d supports only Dirichlet conditions", naming no key
    text = MINI_RUN_CFG.replace("pde = helm1d", f"pde = {pde}")
    text = text.replace("boundary = dirichlet", "boundary = neumann")
    text = text.replace("family = trig_1d", f"family = {family}")
    _exits_two_naming(tmp_path, capsys, text, "[benchmark] boundary", dry_run=dry_run)


def _tiny_cfg(pde, family, dimensions=1, network="", dataset=""):
    return (
        f"[benchmark]\npde = {pde}\nn_modes = 4\ndimensions = {dimensions}\n\n"
        f"[circuit]\nlayers = 1\n\n[network]\nhidden = 4\n{network}\n"
        f"[dataset]\nfamily = {family}\ntrain_size = 2\ntest_size = 2\n{dataset}\n"
        "[train]\nepochs = 1\neval_every = 1\n"
    )


@pytest.mark.parametrize("dry_run", [True, False], ids=["dry", "real"])
@pytest.mark.parametrize(
    "pde, family, dimensions",
    [("helm1d", "trig_1d", 1), ("rd2d", "shallow_ry", 1), ("joint_helm", "joint_k", 2)],
)
def test_conv_channels_need_grid_features_exit_two(
    tmp_path, capsys, pde, family, dimensions, dry_run
):
    # each passed the dry run; the run then failed on the feature shape, and
    # joint_k exited with "joint coefficients require a flat feature vector"
    text = _tiny_cfg(pde, family, dimensions, network="conv_channels = 2\n")
    _exits_two_naming(tmp_path, capsys, text, "[network] conv_channels", dry_run=dry_run)


@pytest.mark.parametrize("pde, family", [("rd2d", "trig_2d"), ("wave1d", "wave_family")])
def test_conv_channels_admit_grid_families(tmp_path, pde, family):
    text = _tiny_cfg(pde, family, network="conv_channels = 2\n")
    argv = ["run", "--config", write_cfg(tmp_path, text), "--out", str(tmp_path / "o"), "--dry-run"]
    assert cli.main(argv) == 0


@pytest.mark.parametrize("dry_run", [True, False], ids=["dry", "real"])
@pytest.mark.parametrize(
    "k_lines, name",
    [
        ("k_min = 1e16\nk_max = 1e200", "[dataset] k_max"),
        ("k_min = -1e200\nk_max = 1.0", "[dataset] k_min"),
    ],
    ids=["k_max", "k_min"],
)
def test_k_whose_square_overflows_exits_two(tmp_path, capsys, k_lines, name, dry_run):
    # k_max = 1e200 passed the dry run; the run then raised a LinAlgError
    # traceback ("SVD did not converge") because k^2 was inf in B + k^2 C
    text = _tiny_cfg("joint_helm", "joint_k", dataset=k_lines + "\n")
    _exits_two_naming(tmp_path, capsys, text, name, dry_run=dry_run)


def test_k_range_admits_a_large_squared_k(tmp_path):
    k_lines = "k_min = 0.0\nk_max = 1e200\nk_is_squared = true\n"  # k^2 itself is drawn
    text = _tiny_cfg("joint_helm", "joint_k", dataset=k_lines)
    argv = ["run", "--config", write_cfg(tmp_path, text), "--out", str(tmp_path / "o"), "--dry-run"]
    assert cli.main(argv) == 0


FLOAT_KEYS = [
    ("benchmark", "epsilon"),
    ("benchmark", "k_squared"),
    ("benchmark", "nu"),
    ("benchmark", "nu2"),
    ("dataset", "k_min"),
    ("dataset", "k_max"),
    ("train", "learning_rate"),
    ("train", "beta1"),
    ("train", "beta2"),
    ("train", "epsilon"),
    ("study", "thresholds"),
]


@pytest.mark.parametrize(
    "section, key, value",
    [(section, key, value) for section, key in FLOAT_KEYS for value in ("nan", "-inf")]
    + [
        ("train", "beta1", "1.0"),  # used to diverge to nan mid-run
        ("train", "beta1", "-0.5"),
        ("train", "beta2", "-1"),
        ("train", "beta2", "1"),
        ("train", "epsilon", "-1"),  # used to train and exit 0
        ("train", "epsilon", "0"),
        ("benchmark", "pde", "heat1d"),
        ("benchmark", "boundary", "robin"),
        ("circuit", "ansatz", "qaoa"),
        ("network", "activation", "tanh"),
        ("dataset", "family", "gaussian"),
        ("train", "objective", "mse"),
        ("train", "optimizer", "sgd"),
        ("train", "gradient_mode", "finite_difference"),
        ("dataset", "seed", "-1"),  # used to raise a numpy traceback at the first draw
        ("train", "seed", "-1"),
        ("network", "conv_channels", "4,-2"),  # used to raise a numpy traceback
        ("network", "conv_channels", "0"),  # used to run with an empty channel
        ("study", "thresholds", "0.1,-0.5"),  # the run used to exit 1 naming no key
        ("study", "thresholds", ""),  # empty lists used to write a header-only CSV and exit 0
        ("study", "scaling_modes", ""),
        ("study", "scaling_dims", " , "),
    ],
)
def test_out_of_range_values_exit_two(tmp_path, capsys, section, key, value):
    _exits_two_naming(tmp_path, capsys, f"[{section}]\n{key} = {value}\n", f"[{section}] {key}")


@pytest.mark.parametrize("family", ["shallow_ry", "trig_1d", "trig_2d", "wave_family", "joint_k"])
@pytest.mark.parametrize("pde, dimensions", [(pde, 1) for pde in BENCHMARK_PDES] + [("joint_helm", 2)])
def test_dataset_family_must_fit_pde(tmp_path, capsys, pde, dimensions, family):
    # a misfit used to fail mid-run: an IndexError traceback or a grid-shape error
    # (exit 1), or exit 2 from joint_k without naming the key
    text = (
        f"[benchmark]\npde = {pde}\nn_modes = 4\ndimensions = {dimensions}\n\n"
        "[circuit]\nlayers = 1\n\n[network]\nhidden = 4\n\n"
        f"[dataset]\nfamily = {family}\ntrain_size = 2\ntest_size = 2\n\n"
        "[train]\nepochs = 1\neval_every = 1\n"
    )
    fits = family == "shallow_ry" or family in FAMILIES_BY_DIRECTIONS[_directions(pde, dimensions)]
    if fits or (family == "joint_k" and pde == "joint_helm"):
        argv = ["run", "--config", write_cfg(tmp_path, text), "--out", str(tmp_path / "o")]
        assert cli.main(argv) == 0
    else:
        _exits_two_naming(tmp_path, capsys, text, "[dataset] family")


ENUMS = {
    ("benchmark", "pde"): BENCHMARK_PDES,
    ("benchmark", "boundary"): ("dirichlet", "neumann"),
    ("circuit", "ansatz"): ("hardware_efficient_ry", "strongly_entangling"),
    ("network", "activation"): ("relu", "gelu", "identity"),
    ("dataset", "family"): ("shallow_ry", "trig_1d", "trig_2d", "wave_family", "joint_k"),
    ("train", "objective"): ("unnormalized", "normalized"),
    ("train", "optimizer"): ("adam", "lbfgs"),
    ("train", "gradient_mode"): ("adjoint", "parameter_shift"),
}
_NON_FINITE = st.sampled_from(["nan", "-nan", "NaN", "inf", "-inf", "Infinity", "1e400", "-1e999"])
_BELOW = lambda low: st.integers(max_value=low - 1)  # noqa: E731
_NOT_POWER = st.one_of(_BELOW(2), st.integers(3, 10**6).filter(lambda v: v & (v - 1)))


def _list_holding(bad, good):
    """A comma list of good values with one bad value at a drawn position."""
    return st.tuples(st.lists(good, max_size=3), bad, st.lists(good, max_size=3)).map(
        lambda parts: ",".join(str(v) for v in (*parts[0], parts[1], *parts[2]))
    )


# (section, key) -> invalid values for the settings the base config below reads
# as integers; the base is helm1d, one direction, so n_modes above 1024 is too big
OUT_OF_RANGE_INTS = {
    ("benchmark", "n_modes"): st.one_of(_NOT_POWER, st.integers(11, 40).map(lambda e: 1 << e)),
    ("benchmark", "dimensions"): st.integers().filter(lambda v: v not in (1, 2)),
    ("circuit", "layers"): _BELOW(1),
    ("network", "hidden"): _list_holding(_BELOW(1), _COUNTS),
    ("network", "conv_channels"): _list_holding(_BELOW(1), _COUNTS),
    ("network", "conv_kernel"): st.one_of(_BELOW(1), st.integers(1, 10**6).map(lambda k: 2 * k)),
    ("dataset", "train_size"): _BELOW(1),
    ("dataset", "test_size"): _BELOW(0),
    ("dataset", "seed"): _BELOW(0),
    ("train", "epochs"): _BELOW(1),
    ("train", "eval_every"): _BELOW(1),
    ("train", "seed"): _BELOW(0),
    ("study", "scaling_modes"): _list_holding(_NOT_POWER, _POWERS),
    ("study", "scaling_dims"): _list_holding(st.integers().filter(lambda v: v not in (1, 2)), st.just(1)),
    ("study", "signflip_seeds"): _BELOW(1),
}


def _known_keys():
    parser = configparser.ConfigParser(interpolation=None)
    parser.read_string(canonical_text(ExperimentConfig()))
    return {section: set(parser[section]) for section in parser.sections()}


@st.composite
def _invalid_entries(draw):
    """One (section, key, raw value) that the parser must reject by name."""
    kind = draw(st.sampled_from(["enum", "non_finite", "int_range", "unknown_key"]))
    if kind == "enum":
        section, key = draw(st.sampled_from(sorted(ENUMS)))
        words = st.text("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_-.")
        return section, key, draw(words.filter(lambda w: w not in ENUMS[section, key]))
    if kind == "non_finite":
        section, key = draw(st.sampled_from(FLOAT_KEYS))
        if key == "thresholds":
            return section, key, draw(_list_holding(_NON_FINITE, _UNIT))
        return section, key, draw(_NON_FINITE)
    if kind == "int_range":
        section, key = draw(st.sampled_from(sorted(OUT_OF_RANGE_INTS)))
        return section, key, str(draw(OUT_OF_RANGE_INTS[section, key]))
    known = _known_keys()
    section = draw(st.sampled_from(sorted(known)))
    key = draw(st.from_regex(r"[a-z][a-z0-9_]{0,15}", fullmatch=True).filter(
        lambda k: k not in known[section]
    ))
    return section, key, draw(st.sampled_from(["1", "x", "0.5", ""]))


@settings(max_examples=200, deadline=None)
@given(_invalid_entries(), st.sampled_from(["run", "truncation", "scaling", "signflip"]))
def test_invalid_configs_exit_two_naming_the_key(entry, verb):
    section, key, value = entry
    parser = configparser.ConfigParser(interpolation=None)
    parser.read_string(MINI_RUN_CFG)
    if not parser.has_section(section):
        parser.add_section(section)
    parser[section][key] = value
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "experiment.cfg"
        with path.open("w", encoding="utf-8") as fh:
            parser.write(fh)
        out, err = io.StringIO(), io.StringIO()
        argv = [verb, "--config", str(path), "--out", str(Path(tmp) / "o"), "--dry-run"]
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    assert code == 2 and not out.getvalue()
    assert f"[{section}] {key}" in err.getvalue()
    assert "Traceback" not in err.getvalue()


def test_negative_seed_override_exits_two(tmp_path, capsys):
    # --seed -1 used to pass the dry run and raise a numpy traceback in a real run
    cfg_path = write_cfg(tmp_path, MINI_RUN_CFG)
    argv = ["run", "--config", cfg_path, "--out", str(tmp_path / "o"), "--seed", "-1", "--dry-run"]
    assert cli.main(argv) == 2
    assert "[dataset] seed" in capsys.readouterr().err


def test_failed_run_keeps_record_and_exits_one(tmp_path, monkeypatch, capsys):
    from vqspectral.errors import DegenerateDenominatorError

    error = DegenerateDenominatorError("injected vanishing denominator")
    fail_grad_total_at(monkeypatch, error, 3)  # Adam calls grad_total once per epoch
    out_dir = tmp_path / "run"
    assert cli.cmd_run(parse_config_text(MINI_RUN_CFG), out_dir) == 1
    for name in ("run_record.csv", "checkpoint.bin", "checkpoint_final.bin"):
        assert (out_dir / name).exists()
    assert "injected vanishing denominator at epoch 3" in capsys.readouterr().err


def test_failed_evaluation_keeps_record_and_warns_nothing(tmp_path, recwarn, capsys):
    # epsilon = 1e300 overflows beta = ||A psi||^2 at the first step, and the
    # truth's nodal values square to zero, so every evaluation fails as well
    text = MINI_RUN_CFG.replace("pde = helm1d", "pde = rd1d").replace("k_squared = 4.0", "epsilon = 1e300")
    text = text.replace("n_modes = 8", "n_modes = 4").replace("family = trig_1d", "family = shallow_ry")
    text = text.replace("objective = normalized", "objective = unnormalized")
    text = text.replace("train_size = 3", "train_size = 2").replace("test_size = 3", "test_size = 1")
    text = text.replace("epochs = 120", "epochs = 2").replace("eval_every = 60", "eval_every = 1")
    out_dir = tmp_path / "run"
    assert cli.main(["run", "--config", write_cfg(tmp_path, text), "--out", str(out_dir)]) == 1
    for name in ("run_record.csv", "checkpoint.bin", "checkpoint_final.bin", "resolved_config.txt"):
        assert (out_dir / name).exists()
    # no evaluation succeeded, so the error table keeps its row with NaN stats
    with open(out_dir / "error_table.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 1
    assert all(rows[0][col] == "nan" for col in cli.ERROR_TABLE_COLUMNS[4:])
    err = capsys.readouterr().err
    assert "training aborted: denominator radicand is not finite at epoch 1" in err
    assert not [line for line in err.splitlines() if line.startswith("error:")]
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


def test_huge_network_input_aborts_without_overflow_warning(tmp_path, recwarn, capsys):
    # the first feature is k^2 ~ 1e300, whose cube in the GELU printed
    # "RuntimeWarning: overflow encountered in multiply" to stderr
    text = _tiny_cfg("joint_helm", "joint_k", dataset="k_min = 1e149\nk_max = 1e150\n")
    text = text.replace("test_size = 2", "test_size = 1").replace("epochs = 1", "epochs = 2")
    assert cli.main(["run", "--config", write_cfg(tmp_path, text), "--out", str(tmp_path / "o")]) == 1
    assert "RuntimeWarning" not in capsys.readouterr().err
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


def test_conv_network_on_flat_features_exits_two(tmp_path, capsys):
    text = MINI_RUN_CFG.replace("hidden = 24\n", "hidden = 24\nconv_channels = 2\n")
    cfg_path = write_cfg(tmp_path, text)
    assert cli.main(["run", "--config", cfg_path, "--out", str(tmp_path / "o")]) == 2
    assert "conv_channels" in capsys.readouterr().err


def test_run_emits_artifacts(tmp_path, capsys):
    cfg_path = write_cfg(tmp_path, MINI_RUN_CFG)
    out_dir = tmp_path / "run"
    code = cli.main(["run", "--config", cfg_path, "--out", str(out_dir)])
    assert code == 0
    for name in ("run_record.csv", "error_table.csv", "checkpoint.bin", "resolved_config.txt"):
        assert (out_dir / name).exists()
    with open(out_dir / "error_table.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert tuple(rows[0]) == cli.ERROR_TABLE_COLUMNS
    assert len(rows) == 2
    # the stats are those of the best checkpoint, re-evaluated on the test split
    cfg = parse_config_text(MINI_RUN_CFG)
    system, _, dataset = cli._assemble(cfg, cfg.train_size, cfg.test_size)
    net = anglenet.load_checkpoint(out_dir / "checkpoint.bin")
    data = training.TrainData.from_dataset(dataset, system, net.spec.input_shape)
    program = cli._build_program(cfg, cli._qubit_count(system.size))
    again = training.evaluate_split(
        data.ctx_test, program, net, data.test_features, data.test_truth, cfg.objective
    )
    expected = []
    for key in ("rel_l2", "rel_linf", "mae"):
        values = again[f"per_instance_{key}"]
        expected += [f"{float(np.mean(values)):.17g}", f"{float(np.std(values)):.17g}"]
    assert rows[1][4:] == expected


def test_run_is_deterministic_modulo_wall_time(tmp_path):
    cfg_path = write_cfg(tmp_path, MINI_RUN_CFG)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert cli.main(["run", "--config", cfg_path, "--out", str(out_a)]) == 0
    assert cli.main(["run", "--config", cfg_path, "--out", str(out_b)]) == 0

    def strip_wall(path):
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        return [row[:-1] for row in rows]

    assert strip_wall(out_a / "run_record.csv") == strip_wall(out_b / "run_record.csv")
    assert (out_a / "checkpoint.bin").read_bytes() == (out_b / "checkpoint.bin").read_bytes()
    assert (out_a / "error_table.csv").read_text() == (out_b / "error_table.csv").read_text()


def test_scaling_matches_golden(tmp_path):
    cfg_path = write_cfg(
        tmp_path,
        "[benchmark]\npde = rd1d\nepsilon = 0.1\n\n[study]\nscaling_modes = 4,8,16,32\nscaling_dims = 1\n",
    )
    out_dir = tmp_path / "scaling"
    assert cli.main(["scaling", "--config", cfg_path, "--out", str(out_dir)]) == 0
    assert (out_dir / "scaling.csv").read_text() == (GOLDEN / "scaling_rd1d.csv").read_text()


def test_scaling_memory_guard(tmp_path, capsys):
    cfg_path = write_cfg(
        tmp_path,
        "[benchmark]\npde = rd2d\nepsilon = 0.1\n\n[dataset]\nfamily = trig_2d\n\n"
        "[study]\nscaling_modes = 64\nscaling_dims = 2\n",
    )
    out_dir = tmp_path / "scaling"
    assert cli.main(["scaling", "--config", cfg_path, "--out", str(out_dir)]) == 0
    assert "memory guard" in capsys.readouterr().out
    with open(out_dir / "scaling.csv", newline="") as fh:
        assert len(list(csv.reader(fh))) == 1  # header only


def test_scaling_memory_guard_counts_every_direction(tmp_path, capsys, monkeypatch):
    # wave1d is space-time: at N = 64 its system has 64^2 rows, though its scaling row reads d=1
    built = []
    monkeypatch.setattr(cli, "build_system", built.append)
    cfg_path = write_cfg(
        tmp_path,
        "[benchmark]\npde = wave1d\n\n[dataset]\nfamily = wave_family\n\n"
        "[study]\nscaling_modes = 64\nscaling_dims = 1\n",
    )
    assert cli.main(["scaling", "--config", cfg_path, "--out", str(tmp_path / "scaling")]) == 0
    assert not built
    assert "K=4096 exceeds the memory guard" in capsys.readouterr().out


def test_truncation_outputs_and_columns(tmp_path):
    cfg_path = write_cfg(
        tmp_path,
        "[benchmark]\npde = helm1d\nn_modes = 16\nk_squared = 4.0\n\n"
        "[dataset]\nfamily = shallow_ry\ntrain_size = 1\ntest_size = 0\nseed = 11\n\n"
        "[study]\nthresholds = 0.5,0.01\n",
    )
    out_dir = tmp_path / "trunc"
    assert cli.main(["truncation", "--config", cfg_path, "--out", str(out_dir)]) == 0
    with open(out_dir / "truncation.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert tuple(rows[0]) == cli.TRUNCATION_COLUMNS
    assert len(rows) == 3
    assert float(rows[1][2]) > float(rows[2][2])  # rel Frobenius decreases
    assert int(rows[1][1]) < int(rows[2][1])  # term count increases


def test_truncation_flags_degenerate_rows(tmp_path):
    cfg_path = write_cfg(
        tmp_path,
        "[benchmark]\npde = helm1d\nn_modes = 8\nk_squared = 4.0\n\n"
        "[dataset]\nfamily = shallow_ry\ntrain_size = 1\ntest_size = 0\nseed = 11\n",
    )
    out_dir = tmp_path / "trunc"
    code = cli.main(
        ["truncation", "--config", cfg_path, "--out", str(out_dir), "--thresholds", "1e9,0.0"]
    )
    assert code == 0
    with open(out_dir / "truncation.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[1][-1] == "1"  # degenerate flag set
    assert rows[2][-1] == "0"


@pytest.mark.parametrize("value", ["abc", "nan", "-1"])
def test_bad_thresholds_override_exits_two(tmp_path, capsys, value):
    # abc raised a ValueError traceback, nan wrote a NaN row and exited 0, and -1
    # exited 1 naming no key
    cfg_path = write_cfg(tmp_path, MINI_RUN_CFG)
    argv = ["truncation", "--config", cfg_path, "--out", str(tmp_path / "o")]
    assert cli.main(argv + [f"--thresholds={value}"]) == 2
    captured = capsys.readouterr()
    assert "[study] thresholds" in captured.err and "Traceback" not in captured.err
    assert not captured.out and not (tmp_path / "o").exists()


def test_thresholds_override_is_resolved(tmp_path, capsys):
    # the override used to bypass the resolved config, so --dry-run and
    # resolved_config.txt showed the config file's thresholds instead
    cfg_path = write_cfg(tmp_path, MINI_RUN_CFG)
    argv = ["truncation", "--config", cfg_path, "--thresholds", "0.5", "--dry-run"]
    assert cli.main(argv) == 0
    assert "\nthresholds = 0.5\n" in capsys.readouterr().out


def test_table_aggregates_and_warns(tmp_path, capsys):
    run_dir = tmp_path / "demo_run"
    run_dir.mkdir()
    with open(run_dir / "error_table.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(cli.ERROR_TABLE_COLUMNS)
        writer.writerow(["helm1d", "dirichlet", 16, 4, 0.01, 0.002, 0.02, 0.003, 0.001, 0.0002])
    missing = tmp_path / "missing_run"
    code = cli.main(["table", str(run_dir), str(missing)])
    assert code == 0
    captured = capsys.readouterr()
    assert "demo_run" in captured.out
    assert "missing_run" in captured.err
    lines = [l for l in captured.out.strip().splitlines() if l]
    assert lines[0].startswith("run,benchmark")
    assert len(lines) == 2


def test_table_empty_inputs_ok(capsys):
    assert cli.main(["table"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("run,benchmark")


def test_signflip_smoke(tmp_path):
    cfg_path = write_cfg(
        tmp_path,
        "[benchmark]\npde = rd1d\nn_modes = 4\nepsilon = 0.1\n\n"
        "[circuit]\nansatz = strongly_entangling\nlayers = 2\n\n"
        "[dataset]\nfamily = trig_1d\ntrain_size = 1\ntest_size = 0\nseed = 2\n\n"
        "[train]\nlearning_rate = 0.02\nepochs = 60\nseed = 0\n\n"
        "[study]\nsignflip_seeds = 2\n",
    )
    out_dir = tmp_path / "signflip"
    assert cli.main(["signflip", "--config", cfg_path, "--out", str(out_dir)]) == 0
    with open(out_dir / "signflip.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert tuple(rows[0]) == cli.SIGNFLIP_COLUMNS
    assert len(rows) == 3
    # identity residual is machine-exact regardless of training length
    assert float(rows[1][3]) <= 1e-12


def test_run_record_columns_golden(tmp_path):
    cfg_path = write_cfg(tmp_path, MINI_RUN_CFG)
    out_dir = tmp_path / "run"
    assert cli.main(["run", "--config", cfg_path, "--out", str(out_dir)]) == 0
    header = (out_dir / "run_record.csv").read_text().splitlines()[0]
    assert header == "epoch,train_loss,test_loss,train_rel_l2,test_rel_l2,test_rel_linf,test_mae,wall_seconds"


def test_resolved_config_reparses_identically(tmp_path):
    cfg_path = write_cfg(tmp_path, MINI_RUN_CFG)
    out_dir = tmp_path / "run"
    assert cli.main(["run", "--config", cfg_path, "--out", str(out_dir)]) == 0
    resolved = (out_dir / "resolved_config.txt").read_text()
    assert parse_config_text(resolved) == parse_config_text(MINI_RUN_CFG)


def test_scaling_dumps_serialized_expansions(tmp_path):
    from vqspectral.pauli import PauliExpansion

    cfg_path = write_cfg(
        tmp_path,
        "[benchmark]\npde = rd1d\nepsilon = 0.1\n\n[study]\nscaling_modes = 4,8\nscaling_dims = 1\n",
    )
    out_dir = tmp_path / "scaling"
    assert cli.main(["scaling", "--config", cfg_path, "--out", str(out_dir)]) == 0
    for n_modes in (4, 8):
        path = out_dir / f"expansion_rd1d_d1_n{n_modes}.txt"
        expansion = PauliExpansion.deserialize(path.read_text())
        assert len(expansion) >= 2


def test_run_joint_family_path(tmp_path):
    cfg_path = write_cfg(
        tmp_path,
        "[benchmark]\npde = joint_helm\nn_modes = 4\ndimensions = 1\n\n"
        "[circuit]\nansatz = hardware_efficient_ry\nlayers = 3\n\n"
        "[network]\nhidden = 16\n\n"
        "[dataset]\nfamily = joint_k\ntrain_size = 3\ntest_size = 2\nseed = 4\n"
        "k_min = 4.0\nk_max = 5.0\n\n"
        "[train]\nobjective = normalized\nlearning_rate = 0.005\nepochs = 60\neval_every = 30\nseed = 1\n",
    )
    out_dir = tmp_path / "joint"
    assert cli.main(["run", "--config", cfg_path, "--out", str(out_dir)]) == 0
    assert (out_dir / "error_table.csv").exists()


def test_run_wave_family_path(tmp_path):
    cfg_path = write_cfg(
        tmp_path,
        "[benchmark]\npde = wave1d\nn_modes = 4\n\n"
        "[circuit]\nansatz = strongly_entangling\nlayers = 2\n\n"
        "[network]\nhidden = 16\n\n"
        "[dataset]\nfamily = wave_family\ntrain_size = 2\ntest_size = 2\nseed = 4\n\n"
        "[train]\nobjective = normalized\nlearning_rate = 0.005\nepochs = 40\neval_every = 20\nseed = 1\n",
    )
    out_dir = tmp_path / "wave"
    assert cli.main(["run", "--config", cfg_path, "--out", str(out_dir)]) == 0


def test_run_2d_conv_network_path(tmp_path):
    cfg_path = write_cfg(
        tmp_path,
        "[benchmark]\npde = rd2d\nn_modes = 4\nepsilon = 0.1\n\n"
        "[circuit]\nansatz = hardware_efficient_ry\nlayers = 3\n\n"
        "[network]\nhidden = 16\nconv_channels = 2\nconv_kernel = 3\nactivation = relu\n\n"
        "[dataset]\nfamily = trig_2d\ntrain_size = 2\ntest_size = 2\nseed = 4\n\n"
        "[train]\nobjective = normalized\nlearning_rate = 0.005\nepochs = 40\neval_every = 20\nseed = 1\n",
    )
    out_dir = tmp_path / "rd2d"
    assert cli.main(["run", "--config", cfg_path, "--out", str(out_dir)]) == 0


def test_bundled_configs_parse():
    from vqspectral.config import build_system, parse_config

    config_dir = Path(__file__).parent.parent / "configs"
    paths = sorted(config_dir.glob("*.cfg"))
    assert len(paths) >= 12
    for path in paths:
        cfg = parse_config(path)
        system = build_system(cfg)
        assert system.size >= 4


def test_signflip_follows_the_dataset_k_range(tmp_path, monkeypatch):
    # signflip drew k from the DatasetSpec default range [4, 5) whatever [dataset] said
    drawn = []

    def recording(spec, system):
        drawn.append(generate_dataset(spec, system))
        return drawn[-1]

    generate_dataset = cli.training.generate_dataset
    monkeypatch.setattr(cli.training, "generate_dataset", recording)
    cfg = parse_config_text(
        "[benchmark]\npde = joint_helm\nn_modes = 4\n\n"
        "[circuit]\nansatz = strongly_entangling\nlayers = 2\n\n"
        "[dataset]\nfamily = joint_k\ntrain_size = 1\ntest_size = 0\nseed = 2\n"
        "k_min = 2.0\nk_max = 2.0\n\n"
        "[train]\nlearning_rate = 0.02\nepochs = 5\nseed = 0\n\n"
        "[study]\nsignflip_seeds = 1\n"
    )
    assert cli.cmd_signflip(cfg, tmp_path / "signflip") == 0
    assert [d.train.k_values.tolist() for d in drawn] == [[2.0]]
