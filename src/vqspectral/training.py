"""Dataset generation, optimizers, and the full-batch training loop.

Training is unsupervised: gradients flow only through the weak-form residual
loss, never through the classically solved truth fields, which exist purely
for evaluation. All randomness is funneled through seeded generators so a
rerun on one platform reproduces every history bit for bit (wall-clock
timestamps excepted).
"""

from __future__ import annotations

import csv
import time
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import anglenet, loss as loss_mod, qsim
from .errors import ConfigurationError, ContractViolation, DivergenceError, VqSpectralError
from .spectral import SolutionField, SpectralSystem, classical_solve, forward_transform, metrics

__all__ = [
    "DatasetSpec",
    "Split",
    "Dataset",
    "generate_dataset",
    "feature_shape",
    "feature_batch",
    "trig_forcing",
    "wave_forcing",
    "AdamState",
    "adam_step",
    "LbfgsState",
    "lbfgs_step",
    "TrainConfig",
    "EpochRow",
    "RunRecord",
    "train",
    "evaluate_split",
    "write_run_record",
    "read_run_record",
]

FAMILIES = ("shallow_ry", "trig_1d", "trig_2d", "wave_family", "joint_k")


def trig_forcing(h1, m1, h2, m2, s):
    """Trigonometric forcing of the coordinate sum s (x, or x + y on a plane)."""
    return h1 * np.sin(m1 * s) + h2 * np.cos(m2 * s)


def wave_forcing(omega, x, t):
    """Space-time forcing family whose exact solution is
    (t^2/2) [sin(pi(1+omega)x) + sin(pi(1-omega)x)]."""
    wp, wm = np.pi * (1.0 + omega), np.pi * (1.0 - omega)
    return (1.0 + wp**2 * t**2 / 2.0) * np.sin(wp * x) + (
        1.0 + wm**2 * t**2 / 2.0
    ) * np.sin(wm * x)


@dataclass(frozen=True)
class DatasetSpec:
    family: str
    n_train: int
    n_test: int
    seed: int
    k_min: float = 4.0  # joint_k family only
    k_max: float = 5.0
    k_is_squared: bool = False  # draw k^2 directly instead of k

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ConfigurationError(f"unknown dataset family {self.family!r}")
        if self.n_train < 1 or self.n_test < 0:
            raise ConfigurationError("dataset sizes must be positive")
        if not self.k_min <= self.k_max:
            raise ConfigurationError(f"k_min {self.k_min} exceeds k_max {self.k_max}")
        if self.k_is_squared and not self.k_min >= 0:
            raise ConfigurationError(f"k_min {self.k_min} is a negative k^2")


@dataclass
class Split:
    """D forcing instances, stacked as rows from the draw to the metrics."""

    features: np.ndarray  # (D, *grid) forcing samples; (D, K) amplitudes for shallow_ry
    raw_targets: np.ndarray  # (D, K) forward transforms before normalization
    k_values: np.ndarray | None  # (D,) wave numbers of a joint_k split, else None
    truth: SolutionField  # the stacked oracle solution (evaluation only)


@dataclass
class Dataset:
    spec: DatasetSpec
    train: Split
    test: Split
    resample_count: int = 0


def generate_dataset(spec: DatasetSpec, system: SpectralSystem) -> Dataset:
    """Sample forcing instances, forward-transform them, and solve for truth.

    Truth solutions never enter the loss; one oracle call per split stores them
    for evaluation. A draw whose transform has vanishing norm is resampled and counted.
    """
    rng = np.random.default_rng(spec.seed)
    resamples = 0
    mesh = np.meshgrid(*system.grid(), indexing="ij")
    n = system.size.bit_length() - 1
    if spec.family == "shallow_ry" and (1 << n) != system.size:
        raise ConfigurationError("shallow family needs a power-of-two system")
    if spec.family == "joint_k" and system.parametric_parts is None:
        raise ConfigurationError("joint_k needs a parametric system")
    natural = (system.size,) if spec.family == "shallow_ry" else mesh[0].shape

    def draw_split(count: int) -> Split:
        nonlocal resamples
        features, rows = np.empty((count, *natural)), np.empty((count, system.size))
        ks = np.empty(count)
        for i in range(count):
            for _attempt in range(100):
                k_val = np.nan
                if spec.family == "shallow_ry":
                    feat = raw = qsim.build_ry_embedding(rng.uniform(0.0, 2.0 * np.pi, n)).real
                elif spec.family == "wave_family":
                    feat = wave_forcing(rng.uniform(1.0, 2.0), *mesh)
                    raw, _ = forward_transform(feat, system)
                else:  # trig_1d, trig_2d or joint_k; DatasetSpec admits no other family
                    if spec.family == "joint_k":
                        drawn = rng.uniform(spec.k_min, spec.k_max)
                        k_val = float(np.sqrt(drawn)) if spec.k_is_squared else float(drawn)
                    h1, h2, m1, m2 = rng.uniform(0.0, 1.0, 4)
                    feat = trig_forcing(h1, m1, h2, m2, sum(mesh))
                    raw, _ = forward_transform(feat, system)
                if np.linalg.norm(raw) > 1e-10:
                    break
                resamples += 1
            else:
                raise DivergenceError("could not draw a non-degenerate forcing in 100 tries")
            features[i], rows[i], ks[i] = feat, raw, k_val
        k_values = ks if spec.family == "joint_k" else None
        return Split(features, rows, k_values, classical_solve(system, rows, k_values))

    train = draw_split(spec.n_train)
    return Dataset(spec=spec, train=train, test=draw_split(spec.n_test), resample_count=resamples)


def feature_shape(split: Split, grid: bool) -> tuple[int, ...]:
    """The network input layout of a split: (1, H, W) per grid instance for a
    convolutional network, else the flattened samples with k^2 first for joint
    families."""
    natural = split.features.shape[1:]
    if grid:
        return (1,) + natural
    return (int(np.prod(natural)) + (split.k_values is not None),)


def feature_batch(split: Split, input_shape: tuple[int, ...]) -> np.ndarray:
    """Adapt a split's stored forcing data to the network input: (D, *input_shape),
    laid out as feature_shape describes."""
    input_shape = tuple(input_shape)
    natural = split.features
    if len(input_shape) == 1:
        batch = natural.reshape(len(natural), int(np.prod(natural.shape[1:])))
        if split.k_values is not None:
            batch = np.concatenate((np.square(split.k_values)[:, None], batch), axis=1)
    elif natural.ndim != 3:
        raise ConfigurationError("grid input requested for non-grid features")
    elif split.k_values is not None:
        raise ConfigurationError("joint coefficients require a flat feature vector")
    else:
        batch = natural[:, None, :, :]
    if batch.shape[1:] != input_shape:
        raise ContractViolation(
            f"instance features shaped {batch.shape[1:]}, network expects {input_shape}"
        )
    return batch


# ---------------------------------------------------------------------------
# Adam


@dataclass
class AdamState:
    m: np.ndarray
    v: np.ndarray
    t: int = 0

    @staticmethod
    def for_params(params: np.ndarray) -> "AdamState":
        return AdamState(m=np.zeros_like(params), v=np.zeros_like(params))


def adam_step(
    state: AdamState,
    params: np.ndarray,
    grads: np.ndarray,
    lr: float,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
) -> AdamState:
    """One bias-corrected Adam update, in place on the params vector."""
    if not np.all(np.isfinite(grads)):
        raise DivergenceError("non-finite gradient in Adam step")
    state.t += 1
    b1t = 1.0 - beta1**state.t
    b2t = 1.0 - beta2**state.t
    state.m *= beta1
    state.m += (1.0 - beta1) * grads
    state.v *= beta2
    state.v += (1.0 - beta2) * grads * grads
    params -= lr * (state.m / b1t) / (np.sqrt(state.v / b2t) + eps)
    return state


# ---------------------------------------------------------------------------
# L-BFGS (optional optimizer)


@dataclass
class LbfgsState:
    x: np.ndarray
    f: float
    g: np.ndarray
    s_hist: list = field(default_factory=list)
    y_hist: list = field(default_factory=list)
    m: int = 10
    events: list = field(default_factory=list)


def _two_loop_direction(state: LbfgsState) -> np.ndarray:
    q = state.g.copy()
    alphas = []
    rhos = [1.0 / float(y @ s) for s, y in zip(state.s_hist, state.y_hist)]
    for s, y, rho in zip(reversed(state.s_hist), reversed(state.y_hist), reversed(rhos)):
        a = rho * (s @ q)
        alphas.append(a)
        q -= a * y
    if state.y_hist:
        s, y = state.s_hist[-1], state.y_hist[-1]
        q *= (s @ y) / (y @ y)
    for (s, y, rho), a in zip(zip(state.s_hist, state.y_hist, rhos), reversed(alphas)):
        b = rho * (y @ q)
        q += (a - b) * s
    return -q


def _strong_wolfe(closure, x, f0, g0, direction, c1=1e-4, c2=0.9, max_evals=25):
    """Bracket/zoom line search; returns (step, f, g) or None on failure."""
    d_dot_g0 = float(g0 @ direction)
    if d_dot_g0 >= 0:
        return None

    def phi(alpha):
        f, g = closure(x + alpha * direction)
        return f, g, float(g @ direction)

    def zoom(lo, f_lo, hi, f_hi, d_lo):
        for _ in range(max_evals):
            alpha = 0.5 * (lo + hi)
            f, g, d = phi(alpha)
            if f > f0 + c1 * alpha * d_dot_g0 or f >= f_lo:
                hi, f_hi = alpha, f
            else:
                if abs(d) <= -c2 * d_dot_g0:
                    return alpha, f, g
                if d * (hi - lo) >= 0:
                    hi, f_hi = lo, f_lo
                lo, f_lo, d_lo = alpha, f, d
            if abs(hi - lo) < 1e-16:
                break
        return None

    prev_alpha, prev_f, prev_d = 0.0, f0, d_dot_g0
    alpha = 1.0
    for _ in range(max_evals):
        f, g, d = phi(alpha)
        if f > f0 + c1 * alpha * d_dot_g0 or (prev_alpha > 0 and f >= prev_f):
            return zoom(prev_alpha, prev_f, alpha, f, prev_d)
        if abs(d) <= -c2 * d_dot_g0:
            return alpha, f, g
        if d >= 0:
            return zoom(alpha, f, prev_alpha, prev_f, d)
        prev_alpha, prev_f, prev_d = alpha, f, d
        alpha *= 2.0
    return None


def lbfgs_step(state: LbfgsState, closure) -> LbfgsState:
    """One quasi-Newton step with strong-Wolfe line search.

    A failed line search falls back to a small steepest-descent step and
    records the event. History length 0 degenerates to line-searched
    gradient descent.
    """
    direction = _two_loop_direction(state) if state.s_hist else -state.g
    result = _strong_wolfe(closure, state.x, state.f, state.g, direction)
    if result is None:
        state.events.append(f"line-search fallback at t={len(state.events)}")
        step = 1e-4 / max(1.0, float(np.linalg.norm(state.g)))
        x_new = state.x - step * state.g
        f_new, g_new = closure(x_new)
    else:
        alpha, f_new, g_new = result
        x_new = state.x + alpha * direction
    s = x_new - state.x
    y = g_new - state.g
    if state.m > 0 and float(s @ y) > 1e-14:
        state.s_hist.append(s)
        state.y_hist.append(y)
        if len(state.s_hist) > state.m:
            state.s_hist.pop(0)
            state.y_hist.pop(0)
    state.x, state.f, state.g = x_new, f_new, g_new
    return state


# ---------------------------------------------------------------------------
# Training loop


@dataclass(frozen=True)
class TrainConfig:
    objective: str = "unnormalized"  # unnormalized | normalized | vqls
    optimizer: str = "adam"  # adam | lbfgs
    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    epochs: int = 1000
    gradient_mode: str = "adjoint"  # adjoint | parameter_shift
    eval_every: int = 50

    def __post_init__(self):
        for name in ("epochs", "eval_every"):
            if getattr(self, name) < 1:
                raise ConfigurationError(f"{name} must be >= 1")
        if self.learning_rate <= 0:
            raise ConfigurationError("learning_rate must be positive")


@dataclass
class EpochRow:
    epoch: int
    train_loss: float
    test_loss: float
    train_rel_l2: float
    test_rel_l2: float
    test_rel_linf: float
    test_mae: float
    wall_seconds: float


@dataclass
class RunRecord:
    rows: list
    best_epoch: int
    best_test_rel_l2: float
    checkpoint_best: anglenet.NetworkState
    checkpoint_final: anglenet.NetworkState
    aborted: bool = False
    abort_reason: str = ""


@dataclass
class TrainData:
    """Both splits as training reads them, each split's instances stacked as rows."""

    ctx_train: loss_mod.LossContext
    ctx_test: loss_mod.LossContext
    train_features: np.ndarray  # (D_train, *input_shape)
    test_features: np.ndarray  # (D_test, *input_shape)
    train_truth: SolutionField  # stacked oracle solutions
    test_truth: SolutionField

    @staticmethod
    def from_dataset(
        dataset: Dataset, system: SpectralSystem, input_shape: tuple[int, ...]
    ) -> "TrainData":
        ctx_train = loss_mod.context_for_system(
            system, dataset.train.raw_targets, k_values=dataset.train.k_values
        )
        ctx_test = loss_mod.with_targets(
            ctx_train, dataset.test.raw_targets, k_values=dataset.test.k_values
        )
        return TrainData(
            ctx_train=ctx_train,
            ctx_test=ctx_test,
            train_features=feature_batch(dataset.train, input_shape),
            test_features=feature_batch(dataset.test, input_shape),
            train_truth=dataset.train.truth,
            test_truth=dataset.test.truth,
        )


def _split_loss(ctx, states, objective):
    if objective == "vqls":
        return loss_mod.loss_vqls_standard(ctx, states)
    fn = loss_mod.loss_unnormalized if objective == "unnormalized" else loss_mod.loss_phase_aware
    return fn(ctx, states).total


def evaluate_split(ctx, program, net, features, truth, objective):
    """Loss plus per-row error metrics of one split: (D, *input_shape) features, stacked truth."""
    if len(features) == 0:
        out = {"loss": float("nan")}
        for key in ("rel_l2", "rel_linf", "mae"):
            out[f"per_instance_{key}"], out[key] = [], float("nan")
        return out
    states = qsim.run_batch(program, anglenet.forward(net, features))
    out = {"loss": _split_loss(ctx, states, objective)}
    with warnings.catch_warnings():
        # intermediate states legitimately carry phase residue; only final
        # recoveries should warn
        warnings.simplefilter("ignore")
        recovered = loss_mod.recover_solution(states, ctx)
    found = metrics(recovered, truth, ctx.system)
    for key in ("rel_l2", "rel_linf", "mae"):
        out[f"per_instance_{key}"] = found[key].tolist()
        out[key] = float(np.mean(found[key]))
    return out


def _check_loss(total: float) -> None:
    if not np.isfinite(total) or total > 1e6:
        raise DivergenceError(f"loss diverged to {total:.3e}")


def train(
    config: TrainConfig,
    data: TrainData,
    program: qsim.GateProgram,
    net: anglenet.NetworkState,
) -> RunRecord:
    """Full-batch training with periodic evaluation against the oracle.

    Checkpoints the network at the best test relative-L2 error. A step or an
    evaluation that fails with a package error (the loss diverging past 1e6
    or turning non-finite, a degenerate denominator, a zero-norm truth, ...)
    ends the run with a partial record; a ConfigurationError propagates.
    """
    start = time.perf_counter()
    rows: list[EpochRow] = []
    best = (np.inf, 0, net.copy())  # (test rel L2, epoch, snapshot)
    aborted, reason = False, ""

    def record(epoch: int) -> None:
        nonlocal best
        tr = evaluate_split(
            data.ctx_train, program, net, data.train_features, data.train_truth, config.objective
        )
        te = evaluate_split(
            data.ctx_test, program, net, data.test_features, data.test_truth, config.objective
        )
        rows.append(
            EpochRow(
                epoch=epoch,
                train_loss=tr["loss"],
                test_loss=te["loss"],
                train_rel_l2=tr["rel_l2"],
                test_rel_l2=te["rel_l2"],
                test_rel_linf=te["rel_linf"],
                test_mae=te["mae"],
                wall_seconds=time.perf_counter() - start,
            )
        )
        score = te["rel_l2"] if np.isfinite(te["rel_l2"]) else tr["rel_l2"]
        if score < best[0]:
            best = (score, epoch, net.copy())

    def gradient():
        grads, value = loss_mod.grad_total(
            data.ctx_train,
            program,
            net,
            data.train_features,
            objective=config.objective,
            gradient_mode=config.gradient_mode,
        )
        return value.total, anglenet.flatten(grads)

    if config.optimizer == "lbfgs":

        def closure(x: np.ndarray):
            net.params[...] = x
            return gradient()

        lbfgs = None

        def step() -> None:
            nonlocal lbfgs
            if lbfgs is None:  # the first evaluation belongs to epoch 1
                f0, g0 = gradient()
                lbfgs = LbfgsState(x=net.params.copy(), f=f0, g=g0, m=10)
            lbfgs_step(lbfgs, closure)
            net.params[...] = lbfgs.x
            _check_loss(lbfgs.f)

    else:
        adam = AdamState.for_params(net.params)

        def step() -> None:
            total, grads = gradient()
            _check_loss(total)  # abort before applying a diverged step
            adam_step(
                adam,
                net.params,
                grads,
                lr=config.learning_rate,
                beta1=config.beta1,
                beta2=config.beta2,
                eps=config.epsilon,
            )

    def attempt(epoch: int, action, *args) -> bool:
        # a package error ends the run with its partial record; the first one names the abort
        nonlocal aborted, reason
        try:
            action(*args)
        except ConfigurationError:
            raise
        except VqSpectralError as err:
            aborted, reason = True, reason or f"{err} at epoch {epoch}"
            return False
        return True

    for epoch in range(1, config.epochs + 1):
        due = epoch % config.eval_every == 0 or epoch == config.epochs
        if not attempt(epoch, step) or (due and not attempt(epoch, record, epoch)):
            break

    if not rows:
        attempt(0, record, 0)
    return RunRecord(
        rows=rows,
        best_epoch=best[1],
        best_test_rel_l2=float(best[0]),
        checkpoint_best=best[2],
        checkpoint_final=net.copy(),
        aborted=aborted,
        abort_reason=reason,
    )


_RUN_COLUMNS = (
    "epoch",
    "train_loss",
    "test_loss",
    "train_rel_l2",
    "test_rel_l2",
    "test_rel_linf",
    "test_mae",
    "wall_seconds",
)


def write_run_record(record: RunRecord, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(_RUN_COLUMNS)
        for row in record.rows:
            writer.writerow(
                [row.epoch]
                + [
                    f"{getattr(row, col):.17g}"
                    for col in _RUN_COLUMNS[1:]
                ]
            )


def read_run_record(path) -> list[EpochRow]:
    rows = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        if tuple(reader.fieldnames) != _RUN_COLUMNS:
            raise ContractViolation(f"unexpected run record columns: {reader.fieldnames}")
        for entry in reader:
            rows.append(
                EpochRow(
                    epoch=int(entry["epoch"]),
                    **{k: float(entry[k]) for k in _RUN_COLUMNS[1:]},
                )
            )
    return rows
