"""Synthetic trivariate functional datasets with labelled outliers.

Every model draws ``n`` curves on a regular grid over [0, 1] as

``Y_i(t) = mu(t) + sum_m rho_im * psi_m(t) + eps_i(t)``

where ``psi_1..psi_M`` is a trivariate orthonormal family built by splitting
Fourier functions, ``rho_im ~ N(0, (M+1-m)/M)`` are independent scores and
``eps_i`` is white noise with one standard deviation per component drawn
uniformly from [0.1, 0.3] once per dataset.  A fixed share of curves is then
contaminated according to the chosen model:

* ``M0``: no contamination.
* ``M1``: mean (4t, 30t(1-t)^1.5, 5(t-1)^2); outliers shift by +-8 per
  component (sign drawn per outlier and component).
* ``M2``: mean (5sin(2pi t), 5cos(2pi t), 5(t-1)^2); outliers shift by +-8
  only inside a window [T, T+0.1] with T drawn uniformly from [0, 0.9].
* ``M3``: same mean as M2; outliers swap to the phase-shifted mean
  (5sin(2pi(t-0.3)), 5cos(2pi(t-0.2)), 5(0.1-t)^2).
* ``M4``: same mean as M2 plus a constant shift per curve and component drawn
  uniformly from [-2.1, 2.1]; outliers instead add
  (2sin(4pi t), 2cos(4pi t), 2cos(8pi t)).
* ``M5``: same mean as M2; outliers add (2+R) times the mean per component,
  with R drawn per outlier and component from an exponential with rate 2,
  minus 6 on the third component.
* ``M6``: same mean as M2 plus (8t sin(pi t), t cos(pi t), 6sin(2pi t) - 3)
  for all curves; outliers use (10t sin(pi t), 11t cos(pi t),
  10sin(2pi t) - 6) instead.

The variants ``M1_2``, ``M2_2``, ``M2_3``, ``M3_2``, ``M3_3`` and ``M5_2``
restrict the contamination of their base model to a subset of components (the
subsets are an interpretation choice; see :data:`VARIANT_DIMS`).

Generation sums the mean, scores and noise, adds any main-model term (M4's
flat per-curve shifts, M6's oscillation), then adds every outlier's shifts in
one indexed add, masked to the components the model contaminates.  Draws
happen in a fixed order (noise scales, scores, noise, any main-model shifts,
outlier positions, contamination parameters), so regenerating with the same
seed and contamination zero reproduces the uncontaminated part of every curve
bit for bit.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass, field
from numbers import Integral, Real

import numpy as np

from .datasets import Grid, MultivariateFunctionalDataset
from .errors import InvalidConfig

#: Number of components of the simulated curves.
N_DIMS = 3

#: Number of eigenfunctions in the Karhunen-Loeve part.
N_COMPONENTS = 9

BASE_MODELS = ("M0", "M1", "M2", "M3", "M4", "M5", "M6")

#: Components contaminated by each variant model.  The base models
#: contaminate every component.  These subsets are inferred choices, not part
#: of the variants' defining formulas.
VARIANT_DIMS = {
    "M1_2": ("M1", (0,)),
    "M2_2": ("M2", (0,)),
    "M2_3": ("M2", (0, 1)),
    "M3_2": ("M3", (0, 1)),
    "M3_3": ("M3", (2,)),
    "M5_2": ("M5", (0, 1)),
}

MODEL_IDS = BASE_MODELS + tuple(VARIANT_DIMS)


@dataclass(frozen=True)
class SimulationSpec:
    """Parameters of one synthetic dataset."""

    model: str = "M0"
    n: int = 100
    k: int = 50
    contamination: float = 0.1
    seed: int = 0

    def __post_init__(self):
        if self.model not in MODEL_IDS:
            raise InvalidConfig(f"unknown model {self.model!r}; use one of {MODEL_IDS}")
        for name in ("n", "k", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, Integral):
                raise InvalidConfig(f"{name} must be an integer")
        if self.n < 1:
            raise InvalidConfig("n must be at least 1")
        if self.k < 2:
            raise InvalidConfig("k must be at least 2")
        if isinstance(self.contamination, bool) or not isinstance(self.contamination, Real):
            raise InvalidConfig("contamination must be a number")
        if not (0.0 <= self.contamination <= 1.0):
            raise InvalidConfig("contamination must lie in [0, 1]")
        if self.seed < 0:
            raise InvalidConfig("seed must be a non-negative integer")

    @property
    def n_outliers(self) -> int:
        if self.model == "M0":
            return 0
        return int(np.floor(self.contamination * self.n))


@dataclass(frozen=True)
class LabeledDataset:
    """A generated dataset with its ground-truth outlier labels."""

    data: MultivariateFunctionalDataset
    outlier_indices: tuple[int, ...]
    outlier_info: dict[int, dict] = field(default_factory=dict)


def score_variances() -> np.ndarray:
    """Variances ``(M+1-m)/M`` of the :data:`N_COMPONENTS` scores, decreasing in ``m``."""
    m = np.arange(1, N_COMPONENTS + 1)
    return (N_COMPONENTS + 1 - m) / N_COMPONENTS


def multivariate_eigenfunctions(grid: Grid) -> np.ndarray:
    """Orthonormal trivariate eigenfunctions evaluated on the grid.

    The Fourier family on [0, d] with ``d =`` :data:`N_DIMS` (constant, then
    sine and cosine pairs of increasing frequency) is cut into ``d``
    unit-length pieces; piece ``j`` becomes component ``j``.  The family is
    orthonormal under the inner product summing the per-component integrals
    over the grid's span, which is designed for grids on [0, 1].

    Returns an array of shape ``(N_COMPONENTS, N_DIMS, k)``.
    """
    t = grid.points
    out = np.empty((N_COMPONENTS, N_DIMS, t.size))
    for m in range(N_COMPONENTS):
        for j in range(N_DIMS):
            x = t + j
            if m == 0:
                out[m, j] = 1.0 / np.sqrt(N_DIMS)
            else:
                freq = (m + 1) // 2
                angle = 2.0 * np.pi * freq * x / N_DIMS
                wave = np.sin(angle) if m % 2 == 1 else np.cos(angle)
                out[m, j] = np.sqrt(2.0 / N_DIMS) * wave
    return out


@functools.lru_cache(maxsize=8)
def _eigenfunctions(k: int) -> np.ndarray:
    """Read-only :func:`multivariate_eigenfunctions` on the regular grid of ``k`` points."""
    psi = multivariate_eigenfunctions(Grid.regular(k))
    psi.setflags(write=False)
    return psi


def _mean_m0(t: np.ndarray) -> np.ndarray:
    return np.stack(
        [4.0 * t, 30.0 * t * (1.0 - t) ** 1.5, 5.0 * (t - 1.0) ** 2], axis=-1
    )


def _mean_oscillating(t: np.ndarray) -> np.ndarray:
    return np.stack(
        [
            5.0 * np.sin(2.0 * np.pi * t),
            5.0 * np.cos(2.0 * np.pi * t),
            5.0 * (t - 1.0) ** 2,
        ],
        axis=-1,
    )


def _mean_m3_contaminated(t: np.ndarray) -> np.ndarray:
    return np.stack(
        [
            5.0 * np.sin(2.0 * np.pi * (t - 0.3)),
            5.0 * np.cos(2.0 * np.pi * (t - 0.2)),
            5.0 * (0.1 - t) ** 2,
        ],
        axis=-1,
    )


def _shift_m4_contaminated(t: np.ndarray) -> np.ndarray:
    return np.stack(
        [
            2.0 * np.sin(4.0 * np.pi * t),
            2.0 * np.cos(4.0 * np.pi * t),
            2.0 * np.cos(8.0 * np.pi * t),
        ],
        axis=-1,
    )


def _shift_m6_main(t: np.ndarray) -> np.ndarray:
    return np.stack(
        [
            8.0 * t * np.sin(np.pi * t),
            t * np.cos(np.pi * t),
            6.0 * np.sin(2.0 * np.pi * t) - 3.0,
        ],
        axis=-1,
    )


def _shift_m6_contaminated(t: np.ndarray) -> np.ndarray:
    return np.stack(
        [
            10.0 * t * np.sin(np.pi * t),
            11.0 * t * np.cos(np.pi * t),
            10.0 * np.sin(2.0 * np.pi * t) - 6.0,
        ],
        axis=-1,
    )


#: Shift of every outlier of the models without contamination parameters.
_FIXED_SHIFTS = {
    "M0": lambda t: np.zeros((t.size, N_DIMS)),
    "M3": lambda t: _mean_m3_contaminated(t) - _mean_oscillating(t),
    "M4": _shift_m4_contaminated,
    "M6": lambda t: _shift_m6_contaminated(t) - _shift_m6_main(t),
}


def main_mean(model: str, t: np.ndarray) -> np.ndarray:
    """Closed-form mean of the uncontaminated curves, shape ``(k, d)``."""
    base = VARIANT_DIMS.get(model, (model, None))[0]
    if base in ("M0", "M1"):
        return _mean_m0(t)
    return _mean_oscillating(t)


def generate(spec: SimulationSpec) -> LabeledDataset:
    """Draw one labelled dataset according to ``spec``."""
    base, affected = VARIANT_DIMS.get(spec.model, (spec.model, tuple(range(N_DIMS))))
    rng = np.random.default_rng(spec.seed)
    grid = Grid.regular(spec.k)
    t = grid.points
    n, n_out = spec.n, spec.n_outliers

    psi = _eigenfunctions(spec.k)
    sigma = rng.uniform(0.1, 0.3, N_DIMS)
    scores = rng.standard_normal((n, N_COMPONENTS)) * np.sqrt(score_variances())
    noise = rng.standard_normal((n, spec.k, N_DIMS)) * sigma
    values = main_mean(base, t)[None] + np.einsum("nm,mdk->nkd", scores, psi) + noise
    if base == "M4":
        term = rng.uniform(-2.1, 2.1, (n, 1, N_DIMS))
    elif base == "M6":
        term = _shift_m6_main(t)
    positions = np.sort(rng.choice(n, n_out, replace=False))

    # Main-model terms beyond the mean.  M4 outliers trade their flat shift
    # for the contaminated oscillation; M6 outliers keep the main one.
    if base in ("M4", "M6"):
        carries = np.ones((n, 1, 1), dtype=bool)
        carries[positions] = base == "M6"
        np.add(values, term, out=values, where=carries)

    params: dict[str, np.ndarray] = {}
    if base in ("M1", "M2"):
        params["signs"] = rng.choice([-1.0, 1.0], size=(n_out, N_DIMS))
        window = True
        if base == "M2":
            params["window_start"] = rng.uniform(0.0, 0.9, n_out)
            start = params["window_start"][:, None]
            window = ((t >= start) & (t <= start + 0.1))[..., None]
        shifts = np.where(window, 8.0 * params["signs"][:, None], 0.0)
    elif base == "M5":
        params["scales"] = rng.exponential(scale=0.5, size=(n_out, N_DIMS))
        shifts = (2.0 + params["scales"][:, None]) * _mean_oscillating(t)
        shifts[..., 2] -= 6.0
    else:
        shifts = _FIXED_SHIFTS[base](t)
    # ``shifts`` broadcasts to ``(n_out, k, d)``; the mask drops unaffected components.
    values[positions] += np.where(np.isin(np.arange(N_DIMS), affected), shifts, 0.0)

    outliers = positions.tolist()
    info = {i: {key: v[a].tolist() for key, v in params.items()} for a, i in enumerate(outliers)}
    data = MultivariateFunctionalDataset(values, grid)
    return LabeledDataset(data, tuple(outliers), info)
