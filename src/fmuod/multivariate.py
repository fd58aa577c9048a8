"""Outlier detection for multivariate functional data.

Three strategies reduce multivariate curves to samples of univariate ones:

* marginal: one sample per component, with the flags joined across them;
* stringing: one sample of long curves, the (optionally rescaled)
  components of each curve concatenated;
* projection: one sample per random unit direction.  A curve is flagged as
  an outlier of a given type when the share of projections voting for it
  reaches that type's threshold.

All three run one stacked kernel on a ``(c, n, k)`` stack of samples: a
pointwise reference per sample, the three index columns and the boxplot
fences, with every reduction kept within one sample.  Component and
stringed references must not be constant (:class:`DegenerateReference`);
a projection whose reference is constant is dropped and counted instead.
Directions are stacked in chunks under a fixed memory budget
(:data:`CHUNK_BYTES`); the votes and index tables do not depend on it.

Every detector returns the index tables its flags were read from.  Projection
thresholds are fixed vote shares or are chosen from the vote matrix by a
selector such as :func:`select_thresholds`: with ``delta_T`` the excess vote
share of type ``T`` over its baseline false-vote rate and ``delta_C`` that of
votes of any type, ``tau_T = gamma_T - eta_T * clamp(delta_T / delta_C, 0, 1)``,
or ``gamma_T`` when ``delta_C <= 0`` or the ratio is negative.
"""
from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from numbers import Integral

import numpy as np

from .cutoffs import FlagSet, _fence_masks, rules_for
from .datasets import FunctionalDataset, Grid, MultivariateFunctionalDataset
from .errors import DegenerateReference, InvalidConfig, InvalidCurve, InvalidDirection
from .indices import (
    LOCATION_MEDIAN,
    VARIANT_STANDARD,
    IndexTable,
    _check_variant,
    _index_columns,
    _references,
    _ReferenceStack,
)
from .seeding import child_rng

#: Order of the index types along the last axis of vote matrices and
#: proportion arrays.
TYPE_ORDER = ("shape", "amplitude", "magnitude")

#: Directions with squared norm below this are rejected and redrawn.
MIN_DIRECTION_NORM = 1e-8

#: Unit-norm tolerance for direction vectors.
DIRECTION_NORM_TOL = 1e-12

#: Memory budget, in bytes, for the projected curves of one chunk of
#: directions in :func:`collect_votes`.  A chunk holds at least one direction;
#: votes and tables do not depend on the budget.
CHUNK_BYTES = 2**18

SCALE_MINMAX = "minmax"
SCALE_NONE = "none"
SCALES = (SCALE_MINMAX, SCALE_NONE)


# ---------------------------------------------------------------------------
# thresholds and baselines


@dataclass(frozen=True)
class Baselines:
    """Expected false-vote shares of the cutoffs on outlier-free data.

    ``shape``, ``amplitude`` and ``magnitude`` are the per-projection rates of
    votes of each type; ``union`` is the rate of curves receiving a vote of
    any type.
    """

    shape: float
    amplitude: float
    magnitude: float
    union: float

    def __post_init__(self):
        for value in (self.shape, self.amplitude, self.magnitude, self.union):
            if not (np.isfinite(value) and 0.0 <= value < 1.0):
                raise InvalidConfig("baseline rates must lie in [0, 1)")

    def by_type(self) -> tuple[float, float, float]:
        return (self.shape, self.amplitude, self.magnitude)

    def as_dict(self) -> dict[str, float]:
        return {
            "shape": self.shape,
            "amplitude": self.amplitude,
            "magnitude": self.magnitude,
            "union": self.union,
        }

    @classmethod
    def from_dict(cls, mapping) -> "Baselines":
        try:
            return cls(
                float(mapping["shape"]),
                float(mapping["amplitude"]),
                float(mapping["magnitude"]),
                float(mapping["union"]),
            )
        except KeyError as exc:
            raise InvalidConfig(f"baselines are missing the {exc.args[0]!r} rate") from exc
        except (TypeError, ValueError) as exc:
            raise InvalidConfig(f"baseline rates must be numbers ({exc})") from exc


#: False-vote rates measured on the bundled outlier-free simulation model
#: (n=100 curves, k=50 grid points, 60 directions).  Regenerate with
#: :func:`fmuod.benchmark.estimate_null_baselines` or ``fmuod baselines``.
REFERENCE_BASELINES = Baselines(shape=0.075, amplitude=0.009, magnitude=0.009, union=0.09)


@dataclass(frozen=True)
class ThresholdTriple:
    """Vote-share thresholds for the three index types, each in (0, 1]."""

    shape: float
    amplitude: float
    magnitude: float
    selection: "ThresholdSelection | None" = None

    def __post_init__(self):
        for value in self.by_type():
            if not (np.isfinite(value) and 0.0 < value <= 1.0):
                raise InvalidConfig("vote-share thresholds must lie in (0, 1]")

    def by_type(self) -> tuple[float, float, float]:
        return (self.shape, self.amplitude, self.magnitude)


@dataclass(frozen=True)
class ThresholdSelection:
    """How adaptive thresholds were derived from a vote matrix.

    ``branches[t]`` records which case of the threshold formula fired for
    type ``t``: ``"scaled"`` (ratio inside [0, 1]), ``"capped"`` (ratio above
    one) or ``"fallback"`` (degenerate excess estimates).
    """

    baselines: Baselines
    gamma: tuple[float, float, float]
    eta: tuple[float, float, float]
    delta_types: tuple[float, float, float]
    delta_union: float
    ratios: tuple[float, float, float]
    branches: tuple[str, str, str]


#: Default fixed vote shares: 0.4 for shape, 0.3 for amplitude and magnitude.
DEFAULT_VOTE_SHARES = ThresholdTriple(shape=0.4, amplitude=0.3, magnitude=0.3)

#: Sentinel share that flags a curve as soon as one projection votes for it.
#: Vote proportions are multiples of 1/L, so any positive share clears it.
ANY_VOTE_SHARE = float(np.finfo(np.float64).eps)

ANY_VOTE_THRESHOLDS = ThresholdTriple(ANY_VOTE_SHARE, ANY_VOTE_SHARE, ANY_VOTE_SHARE)

#: Upper anchors ``gamma`` of the adaptive threshold formula, per type.
DEFAULT_GAMMA = (0.7, 0.7, 0.7)

#: Maximum reductions ``eta`` of the adaptive threshold formula, per type.
DEFAULT_ETA = (0.3, 0.4, 0.4)


# ---------------------------------------------------------------------------
# directions and projections


@dataclass(frozen=True)
class DirectionSet:
    """Unit projection directions, one per row."""

    vectors: np.ndarray
    seed: int | None = None

    def __post_init__(self):
        vecs = np.array(self.vectors, dtype=float)
        if vecs.ndim != 2 or vecs.shape[0] < 1 or vecs.shape[1] < 1:
            raise InvalidDirection("directions must form a non-empty 2-d array")
        if not np.all(np.isfinite(vecs)):
            raise InvalidDirection("directions contain NaN or infinite entries")
        norms = np.sqrt((vecs * vecs).sum(axis=1))
        if np.max(np.abs(norms - 1.0)) > DIRECTION_NORM_TOL:
            raise InvalidDirection(
                f"direction rows must have unit norm within {DIRECTION_NORM_TOL:g}"
            )
        vecs.setflags(write=False)
        object.__setattr__(self, "vectors", vecs)

    @property
    def n_directions(self) -> int:
        return self.vectors.shape[0]

    @property
    def n_dims(self) -> int:
        return self.vectors.shape[1]


def _check_count(name: str, value, message: str) -> None:
    """Reject a count that is not an integer (``bool`` included) or is below one."""
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise InvalidConfig(f"{name} must be an integer, got {value!r}")
    if value < 1:
        raise InvalidConfig(message)


def generate_directions(n_directions: int, n_dims: int, seed: int) -> DirectionSet:
    """Draw unit directions uniformly from the cube and normalise them.

    Each direction has its own generator derived from ``(seed, index)``, so
    direction ``l`` does not depend on how many directions are requested.
    Draws with norm below :data:`MIN_DIRECTION_NORM` are rejected and redrawn.
    """
    _check_count("n_directions", n_directions, "need at least one direction")
    _check_count("n_dims", n_dims, "need at least one dimension")
    vectors = np.empty((n_directions, n_dims))
    for l in range(n_directions):
        rng = child_rng(seed, l)
        while True:
            v = rng.uniform(-1.0, 1.0, n_dims)
            norm = float(np.sqrt(v @ v))
            if norm >= MIN_DIRECTION_NORM:
                break
        vectors[l] = v / norm
    return DirectionSet(vectors, seed=seed)


def project(data: MultivariateFunctionalDataset, direction) -> FunctionalDataset:
    """Pointwise projection of every curve onto one direction vector."""
    vec = np.asarray(direction, dtype=float)
    if vec.ndim != 1 or vec.size != data.n_dims:
        raise InvalidDirection(
            f"direction must have {data.n_dims} components, got shape {vec.shape}"
        )
    if not np.all(np.isfinite(vec)):
        raise InvalidDirection("direction contains NaN or infinite entries")
    if float(np.sqrt(vec @ vec)) < MIN_DIRECTION_NORM:
        raise InvalidDirection("direction norm is (near-)zero")
    return FunctionalDataset(_project_rows(data.values, vec[None])[0], data.grid)


def _project_rows(values: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """Project ``(n, k, d)`` curve values onto each row of ``vectors``: ``(c, n, k)``."""
    # Accumulate per component: elementwise kernels keep results independent
    # of BLAS threading.  Overflow leaves non-finite curves, which the callers
    # reject.
    with np.errstate(over="ignore", invalid="ignore"):
        out = values[None, :, :, 0] * vectors[:, 0, None, None]
        for m in range(1, values.shape[2]):
            out += values[None, :, :, m] * vectors[:, m, None, None]
    return out


# ---------------------------------------------------------------------------
# reports


@dataclass(frozen=True)
class OutlierReport:
    """Outcome of one detection run.

    ``tables`` holds the ``(label, IndexTable)`` pairs the flags were read
    from.  The label is the component index (marginal), ``"stringed"``
    (stringing) or the direction index of each non-degenerate projection.
    """

    method: str
    n: int
    flags: FlagSet
    proportions: np.ndarray | None = None
    thresholds: ThresholdTriple | None = None
    degenerate_projections: int = 0
    config: dict = field(default_factory=dict)
    tables: tuple = field(default=(), compare=False, repr=False)


# ---------------------------------------------------------------------------
# the stacked kernel and the component detectors


def _stack_kernel(samples: np.ndarray, refs: _ReferenceStack, variant: str) -> tuple[np.ndarray, np.ndarray]:
    """Index columns and fence masks of a contiguous ``(c, n, k)`` stack.

    Sample ``j`` is indexed against reference ``j``, which must not be
    degenerate.  Both results have shape ``(3, c, n)``; the columns are
    read-only.
    """
    columns = _index_columns(samples, refs.centered, refs.means, variant)
    return columns, _fence_masks(columns, rules_for(variant))


def _classify_stack(samples: np.ndarray, variant: str, location: str):
    """Tables of each sample of a stack, and its flags joined across samples."""
    refs = _references(samples, location)
    if np.any(refs.degenerate):
        raise DegenerateReference("reference curve is constant")
    columns, masks = _stack_kernel(samples, refs, variant)
    flags = (frozenset(np.flatnonzero(m).tolist()) for m in masks.any(axis=1))
    tables = [IndexTable(*columns[:, j], variant=variant) for j in range(samples.shape[0])]
    return tables, FlagSet(samples.shape[1], *flags)


def detect_marginal(
    data: MultivariateFunctionalDataset,
    variant: str = VARIANT_STANDARD,
    location: str = LOCATION_MEDIAN,
) -> OutlierReport:
    """Classify per component and join the flags of each type across components."""
    _check_variant(variant)
    # A contiguous copy: reductions on the strided view round differently.
    samples = np.ascontiguousarray(data.values.transpose(2, 0, 1))
    tables, flags = _classify_stack(samples, variant, location)
    return OutlierReport(
        "FST_MAR",
        data.n,
        flags,
        config={"variant": variant, "location": location},
        tables=tuple(enumerate(tables)),
    )


# ---------------------------------------------------------------------------
# stringing


def string_dimensions(
    data: MultivariateFunctionalDataset, scale: str = SCALE_NONE
) -> FunctionalDataset:
    """Concatenate the components of each curve into one long curve.

    With ``scale="minmax"`` each component is first rescaled to [0, 1] using
    its pooled minimum and maximum over all curves and grid points; a
    zero-range component becomes identically zero.  The output grid keeps the
    input spacing and starts at the first input point.
    """
    if scale not in SCALES:
        raise InvalidConfig(f"unknown scale {scale!r}; use one of {SCALES}")
    pieces = []
    for m in range(data.n_dims):
        block = data.values[:, :, m]
        if scale == SCALE_MINMAX:
            low = block.min()
            with np.errstate(over="ignore"):
                span = block.max() - low
            if not np.isfinite(span):
                raise InvalidCurve(f"component {m} has a range too wide to rescale (overflow)")
            block = np.zeros_like(block) if span == 0.0 else (block - low) / span
        pieces.append(block)
    values = np.concatenate(pieces, axis=1)
    start = float(data.grid.points[0])
    step = data.grid.spacing
    grid = Grid(start + step * np.arange(data.k * data.n_dims))
    return FunctionalDataset(values, grid)


def detect_stringed(
    data: MultivariateFunctionalDataset,
    scale: str = SCALE_NONE,
    variant: str = VARIANT_STANDARD,
    location: str = LOCATION_MEDIAN,
) -> OutlierReport:
    """Run the univariate pipeline on the stringed curves."""
    _check_variant(variant)
    tables, flags = _classify_stack(string_dimensions(data, scale).values[None], variant, location)
    return OutlierReport(
        "FST_STR",
        data.n,
        flags,
        config={"scale": scale, "variant": variant, "location": location},
        tables=(("stringed", tables[0]),),
    )


# ---------------------------------------------------------------------------
# projection voting


@dataclass(frozen=True)
class VoteMatrix:
    """Boolean votes per (curve, projection, index type).

    ``votes[i, l, t]`` says projection ``l`` voted curve ``i`` an outlier of
    type ``TYPE_ORDER[t]``.  Projections whose reference curve was constant
    contribute no votes and are counted in ``degenerate_projections``.
    ``tables`` holds the ``(l, IndexTable)`` pair of each non-degenerate
    projection the votes were read from; it is empty for a matrix built from
    votes alone.
    """

    votes: np.ndarray
    degenerate_projections: int = 0
    tables: tuple = field(default=(), compare=False, repr=False)

    def __post_init__(self):
        votes = np.asarray(self.votes)
        if votes.ndim != 3 or votes.shape[2] != len(TYPE_ORDER):
            raise InvalidConfig(
                f"votes must have shape (n, L, {len(TYPE_ORDER)}), got {votes.shape}"
            )
        if votes.dtype != np.bool_:
            raise InvalidConfig("votes must be boolean")
        if votes.shape[0] < 1 or votes.shape[1] < 1:
            raise InvalidConfig("votes need at least one curve and one projection")
        votes = votes.copy()
        votes.setflags(write=False)
        object.__setattr__(self, "votes", votes)

    @property
    def n(self) -> int:
        return self.votes.shape[0]

    @property
    def n_projections(self) -> int:
        return self.votes.shape[1]

    @property
    def proportions(self) -> np.ndarray:
        """Per-curve vote shares, exact counts over the projection count."""
        return self.votes.sum(axis=1) / self.n_projections

    def type_shares(self) -> tuple[float, float, float]:
        """Overall share of (curve, projection) pairs voted per type."""
        total = self.n * self.n_projections
        counts = self.votes.sum(axis=(0, 1))
        return tuple(float(c) / total for c in counts)

    def union_share(self) -> float:
        """Overall share of (curve, projection) pairs voted for any type."""
        total = self.n * self.n_projections
        return float(self.votes.any(axis=2).sum()) / total

    def flags_at(self, thresholds: ThresholdTriple) -> FlagSet:
        """Curves whose vote share reaches the threshold of each type."""
        props = self.proportions
        taus = thresholds.by_type()
        sets = [
            frozenset(np.nonzero(props[:, t] >= taus[t])[0].tolist())
            for t in range(len(TYPE_ORDER))
        ]
        return FlagSet(self.n, sets[0], sets[1], sets[2])


def collect_votes(
    data: MultivariateFunctionalDataset,
    directions: DirectionSet,
    variant: str = VARIANT_STANDARD,
    location: str = LOCATION_MEDIAN,
) -> VoteMatrix:
    """Run the univariate pipeline on every projection and record its votes.

    Directions are taken in chunks whose projected curves fit in
    :data:`CHUNK_BYTES`; each step runs on a whole chunk at once, but every
    reduction stays within one projection, so the votes and tables equal
    those of projecting, indexing and classifying one direction at a time.
    """
    _check_variant(variant)
    if directions.n_dims != data.n_dims:
        raise InvalidDirection(
            f"directions have {directions.n_dims} components but the data has {data.n_dims}"
        )
    n_dirs = directions.n_directions
    votes = np.zeros((data.n, n_dirs, len(TYPE_ORDER)), dtype=bool)
    tables = []
    per_chunk = max(1, CHUNK_BYTES // (data.n * data.k * 8))
    for start in range(0, n_dirs, per_chunk):
        curves = _project_rows(data.values, directions.vectors[start:start + per_chunk])
        if not np.all(np.isfinite(curves)):
            raise InvalidCurve("projected curves contain NaN or infinite entries")
        refs = _references(curves, location)
        kept = np.flatnonzero(~refs.degenerate).tolist()
        if not kept:
            continue
        if len(kept) < len(curves):
            curves = curves[kept]
            refs = refs.take(kept)
        columns, masks = _stack_kernel(curves, refs, variant)
        labels = [start + j for j in kept]
        tables.extend(
            (l, IndexTable(*columns[:, j], variant=variant)) for j, l in enumerate(labels)
        )
        votes[:, labels, :] = masks.transpose(2, 1, 0)
    return VoteMatrix(votes, n_dirs - len(tables), tuple(tables))


def select_thresholds(
    votes: VoteMatrix,
    baselines: Baselines = REFERENCE_BASELINES,
) -> ThresholdTriple:
    """Choose vote-share thresholds from the observed vote excess.

    The estimated share of outliers of type ``T`` is the observed vote share
    minus the baseline false-vote rate (``delta_T``); likewise ``delta_C``
    for votes of any type.  Types that explain a larger part of the overall
    contamination get a lower threshold:
    ``tau_T = gamma_T - eta_T * clamp(delta_T / delta_C, 0, 1)``.  When
    ``delta_C <= 0`` or the ratio is negative, ``tau_T`` stays at ``gamma_T``.
    The anchors ``gamma`` and reductions ``eta`` are the constants
    :data:`DEFAULT_GAMMA` and :data:`DEFAULT_ETA`; the returned selection
    records them.
    """
    gamma, eta = DEFAULT_GAMMA, DEFAULT_ETA
    delta_types = tuple(
        share - base for share, base in zip(votes.type_shares(), baselines.by_type())
    )
    delta_union = votes.union_share() - baselines.union

    taus = []
    ratios = []
    branches = []
    for t in range(len(TYPE_ORDER)):
        if delta_union <= 0.0:
            ratio, branch, tau = float("nan"), "fallback", gamma[t]
        else:
            ratio = delta_types[t] / delta_union
            if ratio < 0.0:
                branch, tau = "fallback", gamma[t]
            elif ratio > 1.0:
                branch, tau = "capped", gamma[t] - eta[t]
            else:
                branch, tau = "scaled", gamma[t] - eta[t] * ratio
        taus.append(tau)
        ratios.append(ratio)
        branches.append(branch)

    selection = ThresholdSelection(
        baselines=baselines,
        gamma=gamma,
        eta=eta,
        delta_types=delta_types,
        delta_union=delta_union,
        ratios=tuple(ratios),
        branches=tuple(branches),
    )
    return ThresholdTriple(taus[0], taus[1], taus[2], selection=selection)


def detect_projection(
    data: MultivariateFunctionalDataset,
    directions: DirectionSet,
    thresholds: ThresholdTriple | Callable[[VoteMatrix], ThresholdTriple] = DEFAULT_VOTE_SHARES,
    variant: str = VARIANT_STANDARD,
    location: str = LOCATION_MEDIAN,
    method: str = "FST_PRJ1",
) -> OutlierReport:
    """Projection vote with fixed thresholds or thresholds chosen from the votes.

    ``thresholds`` is either a :class:`ThresholdTriple` or a selector mapping
    the :class:`VoteMatrix` to one, such as a :func:`functools.partial` of
    :func:`select_thresholds`.
    """
    votes = collect_votes(data, directions, variant, location)
    chosen = thresholds(votes) if callable(thresholds) else thresholds
    return OutlierReport(
        method,
        data.n,
        votes.flags_at(chosen),
        proportions=votes.proportions,
        thresholds=chosen,
        degenerate_projections=votes.degenerate_projections,
        config={
            "n_directions": directions.n_directions,
            "direction_seed": directions.seed,
            "variant": variant,
            "location": location,
        },
        tables=votes.tables,
    )
