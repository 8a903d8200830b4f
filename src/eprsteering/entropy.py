"""Shannon information measures on discrete probability tensors.

All quantities are computed in nats internally and rebased on the way out, so
identities hold to float64 roundoff regardless of the requested base.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import UsageError
from .grids import JointDistribution, Party, _checked_probs

__all__ = [
    "EntropyValue",
    "entropy",
    "conditional_entropy",
    "mutual_information",
]

#: Cells at or below this probability are treated as exact zeros and
#: contribute nothing, which keeps 0*log(0) out of the sums.
ZERO_FLOOR = 1e-300

DistLike = Union[JointDistribution, np.ndarray]


def _check_base(base: float) -> float:
    base = float(base)
    if not math.isfinite(base) or base <= 1.0:
        raise UsageError(f"log base must be finite and > 1, got {base!r}")
    return base


@dataclass(frozen=True)
class EntropyValue:
    """A scalar information quantity together with the log base it is in."""

    value: float
    base: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "value", float(self.value))
        object.__setattr__(self, "base", _check_base(self.base))

    def rebase(self, base: float) -> "EntropyValue":
        """The same quantity expressed in another log base."""
        base = _check_base(base)
        return EntropyValue(self.value * math.log(self.base) / math.log(base), base)

    def __float__(self) -> float:
        return self.value


def _plogp(p: np.ndarray) -> np.ndarray:
    """``p * log(p)`` elementwise in nats, zero at cells at or below ``ZERO_FLOOR``."""
    terms = np.log(p, out=np.zeros_like(p), where=p > ZERO_FLOOR)
    terms *= p
    return terms


def _bin_sums(values: np.ndarray, bins: np.ndarray | int, n_bins: int) -> np.ndarray:
    """``(batch, n_bins)`` sums of each row's columns by bin, added in column order."""
    batch = len(values)
    index = np.broadcast_to(bins + n_bins * np.arange(batch)[:, None], values.shape)
    return np.bincount(index.ravel(), values.ravel(), batch * n_bins).reshape(batch, n_bins)


def _plugin_nats(rows: np.ndarray, cells: np.ndarray, shape: tuple[int, ...]) -> tuple[np.ndarray, ...]:
    """Joint, party-A and party-B plug-in entropies in nats of each row of ``rows``.

    ``rows`` is a ``(batch, k)`` probability array and ``cells`` the
    increasing flat indices of its columns in a tensor of ``shape``, party
    A's ``len(shape) // 2`` axes first; cells not listed hold zero.  Every
    entropy in the package comes from here.  Sums add in column order and a
    zero adds nothing, so a row's values depend neither on which zero cells
    are listed nor on the rows batched with it: a point estimate and the same
    counts scored on their non-zero cells in a bootstrap chunk agree bit for bit.
    """
    n = len(shape) // 2
    size_b = math.prod(shape[n:])
    a, b = np.divmod(cells, size_b)
    marginals = (_bin_sums(rows, a, math.prod(shape[:n])), _bin_sums(rows, b, size_b))
    return tuple(-_bin_sums(_plogp(p), 0, 1)[:, 0] for p in (rows, *marginals))


def _dense_nats(p: np.ndarray) -> list[float]:
    """Joint, party-A and party-B entropies in nats of one probability tensor."""
    return [float(h[0]) for h in _plugin_nats(p.reshape(1, -1), np.arange(p.size), p.shape)]


def _party_split(dist: DistLike) -> np.ndarray:
    """Validated probabilities whose party split is known: party A's axes first."""
    if isinstance(dist, JointDistribution):
        return dist.probs
    arr = _checked_probs(dist)
    if arr.ndim != 2:
        raise UsageError(
            "party structure is ambiguous for raw arrays unless they are 2-D; "
            "wrap higher-rank tensors in JointDistribution"
        )
    return arr


def entropy(dist: DistLike, base: float = 2.0) -> EntropyValue:
    """Shannon entropy of the whole tensor viewed as one distribution."""
    base = _check_base(base)
    p = dist.probs if isinstance(dist, JointDistribution) else _checked_probs(dist)
    return EntropyValue(_dense_nats(p)[0] / math.log(base), base)


def conditional_entropy(dist: DistLike, given: Party = "A", base: float = 2.0) -> EntropyValue:
    """Entropy of one party's outcome given the other's, H(other | given).

    Computed as H(joint) - H(given party's marginal), which is exact for
    discrete distributions and keeps zero cells harmless.
    """
    base = _check_base(base)
    if given not in ("A", "B"):
        raise UsageError(f"given must be 'A' or 'B', got {given!r}")
    h, h_a, h_b = _dense_nats(_party_split(dist))
    return EntropyValue((h - (h_a if given == "A" else h_b)) / math.log(base), base)


def mutual_information(dist: DistLike, base: float = 2.0) -> EntropyValue:
    """Mutual information between the two parties, I(A;B) = H(A)+H(B)-H(A,B)."""
    base = _check_base(base)
    h, h_a, h_b = _dense_nats(_party_split(dist))
    return EntropyValue((h_a + h_b - h) / math.log(base), base)
