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


def _shannon_rows(p: np.ndarray) -> np.ndarray:
    """Shannon entropy in nats of each row of a ``(batch, *cells)`` array."""
    return -_plogp(p.reshape(len(p), -1)).sum(axis=1)


def _plugin_nats(probs: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Plug-in entropies in nats of each row of a ``(batch, *cells)`` probability array.

    ``n`` is the number of axes per party.  Returns the joint, party-A
    marginal and party-B marginal entropies, one value per row.  Every
    entropy in the package goes through here, and a row's values do not
    depend on the rows batched with it, so a point estimate and the same
    counts scored inside a bootstrap batch agree bit for bit.
    """
    axes_a = tuple(range(1, n + 1))
    axes_b = tuple(range(n + 1, 2 * n + 1))
    return (
        _shannon_rows(probs),
        _shannon_rows(probs.sum(axis=axes_b)),
        _shannon_rows(probs.sum(axis=axes_a)),
    )


def _party_split(dist: DistLike) -> tuple[np.ndarray, int]:
    """Validated probabilities plus the number of leading party-A axes."""
    if isinstance(dist, JointDistribution):
        return dist.probs, dist.n_dims
    arr = _checked_probs(dist)
    if arr.ndim != 2:
        raise UsageError(
            "party structure is ambiguous for raw arrays unless they are 2-D; "
            "wrap higher-rank tensors in JointDistribution"
        )
    return arr, 1


def entropy(dist: DistLike, base: float = 2.0) -> EntropyValue:
    """Shannon entropy of the whole tensor viewed as one distribution."""
    base = _check_base(base)
    p = dist.probs if isinstance(dist, JointDistribution) else _checked_probs(dist)
    return EntropyValue(_shannon_rows(p[None])[0] / math.log(base), base)


def conditional_entropy(dist: DistLike, given: Party = "A", base: float = 2.0) -> EntropyValue:
    """Entropy of one party's outcome given the other's, H(other | given).

    Computed as H(joint) - H(given party's marginal), which is exact for
    discrete distributions and keeps zero cells harmless.
    """
    base = _check_base(base)
    if given not in ("A", "B"):
        raise UsageError(f"given must be 'A' or 'B', got {given!r}")
    p, n = _party_split(dist)
    h, h_a, h_b = _plugin_nats(p[None], n)
    nats = h[0] - (h_a if given == "A" else h_b)[0]
    return EntropyValue(nats / math.log(base), base)


def mutual_information(dist: DistLike, base: float = 2.0) -> EntropyValue:
    """Mutual information between the two parties, I(A;B) = H(A)+H(B)-H(A,B)."""
    base = _check_base(base)
    p, n = _party_split(dist)
    h, h_a, h_b = _plugin_nats(p[None], n)
    nats = h_a[0] + h_b[0] - h[0]
    return EntropyValue(nats / math.log(base), base)
