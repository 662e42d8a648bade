"""Deterministic random-number streams.

Every stochastic element of a run (each node's client, each OST's service
noise, each rank's jitter) draws from its *own* child stream spawned from a
single root seed, so that:

- a run is exactly reproducible from its seed, and
- adding or removing one entity does not perturb the draws of the others
  (streams are keyed by a stable name, not by creation order).

This is what lets the reproduction demonstrate the paper's central claim --
"individual events vary run to run, but the modes and moments of the
ensemble are reproducible" -- by re-running experiments under *different*
seeds and comparing distributions.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_right
from typing import Any, Dict, List, Sequence, Tuple

import numpy as np

__all__ = ["RngStreams"]


class RngStreams:
    """A registry of named, independent ``numpy.random.Generator`` streams."""

    def __init__(self, seed: int = 0) -> None:
        self.seed = int(seed)
        self._streams: Dict[str, np.random.Generator] = {}
        #: normalised CDFs of choice_weighted, one per distinct
        #: ``(len(options), weights)``
        self._cdfs: Dict[Tuple[int, Tuple[float, ...]], List[float]] = {}

    def stream(self, name: str) -> np.random.Generator:
        """Return the generator for ``name``, creating it on first use.

        The child seed is derived by hashing ``(root_seed, name)`` so the
        mapping is stable across runs and across entity creation order.
        """
        gen = self._streams.get(name)
        if gen is None:
            digest = hashlib.sha256(
                f"{self.seed}/{name}".encode("utf-8")
            ).digest()
            child_seed = int.from_bytes(digest[:8], "little")
            gen = np.random.default_rng(child_seed)
            self._streams[name] = gen
        return gen

    def lognormal_factor(
        self, name: str, sigma: float, cap: float = 10.0
    ) -> float:
        """A multiplicative noise factor with median 1.0.

        Heavy-tailed service-time noise is the norm for shared storage; a
        lognormal with median 1 keeps the *typical* service time equal to the
        mechanistic model while producing the occasional slow outlier.  The
        ``cap`` bounds pathological draws.
        """
        if sigma <= 0:
            return 1.0
        draw = float(self.stream(name).lognormal(mean=0.0, sigma=sigma))
        return min(draw, cap)

    def choice_weighted(
        self, name: str, options: Sequence[Any], weights: Sequence[float]
    ) -> Any:
        """Draw one of ``options`` with the given weights.

        Picks the same index as ``Generator.choice(len(options), p=p)``
        with ``p = weights / sum(weights)``, from the same single
        ``random()`` draw: numpy's choice inverts this normalised CDF with
        a right-sided search.  ``tests/test_sim_rng.py`` pins that
        equivalence index for index.  The CDF is validated and built once
        per distinct option count and weights.
        """
        key = (len(options), tuple(weights))
        cdf = self._cdfs.get(key)
        if cdf is None:
            cdf = self._cdfs[key] = _weighted_cdf(len(options), weights)
        return options[bisect_right(cdf, self.stream(name).random())]

    def uniform(self, name: str, low: float, high: float) -> float:
        return float(self.stream(name).uniform(low, high))


def _weighted_cdf(n: int, weights: Sequence[float]) -> List[float]:
    """The normalised CDF ``Generator.choice`` builds from ``p``."""
    if n == 0:
        raise ValueError("choice_weighted needs at least one option")
    w = np.asarray(weights, dtype=float)
    if w.shape != (n,):
        raise ValueError(
            f"choice_weighted got {n} options but {w.size} weights"
        )
    if not np.all(np.isfinite(w)) or np.any(w < 0):
        raise ValueError(
            f"choice_weighted weights must be finite and >= 0, "
            f"got {list(weights)}"
        )
    total = w.sum()
    if not total > 0:
        raise ValueError("choice_weighted weights must not all be zero")
    cdf = (w / total).cumsum()
    cdf /= cdf[-1]
    out: List[float] = cdf.tolist()
    return out
