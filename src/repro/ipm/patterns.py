"""Application I/O pattern detection (the paper's Section VI program).

"With the ability to recognize modes and moments of the performance
distribution, the IPM-I/O framework will be expanded to detect an
application's I/O patterns; thus providing key information to the
underlying file system that can be leveraged for improving I/O behavior."

:class:`PatternDetector` classifies each (rank, file) stream online --
O(1) state per stream, suitable for the profiling mode -- into:

- ``sequential``  consecutive ops abut (offset == previous end),
- ``strided``     constant positive gap between ops (the MADbench shape),
- ``random``      neither, with no dominant stride,
- ``rewrite``     repeatedly touching the same offsets.

plus transfer-size statistics per stream.  :func:`detect_patterns` runs
the same classification over a recorded trace.

The closing of the loop -- handing the pattern to the file system -- is
the ``fadvise`` call on the traced POSIX interface: advising
``"random"`` or ``"noreuse"`` disables the client's strided read-ahead
detection for that stream, which would have prevented the MADbench
pathology without any server patch (demonstrated in the tests and the
``bench_ablation_readahead`` ablations).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .events import DATA_OPS, Trace

__all__ = ["StreamPattern", "PatternDetector", "detect_patterns"]

SEQUENTIAL = "sequential"
STRIDED = "strided"
RANDOM = "random"
REWRITE = "rewrite"
UNKNOWN = "unknown"


@dataclass
class StreamPattern:
    """Classification state/result for one (rank, file) stream."""

    rank: int
    path: str
    n_ops: int = 0
    total_bytes: int = 0
    min_size: int = 0
    max_size: int = 0
    sequential_steps: int = 0
    strided_steps: int = 0
    backward_steps: int = 0
    rewrite_steps: int = 0
    dominant_stride: Optional[int] = None
    _last_offset: Optional[int] = field(default=None, repr=False)
    _last_end: Optional[int] = field(default=None, repr=False)
    _stride_counts: Counter = field(default_factory=Counter, repr=False)

    def observe(self, offset: int, size: int) -> None:
        self.n_ops += 1
        self.total_bytes += size
        if self.n_ops == 1:
            self.min_size = self.max_size = size
        else:
            self.min_size = min(self.min_size, size)
            self.max_size = max(self.max_size, size)
        if self._last_offset is not None:
            if offset == self._last_end:
                self.sequential_steps += 1
            elif offset == self._last_offset:
                self.rewrite_steps += 1
            elif offset > self._last_offset:
                gap = offset - self._last_offset
                self._stride_counts[gap] += 1
                self.strided_steps += 1
            else:
                self.backward_steps += 1
        self._last_offset = offset
        self._last_end = offset + size

    @property
    def classification(self) -> str:
        steps = self.n_ops - 1
        if steps < 2:
            return UNKNOWN
        if self.sequential_steps >= 0.7 * steps:
            return SEQUENTIAL
        if self.rewrite_steps >= 0.7 * steps:
            return REWRITE
        if self._stride_counts:
            stride, count = self._stride_counts.most_common(1)[0]
            if count >= 0.6 * steps:
                # a *constant* dominant stride: the MADbench shape
                self.dominant_stride = stride
                return STRIDED
        return RANDOM

    @property
    def mean_size(self) -> float:
        return self.total_bytes / self.n_ops if self.n_ops else 0.0

    def advice(self) -> Optional[str]:
        """The fadvise hint this pattern justifies (None = leave alone)."""
        kind = self.classification
        if kind == SEQUENTIAL:
            return "sequential"
        if kind == RANDOM or kind == REWRITE:
            return "random"
        if kind == STRIDED:
            # the lesson of Section IV: strided streams under memory
            # pressure are exactly where widened read-ahead backfires
            return "noreuse"
        return None


class PatternDetector:
    """Online per-stream pattern classification (profiling-mode friendly)."""

    def __init__(self) -> None:
        self._streams: Dict[Tuple[int, str], StreamPattern] = {}

    def observe(self, rank: int, path: str, offset: int, size: int) -> None:
        key = (rank, path)
        st = self._streams.get(key)
        if st is None:
            st = StreamPattern(rank=rank, path=path)
            self._streams[key] = st
        st.observe(offset, size)

    def stream(self, rank: int, path: str) -> Optional[StreamPattern]:
        return self._streams.get((rank, path))

    def all_streams(self) -> List[StreamPattern]:
        return list(self._streams.values())

    def summary(self) -> Dict[str, int]:
        """Counts of streams per classification."""
        out: Counter = Counter()
        for st in self._streams.values():
            out[st.classification] += 1
        return dict(out)


def detect_patterns(
    trace: Trace, ops: Tuple[str, ...] = DATA_OPS
) -> PatternDetector:
    """Run the online detector over a recorded trace (post-hoc mode)."""
    detector = PatternDetector()
    wanted = set(ops)
    for rank, op, path, offset, size in zip(
        trace.ranks.tolist(), trace.ops.tolist(), trace.paths.tolist(),
        trace.offsets.tolist(), trace.sizes.tolist(),
    ):
        if op in wanted:
            detector.observe(rank, path, offset, size)
    return detector
