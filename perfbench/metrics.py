"""Statistics, digests and the exact-count gate.

Pure functions with no dependency on the simulator, so the benchmark's
tests can exercise them directly.
"""

from __future__ import annotations

import hashlib
import json
import math
from typing import Any, Dict, Mapping, Sequence

import numpy as np

#: samples a tail percentile must leave beyond it to be reported
TAIL_SAMPLES = 10


def median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    if not ordered:
        raise ValueError("median of no samples")
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile (``pct`` in (0, 100])."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def samples_beyond(n: int, pct: float) -> int:
    """How many of ``n`` samples lie beyond the nearest-rank ``pct``."""
    return n - max(1, math.ceil(pct / 100.0 * n)) if n else 0


def tail_resolved(n: int, pct: float) -> bool:
    """The tail rule: a percentile is reportable only with at least
    :data:`TAIL_SAMPLES` samples beyond it (p90 needs n >= 100)."""
    return samples_beyond(n, pct) >= TAIL_SAMPLES


# ---------------------------------------------------------------------------
# Digests of virtual-time outputs
# ---------------------------------------------------------------------------

def canonical(value: Any) -> Any:
    """A JSON-able form of a job output in which every float is exact
    (``float.hex``) and every array is reduced to dtype, shape and a hash
    of its bytes."""
    if isinstance(value, (bool, str)) or value is None:
        return value
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return float(value).hex()
    if isinstance(value, np.ndarray):
        data = np.ascontiguousarray(value)
        return {"dtype": str(data.dtype), "shape": list(data.shape),
                "blake2b": hashlib.blake2b(data.tobytes(),
                                           digest_size=16).hexdigest()}
    if isinstance(value, Mapping):
        return {str(k): canonical(v) for k, v in sorted(
            value.items(), key=lambda kv: str(kv[0]))}
    if isinstance(value, (list, tuple)):
        return [canonical(v) for v in value]
    return repr(value)


def digest(value: Any) -> str:
    blob = json.dumps(canonical(value), sort_keys=True).encode()
    return hashlib.blake2b(blob, digest_size=16).hexdigest()


def digest_bytes(blob: bytes) -> str:
    return hashlib.blake2b(blob, digest_size=16).hexdigest()


# ---------------------------------------------------------------------------
# Gates
# ---------------------------------------------------------------------------

def count_mismatches(observed: Mapping[str, float],
                     expected: Mapping[str, float]) -> Dict[str, Dict]:
    """Exact comparison of every committed count the run measured; a
    committed count the run did not measure is not judged."""
    out = {}
    for name, want in expected.items():
        if name in observed and observed[name] != want:
            out[name] = {"expected": want, "observed": observed[name]}
    return out
