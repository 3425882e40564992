"""Parameter-state containers shared by every update rule.

States are immutable after construction (frozen dataclasses over read-only
float64 arrays), so they can be handed to worker threads without copying.
All mutation happens by building new states.
"""

from __future__ import annotations

import functools
import hashlib
import struct
from dataclasses import dataclass, replace

import numpy as np

from .errors import DimensionError, PoisonedDrift

_MAGIC = b"PSTA"
_VERSION = 1


def finite_checked(fn):
    """Run ``fn`` with numpy's overflow and invalid-value warnings off.

    For numerics whose result is checked for finiteness afterwards, where a
    non-finite value raises PoisonedDrift instead.  The error state is set on
    every call in the calling thread, so it holds on pool workers too.
    """
    @functools.wraps(fn)
    def quiet(*args, **kwargs):
        with np.errstate(over="ignore", invalid="ignore"):
            return fn(*args, **kwargs)
    return quiet


def _as_readonly_f64(arr) -> np.ndarray:
    out = np.ascontiguousarray(arr, dtype=np.float64)
    if out.ndim != 1:
        raise ValueError("state vectors must be 1-D")
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class MomentState:
    """Adam moment buffers: first/second moments plus the update count t."""

    m1: np.ndarray
    m2: np.ndarray
    t: int

    def __post_init__(self):
        object.__setattr__(self, "m1", _as_readonly_f64(self.m1))
        object.__setattr__(self, "m2", _as_readonly_f64(self.m2))
        if self.m1.shape != self.m2.shape:
            raise DimensionError("moment vectors m1/m2 differ in length")
        if self.t < 0:
            raise ValueError("moment update count t must be >= 0")
        if np.any(self.m2 < 0.0):
            raise ValueError("second moments must be elementwise >= 0")

    @staticmethod
    def zeros(n: int) -> "MomentState":
        return MomentState(np.zeros(n), np.zeros(n), 0)


@dataclass(frozen=True)
class ParamState:
    """Parameter vector at sequential-time index ``step``.

    ``dim_tag`` counts points for dimension-changing rules (len(values) ==
    dim_tag * point width); for flat problems it equals len(values).
    ``aux_version`` tags which auxiliary-predictor snapshot influenced this
    state; diagnostics only.
    """

    step: int
    values: np.ndarray
    dim_tag: int
    moments: MomentState | None = None
    aux_version: int = 0

    def __post_init__(self):
        object.__setattr__(self, "values", _as_readonly_f64(self.values))
        if self.step < 0:
            raise ValueError("step must be >= 0")
        if not np.all(np.isfinite(self.values)):
            raise PoisonedDrift(self.step, -1, "state values contain NaN/Inf")
        if self.moments is not None and len(self.moments.m1) != len(self.values):
            raise DimensionError(
                f"moments length {len(self.moments.m1)} != values length {len(self.values)}"
            )
        if self.dim_tag <= 0:
            raise ValueError("dim_tag must be a positive point count")

    @property
    def dim(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class Drift:
    """Output of one computational unit evaluated at a state.

    ``payload`` is rule-specific (ODE drift, raw gradient, ...); ``seed`` is
    the per-step seed it was produced under and ``worker_id`` records which
    pool worker ran it.  ``aux_version`` carries auxiliary-predictor
    provenance into the successor state (diagnostics only).
    """

    step: int
    payload: np.ndarray
    seed: int
    worker_id: int = -1
    aux_version: int = 0

    def __post_init__(self):
        object.__setattr__(self, "payload", _as_readonly_f64(self.payload))
        if not np.all(np.isfinite(self.payload)):
            raise PoisonedDrift(self.step, self.seed, "drift payload contains NaN/Inf")


def clone_state(state: ParamState) -> ParamState:
    """Deep, independent copy; bitwise-equal values, moments and tags."""
    moments = None
    if state.moments is not None:
        moments = MomentState(state.moments.m1.copy(), state.moments.m2.copy(), state.moments.t)
    return ParamState(state.step, state.values.copy(), state.dim_tag, moments, state.aux_version)


def with_step(state: ParamState, step: int) -> ParamState:
    """Same content re-indexed to another step (arrays shared; they are immutable)."""
    return replace(state, step=step)


def state_checksum(state: ParamState) -> int:
    """Deterministic 64-bit digest over values bytes, moments bytes, dim_tag, step."""
    h = hashlib.blake2b(digest_size=8)
    h.update(struct.pack("<qq", state.step, state.dim_tag))
    h.update(state.values.tobytes())
    if state.moments is not None:
        h.update(struct.pack("<q", state.moments.t))
        h.update(state.moments.m1.tobytes())
        h.update(state.moments.m2.tobytes())
    return int.from_bytes(h.digest(), "little")


def states_equal_bits(a: ParamState, b: ParamState, include_moments: bool = True) -> bool:
    if a.step != b.step or a.dim_tag != b.dim_tag or a.dim != b.dim:
        return False
    if a.values.tobytes() != b.values.tobytes():
        return False
    if include_moments:
        if (a.moments is None) != (b.moments is None):
            return False
        if a.moments is not None:
            ma, mb = a.moments, b.moments
            if ma.t != mb.t or ma.m1.tobytes() != mb.m1.tobytes() or ma.m2.tobytes() != mb.m2.tobytes():
                return False
    return True


# ---------------------------------------------------------------------------
# serialization
#
# Binary layout (little-endian), one state:
#   magic    4 bytes  b"PSTA"
#   version  uint16
#   flags    uint8    bit 0: moments present
#   step     int64
#   dim_tag  int64
#   aux_ver  int64
#   n        int64    length of values
#   values   n * float64
#   [moments] t int64, m1 n * float64, m2 n * float64
# A checkpoint file is a uint64 state count followed by that many states.


def state_to_bytes(state: ParamState) -> bytes:
    flags = 1 if state.moments is not None else 0
    head = _MAGIC + struct.pack(
        "<HBqqqq", _VERSION, flags, state.step, state.dim_tag, state.aux_version, state.dim
    )
    parts = [head, state.values.tobytes()]
    if state.moments is not None:
        parts.append(struct.pack("<q", state.moments.t))
        parts.append(state.moments.m1.tobytes())
        parts.append(state.moments.m2.tobytes())
    return b"".join(parts)


def state_from_bytes(buf: bytes, offset: int = 0) -> tuple[ParamState, int]:
    """Decode one state; returns (state, next offset)."""
    if buf[offset : offset + 4] != _MAGIC:
        raise ValueError("bad state magic")
    offset += 4
    version, flags, step, dim_tag, aux_version, n = struct.unpack_from("<HBqqqq", buf, offset)
    if version != _VERSION:
        raise ValueError(f"unsupported state version {version}")
    offset += struct.calcsize("<HBqqqq")
    values = np.frombuffer(buf, dtype="<f8", count=n, offset=offset).copy()
    offset += 8 * n
    moments = None
    if flags & 1:
        (t,) = struct.unpack_from("<q", buf, offset)
        offset += 8
        m1 = np.frombuffer(buf, dtype="<f8", count=n, offset=offset).copy()
        offset += 8 * n
        m2 = np.frombuffer(buf, dtype="<f8", count=n, offset=offset).copy()
        offset += 8 * n
        moments = MomentState(m1, m2, t)
    return ParamState(step, values, dim_tag, moments, aux_version), offset


def write_states(path, states) -> None:
    with open(path, "wb") as f:
        f.write(struct.pack("<Q", len(states)))
        for s in states:
            f.write(state_to_bytes(s))


def read_states(path) -> list[ParamState]:
    with open(path, "rb") as f:
        buf = f.read()
    (count,) = struct.unpack_from("<Q", buf, 0)
    offset = 8
    out = []
    for _ in range(count):
        s, offset = state_from_bytes(buf, offset)
        out.append(s)
    return out
