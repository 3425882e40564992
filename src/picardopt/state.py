"""Parameter-state containers shared by every update rule.

States are immutable after construction (frozen dataclasses over read-only
float64 arrays), so they can be handed to worker threads without copying.
All mutation happens by building new states.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import numbers
import os
import struct
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DimensionError, PoisonedDrift

_MAGIC = b"PSTA"
_VERSION = 1
_HEAD = struct.Struct("<4sHBqqqq")  # magic, version, flags, step, dim_tag, reserved (0), n
_COUNT = struct.Struct("<Q")


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


def _relabelled(obj, **fields):
    """Copy of a checked state object with ``fields`` set, sharing its arrays.

    The arrays are read-only and were checked when ``obj`` was built, so
    ``__post_init__`` does not run again.
    """
    out = object.__new__(type(obj))
    out.__dict__.update(obj.__dict__, **fields)
    return out


def all_finite(a: np.ndarray) -> bool:
    """``np.all(np.isfinite(a))`` without its mask of ``a.size`` bytes: the
    minimum and the maximum propagate NaN, and an infinity is one of them."""
    return a.size == 0 or bool(np.isfinite(a.min()) and np.isfinite(a.max()))


def _check_step(step) -> None:
    if not isinstance(step, numbers.Integral) or step < 0:
        raise ValueError(f"step must be >= 0 and an integer, not {step!r}")


def _as_readonly_f64(arr) -> np.ndarray:
    out = np.ascontiguousarray(arr, dtype=np.float64)
    if out.ndim != 1:
        raise ValueError("state vectors must be 1-D")
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class MomentState:
    """Adam's moment buffers; their update count is the carrying state's step."""

    m1: np.ndarray
    m2: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "m1", _as_readonly_f64(self.m1))
        object.__setattr__(self, "m2", _as_readonly_f64(self.m2))
        if self.m1.shape != self.m2.shape:
            raise DimensionError("moment vectors m1/m2 differ in length")
        if np.any(self.m2 < 0.0):
            raise ValueError("second moments must be elementwise >= 0")

    @staticmethod
    def zeros(n: int) -> "MomentState":
        return MomentState(np.zeros(n), np.zeros(n))

    @classmethod
    def _from_adam(cls, m1: np.ndarray, m2: np.ndarray) -> "MomentState":
        """The moments of an Adam update, unscanned.

        ``m2' = b2*m2 + (1-b2)*g*g`` is a sum of products of non-negative
        numbers, so it is never negative; it is NaN only where ``m2`` was
        inf and ``b2`` is 0, and then the update's values are NaN too and
        the successor state rejects them.
        """
        out = object.__new__(cls)
        out.__dict__.update(m1=_as_readonly_f64(m1), m2=_as_readonly_f64(m2))
        return out


@dataclass(frozen=True)
class ParamState:
    """Parameter vector at sequential-time index ``step``.

    ``dim_tag`` counts points for dimension-changing rules (len(values) ==
    dim_tag * point width); for flat problems it equals len(values).  An
    Adam state carries its ``moments``, except a guess, which may carry none
    (``without_moments``): a fixed-point round reads only a guess's values
    and never rolls out from it.
    """

    step: int
    values: np.ndarray
    dim_tag: int
    moments: MomentState | None = None

    def __post_init__(self):
        object.__setattr__(self, "values", _as_readonly_f64(self.values))
        _check_step(self.step)
        if not all_finite(self.values):
            raise PoisonedDrift(self.step, -1, "state values contain NaN/Inf")
        if self.moments is not None and len(self.moments.m1) != len(self.values):
            raise DimensionError(
                f"moments length {len(self.moments.m1)} != values length {len(self.values)}"
            )
        if not isinstance(self.dim_tag, numbers.Integral) or self.dim_tag <= 0:
            raise ValueError(f"dim_tag must be a positive point count, not {self.dim_tag!r}")

    @property
    def dim(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class Drift:
    """The read-only payload of one drift, built and checked by ``rules.drift``
    alone.  Kept only because the benchmark traces ``state.Drift`` by name."""

    payload: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "payload", _as_readonly_f64(self.payload))


def with_step(state: ParamState, step: int) -> ParamState:
    """Same content re-indexed to another step (arrays shared, not re-checked;
    they are immutable).  An Adam state's step is its moments' update count."""
    _check_step(step)
    return _relabelled(state, step=step)


def without_moments(state: ParamState) -> ParamState:
    """The same state without its moments (values shared, not re-checked),
    or ``state`` itself when it has none."""
    return state if state.moments is None else _relabelled(state, moments=None)


def state_checksum(state: ParamState) -> int:
    """Deterministic 64-bit digest over step, dim_tag, values and moments bytes."""
    h = hashlib.blake2b(digest_size=8)
    h.update(struct.pack("<qq", state.step, state.dim_tag))
    h.update(state.values.tobytes())
    if state.moments is not None:
        h.update(struct.pack("<q", state.step))
        h.update(state.moments.m1.tobytes())
        h.update(state.moments.m2.tobytes())
    return int.from_bytes(h.digest(), "little")


def states_equal_bits(a: ParamState, b: ParamState) -> bool:
    if a.step != b.step or a.dim_tag != b.dim_tag or a.dim != b.dim:
        return False
    if a.values.tobytes() != b.values.tobytes():
        return False
    if (a.moments is None) != (b.moments is None):
        return False
    if a.moments is not None:
        ma, mb = a.moments, b.moments
        if ma.m1.tobytes() != mb.m1.tobytes() or ma.m2.tobytes() != mb.m2.tobytes():
            return False
    return True


# ---------------------------------------------------------------------------
# serialization
#
# Binary layout (little-endian), one state:
#   magic    4 bytes  b"PSTA"
#   version  uint16
#   flags    uint8    0, or 1 when moments are present
#   step     int64
#   dim_tag  int64
#   reserved int64    written 0, read and ignored
#   n        int64    length of values
#   values   n * float64
#   [moments] count int64 (the record's step), m1 n * float64, m2 n * float64
# A checkpoint file is a uint64 state count followed by that many states.


@contextlib.contextmanager
def state_writer(path, count: int):
    """Write a checkpoint file of ``count`` states one at a time through the
    ``write(state)`` the block gets, under a temporary name renamed to
    ``path`` once the block ends with exactly ``count`` states written;
    otherwise (ValueError if the count is off) the file is removed."""
    path = Path(path)
    part = path.with_name(path.name + ".part")
    written = 0

    def write(state: ParamState) -> None:
        nonlocal written
        m = state.moments
        f.write(_HEAD.pack(_MAGIC, _VERSION, m is not None, state.step, state.dim_tag,
                           0, state.dim))
        f.write(state.values)
        if m is not None:
            f.write(struct.pack("<q", state.step))
            f.write(m.m1)
            f.write(m.m2)
        written += 1

    try:
        with open(part, "wb") as f:
            f.write(_COUNT.pack(count))
            yield write
        if written != count:
            raise ValueError(f"{path}: {written} states written, {count} declared")
        os.replace(part, path)
    except BaseException:
        part.unlink(missing_ok=True)
        raise


def write_states(path, states: Sequence[ParamState]) -> None:
    with state_writer(path, len(states)) as write:
        for s in states:
            write(s)


def iter_states(path) -> Iterator[ParamState]:
    """The states of a checkpoint file, read one at a time.  A file that is
    not its count header and then exactly that many well-formed states raises
    ValueError: at the first record it cannot read or, for bytes past the
    last state, before that state is yielded."""
    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size

        def read(n: int) -> bytes:
            if n > size - f.tell():  # checked first: a corrupt length allocates nothing
                raise ValueError(f"{path} is truncated: {n} bytes wanted, {size - f.tell()} left")
            return f.read(n)

        (count,) = _COUNT.unpack(read(_COUNT.size))
        state = None
        for _ in range(count):  # each state is yielded once the next is read
            if state is not None:
                yield state
            magic, version, flags, step, dim_tag, _, n = _HEAD.unpack(read(_HEAD.size))
            if magic != _MAGIC or version != _VERSION or flags > 1 or n < 0:
                raise ValueError(f"{path}: bad header {magic!r} v{version} flags {flags}, {n} values")
            values, moments = np.frombuffer(read(8 * n), "<f8"), None
            if flags:
                (t,) = struct.unpack("<q", read(8))
                if t != step:
                    raise ValueError(f"{path}: moments count {t} at step {step}")
                m1 = np.frombuffer(read(8 * n), "<f8")
                moments = MomentState(m1, np.frombuffer(read(8 * n), "<f8"))
            state = ParamState(step, values, dim_tag, moments)
        if f.tell() != size:
            raise ValueError(f"{path}: {size - f.tell()} bytes past the last of {count} states")
        if state is not None:
            yield state
