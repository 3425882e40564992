import subprocess
import sys

import numpy as np
import pytest

from picardopt.errors import DimensionError, PoisonedDrift
from picardopt.state import (Drift, MomentState, ParamState, clone_state,
                             read_states, state_checksum, state_from_bytes,
                             state_to_bytes, states_equal_bits, with_step,
                             write_states)


def make_state(step=0, values=(1.0, 2.0), moments=False):
    v = np.asarray(values, dtype=float)
    m = MomentState(np.zeros_like(v), np.zeros_like(v), 3) if moments else None
    return ParamState(step, v, len(v), m)


def test_clone_is_bitwise_equal():
    s = make_state()
    c = clone_state(s)
    assert states_equal_bits(s, c)
    assert c.values is not s.values


def test_clone_preserves_moment_count():
    s = make_state(moments=True)
    assert clone_state(s).moments.t == 3


def test_clone_is_independent():
    s = make_state()
    c = clone_state(s)
    writable = c.values.copy()
    writable[0] = 99.0
    # original arrays are read-only and untouched by any copy mutation
    assert s.values[0] == 1.0
    with pytest.raises(ValueError):
        s.values[0] = 5.0


def test_checksum_equal_for_clones():
    s = make_state(moments=True)
    assert state_checksum(s) == state_checksum(clone_state(s))


def test_checksum_sensitive_to_sign_bit():
    a = make_state(values=(1.0, 2.0))
    b = make_state(values=(-1.0, 2.0))
    assert state_checksum(a) != state_checksum(b)


def test_checksum_sensitive_to_step_and_moments():
    a = make_state()
    assert state_checksum(a) != state_checksum(with_step(a, 5))
    assert state_checksum(a) != state_checksum(make_state(moments=True))


def test_checksum_stable_across_processes():
    code = (
        "import numpy as np; from picardopt.state import ParamState, state_checksum; "
        "print(state_checksum(ParamState(2, np.array([0.5, -1.25, 3.0]), 3)))"
    )
    outs = {
        subprocess.run([sys.executable, "-c", code], capture_output=True, text=True).stdout.strip()
        for _ in range(2)
    }
    assert len(outs) == 1
    local = state_checksum(ParamState(2, np.array([0.5, -1.25, 3.0]), 3))
    assert outs == {str(local)}


def test_nonfinite_values_rejected():
    with pytest.raises(PoisonedDrift):
        ParamState(0, np.array([1.0, np.inf]), 2)


def test_moment_length_mismatch_rejected():
    with pytest.raises(DimensionError):
        ParamState(0, np.array([1.0, 2.0]), 2, MomentState(np.zeros(3), np.zeros(3), 0))


def test_drift_nonfinite_payload_rejected():
    with pytest.raises(PoisonedDrift):
        Drift(4, np.array([np.nan]), seed=4)


def test_binary_roundtrip_plain():
    s = make_state(step=7, values=(0.1, -2.5, 4.0))
    back, consumed = state_from_bytes(state_to_bytes(s))
    assert consumed == len(state_to_bytes(s))
    assert states_equal_bits(s, back)


def test_binary_roundtrip_with_moments():
    v = np.array([0.25, 0.5])
    s = ParamState(3, v, 2, MomentState(v * 2, np.abs(v), 9), aux_version=4)
    back, _ = state_from_bytes(state_to_bytes(s))
    assert states_equal_bits(s, back)
    assert back.aux_version == 4


def test_checkpoint_file_roundtrip(tmp_path):
    states = [make_state(step=i, values=(float(i), 1.0), moments=i % 2 == 0) for i in range(5)]
    path = tmp_path / "ckpt.bin"
    write_states(path, states)
    back = read_states(path)
    assert len(back) == 5
    assert all(states_equal_bits(a, b) for a, b in zip(states, back))

