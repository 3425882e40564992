import struct
import subprocess
import sys

import numpy as np
import pytest

from picardopt.errors import DimensionError, PoisonedDrift
from picardopt.problems import QuadraticProblem, make_problem
from picardopt.rules import drift, make_rule, rollout_one
from picardopt.state import (MomentState, ParamState, iter_states, state_checksum, state_writer,
                             states_equal_bits, with_step, without_moments, write_states)


def make_state(step=0, values=(1.0, 2.0), moments=False):
    v = np.asarray(values, dtype=float)
    m = MomentState(np.zeros_like(v), np.zeros_like(v)) if moments else None
    return ParamState(step, v, len(v), m)


class FixedGradient(QuadraticProblem):
    """A quadratic whose gradient is ``g`` at every state and seed."""

    def __init__(self, g):
        super().__init__(dim=3)
        self.g = g

    def grad(self, values, seed):
        return self.g


def drift_of(g, step=0, seed=0):
    """The SGD drift at a state of ``step``, under ``seed``, whose payload is ``g``."""
    rule = make_rule("sgd", FixedGradient(g), 0.1, total_steps=10)
    return drift(rule, ParamState(step, np.zeros(3), 3), seed)


def test_clone_is_independent():
    s = make_state()
    writable = s.values.copy()
    writable[0] = 99.0
    # original arrays are read-only and untouched by any copy mutation
    assert s.values[0] == 1.0
    with pytest.raises(ValueError):
        s.values[0] = 5.0


def test_clone_and_relabel_share_checked_arrays(monkeypatch):
    s = make_state(step=2, moments=True)

    def rescan(self):
        raise AssertionError("__post_init__ ran again")

    monkeypatch.setattr(ParamState, "__post_init__", rescan)
    clone = with_step(s, 5)
    assert clone.step == 5 and clone.values is s.values and clone.moments is s.moments
    assert clone.dim_tag == s.dim_tag
    guess = without_moments(clone)  # relabelled without its moments
    assert guess.step == 5 and guess.values is s.values and guess.moments is None
    assert s.step == 2 and s.moments is not None
    with pytest.raises(AttributeError):
        clone.step = 3
    with pytest.raises(ValueError, match="step"):
        with_step(s, -1)


def test_checksum_equal_for_clones():
    s = make_state(moments=True)
    m = s.moments
    clone = ParamState(s.step, s.values.copy(), s.dim_tag,
                       MomentState(m.m1.copy(), m.m2.copy()))
    assert state_checksum(s) == state_checksum(clone)


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


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("at", [0, 2])
def test_each_nonfinite_value_is_rejected_in_values_and_payloads(bad, at):
    v = np.array([1.0, -2.0, 3.0])
    v[at] = bad
    with pytest.raises(PoisonedDrift):
        ParamState(0, v, 3)
    with pytest.raises(PoisonedDrift):
        drift_of(v)


def test_empty_values_and_payloads_are_finite():
    assert ParamState(0, np.zeros(0), 1).dim == 0
    assert len(drift_of(np.zeros(0)).payload) == 0


@pytest.mark.parametrize("step,dim_tag,name", [(1.5, 2, "step"), (1.0, 2, "step"),
                                               (1, 2.0, "dim_tag"), (1, "2", "dim_tag")])
def test_a_step_or_dim_tag_that_is_not_an_integer_is_rejected(step, dim_tag, name):
    # Checked when the state is built, not by state_checksum's struct.pack later.
    with pytest.raises(ValueError, match=name):
        ParamState(step, np.zeros(2), dim_tag)
    with pytest.raises(ValueError, match="step must be >= 0 and an integer"):
        with_step(make_state(), step if name == "step" else 0.5)


def test_moment_length_mismatch_rejected():
    with pytest.raises(DimensionError):
        ParamState(0, np.array([1.0, 2.0]), 2, MomentState(np.zeros(3), np.zeros(3)))


def test_negative_second_moment_rejected(tmp_path):
    with pytest.raises(ValueError, match="second moments"):
        MomentState(np.zeros(2), np.array([0.5, -1e-300]))
    # The same state read from a checkpoint file: the last 8 bytes are m2[-1].
    path = tmp_path / "negative_m2.bin"
    write_states(path, [make_state(moments=True)])
    path.write_bytes(path.read_bytes()[:-8] + struct.pack("<d", -0.25))
    with pytest.raises(ValueError, match="second moments"):
        list(iter_states(path))


def test_drift_nonfinite_payload_rejected():
    with pytest.raises(PoisonedDrift, match="drift payload contains NaN/Inf") as exc:
        drift_of(np.array([np.nan]), step=4, seed=9)
    assert (exc.value.step, exc.value.seed) == (4, 9)


def test_binary_roundtrip_plain(tmp_path):
    # iter_states rejects bytes past the last state, so the file read back is
    # exactly the one state written.
    s = make_state(step=7, values=(0.1, -2.5, 4.0))
    write_states(tmp_path / "one.bin", [s])
    (back,) = iter_states(tmp_path / "one.bin")
    assert states_equal_bits(s, back)


def test_binary_roundtrip_with_moments(tmp_path):
    v = np.array([0.25, 0.5])
    s = ParamState(3, v, 2, MomentState(v * 2, np.abs(v)))
    write_states(tmp_path / "one.bin", [s])
    (back,) = iter_states(tmp_path / "one.bin")
    assert states_equal_bits(s, back)


# A record's reserved int64 follows the count (8 bytes) and the record's
# magic, version, flags, step and dim_tag (23 bytes).
RESERVED = slice(31, 39)


def test_reserved_slot_is_written_zero_and_ignored_on_read(tmp_path):
    s = make_state(step=4, values=(0.5, -3.0), moments=True)
    path = tmp_path / "one.bin"
    write_states(path, [s])
    buf = bytearray(path.read_bytes())
    assert buf[RESERVED] == bytes(8)
    # An older adaptive_guidance checkpoint stored a predictor counter here.
    buf[RESERVED] = struct.pack("<q", 17)
    path.write_bytes(bytes(buf))
    (back,) = iter_states(path)
    assert states_equal_bits(s, back)


def test_checkpoint_file_roundtrip(tmp_path):
    states = [make_state(step=i, values=(float(i), 1.0), moments=i % 2 == 0) for i in range(5)]
    path = tmp_path / "ckpt.bin"
    write_states(path, states)
    back = list(iter_states(path))
    assert len(back) == 5
    assert all(states_equal_bits(a, b) for a, b in zip(states, back))



def two_state_file(tmp_path):
    path = tmp_path / "two.bin"
    write_states(path, [make_state(step=0, moments=True), make_state(step=1)])
    return path


def test_iter_states_reads_one_state_at_a_time(tmp_path):
    states = iter_states(two_state_file(tmp_path))
    assert next(states).step == 0
    assert next(states).step == 1
    with pytest.raises(StopIteration):
        next(states)


@pytest.mark.parametrize("cut", [8, 20, 60])
def test_iter_states_rejects_a_truncated_file(tmp_path, cut):
    path = two_state_file(tmp_path)
    path.write_bytes(path.read_bytes()[:-cut])
    with pytest.raises(ValueError, match="truncated"):
        list(iter_states(path))


def test_iter_states_rejects_a_negative_value_count(tmp_path):
    # The state's n sits after the count (8 bytes) and the record's magic,
    # version, flags, step, dim_tag and reserved slot (31 bytes).  Read as a
    # count of all that is left, -1 would load the 2 values silently.
    path = tmp_path / "one.bin"
    write_states(path, [make_state()])
    buf = bytearray(path.read_bytes())
    buf[39:47] = struct.pack("<q", -1)
    path.write_bytes(bytes(buf))
    with pytest.raises(ValueError, match="-1 values"):
        list(iter_states(path))


@pytest.mark.parametrize("at,value,message", [(15, -1, "step must be >= 0"),
                                               (23, 0, "dim_tag must be a positive")])
def test_iter_states_rejects_a_negative_step_or_a_zero_dim_tag(tmp_path, at, value, message):
    # The step and dim_tag follow the count (8 bytes), the magic, the version
    # and the flags byte; ParamState's checks are the reader's guard for them.
    path = tmp_path / "one.bin"
    write_states(path, [make_state()])
    buf = bytearray(path.read_bytes())
    buf[at:at + 8] = struct.pack("<q", value)
    path.write_bytes(bytes(buf))
    with pytest.raises(ValueError, match=message):
        list(iter_states(path))


def test_iter_states_rejects_bytes_past_the_last_state(tmp_path):
    path = two_state_file(tmp_path)
    whole = path.read_bytes()
    path.write_bytes(whole + b"junk")
    with pytest.raises(ValueError, match="4 bytes past the last of 2 states"):
        list(iter_states(path))
    # A count header of 1 over two states: rejected before the first is yielded.
    path.write_bytes(struct.pack("<Q", 1) + whole[8:])
    with pytest.raises(ValueError, match="bytes past the last of 1 states"):
        next(iter_states(path))


def test_iter_states_rejects_a_moments_count_that_is_not_the_step(tmp_path):
    # The count slot follows the record's head (8 + 39 bytes) and 2 values.
    path = tmp_path / "one.bin"
    write_states(path, [make_state(step=4, moments=True)])
    buf = bytearray(path.read_bytes())
    assert buf[63:71] == struct.pack("<q", 4)
    buf[63:71] = struct.pack("<q", 5)
    path.write_bytes(bytes(buf))
    with pytest.raises(ValueError, match="moments count 5 at step 4"):
        list(iter_states(path))


@pytest.mark.parametrize("moments,flags", [(False, 2), (True, 3)])
def test_iter_states_rejects_an_unknown_flags_byte(tmp_path, moments, flags):
    # The flags byte follows the count (8 bytes), the magic and the version.
    path = tmp_path / "one.bin"
    write_states(path, [make_state(moments=moments)])
    buf = bytearray(path.read_bytes())
    assert buf[14] == moments
    buf[14] = flags
    path.write_bytes(bytes(buf))
    with pytest.raises(ValueError, match=f"flags {flags}"):
        list(iter_states(path))


# The records of a fixed plain state and a fixed Adam state, byte for byte.
PLAIN_RECORD = bytes.fromhex(
    "50535441010000020000000000000002000000000000000000000000000000020000000000000000"
    "0000000000d03f000000000000e0bf")
ADAM_RECORD = bytes.fromhex(
    "50535441010001030000000000000004000000000000000000000000000000040000000000000027"
    "97cd57cfecd23f949762d929e0f1bf2576315b407506404afea723f9eec7bf030000000000000038"
    "b4c876be9f9a3fbc490c022b8796bf8c976e1283c0da3f06ac1c5a643bcb3f560b1b21e069623f4d"
    "87734c9777753fb3bbae9c13b4903f65768410e6af703f")


def test_checkpoint_bytes_are_pinned(tmp_path):
    # An Adam state at step 3, built by three Adam updates from zero moments.
    rule = make_rule("adam", make_problem("quadratic", dim=4), 0.1, total_steps=10)
    adam = ParamState(0, np.array([0.5, -1.25, 3.0, 0.0625]), 4, MomentState.zeros(4))
    for step, g in enumerate(([1.0, -2.0, 0.5, 0.25], [0.5, 1.0, -0.25, 2.0],
                              [-1.0, 0.5, 4.0, 0.125])):
        adam = rollout_one(rule, np.array(g), adam)
    plain = ParamState(2, np.array([0.25, -0.5]), 2)
    assert adam.step == 3 and adam.moments.m1.all() and adam.moments.m2.all()
    assert state_checksum(adam) == 0xEC7A3D14DF70EA77
    write_states(tmp_path / "adam.bin", [adam])
    assert (tmp_path / "adam.bin").read_bytes() == struct.pack("<Q", 1) + ADAM_RECORD
    write_states(tmp_path / "both.bin", [plain, adam])
    assert (tmp_path / "both.bin").read_bytes() == struct.pack("<Q", 2) + PLAIN_RECORD + ADAM_RECORD


def test_iter_states_rejects_an_empty_file(tmp_path):
    path = tmp_path / "empty.bin"
    path.write_bytes(b"")
    with pytest.raises(ValueError, match="truncated"):
        list(iter_states(path))


def test_state_writer_keeps_a_file_only_with_its_declared_count(tmp_path):
    path = tmp_path / "out.bin"
    with state_writer(path, 2) as write:
        write(make_state(step=0))
        assert not path.exists()  # written under a temporary name until complete
        write(make_state(step=1))
    assert [s.step for s in iter_states(path)] == [0, 1]
    for n in (1, 3):  # fewer or more states than declared
        with pytest.raises(ValueError, match=f"{n} states written, 2 declared"):
            with state_writer(tmp_path / f"bad{n}.bin", 2) as write:
                for step in range(n):
                    write(make_state(step=step))
    with pytest.raises(RuntimeError):
        with state_writer(tmp_path / "raised.bin", 1) as write:
            write(make_state())
            raise RuntimeError("the producer failed")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.bin"]
