"""Encryption-engine contract: round trips, freshness, replay, tampering.

The reference oracle re-derives nonce and associated data from first
principles (hash(line || counter), counter-high 192-bit serialization) and
calls the AEAD directly, independent of the engine's write/read paths.
"""

import hashlib
import random

import pytest
from hypothesis import given, settings, strategies as st

from conftest import ReferenceMee, python_frames
from servas_sim.aead import AesGcmAead
from servas_sim.mee import (
    COUNTER_BITS,
    COUNTER_LIMIT,
    LINE_BYTES,
    LINE_LIMIT,
    AuthenticationError,
    CounterOverflow,
    Mee,
    destroy_tweak,
    full_tweak_bytes,
)
from servas_sim.tweak import PRV_M, PRV_S, PRV_U, VOFFSET_SHIFT, SwTweak

KEY = bytes.fromhex("000102030405060708090a0b0c0d0e0f")


def _sw(**kw):
    fields = {"xrange": 0b100, "voffset": 7, "prv": PRV_U, "pte": 0x33, "sid": 42}
    fields.update(kw)
    return SwTweak(**fields)


def _reference_seal(key, line_index, counter, plaintext, sw):
    """The oracle: direct AEAD invocation with hand-built nonce and AD."""
    material = line_index.to_bytes(8, "little") + counter.to_bytes(8, "little")
    nonce = hashlib.sha256(b"line-nonce" + material).digest()[:12]
    ad = ((counter << 134) | sw.to_int()).to_bytes(24, "big")
    return AesGcmAead().seal(key, nonce, plaintext, ad)


@pytest.fixture
def mee():
    return Mee(KEY)


def _start_line_at(mee, line, counter, sw):
    """Give ``line`` its own entry at ``counter``, as if written ``counter``
    times under ``sw``: a one-line write of zeros gives the line its own
    entry, its counter is raised to one below ``counter`` (in its page's
    counters, or in a reference engine's dict), and a second write seals
    the entry at ``counter``, so the entry's associated data and its
    counter agree."""
    mee.write(line, bytes(LINE_BYTES), sw)
    if isinstance(mee, ReferenceMee):
        mee.lines[line] = (*mee.snapshot_line(line), counter - 1)
    else:
        mee._pages[line & ~63].counters[line & 63] = counter - 1
    mee.write(line, bytes(LINE_BYTES), sw)


def test_first_write_initializes(mee):
    assert mee.counter_of(0) == 0 and mee.written_lines() == {}
    mee.write(0, bytes(LINE_BYTES), _sw())
    assert mee.counter_of(0) == 1 and mee.written_lines() == {0: 1}
    assert mee.read(0, _sw()) == bytes(LINE_BYTES)


def test_full_tweak_is_192_bits(mee):
    blob = full_tweak_bytes(3, _sw())
    assert len(blob) == 24  # 58 + 134 bits
    assert int.from_bytes(blob, "big") >> 134 == 3


def test_write_matches_reference_aead(mee):
    pt = bytes(range(64))
    mee.write(9, pt, _sw())
    ct, tag = mee.snapshot_line(9)
    ref_ct, ref_tag = _reference_seal(KEY, 9, 1, pt, _sw())
    assert (ct, tag) == (ref_ct, ref_tag)


def test_identical_writes_give_distinct_ciphertexts(mee):
    """Freshness: the counter re-keys every write, and each ciphertext is
    exactly what the reference AEAD produces for its counter value."""
    pt = b"\xab" * LINE_BYTES
    mee.write(4, pt, _sw())
    first = mee.snapshot_line(4)
    mee.write(4, pt, _sw())
    second = mee.snapshot_line(4)
    assert first != second
    assert first == _reference_seal(KEY, 4, 1, pt, _sw())
    assert second == _reference_seal(KEY, 4, 2, pt, _sw())


def test_roundtrip_identity(mee):
    pt = bytes(random.Random(0).randbytes(LINE_BYTES))
    mee.write(5, pt, _sw(sid=7))
    assert mee.read(5, _sw(sid=7)) == pt


def test_single_bit_tweak_sweep(mee):
    """Reads under a tweak differing in any one of the 134 positions fail."""
    sw = _sw()
    mee.write(2, b"\x5a" * LINE_BYTES, sw)
    base = sw.to_int()
    for bit in range(134):
        flipped = SwTweak.from_int(base ^ (1 << bit))
        with pytest.raises(AuthenticationError):
            mee.read(2, flipped)
    assert mee.read(2, sw) == b"\x5a" * LINE_BYTES


def test_read_of_absent_line_is_zeros_under_any_tweak(mee):
    """A never-written line is boot-zeroed DRAM: it reads as zeros under
    two unrelated tweaks, verifies nothing (no open) and leaves no entry."""
    assert mee.read(1234, _sw()) == bytes(LINE_BYTES)
    assert mee.read(1234, _sw(sid=7, prv=PRV_S, voffset=3)) == bytes(LINE_BYTES)
    assert (mee.opens, mee.seals) == (0, 0)
    assert mee.written_lines() == {}


@pytest.mark.parametrize("line", [-5, 2**64])
def test_restore_of_an_unaddressable_line_is_a_value_error(mee, line):
    with pytest.raises(ValueError):
        mee.restore_line(line, b"x", b"y")
    assert mee.written_lines() == {}


def test_never_written_line_is_zero_dram(mee):
    """Raw access sees a never-written line as zero ciphertext and a zero
    tag; once anything is put there, the engine has no counter for it and
    the line fails authentication instead of reading as zeros."""
    assert mee.snapshot_line(77) == (bytes(LINE_BYTES), bytes(16))
    mee.flip_bit(77, 0)
    assert mee.snapshot_line(77) == (b"\x01" + bytes(LINE_BYTES - 1), bytes(16))
    with pytest.raises(AuthenticationError):
        mee.read(77, _sw())
    mee.restore_line(78, *mee.snapshot_line(78))
    with pytest.raises(AuthenticationError):
        mee.read(78, _sw())


def test_replay_of_stale_snapshot_fails(mee):
    """Restoring (ciphertext, tag) from before a later write must fail: the
    trusted counter moved to 2 but the stale tag binds counter 1."""
    sw = _sw()
    mee.write(3, b"v1" * 32, sw)
    stale = mee.snapshot_line(3)
    mee.write(3, b"v2" * 32, sw)
    mee.restore_line(3, *stale)
    with pytest.raises(AuthenticationError):
        mee.read(3, sw)


def test_tamper_sample_across_line_and_tag(mee):
    sw = _sw()
    mee.write(6, bytes(range(64)), sw)
    rng = random.Random(1)
    intact = mee.snapshot_line(6)
    for _ in range(128):
        target, width = rng.choice([("ciphertext", 512), ("tag", 128)])
        bit = rng.randrange(width)
        mee.flip_bit(6, bit, target)
        with pytest.raises(AuthenticationError):
            mee.read(6, sw)
        mee.restore_line(6, *intact)
    assert mee.read(6, sw) == bytes(range(64))


def test_destroy_semantics(mee):
    sw = _sw()
    mee.write(8, b"\x11" * 64, sw)
    mee.destroy(8)
    with pytest.raises(AuthenticationError):
        mee.read(8, sw)
    mee.destroy(8)  # idempotent on the state, still destroyed
    with pytest.raises(AuthenticationError):
        mee.read(8, sw)
    mee.write(8, b"\x22" * 64, sw)
    assert mee.read(8, sw) == b"\x22" * 64


def test_counter_monotonicity(mee):
    sw = _sw()
    seen = [mee.counter_of(11)]
    for n in range(1, 6):
        mee.write(11, bytes(64), sw)
        assert mee.counter_of(11) == n
        seen.append(n)
    mee.destroy(11)
    assert mee.counter_of(11) == 6  # destruction is a write
    assert seen == sorted(seen)


def test_counter_overflow_is_hard_error(mee):
    _start_line_at(mee, 1, (1 << COUNTER_BITS) - 1, _sw())
    with pytest.raises(CounterOverflow):
        mee.write(1, bytes(64), _sw())
    assert mee.counter_of(1) == (1 << COUNTER_BITS) - 1
    assert mee.read(1, _sw()) == bytes(LINE_BYTES)


PAGE_CONTENT = bytes(random.Random(2).randbytes(64 * LINE_BYTES))


@pytest.mark.parametrize("lines", [range(64), [0, 5, 6, 63]], ids=["page", "sparse"])
def test_write_lines_is_the_reference_line_by_line(mee, lines):
    """Line ``first + i`` is sealed exactly as the reference seals it under
    the tweak with ``i`` added to its voffset; lines not listed stay
    unwritten, and every sealed line is counted once."""
    first, sw = 0x40 * 64, _sw(voffset=0x40 * 64)
    mee.write(first, PAGE_CONTENT, sw, lines)
    for i in range(64):
        if i not in lines:
            assert first + i not in mee.written_lines()
            continue
        plaintext = PAGE_CONTENT[i * LINE_BYTES:(i + 1) * LINE_BYTES]
        assert mee.snapshot_line(first + i) == _reference_seal(
            KEY, first + i, 1, plaintext, _sw(voffset=0x40 * 64 + i))
    assert mee.read(first, sw, lines) == b"".join(
        PAGE_CONTENT[i * LINE_BYTES:(i + 1) * LINE_BYTES] for i in lines)
    assert (mee.seals, mee.opens) == (len(lines), len(lines))


def test_read_lines_names_the_first_failing_line(mee):
    """A flipped bit in line 17 stops a page read at that line, after the
    17 lines before it were opened."""
    sw = _sw(voffset=0)
    mee.write(0, PAGE_CONTENT, sw, range(64))
    mee.flip_bit(17, 100)
    with pytest.raises(AuthenticationError) as info:
        mee.read(0, sw, range(64))
    assert info.value.line_index == 17
    assert mee.opens == 18


def test_one_line_calls_are_the_page_path(mee):
    """``write``/``read`` with the default ``lines`` are the one-line case:
    same ciphertext as a page call's first line, the same counters, the
    same errors."""
    other = Mee(KEY)
    sw = _sw()
    mee.write(9, PAGE_CONTENT[:LINE_BYTES], sw)
    other.write(9, PAGE_CONTENT, sw, [0])
    assert mee.snapshot_line(9) == other.snapshot_line(9)
    assert mee.read(9, sw) == PAGE_CONTENT[:LINE_BYTES]
    assert (mee.seals, mee.opens) == (1, 1)
    with pytest.raises(ValueError):
        mee.write(9, PAGE_CONTENT[:LINE_BYTES + 1], sw)
    assert mee.read(10, sw, [0]) == bytes(LINE_BYTES)
    assert mee.opens == 1


@pytest.mark.parametrize("engine", [Mee, ReferenceMee], ids=["mee", "reference"])
@pytest.mark.parametrize("size, lines", [(LINE_BYTES - 1, (0,)), (LINE_BYTES + 1, (0,)),
                                         (64 * LINE_BYTES - 1, range(64)),
                                         (64 * LINE_BYTES + 1, [0, 5])],
                         ids=["short-line", "long-line", "short-page", "long-page"])
def test_content_that_is_not_whole_lines_is_refused(engine, size, lines):
    """One-line and page writes alike refuse content that is not whole
    64-byte lines, before any line moves."""
    mee = engine(KEY)
    with pytest.raises(ValueError, match="whole 64-byte lines"):
        mee.write(0, bytes(size), _sw(voffset=0), lines)
    assert (mee.written_lines(), mee.seals) == ({}, 0)


def test_a_memo_or_record_served_one_line_read_runs_one_python_frame(mee):
    """The hot path: a one-line read its memo, or its page's record,
    serves runs ``read`` and no other Python function."""
    sw = _sw()
    mee.write(3, PAGE_CONTENT[:LINE_BYTES], sw)
    assert mee.read(3, sw) == PAGE_CONTENT[:LINE_BYTES]
    assert python_frames(mee.read, 3, sw) == ["read"]
    mee.write(_P, PAGE_CONTENT, _P_SW, range(64))
    line_sw = SwTweak.from_int(_P_INT + (5 << VOFFSET_SHIFT))
    assert python_frames(mee.read, _P + 5, line_sw) == ["read"]
    assert mee.read(_P + 5, line_sw) == PAGE_CONTENT[5 * LINE_BYTES:6 * LINE_BYTES]


def test_a_one_line_write_runs_one_python_frame(mee):
    """A one-line write to a page the engine holds, as its own entry or
    into its record in place, runs ``write`` and no other Python function."""
    sw = _sw()
    mee.write(3, PAGE_CONTENT[:LINE_BYTES], sw)
    assert python_frames(mee.write, 3, bytes(LINE_BYTES), sw) == ["write"]
    assert mee.line_entries == 2  # each write of line 3 builds its entry
    mee.write(_P, PAGE_CONTENT, _P_SW, range(64))
    assert python_frames(mee.write, _P, bytes(LINE_BYTES), _P_SW) == ["write"]
    assert mee.line_entries == 2
    assert mee.read(_P, _P_SW, range(64)) == bytes(LINE_BYTES) + PAGE_CONTENT[LINE_BYTES:]


def test_destroy_tweak_unreachable_by_composition():
    """The reserved tweak has sid != 0 with rsw == 00, which select_sid can
    never produce, plus the all-ranges bitmap."""
    sw = destroy_tweak()
    assert sw.xrange == 0b111
    assert sw.rsw == 0 and sw.sid != 0
    assert sw.prv == PRV_M


def test_write_requires_full_line(mee):
    with pytest.raises(ValueError):
        mee.write(0, b"short", _sw())


@given(
    sid_a=st.integers(0, 2**80 - 1),
    sid_b=st.integers(0, 2**80 - 1),
    prv=st.sampled_from([PRV_U, PRV_S, PRV_M]),
    voffset=st.integers(0, 2**42 - 1),
)
def test_tweak_sensitivity_random_pairs(sid_a, sid_b, prv, voffset):
    mee = Mee(KEY)
    wrote = _sw(sid=sid_a, prv=PRV_U, voffset=voffset)
    mee.write(0, b"\x77" * 64, wrote)
    probe = _sw(sid=sid_b, prv=prv, voffset=voffset)
    if probe == wrote:
        assert mee.read(0, probe) == b"\x77" * 64
    else:
        with pytest.raises(AuthenticationError):
            mee.read(0, probe)


def test_read_of_a_negative_line_is_a_value_error(mee):
    """A line outside the engine's range is refused as ``write`` refuses
    it, before any lookup, not reported as an uninitialized line."""
    with pytest.raises(ValueError, match="no physical line -1"):
        mee.write(-1, bytes(LINE_BYTES), _sw())
    with pytest.raises(ValueError, match="no physical line -1"):
        mee.read(-1, _sw())
    with pytest.raises(ValueError, match="no physical line -1"):
        mee.read(0, _sw(), [-1])


# --- the verified-open memo ----------------------------------------------------


def _counting(mee):
    """Count the engine's real AEAD opens by wrapping its backend."""
    calls = []
    real_open = mee.aead.open

    def open_(*args):
        calls.append(args)
        return real_open(*args)

    mee.aead.open = open_
    return calls


def _strip_memo(mee):
    """Drop every line's memo, leaving the stored bytes: the engine then
    verifies every line with a real open.  Every line leaves its page
    record, and a pending line is sealed first, by looking at its raw
    bytes, so that it has bytes to leave."""
    for line in mee.written_lines():
        mee.snapshot_line(line)
        del mee._entry(line)[2:]


def _detach_all(mee):
    """Move every line a page record covers into its own entry: the
    line-by-line representation, with every memo kept."""
    for line in mee.written_lines():
        mee._entry(line)


def test_memo_serves_a_sealed_or_verified_line_without_an_open(mee):
    """A read of a line the engine sealed, or already verified, under the
    same counter and tweak makes no AEAD call and is still counted."""
    calls = _counting(mee)
    sw = _sw()
    mee.write(3, b"\x5a" * LINE_BYTES, sw)
    assert mee.read(3, sw) == b"\x5a" * LINE_BYTES
    assert (len(calls), mee.opens) == (0, 1)
    _strip_memo(mee)
    assert mee.read(3, sw) == b"\x5a" * LINE_BYTES
    assert mee.read(3, sw) == b"\x5a" * LINE_BYTES
    assert (len(calls), mee.opens) == (1, 3)


def test_memo_flipped_ciphertext_bit_fails(mee):
    sw = _sw()
    mee.write(6, bytes(range(64)), sw)
    assert mee.read(6, sw) == bytes(range(64))
    mee.flip_bit(6, 77, "ciphertext")
    with pytest.raises(AuthenticationError) as info:
        mee.read(6, sw)
    assert info.value.line_index == 6


def test_memo_flipped_tag_bit_fails(mee):
    sw = _sw()
    mee.write(6, bytes(range(64)), sw)
    assert mee.read(6, sw) == bytes(range(64))
    mee.flip_bit(6, 5, "tag")
    with pytest.raises(AuthenticationError) as info:
        mee.read(6, sw)
    assert info.value.line_index == 6


def test_memo_stale_snapshot_restored_fails(mee):
    """The memo records the second seal; the restored first one does not
    verify under the counter the second seal moved to."""
    sw = _sw()
    mee.write(3, b"v1" * 32, sw)
    stale = mee.snapshot_line(3)
    mee.write(3, b"v2" * 32, sw)
    assert mee.read(3, sw) == b"v2" * 32
    mee.restore_line(3, *stale)
    with pytest.raises(AuthenticationError) as info:
        mee.read(3, sw)
    assert info.value.line_index == 3


def test_memo_wrong_tweak_fails(mee):
    """Line 1 under line 2's tweak fails, and so do line 2's bytes, sealed
    under that tweak at the same counter, moved onto line 1, whichever
    of the two tweaks the read asks for."""
    sw1, sw2 = _sw(sid=1), _sw(sid=2)
    mee.write(1, b"\x01" * LINE_BYTES, sw1)
    mee.write(2, b"\x02" * LINE_BYTES, sw2)
    with pytest.raises(AuthenticationError):
        mee.read(1, sw2)
    assert mee.read(1, sw1) == b"\x01" * LINE_BYTES
    mee.restore_line(1, *mee.snapshot_line(2))
    for sw in (sw1, sw2):
        with pytest.raises(AuthenticationError) as info:
            mee.read(1, sw)
        assert info.value.line_index == 1


def test_memo_current_bytes_restored_open(mee):
    """Putting back the exact bytes the line holds, after tampering, opens
    again, with the memo and without it."""
    sw = _sw()
    mee.write(4, b"\x33" * LINE_BYTES, sw)
    current = mee.snapshot_line(4)
    mee.flip_bit(4, 0)
    with pytest.raises(AuthenticationError):
        mee.read(4, sw)
    mee.restore_line(4, *current)
    assert mee.read(4, sw) == b"\x33" * LINE_BYTES
    _strip_memo(mee)
    mee.restore_line(4, *current)
    assert mee.read(4, sw) == b"\x33" * LINE_BYTES


# --- the store query: which lines a page write would change ------------------

# Four lines at line 8, line i all bytes i: line 0 is all zeros, as the
# destroyed and foreign-bound cases below need it to be.
_FIRST = 8
_PAGE_SW = _sw(voffset=_FIRST)
_PAGE = b"".join(bytes([i]) * LINE_BYTES for i in range(4))


def _changed(mee, content=_PAGE):
    return mee.changed_lines(_FIRST, content, _PAGE_SW)


def _seal_page(mee, lines=range(4)):
    mee.write(_FIRST, _PAGE, _PAGE_SW, lines)


def test_changed_lines_of_an_unchanged_sealed_or_verified_page_is_empty(mee):
    _seal_page(mee)
    assert _changed(mee) == []
    _strip_memo(mee)
    assert _changed(mee) == [0, 1, 2, 3]
    mee.read(_FIRST, _PAGE_SW, range(4))
    assert _changed(mee) == []


def test_changed_lines_lists_a_line_with_one_changed_byte(mee):
    _seal_page(mee)
    for i in range(4):
        content = bytearray(_PAGE)
        content[i * LINE_BYTES + 17] ^= 0x80
        assert _changed(mee, bytes(content)) == [i]


def _flip_ciphertext(mee):
    mee.flip_bit(_FIRST, 77, "ciphertext")


def _flip_tag(mee):
    mee.flip_bit(_FIRST, 5, "tag")


def _restore_stale(mee):
    stale = mee.snapshot_line(_FIRST)
    _seal_page(mee, [0])
    mee.restore_line(_FIRST, *stale)


def _foreign_tweak(mee):
    mee.write(_FIRST, _PAGE[:LINE_BYTES], _sw(voffset=_FIRST, sid=43))


def _destroy(mee):
    mee.destroy(_FIRST)


@pytest.mark.parametrize("tamper", [_flip_ciphertext, _flip_tag, _restore_stale,
                                    _foreign_tweak, _destroy],
                         ids=["flipped-ciphertext-bit", "flipped-tag-bit",
                              "stale-snapshot-restored", "own-bytes-under-a-foreign-tweak",
                              "destroyed-line"])
def test_changed_lines_lists_a_line_its_memo_does_not_vouch_for(mee, tamper):
    """Line 0 still holds, or its memo still records, the page's own bytes
    at the current counter, yet a read of it under the page's tweak would
    not return them: a store must re-seal it."""
    _seal_page(mee)
    tamper(mee)
    assert _changed(mee) == [0]


def test_changed_lines_lists_a_never_written_line(mee):
    _seal_page(mee, [1, 2, 3])
    assert _changed(mee) == [0]


# --- pending lines: a write's seal runs when its raw bytes are first read ------


def _real_seals(mee):
    """Count the engine's real AEAD seals by wrapping its backend."""
    calls = []
    real_seal = mee.aead.seal

    def seal(*args):
        calls.append(args)
        return real_seal(*args)

    mee.aead.seal = seal
    return calls


def test_a_write_is_sealed_when_its_raw_bytes_are_first_read(mee):
    """A write is counted as a seal but runs none; reads under its own tweak
    are served by the memo, and the first snapshot runs the reference's
    seal, once."""
    seals, sw = _real_seals(mee), _sw()
    mee.write(9, PAGE_CONTENT[:LINE_BYTES], sw)
    assert mee.read(9, sw) == PAGE_CONTENT[:LINE_BYTES]
    assert (len(seals), mee.seals) == (0, 1)
    for _ in range(2):
        assert mee.snapshot_line(9) == _reference_seal(KEY, 9, 1, PAGE_CONTENT[:LINE_BYTES], sw)
    assert len(seals) == 1


@pytest.mark.parametrize("target, bit", [("ciphertext", 77), ("tag", 5)])
def test_pending_line_flipped_bit_fails(mee, target, bit):
    seals, sw = _real_seals(mee), _sw()
    mee.write(6, bytes(range(64)), sw)
    mee.flip_bit(6, bit, target)
    assert len(seals) == 1
    with pytest.raises(AuthenticationError) as info:
        mee.read(6, sw)
    assert info.value.line_index == 6


def test_pending_line_read_under_a_foreign_tweak_fails(mee):
    """The failing read seals the line to open it for real; the line still
    reads back under its own tweak, from the memo."""
    seals, opens = _real_seals(mee), _counting(mee)
    mee.write(2, b"\x02" * LINE_BYTES, _sw(sid=2))
    with pytest.raises(AuthenticationError) as info:
        mee.read(2, _sw(sid=1))
    assert info.value.line_index == 2
    assert mee.read(2, _sw(sid=2)) == b"\x02" * LINE_BYTES
    assert (len(seals), len(opens)) == (1, 1)


def test_pending_line_restored_from_its_own_snapshot_reads_back(mee):
    sw = _sw()
    mee.write(4, b"\x33" * LINE_BYTES, sw)
    mee.restore_line(4, *mee.snapshot_line(4))
    assert mee.read(4, sw) == b"\x33" * LINE_BYTES


def test_restore_over_a_pending_line_seals_it_first(mee):
    """A same-key twin's copy of the line's own bytes, restored over the
    still pending line, leaves the memo vouching for them, as it would had
    the line been sealed at write time: a store of the same content
    changes nothing and a read makes no real open."""
    twin = Mee(KEY)
    _seal_page(mee)
    _seal_page(twin)
    opens = _counting(mee)
    mee.restore_line(_FIRST, *twin.snapshot_line(_FIRST))
    assert _changed(mee) == []
    assert mee.read(_FIRST, _PAGE_SW) == _PAGE[:LINE_BYTES]
    assert len(opens) == 0


def test_pending_destroyed_line_fails(mee):
    """Only the destruction is sealed, by the read that fails on it."""
    seals, sw = _real_seals(mee), _sw()
    mee.write(8, b"\x11" * LINE_BYTES, sw)
    mee.destroy(8)
    with pytest.raises(AuthenticationError) as info:
        mee.read(8, sw)
    assert info.value.line_index == 8
    assert len(seals) == 1


# The differential fuzz: lines 0..3 of page 0, each line bound to one of
# three base tweaks stepped by its index (the page path's binding), so
# reads and writes through the one-line and the page calls often meet.
_N = 4
_TWEAKS = [_sw(voffset=0, sid=1), _sw(voffset=0, sid=0xFFFF),
           _sw(voffset=0, prv=PRV_S, xrange=0b010, sid=0)]
_LINE = st.integers(0, _N - 1)
_TWEAK = st.integers(0, len(_TWEAKS) - 1)
_LINES = st.lists(_LINE, min_size=1, max_size=_N, unique=True)
_CONTENT = st.binary(min_size=_N * LINE_BYTES, max_size=_N * LINE_BYTES)
_MEMO_OPS = st.one_of(
    st.tuples(st.just("page_write"), _TWEAK, _CONTENT, _LINES),
    st.tuples(st.just("page_read"), _TWEAK, _LINES),
    st.tuples(st.just("write"), _LINE, _TWEAK, st.binary(min_size=64, max_size=64)),
    st.tuples(st.just("read"), _LINE, _TWEAK),
    st.tuples(st.just("destroy"), _LINE),
    st.tuples(st.just("flip_bit"), _LINE, st.sampled_from(["ciphertext", "tag"]),
              st.integers(0, 8 * 16 - 1)),
    st.tuples(st.just("snapshot"), _LINE),
    st.tuples(st.just("restore"), _LINE, st.integers(0, 63)),
)


def _line_sw(tweak: int, line: int) -> SwTweak:
    return SwTweak.from_int(_TWEAKS[tweak].to_int() + (line << VOFFSET_SHIFT))


def _apply_memo_op(mee, op, snapshots):
    name, *args = op
    try:
        if name == "page_write":
            tweak, content, lines = args
            return mee.write(0, content, _TWEAKS[tweak], lines)
        if name == "page_read":
            tweak, lines = args
            return mee.read(0, _TWEAKS[tweak], lines)
        if name == "write":
            line, tweak, data = args
            return mee.write(line, data, _line_sw(tweak, line))
        if name == "read":
            line, tweak = args
            return mee.read(line, _line_sw(tweak, line))
        if name == "destroy":
            return mee.destroy(args[0])
        if name == "flip_bit":
            line, target, bit = args
            return mee.flip_bit(line, bit, target)
        if name == "snapshot":
            snapshots.append((args[0], mee.snapshot_line(args[0])))
            return snapshots[-1]
        # restore: a stale or current snapshot, or the line's current bytes
        line, pick = args
        if snapshots and pick < 48:
            line, raw = snapshots[pick % len(snapshots)]
        else:
            raw = mee.snapshot_line(line)
        return mee.restore_line(line, *raw)
    except (AuthenticationError, CounterOverflow, ValueError) as exc:
        return type(exc).__name__, getattr(exc, "line_index", None), str(exc)


def _start_lines_at(mee, counters):
    """Start each line ``i`` with a nonzero ``counters[i]`` at that counter,
    under base tweak 0 (see :func:`_start_line_at`)."""
    for line, counter in enumerate(counters):
        if counter:
            _start_line_at(mee, line, counter, _line_sw(0, line))


def _agree(engines, lines):
    """Every engine's written lines and counters, seal and open counts and
    raw bytes of ``lines`` are the first engine's."""
    first, *others = engines
    for other in others:
        assert other.written_lines() == first.written_lines()
        assert (other.seals, other.opens) == (first.seals, first.opens)
        assert [other.snapshot_line(i) for i in lines] == [first.snapshot_line(i) for i in lines]


@settings(max_examples=200)
@given(counters=st.lists(st.sampled_from([0, 1, 2, 1 << 40, COUNTER_LIMIT - 3]),
                         min_size=_N, max_size=_N),
       ops=st.lists(_MEMO_OPS, min_size=5, max_size=60))
def test_memo_is_invisible(counters, ops):
    """Three same-key engines run the same operations from the same
    counters: one as is, one that loses every memo before each read, and
    the reference engine, which seals every write and opens every read.
    Results, errors and the line they name, counters, seal and open counts
    and every line's raw bytes agree throughout."""
    engines = [Mee(KEY), Mee(KEY), ReferenceMee(KEY)]
    snapshots = [[] for _ in engines]
    for mee in engines:
        _start_lines_at(mee, counters)
    for op in ops:
        if op[0] in ("read", "page_read"):
            _strip_memo(engines[1])
        results = [_apply_memo_op(mee, op, snaps)
                   for mee, snaps in zip(engines, snapshots)]
        assert results[1:] == results[:1] * 2, op
        _agree(engines, range(_N))


@settings(max_examples=200)
@given(counters=st.lists(st.sampled_from([0, 1, 2, 1 << 40, COUNTER_LIMIT - 3]),
                         min_size=_N, max_size=_N),
       ops=st.lists(_MEMO_OPS, min_size=5, max_size=60))
def test_observation_is_invisible(counters, ops):
    """Two same-key engines run the same operations from the same counters;
    one snapshots every line after each operation, which seals each
    pending line at once.  Results, errors and the line they name,
    counters, seal and open counts and, at the end, every line's raw bytes
    agree: when a seal runs changes nothing."""
    engines = [Mee(KEY), Mee(KEY)]
    snapshots = [[], []]
    for mee in engines:
        _start_lines_at(mee, counters)
    for op in ops:
        results = [_apply_memo_op(mee, op, snaps)
                   for mee, snaps in zip(engines, snapshots)]
        assert results[0] == results[1], op
        for line in range(_N):
            engines[1].snapshot_line(line)
        assert engines[0].written_lines() == engines[1].written_lines()
        assert (engines[0].seals, engines[0].opens) == (engines[1].seals, engines[1].opens)
    assert [engines[0].snapshot_line(i) for i in range(_N)] == \
        [engines[1].snapshot_line(i) for i in range(_N)]


# --- page records --------------------------------------------------------------

# One page at line 0x40, with line 0x80 of the next page for a write that
# crosses into it; every line i of the page holds bytes of PAGE_CONTENT.
_P = 0x40
_P_SW = _sw(voffset=_P)
_P_INT = _P_SW.to_int()


def _memo_checks(monkeypatch):
    """Count the engine's per-line memo checks."""
    import servas_sim.mee as mee_module

    calls = []
    real = mee_module._memo
    monkeypatch.setattr(mee_module, "_memo", lambda *args: calls.append(1) or real(*args))
    return calls


def _read_page(mee, sw=_P_SW):
    return mee.read(_P, sw, range(64))


def test_a_whole_page_write_is_served_without_a_line_check(mee, monkeypatch):
    """A page written whole is one record, with no per-line entry, and
    reads back from it, whole or as lines: no per-line memo check, no AEAD
    open, and still 64 opens counted per read; its store query compares
    plaintexts."""
    mee.write(_P, PAGE_CONTENT, _P_SW, range(64))
    checks, opens = _memo_checks(monkeypatch), _counting(mee)
    assert mee.read(_P, _P_SW, list(range(64))) == PAGE_CONTENT
    assert _read_page(mee) == PAGE_CONTENT
    assert mee.changed_lines(_P, PAGE_CONTENT, _P_SW) == []
    changed = bytearray(PAGE_CONTENT)
    for i in (5, 6, 63):
        changed[i * LINE_BYTES + i] ^= 1
    assert mee.changed_lines(_P, bytes(changed), _P_SW) == [5, 6, 63]
    assert mee.changed_lines(_P, bytes(reversed(PAGE_CONTENT)), _P_SW) == list(range(64))
    assert (len(checks), len(opens), mee.opens) == (0, 0, 128)
    assert (mee.seals, mee.line_entries) == (64, 0)
    assert mee.written_lines() == {_P + i: 1 for i in range(64)}


def test_a_whole_page_read_opens_only_the_lines_no_memo_vouches_for(mee):
    """After the line memos are gone, a partial read records the memos of
    its lines and a read under another tweak fails on the first line; a
    whole-page read then opens the other 56 lines, and the next none."""
    mee.write(_P, PAGE_CONTENT, _P_SW, range(64))
    _strip_memo(mee)
    mee.read(_P, _P_SW, range(8))
    with pytest.raises(AuthenticationError) as info:
        _read_page(mee, _sw(voffset=_P, sid=1))
    assert info.value.line_index == _P
    opens = _counting(mee)
    assert _read_page(mee) == PAGE_CONTENT
    assert mee.read(_P, _P_SW, list(range(64))) == PAGE_CONTENT
    assert len(opens) == 56


def test_a_line_addressed_alone_leaves_its_record(mee, monkeypatch):
    """A one-line write of a record line, and a page read under another
    tweak, each give one line its own entry, the one a line-by-line write
    would have built; a one-line read under the line's own tweak gives
    none.  The record keeps serving the rest, and a whole-page write takes
    the lines back."""
    mee.write(_P, PAGE_CONTENT, _P_SW, range(64))
    line_sw = SwTweak.from_int(_P_INT + (5 << VOFFSET_SHIFT))
    assert mee.read(_P + 5, line_sw) == PAGE_CONTENT[5 * LINE_BYTES:6 * LINE_BYTES]
    mee.write(_P + 7, bytes(LINE_BYTES), SwTweak.from_int(_P_INT + (7 << VOFFSET_SHIFT)))
    with pytest.raises(AuthenticationError) as info:
        mee.read(_P, _sw(voffset=_P, sid=1), range(64))
    assert info.value.line_index == _P
    assert mee.line_entries == 2
    assert mee.counter_of(_P + 7) == 2 and mee.counter_of(_P + 8) == 1
    expected = bytearray(PAGE_CONTENT)
    expected[7 * LINE_BYTES:8 * LINE_BYTES] = bytes(LINE_BYTES)
    checks = _memo_checks(monkeypatch)
    assert mee.read(_P, _P_SW, list(range(64))) == bytes(expected)
    assert len(checks) == 2
    mee.write(_P, PAGE_CONTENT, _P_SW, range(64))
    assert mee.read(_P, _P_SW, list(range(64))) == PAGE_CONTENT
    assert len(checks) == 2 and mee.line_entries == 2
    assert mee.written_lines() == {_P + i: 3 if i == 7 else 2 for i in range(64)}


def test_a_record_serves_no_other_address_width(mee):
    """The same packed tweak with 39-bit va bits is another tweak: the
    store query lists every line, and a read fails on its first line."""
    packed = _sw(voffset=_P, xrange=0).to_int()  # fits either width
    sw48, sw39 = SwTweak.from_int(packed, 48), SwTweak.from_int(packed, 39)
    mee.write(_P, PAGE_CONTENT, sw48, range(64))
    assert mee.changed_lines(_P, PAGE_CONTENT, sw39) == list(range(64))
    with pytest.raises(AuthenticationError) as info:
        mee.read(_P, sw39, [1, 2])
    assert info.value.line_index == _P + 1
    assert mee.read(_P, sw48, range(64)) == PAGE_CONTENT


def test_a_page_destroyed_whole_is_64_destroyed_lines(mee):
    """:meth:`Mee.destroy_page` leaves every line, counter and count as 64
    one-line destroys do, on a record page with a detached line, and
    builds no per-line entry doing so."""
    twin = Mee(KEY)
    for engine in (mee, twin):
        engine.write(_P, PAGE_CONTENT, _P_SW, range(64))
        engine.write(_P + 3, bytes(LINE_BYTES), _sw(sid=9))
    mee.destroy_page(_P)
    for i in range(64):
        twin.destroy(_P + i)
    assert mee.line_entries == 1
    assert mee.written_lines() == twin.written_lines()
    for engine in (mee, twin):
        with pytest.raises(AuthenticationError) as info:
            _read_page(engine)
        assert info.value.line_index == _P
    assert (mee.seals, mee.opens) == (twin.seals, twin.opens) == (129, 1)
    assert [mee.snapshot_line(_P + i) for i in range(64)] == \
        [twin.snapshot_line(_P + i) for i in range(64)]
    with pytest.raises(ValueError, match="does not start a page"):
        mee.destroy_page(_P + 1)


def test_a_counter_overflow_stops_a_whole_page_write_at_that_line(mee):
    """A whole-page write whose line 5 would overflow writes lines 0-4, as
    a line-by-line write does, and raises on line 5."""
    mee.write(_P, PAGE_CONTENT, _P_SW, range(64))
    _start_line_at(mee, _P + 5, COUNTER_LIMIT - 1, SwTweak.from_int(_P_INT + (5 << VOFFSET_SHIFT)))
    with pytest.raises(CounterOverflow):
        mee.write(_P, PAGE_CONTENT, _P_SW, range(64))
    assert [mee.counter_of(_P + i) for i in range(7)] == [2] * 5 + [COUNTER_LIMIT - 1, 1]


@pytest.mark.parametrize("recorded", [False, True], ids=["no-record", "record"])
def test_a_whole_page_write_takes_back_a_line_written_alone(mee, recorded):
    """A line given its own entry and a raised counter by one-line writes
    alone, its page perhaps written whole before, reads back as the page's
    bytes once the page is written whole, its counter one past the last."""
    if recorded:
        mee.write(_P, PAGE_CONTENT, _P_SW, range(64))
    line_sw = SwTweak.from_int(_P_INT + (5 << VOFFSET_SHIFT))
    for _ in range(3):
        mee.write(_P + 5, b"a" * LINE_BYTES, line_sw)
    new = b"b" * (64 * LINE_BYTES)
    mee.write(_P, new, _P_SW, range(64))
    assert mee.read(_P, _P_SW, list(range(64))) == new
    assert _read_page(mee) == new
    assert mee.read(_P + 5, line_sw) == b"b" * LINE_BYTES
    assert mee.counter_of(_P + 5) == 4 + recorded
    assert mee.counter_of(_P + 4) == 1 + recorded


def test_a_store_under_the_recorded_tweak_updates_the_page_memo(mee, monkeypatch):
    """Re-sealing some lines of a recorded page under its own tweak updates
    the record in place, with no per-line entry."""
    mee.write(_P, PAGE_CONTENT, _P_SW, range(64))
    new = bytes(reversed(PAGE_CONTENT))
    mee.write(_P, new, _P_SW, [3, 9])
    expected = bytearray(PAGE_CONTENT)
    for i in (3, 9):
        expected[i * LINE_BYTES:(i + 1) * LINE_BYTES] = new[i * LINE_BYTES:(i + 1) * LINE_BYTES]
    checks = _memo_checks(monkeypatch)
    assert mee.read(_P, _P_SW, list(range(64))) == bytes(expected)
    assert _read_page(mee) == bytes(expected)
    assert mee.changed_lines(_P, bytes(expected), _P_SW) == []
    assert not checks
    assert mee.line_entries == 0 and mee.counter_of(_P + 3) == 2
    _strip_memo(mee)
    assert _read_page(mee) == bytes(expected)


def test_a_page_holding_a_never_written_line_is_never_recorded(mee):
    """A whole-page read of a page with only line 5 written returns zeros
    for the other 63, and the store query for an all-zero page still lists
    every line that was never written."""
    mee.write(_P, bytes(64 * LINE_BYTES), _P_SW, [5])
    assert _read_page(mee) == bytes(64 * LINE_BYTES)
    assert mee.opens == 1
    assert mee.changed_lines(_P, bytes(64 * LINE_BYTES), _P_SW) == [
        i for i in range(64) if i != 5]


def test_the_page_memo_result_is_a_copy(mee):
    """The record holds its own copy of the written page, and a read
    returns bytes, which no caller can change."""
    content = bytearray(PAGE_CONTENT)
    mee.write(_P, content, _P_SW, range(64))
    content[:7] = b"mutated"
    assert type(_read_page(mee)) is bytes
    assert _read_page(mee) == PAGE_CONTENT


def _tamper_flip(mee, k):
    mee.flip_bit(_P + k, 3)


def _tamper_stale_restore(mee, k):
    stale = mee.snapshot_line(_P + k)
    mee.write(_P, PAGE_CONTENT, _P_SW, [k])
    _read_page(mee)  # served by the record, which holds the newer write
    mee.restore_line(_P + k, *stale)


def _tamper_foreign_line(mee, k):
    """The line's own bytes, written under another tweak."""
    line_sw = SwTweak.from_int(_sw(voffset=_P, sid=43).to_int() + (k << VOFFSET_SHIFT))
    mee.write(_P + k, PAGE_CONTENT[k * LINE_BYTES:(k + 1) * LINE_BYTES], line_sw)


def _tamper_unstepped_line(mee, k):
    """The line's own bytes, written under the page's first-line tweak, not
    stepped to the line's own voffset."""
    mee.write(_P + k, PAGE_CONTENT[k * LINE_BYTES:(k + 1) * LINE_BYTES], _P_SW)


def _tamper_foreign_lines(mee, k):
    """The page's own bytes, some of its lines re-sealed under another
    page tweak."""
    mee.write(_P, PAGE_CONTENT, _sw(voffset=_P, sid=43), [k, 63])


def _tamper_destroy(mee, k):
    mee.destroy(_P + k)


def _tamper_crossing_write(mee, k):
    """A write from the page before, under another sid, whose second line
    lands in this one."""
    first = _P - 64 + k
    mee.write(first, PAGE_CONTENT + PAGE_CONTENT, _sw(voffset=first, sid=43), [0, 64])


@pytest.mark.parametrize("tamper", [_tamper_flip, _tamper_stale_restore, _tamper_foreign_line,
                                    _tamper_unstepped_line, _tamper_foreign_lines,
                                    _tamper_destroy, _tamper_crossing_write],
                         ids=["flip-bit", "stale-restore", "line-under-another-tweak",
                              "line-under-the-first-line-tweak", "lines-under-another-tweak",
                              "destroy", "crossing-write"])
def test_a_change_to_a_recorded_page_drops_its_page_memo(mee, tamper):
    """Each way a line of a recorded page can change under the record: the
    store query lists the line, and a page read fails on it."""
    k = 17
    mee.write(_P, PAGE_CONTENT, _P_SW, range(64))
    _read_page(mee)
    tamper(mee, k)
    assert k in mee.changed_lines(_P, PAGE_CONTENT, _P_SW)
    with pytest.raises(AuthenticationError) as info:
        _read_page(mee)
    assert info.value.line_index == _P + k


# The differential fuzz for page records: page 1 (lines 64..127) under two
# base tweaks, written and read whole or in part, plus one-line writes,
# destruction and raw DRAM tampering on a few of its lines and on the last
# lines of page 0, which a write from there can run into page 1.
_PG = 64
_PG_TWEAKS = [_sw(voffset=_PG, sid=1), _sw(voffset=_PG, sid=2)]
_PG_LINE = st.sampled_from([_PG, _PG + 1, _PG + 30, _PG + 63, _PG - 1])
_PG_SOME = st.lists(st.integers(0, 63), min_size=1, max_size=6, unique=True)
_PG_PAGE = st.sampled_from([bytes(64 * LINE_BYTES), PAGE_CONTENT,
                            bytes(reversed(PAGE_CONTENT))])
_PG_TWEAK = st.integers(0, 1)
_PG_WHOLE_WRITE = st.tuples(st.just("page_write"), _PG_TWEAK, _PG_PAGE, st.just(range(64)))
_PG_WHOLE_READ = st.tuples(st.just("page_read"), _PG_TWEAK,
                           st.sampled_from([range(64), list(range(64))]))
_PG_OTHERS = [
    st.tuples(st.just("page_write"), _PG_TWEAK, _PG_PAGE, _PG_SOME),
    st.tuples(st.just("page_read"), _PG_TWEAK, _PG_SOME),
    st.tuples(st.just("changed_lines"), _PG_TWEAK, _PG_PAGE),
    st.tuples(st.just("write"), _PG_LINE, _PG_TWEAK),
    st.tuples(st.just("write_unstepped"), _PG_LINE, _PG_TWEAK),
    st.tuples(st.just("cross"), st.integers(1, 63)),
    st.tuples(st.just("destroy"), _PG_LINE),
    st.tuples(st.just("destroy_page")),
    st.tuples(st.just("flip_bit"), _PG_LINE, st.integers(0, 8 * 16 - 1)),
    st.tuples(st.just("snapshot"), _PG_LINE),
    st.tuples(st.just("restore"), st.integers(0, 7)),
]
# whole pages written and read often enough that most other operations
# meet a page record
_PAGE_OPS = st.sampled_from([_PG_WHOLE_WRITE] * 3 + [_PG_WHOLE_READ] * 3 + _PG_OTHERS).flatmap(
    lambda ops: ops)


def _apply_page_op(mee, op, snapshots):
    name, *args = op
    try:
        if name == "page_write":
            tweak, content, lines = args
            return mee.write(_PG, content, _PG_TWEAKS[tweak], lines)
        if name == "page_read":
            tweak, lines = args
            return mee.read(_PG, _PG_TWEAKS[tweak], lines)
        if name == "changed_lines":
            tweak, content = args
            return mee.changed_lines(_PG, content, _PG_TWEAKS[tweak])
        if name == "write":
            line, tweak = args
            sw = SwTweak.from_int(_PG_TWEAKS[tweak].to_int() + ((line - _PG) << VOFFSET_SHIFT)
                                  if line >= _PG else _sw(voffset=line).to_int())
            return mee.write(line, PAGE_CONTENT[:LINE_BYTES], sw)
        if name == "write_unstepped":  # under the page's first-line tweak
            line, tweak = args
            return mee.write(line, PAGE_CONTENT, _PG_TWEAKS[tweak], [0])
        if name == "cross":
            first = _PG - args[0]
            return mee.write(first, PAGE_CONTENT, _sw(voffset=first), range(args[0] + 2))
        if name == "destroy":
            return mee.destroy(args[0])
        if name == "destroy_page":
            return mee.destroy_page(_PG)
        if name == "flip_bit":
            return mee.flip_bit(args[0], args[1], "tag")
        if name == "snapshot":
            snapshots.append((args[0], mee.snapshot_line(args[0])))
            return snapshots[-1]
        if snapshots:
            line, raw = snapshots[args[0] % len(snapshots)]
            return mee.restore_line(line, *raw)
        return None
    except (AuthenticationError, ValueError) as exc:
        return type(exc).__name__, getattr(exc, "line_index", None), str(exc)


@settings(max_examples=150)
@given(ops=st.lists(_PAGE_OPS, min_size=5, max_size=40))
def test_page_memo_is_invisible(ops):
    """Three same-key engines run the same operations: one as is, one that
    moves every line its page records cover into its own entry before
    each, and the reference engine.  Results, errors and the line they
    name, every written line and its counter, the seal and open counts
    and, at the end, every line's raw bytes agree."""
    engines = [Mee(KEY), Mee(KEY), ReferenceMee(KEY)]
    snapshots = [[] for _ in engines]
    for op in ops:
        _detach_all(engines[1])
        results = [_apply_page_op(mee, op, snaps) for mee, snaps in zip(engines, snapshots)]
        assert results[1:] == results[:1] * 2, op
        _agree(engines, ())
    _agree(engines, list(engines[0].written_lines()))


# --- the one-line path against the reference engine -----------------------------
#
# A call for one line, ``lines`` left at its default, takes the engine's
# one-line path; ``[0]`` spells the same call through the page loop.  Each
# case runs both spellings on an engine and on the reference engine from a
# page written whole at _P, and every result, error (type, line and
# message), counter, seal and open count and raw line agrees.

_ONE_LINE, _LOOP = (0,), [0]


def _exhaust_counter(mee, line: int, plaintext: bytes, sw: SwTweak) -> None:
    """Set ``line``'s counter one below the limit, as if the line had been
    sealed there with ``plaintext`` under ``sw``: in the engine its page's
    counter, which the record's line stands under, and in the reference
    engine a real seal under that counter."""
    counter = COUNTER_LIMIT - 1
    if isinstance(mee, ReferenceMee):
        ad = mee._ad(counter, sw.to_int(), sw.va_bits)
        mee.lines[line] = (*mee.aead.seal(mee.key, mee._nonce(line, counter), plaintext, ad),
                           counter)
    else:
        mee._pages[line & ~63].counters[line & 63] = counter


def _in_place_line_zero(mee, lines):
    yield mee.write(_P, bytes(reversed(PAGE_CONTENT)), _P_SW, lines)
    yield mee.read(_P, _P_SW, lines)
    yield mee.read(_P, _P_SW, range(64))


def _foreign_read_on_a_record(mee, lines):
    """Line 5 of the record under its own tweak with the sid's low bit
    flipped: the engine detaches the line, then fails on it."""
    yield mee.read(_P + 5, SwTweak.from_int(_P_INT + (5 << VOFFSET_SHIFT) ^ 1), lines)


def _read_at_another_address_width(mee, lines):
    """A record's line read under the same packed tweak at 39-bit
    addresses, which is another tweak."""
    packed = _sw(voffset=_P + 64, xrange=0).to_int()  # fits either width
    yield mee.write(_P + 64, PAGE_CONTENT, SwTweak.from_int(packed), range(64))
    yield mee.read(_P + 69, SwTweak.from_int(packed + (5 << VOFFSET_SHIFT)), lines)
    yield mee.read(_P + 69, SwTweak.from_int(packed + (5 << VOFFSET_SHIFT), 39), lines)


def _never_written_lines(mee, lines):
    yield mee.write(_P + 65, PAGE_CONTENT, _sw(voffset=1), lines)  # a page with no record
    yield mee.read(_P + 64, _sw(), lines)
    yield mee.read(_P + 128, _sw(), lines)  # no page at all
    yield mee.read(_P + 65, _sw(voffset=1), lines)


def _negative_line(mee, lines):
    yield mee.read(-1, _sw(), lines)


def _negative_line_write(mee, lines):
    yield mee.write(-1, PAGE_CONTENT[:LINE_BYTES], _sw(), lines)


def _line_at_the_limit(mee, lines):
    yield mee.read(LINE_LIMIT, _sw(), lines)


def _line_at_the_limit_write(mee, lines):
    yield mee.write(LINE_LIMIT, PAGE_CONTENT[:LINE_BYTES], _sw(), lines)


def _overflow_in_place(mee, lines):
    _exhaust_counter(mee, _P, PAGE_CONTENT[:LINE_BYTES], _P_SW)
    yield mee.read(_P, _P_SW, lines)
    yield mee.write(_P, bytes(LINE_BYTES), _P_SW, lines)


_ONE_LINE_CASES = [_in_place_line_zero, _foreign_read_on_a_record,
                   _read_at_another_address_width, _never_written_lines,
                   _negative_line, _negative_line_write, _line_at_the_limit,
                   _line_at_the_limit_write, _overflow_in_place]
_ERRORS = {_foreign_read_on_a_record: "AuthenticationError",
           _read_at_another_address_width: "AuthenticationError", _negative_line: "ValueError",
           _negative_line_write: "ValueError", _line_at_the_limit: "ValueError",
           _line_at_the_limit_write: "ValueError", _overflow_in_place: "CounterOverflow"}


def _outcome(steps):
    """The result of each of ``steps`` in order, ending with the error one
    of them stops at, if any: its type, the line it names and its
    message."""
    done = []
    try:
        for step in steps:
            done.append(step)
    except (AuthenticationError, CounterOverflow, ValueError) as exc:
        done.append((type(exc).__name__, getattr(exc, "line_index", None), str(exc)))
    return done


@pytest.mark.parametrize("lines", [_ONE_LINE, _LOOP], ids=["one-line", "page-loop"])
@pytest.mark.parametrize("case", _ONE_LINE_CASES, ids=lambda case: case.__name__.strip("_"))
def test_the_one_line_path_agrees_with_the_reference(case, lines):
    """Each case ends as expected, in a value or in its error, and the
    engine and the reference engine agree on every step and on the state
    it leaves."""
    engines = [Mee(KEY), ReferenceMee(KEY)]
    outcomes = []
    for mee in engines:
        mee.write(_P, PAGE_CONTENT, _P_SW, range(64))
        outcomes.append(_outcome(case(mee, lines)))
    assert outcomes[0] == outcomes[1]
    last = outcomes[0][-1]
    assert (last[0] if isinstance(last, tuple) else None) == _ERRORS.get(case)
    _agree(engines, list(engines[0].written_lines()))
    assert engines[0].read(_P, _P_SW, range(64)) == engines[1].read(_P, _P_SW, range(64))
