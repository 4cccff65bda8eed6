"""Software tweak composition and page-type classification.

Every memory access is bound to a software tweak assembled from CPU state:
a 3-bit range-membership bitmap, a line-granular virtual offset, the current
privilege level, seven page-table-entry bits and an 80-bit session
identifier.  For 48-bit virtual addresses that is 134 bits; the encryption
engine prepends its own 58-bit write counter for 192 bits total.

Serialized field order, most-significant first::

    counter[58] | xrange[3] | voffset[va_bits-6] | prv[2] | pte[7] | sid[80]

pte bit packing, most-significant first: rsw[2] u g r w x.

A :class:`SwTweak` is that packed integer (without the counter) plus the
VA width, and nothing else: composition writes the integer directly, the
cache tags lines with it and the engine serializes it as it is.  The
field properties shift it apart only for callers that ask.  Because prv
and pte are adjacent, the three fields that decide the page type --
xrange, prv and pte -- form a 12-bit key; :func:`classify_tweak` looks it
up in a table that fills itself on first use of each key from
:func:`classify_page_type`, which stays the one statement of the rules.
The table is not built at import (all 4,096 keys cost milliseconds that
every process would pay); a run fills the few keys it uses.

The tweak's own bits carry the policy, so nothing here restates it in
another vocabulary.  The xrange bit names the matched range: :data:`XR_U`,
:data:`XR_S` or :data:`XR_M`, the rightmost set bit of the bitmap, 0 when
none matched.  It picks the base the voffset counts from and keys the sid
registers.  The rsw bits name the enclave page type a line is sealed as,
one rsw per type (:data:`ENCLAVE_RSW`).

All functions here are pure; machine state enters only through an explicit
:class:`CsrFile` (defined in :mod:`servas_sim.machine`).
"""

from __future__ import annotations

import enum
import functools
from dataclasses import FrozenInstanceError, dataclass

XRANGE_BITS = 3
PRV_BITS = 2
PTE_BITS = 7
SID_BITS = 80
LINE_SHIFT = 6  # 64-byte lines

PRV_U = 0b00
PRV_S = 0b01
PRV_M = 0b11

# xrange bitmap positions (bit0 = URANGE is the highest-precedence match)
XR_U = 0b001
XR_S = 0b010
XR_M = 0b100

SID_MASK = (1 << SID_BITS) - 1

# Bit positions in the packed value, counted from the sid's least
# significant bit.  prv and pte are adjacent, so (prv, pte) is one 9-bit
# field; xrange sits above the voffset.
_PTE_SHIFT = SID_BITS
_PRV_SHIFT = _PTE_SHIFT + PTE_BITS
VOFFSET_SHIFT = _PRV_SHIFT + PRV_BITS  # one line step in the packed value
_PRV_PTE_MASK = (1 << (PRV_BITS + PTE_BITS)) - 1


class PageType(enum.Enum):
    UNPROTECTED = "unprotected"
    REGULAR = "regular"
    SHENCLAVE = "shenclave"
    SHM = "shm"
    MONITOR = "monitor"


class InvalidCombination(Exception):
    """Tweak field combination matches no row of the page-type table."""


def voffset_bits(va_bits: int) -> int:
    return va_bits - LINE_SHIFT


def sw_tweak_bits(va_bits: int) -> int:
    """Width of the software tweak half: 134 for 48-bit VAs, 125 for 39."""
    return XRANGE_BITS + voffset_bits(va_bits) + PRV_BITS + PTE_BITS + SID_BITS


def pack_pte_bits(r: bool, w: bool, x: bool, u: bool, g: bool, rsw: int) -> int:
    if not 0 <= rsw < 4:
        raise ValueError(f"rsw {rsw} is not a 2-bit field")
    return (rsw << 5) | (u << 4) | (g << 3) | (r << 2) | (w << 1) | int(x)


def unpack_pte_bits(pte: int) -> dict[str, int]:
    return {
        "rsw": (pte >> 5) & 0b11,
        "u": (pte >> 4) & 1,
        "g": (pte >> 3) & 1,
        "r": (pte >> 2) & 1,
        "w": (pte >> 1) & 1,
        "x": pte & 1,
    }


class SwTweak:
    """The software-visible tweak half: the packed integer ``value`` (also
    :meth:`to_int`, for callers that want a method) and the VA width.

    Immutable.  The public constructor checks every field; composition and
    :meth:`from_int` build the value directly.  The access path reads
    ``value`` as a plain slot, with no call.
    """

    __slots__ = ("value", "va_bits")

    def __init__(self, xrange: int, voffset: int, prv: int, pte: int, sid: int,
                 va_bits: int = 48) -> None:
        vb = voffset_bits(va_bits)
        if not 0 <= xrange < (1 << XRANGE_BITS):
            raise ValueError("xrange bitmap out of range")
        if not 0 <= voffset < (1 << vb):
            raise ValueError("voffset out of range")
        if not 0 <= prv < (1 << PRV_BITS):
            raise ValueError("privilege field out of range")
        if not 0 <= pte < (1 << PTE_BITS):
            raise ValueError("pte bits out of range")
        if not 0 <= sid < (1 << SID_BITS):
            raise ValueError("sid out of range")
        value = (((xrange << vb | voffset) << PRV_BITS | prv) << PTE_BITS | pte) << SID_BITS | sid
        _set_value(self, value)
        _set_va_bits(self, va_bits)

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not SwTweak:
            return NotImplemented
        return self.value == other.value and self.va_bits == other.va_bits

    def __hash__(self) -> int:
        return hash((self.value, self.va_bits))

    def __repr__(self) -> str:
        return (f"SwTweak(xrange={self.xrange}, voffset={self.voffset}, prv={self.prv}, "
                f"pte={self.pte}, sid={self.sid}, va_bits={self.va_bits})")

    def __reduce__(self):
        return SwTweak.from_int, (self.value, self.va_bits)

    @property
    def xrange(self) -> int:
        return self.value >> (VOFFSET_SHIFT + self.va_bits - LINE_SHIFT)

    @property
    def voffset(self) -> int:
        return (self.value >> VOFFSET_SHIFT) & ((1 << voffset_bits(self.va_bits)) - 1)

    @property
    def prv(self) -> int:
        return (self.value >> _PRV_SHIFT) & ((1 << PRV_BITS) - 1)

    @property
    def pte(self) -> int:
        return (self.value >> _PTE_SHIFT) & ((1 << PTE_BITS) - 1)

    @property
    def sid(self) -> int:
        return self.value & SID_MASK

    @property
    def bit_width(self) -> int:
        return sw_tweak_bits(self.va_bits)

    @property
    def rsw(self) -> int:
        return (self.value >> (_PTE_SHIFT + 5)) & 0b11

    def to_int(self) -> int:
        return self.value

    def to_bytes(self) -> bytes:
        return self.value.to_bytes((self.bit_width + 7) // 8, "big")

    @classmethod
    def from_int(cls, value: int, va_bits: int = 48) -> "SwTweak":
        if not 0 <= value < (1 << sw_tweak_bits(va_bits)):
            raise ValueError(f"tweak value out of range for {va_bits}-bit addresses")
        return _packed(value, va_bits)


_set_value = SwTweak.value.__set__
_set_va_bits = SwTweak.va_bits.__set__


def _packed(value: int, va_bits: int) -> SwTweak:
    """A tweak from its packed value, which the caller built in range."""
    sw = object.__new__(SwTweak)
    _set_value(sw, value)
    _set_va_bits(sw, va_bits)
    return sw


@dataclass(frozen=True)
class RangeReg:
    """A per-privilege virtual address range register (base + size)."""

    base: int = 0
    size: int = 0
    enabled: bool = False

    def validate(self, va_bits: int) -> None:
        line = 1 << LINE_SHIFT
        if not (isinstance(self.base, int) and isinstance(self.size, int)):
            raise ValueError("range base and size must be integers")
        if not isinstance(self.enabled, bool):
            raise ValueError(f"range enabled must be a bool, got {self.enabled!r:.40}")
        if self.base < 0 or self.size < 0:
            raise ValueError("range base and size must not be negative")
        if self.base % line or self.size % line:
            raise ValueError("range base and size must be 64-byte aligned")
        if self.base >= (1 << va_bits) or self.base + self.size > (1 << va_bits):
            raise ValueError("range exceeds virtual address width")

    def contains(self, va: int) -> bool:
        return self.enabled and self.base <= va < self.base + self.size


def match_ranges(va: int, mrange: RangeReg, srange: RangeReg, urange: RangeReg) -> int:
    """Bitmap of enabled ranges containing ``va``; several bits may be set."""
    bitmap = 0
    if urange.contains(va):
        bitmap |= XR_U
    if srange.contains(va):
        bitmap |= XR_S
    if mrange.contains(va):
        bitmap |= XR_M
    return bitmap


def select_basis(bitmap: int) -> int:
    """The matched range's xrange bit, 0 for none: the rightmost set bit
    wins, so URANGE beats SRANGE beats MRANGE."""
    return bitmap & -bitmap


def compute_voffset(va: int, basis: int, base_of: dict[int, int], va_bits: int = 48) -> int:
    """Line-granular offset from the base of the range whose xrange bit is
    ``basis``, or the absolute line index truncated to the field width when
    nothing matched."""
    mask = (1 << voffset_bits(va_bits)) - 1
    if not basis:
        return (va >> LINE_SHIFT) & mask
    return ((va - base_of[basis]) >> LINE_SHIFT) & mask


def truncate_sid(sid0: int, sid1: int) -> int:
    """Low 80 bits of the sid1:sid0 concatenation (sid1 high)."""
    return ((sid1 << 64) | sid0) & SID_MASK


def select_sid(basis: int, rsw: int, sid_regs: dict[int, tuple[int, int]]) -> int:
    """Session identifier per the rsw select bits, from the (sid0, sid1)
    pair keyed by the matched range's xrange bit ``basis``."""
    if not basis or rsw == 0b00:
        return 0
    sid0, sid1 = sid_regs[basis]
    if rsw == 0b01:
        return sid0 & SID_MASK
    if rsw == 0b10:
        return sid1 & SID_MASK
    return truncate_sid(sid0, sid1)


def compose_sw_tweak(
    va: int,
    prv: int,
    pte: int,
    mrange: RangeReg,
    srange: RangeReg,
    urange: RangeReg,
    sid_regs: dict[int, tuple[int, int]],
    va_bits: int = 48,
) -> SwTweak:
    """Assemble the software tweak for one access, straight into its packed
    value: the fields :func:`match_ranges`, :func:`select_basis`,
    :func:`compute_voffset` and :func:`select_sid` give, without the
    per-call base dict.  ``sid_regs`` maps each range's xrange bit to its
    (sid0, sid1) pair.
    """
    if prv >> PRV_BITS:  # also true for a negative value
        raise ValueError("privilege field out of range")
    if pte >> PTE_BITS:
        raise ValueError("pte bits out of range")
    xrange = match_ranges(va, mrange, srange, urange)
    basis = xrange & -xrange
    vb = va_bits - LINE_SHIFT
    if basis:
        base = (urange if basis == XR_U else srange if basis == XR_S else mrange).base
        voffset = ((va - base) >> LINE_SHIFT) & ((1 << vb) - 1)
        sid = select_sid(basis, pte >> 5, sid_regs)
    else:
        voffset = (va >> LINE_SHIFT) & ((1 << vb) - 1)
        sid = 0
    value = (((xrange << vb | voffset) << PRV_BITS | prv) << PTE_BITS | pte) << SID_BITS | sid
    return _packed(value, va_bits)


# The rsw each enclave page type is sealed under, as the table below reads
# it.  Monitor metadata and image descriptors store a page type as this code.
ENCLAVE_RSW = {PageType.REGULAR: 0b01, PageType.SHENCLAVE: 0b10, PageType.SHM: 0b11}


def classify_page_type(xrange: int, prv: int, pte: int, rsw: int | None = None) -> PageType:
    """Decision-table classification of one composed tweak.

    Rows, in match order (the M-mode metadata row shadows the no-range row):

    ======  ===  =======  ====  ===========
    xrange  PRV  PTE      rsw   type
    ======  ===  =======  ====  ===========
    any     M    r and w  any   MONITOR
    000     any  any      any   UNPROTECTED
    100     U    any      01    REGULAR
    100     U    not w    10    SHENCLAVE
    001     U    not x    11    SHM
    ======  ===  =======  ====  ===========

    Anything else raises :class:`InvalidCombination`.
    """
    bits = unpack_pte_bits(pte)
    if rsw is None:
        rsw = bits["rsw"]
    if prv == PRV_M and bits["r"] and bits["w"]:
        return PageType.MONITOR
    if xrange == 0:
        return PageType.UNPROTECTED
    if prv == PRV_U and xrange == XR_M:
        if rsw == 0b01:
            return PageType.REGULAR
        if rsw == 0b10:
            if bits["w"]:
                raise InvalidCombination("shared enclave pages must be non-writable")
            return PageType.SHENCLAVE
    if prv == PRV_U and xrange == XR_U and rsw == 0b11:
        if bits["x"]:
            raise InvalidCombination("shared data pages can never be executable")
        return PageType.SHM
    raise InvalidCombination(
        f"no page type for xrange={xrange:03b} prv={prv:02b} pte={pte:07b} rsw={rsw:02b}"
    )


@functools.cache
def _classify_key(key: int) -> PageType | str:
    """One entry of the classification table: the page type of the 12-bit
    key ``xrange | prv | pte``, or the text of its InvalidCombination."""
    try:
        return classify_page_type(key >> (PRV_BITS + PTE_BITS), key >> PTE_BITS & 0b11,
                                  key & ((1 << PTE_BITS) - 1))
    except InvalidCombination as exc:
        return str(exc)


def classify_tweak(sw: SwTweak) -> PageType:
    """:func:`classify_page_type` of a composed tweak, through a table keyed
    by its (xrange, prv, pte) bits and filled on first use of each key."""
    value = sw.value
    key = (value >> (VOFFSET_SHIFT + sw.va_bits - LINE_SHIFT) << (PRV_BITS + PTE_BITS)
           | value >> _PTE_SHIFT & _PRV_PTE_MASK)
    found = _classify_key(key)
    if found.__class__ is PageType:
        return found
    raise InvalidCombination(found)
