"""Software tweak composition and page-type classification.

Every memory access is bound to a software tweak assembled from CPU state:
a 3-bit range-membership bitmap, a line-granular virtual offset, the current
privilege level, seven page-table-entry bits and an 80-bit session
identifier.  For 48-bit virtual addresses that is 134 bits; the encryption
engine prepends its own 58-bit write counter for 192 bits total.

Serialized field order, most-significant first::

    counter[58] | xrange[3] | voffset[va_bits-6] | prv[2] | pte[7] | sid[80]

pte bit packing, most-significant first: rsw[2] u g r w x.

All functions here are pure; machine state enters only through an explicit
:class:`CsrFile` (defined in :mod:`servas_sim.machine`).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace

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


class PageType(enum.Enum):
    UNPROTECTED = "unprotected"
    REGULAR = "regular"
    SHENCLAVE = "shenclave"
    SHM = "shm"
    MONITOR = "monitor"


class Basis(enum.Enum):
    U = "u"
    S = "s"
    M = "m"
    NONE = "none"


class InvalidCombination(Exception):
    """Tweak field combination matches no row of the page-type table."""


class PrivilegeViolation(Exception):
    """Operation attempted below its required privilege level."""


def voffset_bits(va_bits: int) -> int:
    return va_bits - LINE_SHIFT


def sw_tweak_bits(va_bits: int) -> int:
    """Width of the software tweak half: 134 for 48-bit VAs, 125 for 39."""
    return XRANGE_BITS + voffset_bits(va_bits) + PRV_BITS + PTE_BITS + SID_BITS


def pack_pte_bits(r: bool, w: bool, x: bool, u: bool, g: bool, rsw: int) -> int:
    assert 0 <= rsw < 4
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


@dataclass(frozen=True)
class SwTweak:
    """The software-visible tweak half.  Immutable once composed."""

    xrange: int
    voffset: int
    prv: int
    pte: int
    sid: int
    va_bits: int = 48

    def __post_init__(self) -> None:
        vb = voffset_bits(self.va_bits)
        if not 0 <= self.xrange < (1 << XRANGE_BITS):
            raise ValueError("xrange bitmap out of range")
        if not 0 <= self.voffset < (1 << vb):
            raise ValueError("voffset out of range")
        if not 0 <= self.prv < (1 << PRV_BITS):
            raise ValueError("privilege field out of range")
        if not 0 <= self.pte < (1 << PTE_BITS):
            raise ValueError("pte bits out of range")
        if not 0 <= self.sid < (1 << SID_BITS):
            raise ValueError("sid out of range")

    @property
    def bit_width(self) -> int:
        return sw_tweak_bits(self.va_bits)

    @property
    def rsw(self) -> int:
        return (self.pte >> 5) & 0b11

    def to_int(self) -> int:
        vb = voffset_bits(self.va_bits)
        value = self.xrange
        value = (value << vb) | self.voffset
        value = (value << PRV_BITS) | self.prv
        value = (value << PTE_BITS) | self.pte
        value = (value << SID_BITS) | self.sid
        return value

    def to_bytes(self) -> bytes:
        return self.to_int().to_bytes((self.bit_width + 7) // 8, "big")

    @classmethod
    def from_int(cls, value: int, va_bits: int = 48) -> "SwTweak":
        vb = voffset_bits(va_bits)
        sid = value & SID_MASK
        value >>= SID_BITS
        pte = value & ((1 << PTE_BITS) - 1)
        value >>= PTE_BITS
        prv = value & ((1 << PRV_BITS) - 1)
        value >>= PRV_BITS
        voffset = value & ((1 << vb) - 1)
        value >>= vb
        return cls(xrange=value, voffset=voffset, prv=prv, pte=pte, sid=sid, va_bits=va_bits)


@dataclass(frozen=True)
class RangeReg:
    """A per-privilege virtual address range register (base + size)."""

    base: int = 0
    size: int = 0
    enabled: bool = False

    def validate(self, va_bits: int) -> None:
        line = 1 << LINE_SHIFT
        if self.base % line or self.size % line:
            raise ValueError("range base and size must be 64-byte aligned")
        if self.base >= (1 << va_bits) or self.base + self.size > (1 << va_bits):
            raise ValueError("range exceeds virtual address width")

    def contains(self, va: int) -> bool:
        return self.enabled and self.base <= va < self.base + self.size


@dataclass(frozen=True)
class TweakOverride:
    """M-mode replacement values for individual tweak fields.

    ``None`` leaves a field to the normal composition; the engine counter
    can never be overridden.  Load and store sides are separate registers.
    """

    xrange: int | None = None
    voffset: int | None = None
    prv: int | None = None
    pte: int | None = None
    sid: int | None = None

    @property
    def armed(self) -> bool:
        return any(v is not None for v in (self.xrange, self.voffset, self.prv, self.pte, self.sid))


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


def select_basis(bitmap: int) -> Basis:
    """Rightmost set bit wins: URANGE beats SRANGE beats MRANGE."""
    if bitmap & XR_U:
        return Basis.U
    if bitmap & XR_S:
        return Basis.S
    if bitmap & XR_M:
        return Basis.M
    return Basis.NONE


def compute_voffset(va: int, basis: Basis, base_of: dict[Basis, int], va_bits: int = 48) -> int:
    """Line-granular offset from the matched range base, or the absolute
    line index truncated to the field width when nothing matched."""
    mask = (1 << voffset_bits(va_bits)) - 1
    if basis is Basis.NONE:
        return (va >> LINE_SHIFT) & mask
    return ((va - base_of[basis]) >> LINE_SHIFT) & mask


def truncate_sid(sid0: int, sid1: int) -> int:
    """Low 80 bits of the sid1:sid0 concatenation (sid1 high)."""
    return ((sid1 << 64) | sid0) & SID_MASK


def select_sid(basis: Basis, rsw: int, sid_regs: dict[Basis, tuple[int, int]]) -> int:
    """Session identifier per the rsw select bits of the matched level."""
    if basis is Basis.NONE or rsw == 0b00:
        return 0
    sid0, sid1 = sid_regs[basis]
    if rsw == 0b01:
        return sid0 & SID_MASK
    if rsw == 0b10:
        return sid1 & SID_MASK
    return truncate_sid(sid0, sid1)


def apply_override(sw: SwTweak, override: TweakOverride | None) -> SwTweak:
    if override is None or not override.armed:
        return sw
    fields = {}
    for name in ("xrange", "voffset", "prv", "pte", "sid"):
        val = getattr(override, name)
        if val is not None:
            fields[name] = val
    return replace(sw, **fields)


def compose_sw_tweak(
    va: int,
    prv: int,
    pte: int,
    mrange: RangeReg,
    srange: RangeReg,
    urange: RangeReg,
    sid_regs: dict[Basis, tuple[int, int]],
    va_bits: int = 48,
    override: TweakOverride | None = None,
    override_prv: int | None = None,
) -> SwTweak:
    """Assemble the software tweak for one access.

    ``override_prv`` is the privilege level at which the override registers
    were armed; supplying an armed override from below M-mode faults.
    """
    armed = override is not None and override.armed
    if armed and (override_prv if override_prv is not None else prv) != PRV_M:
        raise PrivilegeViolation("tweak override requires M-mode")
    bitmap = match_ranges(va, mrange, srange, urange)
    basis = select_basis(bitmap)
    bases = {Basis.M: mrange.base, Basis.S: srange.base, Basis.U: urange.base}
    voffset = compute_voffset(va, basis, bases, va_bits)
    rsw = (pte >> 5) & 0b11
    sid = select_sid(basis, rsw, sid_regs)
    sw = SwTweak(xrange=bitmap, voffset=voffset, prv=prv, pte=pte, sid=sid, va_bits=va_bits)
    return apply_override(sw, override) if armed else sw


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


def classify_tweak(sw: SwTweak) -> PageType:
    return classify_page_type(sw.xrange, sw.prv, sw.pte, sw.rsw)
