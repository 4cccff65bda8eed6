"""Enclave image container: the binary an application hands to the monitor.

Layout (little-endian, version 1)::

    offset  size  field
    0       5     magic "SRVS1"
    5       1     version (1)
    6       1     flags (bit0 = payload is AEAD-wrapped)
    7       1     reserved (0)
    8       8     developer id
    16      4     entry offset (bytes from the region base)
    20      2     page count
    22      2     reserved (0)
    24      ...   payload, or nonce[12] + tag[16] + wrapped payload

    payload = page descriptors then page bodies
    descriptor (8 bytes): page index u32, perms u8 (r|w<<1|x<<2|u<<3|g<<4),
                          rsw u8, page type u8, pad
                          (the page type is stored as the rsw the type's
                          pages are sealed under: 1=regular 2=shenclave; a
                          type has one rsw, so the rsw byte repeats it, and
                          a descriptor whose two bytes differ is malformed)

The enclave identity is the hash of the canonical unwrapped serialization,
so wrapping for a particular machine never changes the identity.  Wrapped
payloads are sealed with AES-128-GCM under a developer key derived from
the per-CPU key; a wrong developer id therefore fails authentication, not
just a lookup.
"""

from __future__ import annotations

import enum
import hashlib
import struct
from dataclasses import dataclass, field
from pathlib import Path

from .aead import AeadAuthError, AesGcmAead
from .machine import PAGE_BYTES, perms_from_str
from .tweak import ENCLAVE_RSW, PageType

MAGIC = b"SRVS1"
VERSION = 1
FLAG_WRAPPED = 0x01
DEVELOPER_ID_BYTES = 8  # the header's developer id field; a shorter id is NUL-padded
HEADER = struct.Struct(f"<5sBBB{DEVELOPER_ID_BYTES}sIHH")
DESCRIPTOR = struct.Struct("<IBBBB")
WRAP_NONCE_LEN = 12
WRAP_TAG_LEN = 16


class FormatError(Exception):
    """The byte stream is not a valid enclave image."""


class ImageAuthFailure(Exception):
    """Unwrapping failed: tampered payload or wrong developer key."""


class InvalidImage(Exception):
    """Well-formed container with impossible page semantics."""


class ImagePageType(enum.Enum):
    """The page types an image declares, each valued (and stored in its
    descriptor) as the rsw its pages are sealed under."""

    REGULAR = ENCLAVE_RSW[PageType.REGULAR]
    SHENCLAVE = ENCLAVE_RSW[PageType.SHENCLAVE]


def pack_perm_byte(perms: dict[str, bool]) -> int:
    """The permission byte of image descriptors and monitor metadata:
    r|w<<1|x<<2|u<<3|g<<4 (a missing ``g`` reads as clear)."""
    return (perms["r"] | perms["w"] << 1 | perms["x"] << 2
            | perms["u"] << 3 | perms.get("g", False) << 4)


def unpack_perm_byte(byte: int) -> dict[str, bool]:
    return {"r": bool(byte & 1), "w": bool(byte & 2), "x": bool(byte & 4),
            "u": bool(byte & 8), "g": bool(byte & 16)}


@dataclass
class ImagePage:
    index: int
    perms: dict[str, bool]
    page_type: ImagePageType
    body: bytes

    def __post_init__(self) -> None:
        if len(self.body) != PAGE_BYTES:
            raise InvalidImage("page bodies are exactly 4096 bytes")

    @property
    def rsw(self) -> int:
        """The rsw the page is sealed under: its type's own."""
        return self.page_type.value


@dataclass
class EnclaveImage:
    developer_id: bytes
    entry_offset: int
    pages: list[ImagePage] = field(default_factory=list)

    def validate(self) -> None:
        if len(self.developer_id) > DEVELOPER_ID_BYTES:
            raise InvalidImage(f"developer id {self.developer_id!r:.40} is longer than "
                               f"{DEVELOPER_ID_BYTES} bytes")
        if not 0 <= self.entry_offset < 1 << 32 or len(self.pages) >= 1 << 16:
            raise InvalidImage("entry offset or page count does not fit the header")
        seen = set()
        entry_page = self.entry_offset // PAGE_BYTES
        entry_ok = False
        for page in self.pages:
            if not 0 <= page.index < 1 << 32:
                raise InvalidImage(f"page index {page.index} does not fit a descriptor")
            if page.index in seen:
                raise InvalidImage(f"page index {page.index} declared twice")
            seen.add(page.index)
            if page.page_type is ImagePageType.SHENCLAVE and page.perms["w"]:
                raise InvalidImage("shared enclave pages must be non-writable")
            if page.index == entry_page and page.perms["x"]:
                entry_ok = True
        if not entry_ok:
            raise InvalidImage("entry point must land in an executable page")

    @property
    def n_region_pages(self) -> int:
        return max(p.index for p in self.pages) + 1 if self.pages else 0

    # --- serialization ------------------------------------------------------

    def _payload(self) -> bytes:
        pages = sorted(self.pages, key=lambda p: p.index)
        blob = b"".join(
            DESCRIPTOR.pack(p.index, pack_perm_byte(p.perms), p.rsw, p.rsw, 0)
            for p in pages
        )
        return blob + b"".join(p.body for p in pages)

    def _header(self, flags: int) -> bytes:
        return HEADER.pack(MAGIC, VERSION, flags, 0, self.developer_id,
                           self.entry_offset, len(self.pages), 0)

    def pack(self) -> bytes:
        """Canonical unwrapped serialization (also the identity preimage)."""
        self.validate()
        return self._header(0) + self._payload()

    def encid(self) -> bytes:
        """256-bit identity hash of the decrypted image."""
        return hashlib.sha256(self.pack()).digest()

    def wrap(self, developer_key: bytes, nonce: bytes) -> bytes:
        """Sealed distribution form keyed to one developer on one machine."""
        self.validate()
        nonce = nonce[:WRAP_NONCE_LEN]
        ct, tag = AesGcmAead().seal(developer_key, nonce, self._payload(),
                                    self._header(FLAG_WRAPPED))
        return self._header(FLAG_WRAPPED) + nonce + tag + ct


def _parse_payload(developer_id: bytes, entry_offset: int, n_pages: int,
                   payload: bytes) -> EnclaveImage:
    need = n_pages * (DESCRIPTOR.size + PAGE_BYTES)
    if len(payload) != need:
        raise FormatError(f"payload is {len(payload)} bytes, expected {need}")
    pages = []
    bodies = payload[n_pages * DESCRIPTOR.size :]
    for i in range(n_pages):
        index, perms, rsw, ptype, _ = DESCRIPTOR.unpack_from(payload, i * DESCRIPTOR.size)
        try:
            page_type = ImagePageType(ptype)
        except ValueError:
            raise FormatError(f"unknown page type {ptype}") from None
        if rsw != ptype:
            raise FormatError("rsw bits disagree with the page type")
        pages.append(ImagePage(index, unpack_perm_byte(perms), page_type,
                               bodies[i * PAGE_BYTES : (i + 1) * PAGE_BYTES]))
    image = EnclaveImage(developer_id, entry_offset, pages)
    try:
        image.validate()
    except InvalidImage as exc:
        raise FormatError(str(exc)) from exc
    return image


def parse_header(data: bytes):
    if len(data) < HEADER.size:
        raise FormatError("truncated header")
    magic, version, flags, _, dev_id, entry, n_pages, _ = HEADER.unpack_from(data)
    if magic != MAGIC:
        raise FormatError("bad magic")
    if version != VERSION:
        raise FormatError(f"unsupported version {version}")
    return flags, dev_id, entry, n_pages


def load_enclave_image(data: bytes, developer_key: bytes | None = None) -> EnclaveImage:
    """Parse (and unwrap, when sealed) an image byte stream.

    Raises FormatError for malformed containers and ImageAuthFailure when a
    wrapped payload does not authenticate under the supplied developer key.
    """
    flags, dev_id, entry, n_pages = parse_header(data)
    body = data[HEADER.size :]
    if flags & FLAG_WRAPPED:
        if developer_key is None:
            raise ImageAuthFailure("image is wrapped but no developer key available")
        if len(body) < WRAP_NONCE_LEN + WRAP_TAG_LEN:
            raise FormatError("truncated wrapped payload")
        nonce = body[:WRAP_NONCE_LEN]
        tag = body[WRAP_NONCE_LEN : WRAP_NONCE_LEN + WRAP_TAG_LEN]
        header = HEADER.pack(MAGIC, VERSION, FLAG_WRAPPED, 0, dev_id, entry, n_pages, 0)
        try:
            payload = AesGcmAead().open(developer_key, nonce,
                                        body[WRAP_NONCE_LEN + WRAP_TAG_LEN :], tag, header)
        except AeadAuthError as exc:
            raise ImageAuthFailure("image payload failed authentication") from exc
    else:
        payload = body
    return _parse_payload(dev_id, entry, n_pages, payload)


def build_image(page_specs, entry_offset: int = 0,
                developer_id: bytes = b"devel-00") -> EnclaveImage:
    """Convenience builder from (index, 'rwx' string, type, body) tuples."""
    pages = []
    for index, perms, ptype, body in page_specs:
        flags = perms_from_str(perms)
        flags["u"] = True  # enclave pages are user-accessible by definition
        body = body.ljust(PAGE_BYTES, b"\x00")
        pages.append(ImagePage(index, flags, ptype, body))
    return EnclaveImage(developer_id, entry_offset, pages)


def _typed(value, kind: type, what: str):
    """``value``, which must be a ``kind`` (and not a bool)."""
    if not isinstance(value, kind) or isinstance(value, bool):
        raise ValueError(f"{what} must be {kind.__name__}, got {value!r:.80}")
    return value


def image_from_manifest(manifest: dict, files: Path | None = None) -> EnclaveImage:
    """Build an image from its JSON manifest (the ``image pack`` input and
    the scenario image spec).  A page body is ``fill`` hex repeated to the
    page size (none: zeros) or, when ``files`` is given, the ``file`` it
    names in that directory.  A missing or mistyped field is a ValueError
    that names it."""
    _typed(manifest, dict, "a manifest")
    pages = []
    for p in _typed(manifest.get("pages"), list, "manifest pages"):
        _typed(p, dict, "a manifest page")
        if files is not None and "file" in p:
            body = (files / _typed(p["file"], str, "page file")).read_bytes()
        else:
            fill = bytes.fromhex(_typed(p.get("fill", ""), str, "page fill"))
            body = (fill * (PAGE_BYTES // max(len(fill), 1) + 1))[:PAGE_BYTES]
        page_type = ImagePageType.__members__.get(_typed(p.get("type"), str, "page type").upper())
        if page_type is None:
            raise ValueError(f"unknown page type {p['type']!r}")
        pages.append((_typed(p.get("index"), int, "page index"),
                      _typed(p.get("perms"), str, "page perms"), page_type, body))
    return build_image(
        pages, entry_offset=_typed(manifest.get("entry_offset", 0), int, "manifest entry_offset"),
        developer_id=_typed(manifest.get("developer_id", "devel-00"), str,
                            "manifest developer_id").encode())
