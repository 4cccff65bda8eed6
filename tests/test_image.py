"""Enclave image container: serialization, validation, wrapping."""

import hashlib

import pytest

from conftest import std_image

from servas_sim.cli import main
from servas_sim.image import (
    HEADER,
    FormatError,
    ImageAuthFailure,
    ImagePageType,
    InvalidImage,
    build_image,
    load_enclave_image,
)

DEV_KEY = bytes(range(16))
NONCE = bytes(12)


def _image(n_data=1):
    pages = [(0, "rx", ImagePageType.SHENCLAVE, b"\x13\x05" * 2048)]
    for j in range(n_data):
        pages.append((1 + j, "rw", ImagePageType.REGULAR, bytes([j]) * 4096))
    return build_image(pages, entry_offset=0x40)


def test_pack_parse_roundtrip():
    image = _image(2)
    parsed = load_enclave_image(image.pack())
    assert parsed.entry_offset == 0x40
    assert parsed.developer_id == image.developer_id
    assert [(p.index, p.page_type, p.rsw) for p in parsed.pages] == \
        [(p.index, p.page_type, p.rsw) for p in image.pages]
    assert all(a.body == b.body for a, b in zip(parsed.pages, image.pages))
    assert parsed.encid() == image.encid()


def test_std_image_golden_bytes():
    """Pinned canonical serialization (the identity preimage) of the
    standard test image."""
    assert hashlib.sha256(std_image().pack()).hexdigest() == \
        "bd8d30878ca7d31f67958dee13322ddf27a203c999182f9cbc52772271e4b5d2"


def test_truncated_file_rejected():
    blob = _image().pack()
    with pytest.raises(FormatError):
        load_enclave_image(blob[:40])
    with pytest.raises(FormatError):
        load_enclave_image(blob[:-100])
    with pytest.raises(FormatError):
        load_enclave_image(b"NOPE" + blob[4:])


def test_writable_shared_code_page_rejected():
    with pytest.raises(InvalidImage):
        build_image([(0, "rwx", ImagePageType.SHENCLAVE, b"")]).validate()


def test_entry_point_must_be_executable():
    with pytest.raises(InvalidImage):
        build_image([(0, "rw", ImagePageType.REGULAR, b"")], entry_offset=0).validate()


def test_duplicate_page_index_rejected():
    image = build_image([(0, "rx", ImagePageType.SHENCLAVE, b"a"),
                         (0, "rw", ImagePageType.REGULAR, b"b")])
    with pytest.raises(InvalidImage):
        image.validate()


@pytest.mark.parametrize("extra, entry_offset", [
    ((-5, "rw", ImagePageType.REGULAR, b""), 0x40),
    ((1 << 32, "rw", ImagePageType.REGULAR, b""), 0x40),
    ((1 << 20, "rx", ImagePageType.SHENCLAVE, b""), 1 << 32),  # an entry page exists
], ids=["negative-index", "index-past-32-bits", "entry-past-32-bits"])
def test_fields_the_container_cannot_hold_are_invalid(extra, entry_offset):
    """Refused by ``validate``, so before packing, not as a struct error."""
    image = _image()
    image.entry_offset = entry_offset
    image.pages.append(build_image([extra]).pages[0])
    with pytest.raises(InvalidImage):
        image.pack()


def test_rsw_must_match_page_type(tmp_path):
    """A descriptor stores its page type twice, as its rsw byte (5) and its
    type byte (6); a packed image whose two bytes disagree is malformed, and
    ``image unpack`` exits 2 on it."""
    good = _image().pack()
    assert good[HEADER.size + 5] == good[HEADER.size + 6] == ImagePageType.SHENCLAVE.value
    for offset in (5, 6):  # of the shared page's descriptor, the first
        blob = bytearray(good)
        blob[HEADER.size + offset] = ImagePageType.REGULAR.value
        with pytest.raises(FormatError, match="rsw bits disagree"):
            load_enclave_image(bytes(blob))
        img = tmp_path / "bad.img"
        img.write_bytes(blob)
        assert main(["image", "unpack", "--image", str(img), "--out", str(tmp_path / "out")]) == 2


def test_wrap_roundtrip():
    image = _image()
    blob = image.wrap(DEV_KEY, NONCE)
    parsed = load_enclave_image(blob, developer_key=DEV_KEY)
    assert parsed.encid() == image.encid()


def test_wrap_identity_stable():
    """Wrapping never changes the enclave identity hash."""
    image = _image()
    wrapped = load_enclave_image(image.wrap(DEV_KEY, NONCE), developer_key=DEV_KEY)
    assert wrapped.encid() == load_enclave_image(image.pack()).encid()


def test_tampered_wrapped_image_rejected():
    blob = bytearray(_image().wrap(DEV_KEY, NONCE))
    blob[60] ^= 0x01  # one ciphertext bit
    with pytest.raises(ImageAuthFailure):
        load_enclave_image(bytes(blob), developer_key=DEV_KEY)


def test_wrong_developer_key_rejected():
    blob = _image().wrap(DEV_KEY, NONCE)
    with pytest.raises(ImageAuthFailure):
        load_enclave_image(blob, developer_key=bytes(16))
    with pytest.raises(ImageAuthFailure):
        load_enclave_image(blob)  # wrapped but no key at all


def test_a_developer_id_longer_than_its_header_field_is_refused():
    """The header holds 8 bytes of developer id.  Two ids that share their
    first 8 bytes are refused, not truncated into one enclave identity."""
    pages = [(0, "rx", ImagePageType.SHENCLAVE, b"")]
    for dev in (b"acme-developer-one", b"acme-developer-two"):
        image = build_image(pages, developer_id=dev)
        for call in (image.validate, image.encid, image.pack):
            with pytest.raises(InvalidImage, match="longer than 8 bytes"):
                call()
    assert build_image(pages, developer_id=b"acme-dev").encid() != \
        build_image(pages, developer_id=b"acme-de2").encid()

