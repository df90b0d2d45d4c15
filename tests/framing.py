"""Raw length-prefixed framing, for tests that hand a decoder bytes no
record would encode: a field of the wrong length, a short certificate."""

from gridtrade.crypto import _lp, _Reader


def encode_fields(tag: int, fields) -> bytes:
    """A tag byte, then each field length-prefixed as in the canonical encoding."""
    return bytes([tag]) + b"".join(_lp(value) for value in fields)


def decode_fields(data: bytes, count: int) -> list:
    """The ``count`` length-prefixed fields after the tag byte of ``data``."""
    r = _Reader(data, 1)
    fields = [r.field() for _ in range(count)]
    r.done()
    return fields
