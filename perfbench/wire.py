"""The `commlat serve` wire protocol, written from its documented grammar
(lib/server/wire.ml) so the harness needs only the binary.

Every frame is a 4-byte big-endian payload length followed by the payload.
Requests: 0x01 Invoke (id:i64 adt:str8 meth:str8 argc:u8 value*), 0x02 Stats,
0x03 Quit, 0x04 Ping (each id:i64).  Responses: 0x01 Reply (id:i64 value),
0x02 Err (id:i64 msg:str32).  Only the value tags the benchmark sends or
checks are decoded: Unit, Int, Str and Opt.
"""

import struct

REPLY, ERR = 0x01, 0x02
U32 = struct.Struct(">I")
I64 = struct.Struct(">q")


class Malformed(Exception):
    pass


def invoke_template(adt, meth, arity):
    """A framed Invoke with [arity] Int arguments, every number zero.
    Returns (frame bytes, offset of the id, offsets of the argument ints);
    callers patch the numbers in with I64.pack_into."""
    a, m = adt.encode(), meth.encode()
    head = bytes([0x01]) + bytes(8) + bytes([len(a)]) + a + bytes([len(m)]) + m + bytes([arity])
    payload = head + (b"\x02" + bytes(8)) * arity
    return U32.pack(len(payload)) + payload, 5, [4 + len(head) + 1 + 9 * j for j in range(arity)]


def control(tag, rid):
    return U32.pack(9) + bytes([tag]) + I64.pack(rid)


def stats_req(rid):
    return control(0x02, rid)


def quit_req(rid):
    return control(0x03, rid)


def ping_req(rid):
    return control(0x04, rid)


def value(buf, off):
    """Decode the value at [off]; returns (python value, next offset).
    Unit is None, Opt is () or a 1-tuple, Str is bytes."""
    if off >= len(buf):
        raise Malformed("truncated value")
    tag = buf[off]
    if tag == 0x00:
        return None, off + 1
    if tag == 0x02:
        return I64.unpack_from(buf, off + 1)[0], off + 9
    if tag == 0x04:
        n = U32.unpack_from(buf, off + 1)[0]
        return bytes(buf[off + 5:off + 5 + n]), off + 5 + n
    if tag == 0x07:
        if buf[off + 1] == 0:
            return (), off + 2
        v, nxt = value(buf, off + 2)
        return (v,), nxt
    raise Malformed("value tag %#x" % tag)


def response(payload):
    """Decode one response payload into (tag, id, value or error message)."""
    try:
        tag = payload[0]
        rid = I64.unpack_from(payload, 1)[0]
        if tag == REPLY:
            v, end = value(payload, 9)
        elif tag == ERR:
            n = U32.unpack_from(payload, 9)[0]
            v, end = bytes(payload[13:13 + n]).decode("utf-8", "replace"), 13 + n
        else:
            raise Malformed("response tag %#x" % tag)
    except (IndexError, struct.error) as e:
        raise Malformed("truncated response: %s" % e)
    if end != len(payload):
        raise Malformed("%d trailing bytes" % (len(payload) - end))
    return tag, rid, v


def payloads(buf):
    """The payloads of the complete frames at the start of [buf], and the
    offset where the first incomplete frame begins."""
    out, off, n = [], 0, len(buf)
    while off + 4 <= n:
        end = off + 4 + U32.unpack_from(buf, off)[0]
        if end > n:
            break
        out.append(buf[off + 4:end])
        off = end
    return out, off
