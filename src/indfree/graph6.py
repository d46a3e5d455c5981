"""graph6 text interchange, orders 0 to 64.

Layout per the published format: the order, then the upper-triangle
adjacency bits in column order (0-1, 0-2, 1-2, 0-3, ...) packed six per
byte, most significant first, each byte offset by 63. Orders up to 62
take one byte n+63; orders 63 and 64 take the long form, byte 126 and
then n as 18 bits in three such bytes. Decoding is strict: bad length,
bytes outside the printable range, nonzero padding and a long form for an
order that fits one byte raise ParseError carrying the byte offset; an
order above 64 raises CapacityError.

The body goes through the base64 codec in ``binascii``. base64 also packs
a bit string six bits per character, most significant first, and only its
alphabet differs: value k is the k-th of A-Z, a-z, 0-9, +, / where graph6
writes chr(63 + k). So encoding pads the bit string with zeros to a whole
number of base64 groups (24 bits), encodes, translates the alphabet to
bytes 63..126 and cuts the characters that hold only padding; decoding
runs the same steps backwards. The text is byte-identical to packing the
bits one at a time.

Both directions hold the bit stream as one integer read backwards, the
first bit lowest, so that column v (bits u = 0..v-1 of row v) starts at
bit v(v-1)/2. The base64 bytes carry the stream first bit first, most
significant first; reversing the bits of every byte through a 256-entry
table and reading the bytes little-endian turns one into the other.
Decoding cuts each column out as the lower part of its row and packs the
n rows, 64 bits apiece, into one integer: an n x 64 bit matrix holding
the graph's lower triangle. Its transpose is the upper triangle, taken
by rounds that swap the off-diagonal blocks of side 32, 16, ..., 1 with
one mask, shift and xor each, skipping those of side n or more, which
would move nothing. The two ORed together unpack into the rows as
little-endian 64-bit words.
"""

from __future__ import annotations

from binascii import a2b_base64, b2a_base64
from struct import pack, unpack

from .errors import CapacityError, ParseError, byte_offset
from .graphs import MAX_ORDER, Graph

_SHORT_MAX = 62
_B64 = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
_G6 = bytes(range(63, 127))
_TO_G6 = bytes.maketrans(_B64, _G6)
_FROM_G6 = bytes.maketrans(_G6, _B64)
# byte b with its eight bits in reverse order, from the nibbles reversed
_NIBBLE = (0, 8, 4, 12, 2, 10, 6, 14, 1, 9, 5, 13, 3, 11, 7, 15)
_REVERSE = bytes([_NIBBLE[b & 15] << 4 | _NIBBLE[b >> 4] for b in range(256)])


def _round(s: int) -> tuple[int, int]:
    """One transpose round: the shift from bit 64r + c to its partner
    (r + s, c - s), and the mask of the lower bit of each pair, the bits
    (r, c) with bit s of r clear and bit s of c set."""
    # columns: s ones above s zeros, repeated; rows: s of that word, s of zeros
    word = ((1 << 64) - 1) // ((1 << 2 * s) - 1) * ((1 << s) - 1 << s)
    rows = (word.to_bytes(8, "little") * s + bytes(8 * s)) * (32 // s)
    return 63 * s, int.from_bytes(rows, "little")


_ROUNDS = tuple([_round(s) for s in (32, 16, 8, 4, 2, 1)])
# column v of the stream: its offset v(v-1)/2 and the mask of its v bits
_COLUMNS = tuple([(v * (v - 1) // 2, (1 << v) - 1) for v in range(MAX_ORDER + 1)])


def encode_graph6(g: Graph) -> str:
    n = g.order
    if n > MAX_ORDER:
        raise CapacityError(f"graph6 order {n} exceeds the cap of {MAX_ORDER} vertices")
    if n <= _SHORT_MAX:
        head = chr(n + 63)
    else:
        head = "~" + "".join([chr((n >> s & 63) + 63) for s in (12, 6, 0)])
    nbits = n * (n - 1) // 2
    back = 0
    for row, (offset, mask) in zip(g.rows, _COLUMNS):
        back |= (row & mask) << offset
    # whole base64 groups of 24 bits, the stream first bit first
    data = back.to_bytes(-(-nbits // 24) * 3, "little").translate(_REVERSE)
    body = b2a_base64(data, newline=False).translate(_TO_G6)
    return head + body[: (nbits + 5) // 6].decode("ascii")


def _decode_order(text: str) -> tuple[int, int]:
    """Order and header length of a non-empty graph6 string."""
    head = ord(text[0])
    if 63 <= head < 126:
        return head - 63, 1
    if head != 126:
        raise ParseError(f"invalid graph6 order byte {text[0]!r}", 0)
    if text[1:2] == "~":
        raise CapacityError(f"graph6 order above 258047 exceeds the cap of {MAX_ORDER} vertices")
    if len(text) < 4:
        raise ParseError("truncated graph6 long-form order", 0)
    n = 0
    for pos in range(1, 4):
        b = ord(text[pos])
        if not 63 <= b <= 126:
            raise ParseError(f"invalid graph6 order byte {text[pos]!r}", pos)
        n = n << 6 | (b - 63)
    if n <= _SHORT_MAX:
        raise ParseError(f"graph6 long form is not canonical for order {n}", 0)
    if n > MAX_ORDER:
        raise CapacityError(f"graph6 order {n} exceeds the cap of {MAX_ORDER} vertices")
    return n, 4


def decode_graph6(text: str) -> Graph:
    if not text:
        raise ParseError("empty graph6 string", 0)
    n, pos = _decode_order(text)
    nbits = n * (n - 1) // 2
    need = pos + (nbits + 5) // 6
    if len(text) != need:
        # the only error that may have non-ASCII text before its offset
        raise ParseError(
            f"graph6 string for order {n} needs {need} bytes, got {byte_offset(text, len(text))}",
            byte_offset(text, min(len(text), need)),
        )
    body = text[pos:]
    # deleting the bytes 63..126 leaves the bad ones; only then find the first
    if not body.isascii() or body.encode("ascii").translate(None, _G6):
        bad = next(i for i, c in enumerate(body) if not "?" <= c <= "~")
        raise ParseError(f"invalid graph6 byte {body[bad]!r}", pos + bad)
    data = body.encode("ascii").translate(_FROM_G6)
    data += b"A" * (-len(data) % 4)
    back = int.from_bytes(a2b_base64(data).translate(_REVERSE), "little")
    if back >> nbits:
        raise ParseError("nonzero padding bits", need - 1)
    form = "<%dQ" % n
    low = int.from_bytes(pack(form, *[back >> offset & mask for offset, mask in _COLUMNS[:n]]), "little")
    return Graph(n, unpack(form, (low | _transpose(low, n)).to_bytes(8 * n, "little")))


def _transpose(m: int, n: int) -> int:
    """The transpose of an n x n bit matrix, n <= 64, bit 64r + c holding
    (r, c). Rounds with blocks of side n or more would move no bit."""
    for shift, mask in _ROUNDS[6 - max(n - 1, 0).bit_length() :]:
        t = (m ^ m >> shift) & mask
        m ^= t | t << shift
    return m


def encode_graph6_list(graphs) -> str:
    """Newline-delimited graph6, one graph per line, trailing newline."""
    return "".join(encode_graph6(g) + "\n" for g in graphs)


def decode_graph6_list(text: str) -> list[Graph]:
    """Parse newline-delimited graph6; blank lines are skipped.

    ParseError offsets count UTF-8 bytes of the whole input as typed,
    blanks around a line included.
    """
    out = []
    start = 0
    for line in text.split("\n"):
        if line.strip():
            out.append(_decode_typed(text, start, start + len(line)))
        start += len(line) + 1
    return out


def _decode_typed(text: str, start: int = 0, end: int | None = None) -> Graph:
    """decode_graph6 of text[start:end] with its blanks stripped, its
    ParseError offsets counting the UTF-8 bytes of text as typed."""
    part = text[start:end]
    try:
        return decode_graph6(part.strip())
    except ParseError as e:
        lead = len(part) - len(part.lstrip())
        raise ParseError(e.message, byte_offset(text, start + lead) + e.offset)
