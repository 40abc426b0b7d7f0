"""Print the ziggurat table literal of `monephase.normal`, read from the installed numpy.

    python3 scripts/ziggurat_tables.py [ARCHIVE]

numpy's `random_standard_normal` reads three 256-entry tables: `ki_double`
(uint64), `wi_double` and `fi_double` (double). They sit in the `.rodata`
of the member `src_distributions_distributions.c.o` of the static archive
`numpy/random/lib/libnpyrandom.a`, which numpy installs for C extensions.
This script finds the three symbols in that ELF object's symbol table and
prints their 6,144 bytes, in the order ki, wi, fi, as the base64 literal
that `normal.py` decodes. ARCHIVE defaults to the installed numpy's; only
a little-endian ELF64 archive (Linux x86-64 and aarch64 wheels) is read.
"""

from __future__ import annotations

import binascii
import struct
import sys
from pathlib import Path

MEMBER = "src_distributions_distributions.c.o"
SYMBOLS = ("ki_double", "wi_double", "fi_double")
TABLE_BYTES = 256 * 8
LINE = 96  # base64 characters per line of the literal


def default_archive() -> Path:
    import numpy

    return Path(numpy.__file__).parent / "random" / "lib" / "libnpyrandom.a"


def member(archive: bytes, name: str) -> bytes:
    """The bytes of one member of a GNU ar archive; long names live in the `//` member."""
    if not archive.startswith(b"!<arch>\n"):
        raise ValueError("not an ar archive")
    pos, long_names = 8, b""
    while pos + 60 <= len(archive):
        header = archive[pos : pos + 60]
        raw, size = header[:16].decode().rstrip(), int(header[48:58])
        body = archive[pos + 60 : pos + 60 + size]
        if raw == "//":
            long_names = body
        elif raw.startswith("/") and raw[1:].isdigit():
            start = int(raw[1:])
            raw = long_names[start : long_names.index(b"\n", start)].decode()
        if raw.rstrip("/") == name:
            return body
        pos += 60 + size + size % 2
    raise ValueError(f"no member {name}")


def tables(obj: bytes) -> bytes:
    """ki, wi and fi, each 2,048 bytes, read at their symbols' offsets in a little-endian ELF64."""
    if obj[:4] != b"\x7fELF" or obj[4] != 2 or obj[5] != 1:
        raise ValueError("not a little-endian ELF64 object")
    shoff, = struct.unpack_from("<Q", obj, 0x28)
    shentsize, shnum = struct.unpack_from("<HH", obj, 0x3A)
    sections = [struct.unpack_from("<IIQQQQIIQQ", obj, shoff + i * shentsize) for i in range(shnum)]
    symtab = next(s for s in sections if s[1] == 2)  # SHT_SYMTAB
    strtab = sections[symtab[6]]
    found = {}
    for off in range(symtab[4], symtab[4] + symtab[5], 24):
        name_at, _, _, shndx, value, size = struct.unpack_from("<IBBHQQ", obj, off)
        start = strtab[4] + name_at
        name = obj[start : obj.index(b"\0", start)].decode()
        if name in SYMBOLS:
            if size != TABLE_BYTES:
                raise ValueError(f"{name} has {size} bytes, not {TABLE_BYTES}")
            at = sections[shndx][4] + value
            found[name] = obj[at : at + size]
    return b"".join(found[name] for name in SYMBOLS)


def literal(data: bytes) -> str:
    text = binascii.b2a_base64(data, newline=False).decode()
    return "\n".join(text[i : i + LINE] for i in range(0, len(text), LINE))


def main(argv: list[str]) -> int:
    archive = Path(argv[0]) if argv else default_archive()
    print(literal(tables(member(archive.read_bytes(), MEMBER))))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
