"""The one reader of input files.

Every file the package reads goes through ``parse``: it reads the bytes once,
so a pipe or a FIFO works, and a run that records them hashes what it parsed.
"""

from pathlib import Path


def parse(path, parse_text, *extra, record: dict | None = None):
    """``parse_text(text, *extra)`` on the file at ``path``, read once.

    The bytes are decoded as strict UTF-8, and then one leading byte-order
    mark is dropped from the text, so a decode error's position is the bad
    byte's offset in the file. A ValueError from decoding or parsing is
    raised again with ``"{path}: "`` before its message. With ``record``, the bytes are kept
    there under ``str(path)`` as they were read, a byte-order mark included.
    """
    data = Path(path).read_bytes()
    if record is not None:
        record[str(path)] = data
    try:
        return parse_text(data.decode("utf-8").removeprefix("\ufeff"), *extra)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
