"""Parser for the key=value lines of `AnalogyReport.to_keyvalues`.

The library writes reports and never reads one back; the tests parse
them to check that the lines are lossless and that the CLI wrote them.
"""

from dataclasses import fields
from typing import get_args, get_type_hints

from ipcrypt.lwe import _MISSING, AnalogyReport


def report_from_keyvalues(text: str) -> AnalogyReport:
    """The report whose to_keyvalues lines text holds; "missing" reads as None.

    Blank lines and lines starting with "#" are skipped, and an unknown
    field name raises ValueError.
    """
    hints = get_type_hints(AnalogyReport)
    # Each field is annotated "T | None"; the value parses as T.
    types = {f.name: get_args(hints[f.name])[0] for f in fields(AnalogyReport)}
    kwargs = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        name, _, value = line.partition("=")
        if name not in types:
            raise ValueError(f"unknown analogy field {name!r}")
        kwargs[name] = None if value == _MISSING else types[name](value)
    return AnalogyReport(**kwargs)
