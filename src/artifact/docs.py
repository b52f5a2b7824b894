"""The JSON document layer: envelope, failure policy and file I/O.

Every document is a JSON object whose "format" names its kind and whose
"version" is 1 (written, not checked). A parser runs its whole
construction inside `parsing`, so a wrong envelope or a malformed body
ends in the parser's own typed error, never a bare built-in exception.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from typing import Iterator

VERSION = 1


class ArtifactError(Exception):
    """Base class for library errors."""


def envelope(kind: str, **fields) -> dict:
    return {"format": kind, "version": VERSION, **fields}


@contextmanager
def parsing(data, kind: str, error: type[ArtifactError]) -> Iterator[None]:
    """Check the envelope, then map leftover built-in errors to `error`.

    Library errors raised inside, including those of nested documents,
    pass through unchanged.
    """
    if not isinstance(data, dict) or data.get("format") != kind:
        raise error(f"not {'an' if kind[0] in 'aeiou' else 'a'} {kind} document")
    try:
        yield
    except ArtifactError:
        raise
    except (KeyError, TypeError, ValueError, IndexError, AttributeError) as exc:
        raise error(f"bad {kind} document: {exc}") from exc


def integers(error: type[ArtifactError], what: str, *groups) -> None:
    """Raise `error` unless each group holds only ints (a bool is not one)."""
    for values in groups:
        if not {*map(type, values)} <= {int}:
            bad = next(v for v in values if type(v) is not int)
            raise error(f"expected integers for {what}, got {bad!r}")


def read(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def dumps(doc, pretty: bool = False) -> str:
    """A document's text and a newline, compact or indented by 2. One `json.dumps`
    call: unlike `json.dump`, it takes the C encoder for a compact document."""
    return json.dumps(doc, indent=2 if pretty else None) + "\n"


def write(doc, path, pretty: bool = False) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(doc, pretty))
