"""Exceptions shared across the library and mapped to CLI exit codes, and the one JSON decoder."""

import json
from pathlib import Path


class SchemaError(ValueError):
    """Input JSON does not match the expected schema.

    The message carries a JSON-pointer-like path to the offending field,
    e.g. ``/J/2/1: matrix is not symmetric``.
    """


def decode_json(source: str | Path) -> object:
    """Parse JSON text or a file's; undecodable, malformed or too deeply nested JSON is a SchemaError."""
    try:
        return json.loads(source.read_text() if isinstance(source, Path) else source)
    except (ValueError, RecursionError) as exc:  # UnicodeDecodeError and JSONDecodeError are ValueErrors
        raise SchemaError(f"/: invalid JSON: {exc}") from exc


class GuardExceeded(RuntimeError):
    """A term count declared through invariants.charge exceeds the guard, or a value or modulus is too large.

    Every term-count message reads "<formula> = <terms> terms exceeds guard <guard>"; su2k3 sums no terms.
    """


class GeometryError(ValueError):
    """Curve geometry is too degenerate to evaluate reliably."""
