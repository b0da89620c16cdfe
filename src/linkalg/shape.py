"""Shape checks for span JSON and constructor arguments, applied before anything is built.

A value of the wrong shape (a missing key, a boolean or float where a
natural number belongs, a negative size, a leg whose length does not
match the carrier, an index outside its set) raises SpanFormatError.
The span conditions themselves (arrow condition, joint injectivity) are
checked later, on well-formed values, and raise a plain ValueError.
"""

from __future__ import annotations


class SpanFormatError(ValueError):
    """Span or cospan JSON, or a constructor argument, that does not have the documented shape."""


def _show(x):
    import json  # only error messages need it; kept out of start-up

    text = json.dumps(x, default=repr)
    return text if len(text) <= 40 else text[:37] + "..."


def need(d, key):
    """d[key], where d must be a JSON object holding key."""
    if not isinstance(d, dict):
        raise SpanFormatError(f"expected a JSON object, got {_show(d)}")
    if key not in d:
        raise SpanFormatError(f'missing key "{key}"')
    return d[key]


def nat(x, name, bound=None):
    """x as a natural number, below bound if one is given."""
    if type(x) is not int or x < 0:
        raise SpanFormatError(f"{name} must be a natural number, got {_show(x)}")
    if bound is not None and x >= bound:
        raise SpanFormatError(f"{name} is {x}, out of range for size {bound}")
    return x


def nat_keys(d, *keys):
    """The naturals d[key], one per key."""
    return [nat(need(d, key), key) for key in keys]


def seq(x, name, length=None):
    """x as a JSON array or a tuple, of the given length if one is given."""
    if not isinstance(x, (list, tuple)):
        raise SpanFormatError(f"{name} must be an array, got {_show(x)}")
    if length is not None and len(x) != length:
        raise SpanFormatError(f"{name} has {len(x)} entries, expected {length}")
    return x


def nats(x, name, length=None, bound=None):
    """x as an array of naturals, checked entry by entry."""
    return [nat(c, f"{name}[{i}]", bound) for i, c in enumerate(seq(x, name, length))]


def nat_matrix(x, name, length, width=None, bound=None):
    """x as an array of `length` arrays of naturals (any number if None)."""
    return [nats(r, f"{name}[{i}]", width, bound) for i, r in enumerate(seq(x, name, length))]


def nat_rows(d, key, length, width=None, bound=None):
    """d[key] as a nat_matrix."""
    return nat_matrix(need(d, key), key, length, width, bound)
