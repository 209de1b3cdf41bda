"""Population states, tolerance settings, and the text of floats and of JSON documents.

A population state, one point of a product of simplexes, is the float array
of its coordinates: the female block, then the male block.  ``make_state`` and
``check_states`` raise the errors of one array check, ``rejected_rows``.  States
are never silently renormalized, so conservation bugs surface as validation
failures instead of being masked.  ``write_json`` writes every JSON document
of the package.
"""

from __future__ import annotations

import itertools
import json
import math
import sys
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from typing import Sequence

import numpy as np

from .errors import DimensionMismatchError, NegativeEntryError, NotNormalizedError

# Construction-time tolerances.  Entries may undershoot zero by at most
# NEGATIVITY_EPS; the total may deviate from one by at most NORMALIZATION_EPS.
NEGATIVITY_EPS = 1e-12
NORMALIZATION_EPS = 1e-9


def make_state(female: Sequence[float], male: Sequence[float]) -> np.ndarray:
    """The (n + ν,) coordinates of the state with blocks ``female`` and ``male``; raises
    what ``check_states`` raises for it as one row."""
    female = np.asarray(female, dtype=float)
    state = np.concatenate([female, np.asarray(male, dtype=float)])
    check_states(state[None], female.size)
    return state


def block_totals(states: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The female and the male total of each (k, d) ``states`` row: the block's
    running sum, which adds the entries in order, from 0.0 as Python's ``sum`` does
    (a block of -0.0 totals 0.0); 0.0 for an empty block."""
    # Adding 0.0 frees each block's running sums before the next block's are taken.
    # Entries of inf or 1e308 give inf or nan totals, which the check reports.
    with np.errstate(over="ignore", invalid="ignore"):
        return tuple(np.cumsum(b, axis=1)[:, -1] + 0.0 if b.shape[1] else np.zeros(len(b))
                     for b in (states[:, :n], states[:, n:]))


def rejected_rows(states: np.ndarray, n: int) -> np.ndarray:
    """Indices of the (k, d) ``states`` rows whose female or male block is not a point
    of a simplex: a ``block_totals`` entry off one by more than NORMALIZATION_EPS, or
    an entry below -NEGATIVITY_EPS."""
    ok = np.ones(len(states), dtype=bool)
    for block, total in zip((states[:, :n], states[:, n:]), block_totals(states, n)):
        ok &= np.abs(total - 1.0) <= NORMALIZATION_EPS
        ok &= block.min(axis=1, initial=math.inf) >= -NEGATIVITY_EPS
    return np.flatnonzero(~ok)


def check_states(states: np.ndarray, n: int) -> None:
    """Raise for the first of the (k, d) ``states`` rows that ``rejected_rows`` finds:
    for its female block, then its male block, the first of no entry, a total off
    one and an entry below -NEGATIVITY_EPS."""
    for row in states[rejected_rows(states, n)[:1]]:
        for block, (total,) in zip((row[:n], row[n:]), block_totals(row[None], n)):
            if not block.size:
                raise DimensionMismatchError("a distribution needs at least one entry")
            if not (abs(total - 1.0) <= NORMALIZATION_EPS):
                raise NotNormalizedError(f"entries sum to {float(total)}, expected 1")
            smallest = float(block.min())
            if not (smallest >= -NEGATIVITY_EPS):
                raise NegativeEntryError(f"entry {smallest} < -{NEGATIVITY_EPS}")


@dataclass(frozen=True)
class Tolerance:
    """Numerical knobs: comparison epsilon, iteration stop, iteration budget."""

    abs_eps: float = 1e-9
    iter_eps: float = 1e-12
    max_iters: int = 10**6

    def __post_init__(self):
        values = (self.abs_eps, self.iter_eps, self.max_iters)
        if not all(0 < v < math.inf for v in values):
            raise ValueError(
                f"all tolerance fields must be finite and strictly positive, got {values}"
            )


DEFAULT_TOLERANCE = Tolerance()


def float_texts(values) -> np.ndarray:
    """``float.__repr__`` of each entry of the float array ``values``, as an object
    array of its shape.  Each distinct bit pattern is formatted once, so -0.0 and
    0.0 keep their own texts; the one place where floats become output text."""
    values = np.asarray(values, dtype=np.float64)
    bits, inverse = np.unique(values.ravel().view(np.int64), return_inverse=True)
    texts = np.array(list(map(float.__repr__, bits.view(np.float64).tolist())), dtype=object)
    return texts[inverse].reshape(values.shape)


def _finite(values) -> np.ndarray:
    """``values`` as a float array; ``ValueError`` for NaN or infinity, as ``json.dumps``."""
    values = np.asarray(values, dtype=np.float64)
    if not np.isfinite(values).all():
        raise ValueError("Out of range float values are not JSON compliant")
    return values


def _bracket(texts, depth: int) -> str:
    """The JSON list of the item ``texts`` at nesting ``depth``."""
    if not texts:
        return "[]"
    inner = "\n" + "  " * (depth + 1)
    return f"[{inner}{(',' + inner).join(texts)}\n{'  ' * depth}]"  # one copy of the items


def _column(values, depth: int) -> list[str]:
    """JSON's text of each of ``values`` at nesting ``depth``, formatted a column at a time.

    Floats go through ``float_texts`` at once, and strings, ints and bools of one
    kind through one ``map`` or comprehension.  Dicts with the same keys are
    records: each field is one column, and each record one ``%`` format of its
    field texts.  Anything else is formatted value by value.
    """
    kinds = set(map(type, values))
    if kinds == {float}:
        return float_texts(_finite(values)).tolist()
    if kinds == {str}:
        return list(map(encode_basestring_ascii, values))
    if kinds == {int}:
        return list(map(int.__repr__, values))
    if kinds == {bool}:
        return ["true" if value else "false" for value in values]
    keys = values[0].keys() if kinds == {dict} else ()
    if keys and all(map(keys.__eq__, map(dict.keys, values))):
        names = sorted(keys)
        inner = "\n" + "  " * (depth + 1)
        labels = [encode_basestring_ascii(name).replace("%", "%%") for name in names]
        record = "{" + ",".join(f"{inner}{label}: %s" for label in labels) + "\n" + "  " * depth + "}"
        columns = [_column([value[name] for value in values], depth + 1) for name in names]
        return [record % texts for texts in zip(*columns)]
    return ["".join(_chained(_pieces(value, depth))) for value in values]


def _pieces(value, depth: int) -> list:
    """JSON's text of ``value`` at nesting ``depth``, as ``json.dumps`` with an indent
    of 2 and sorted keys writes it: a list of strings, and of a generator for each
    numpy array.

    Every piece but an array's generator is made before this returns.  An
    array's entries are checked for NaN and infinity here, and its generator
    formats them one sub-array of its first axis at a time.
    """
    if isinstance(value, dict):
        pieces = []
        for k, key in enumerate(sorted(value)):
            pieces.append(("," if k else "{") + "\n" + "  " * (depth + 1)
                          + encode_basestring_ascii(key) + ": ")
            pieces.extend(_pieces(value[key], depth + 1))
        pieces.append("\n" + "  " * depth + "}" if value else "{}")
        return pieces
    if isinstance(value, np.ndarray):
        return [_array_text(float_texts(_finite(value)), depth)]
    if isinstance(value, (list, tuple)):
        return [_bracket(_column(value, depth + 1), depth)]
    return [json.dumps(value, allow_nan=False)]  # a string, number, bool or None


def _array_text(texts: np.ndarray, depth: int):
    """The JSON text of the nested lists of the string array ``texts`` at ``depth``,
    one sub-array of its first axis at a time, each innermost list one join."""

    def nested(items, depth):
        if not items or isinstance(items[0], str):
            return _bracket(items, depth)
        if items[0] and isinstance(items[0][0], str):
            # Rows of entries, all of one length: their brackets go in the separator
            # of one join, so no row's text is copied twice.
            inner, row = "\n" + "  " * (depth + 1), "\n" + "  " * (depth + 2)
            rows = f"{inner}],{inner}[{row}".join(map(("," + row).join, items))
            return f"[{inner}[{row}{rows}{inner}]\n{'  ' * depth}]"
        return _bracket([nested(item, depth + 1) for item in items], depth)

    if texts.ndim < 2 or not len(texts):
        yield nested(texts.tolist(), depth) if texts.ndim else texts.item()
        return
    inner = "\n" + "  " * (depth + 1)
    for i, sub in enumerate(texts):
        yield f"{',' if i else '['}{inner}{nested(sub.tolist(), depth + 1)}"
    yield "\n" + "  " * depth + "]"


def _chained(pieces):
    """The strings of ``_pieces``' list, in order, a generator's as it makes them."""
    return itertools.chain.from_iterable((piece,) if isinstance(piece, str) else piece
                                         for piece in pieces)


def write_json(doc, path: str | None = None) -> None:
    """Write ``doc`` to the file ``path``, or to standard output when it is None, as
    ``json.dumps(doc, indent=2, sort_keys=True)`` and a final newline would, byte
    for byte; a numpy array of floats is written as its nested lists, and dict
    keys are strings.  NaN or infinity raises ``ValueError`` before any byte is
    written.

    ``json.dumps`` with an indent runs the pure-Python encoder, one token at a
    time.  Here the floats of a list, of an array or of one field of many records
    go through ``float_texts`` together, which formats each distinct one with
    ``float.__repr__``, JSON's text of a finite float.  An array's text, the bulk
    of an operator document, goes out one (i, ., .) plane at a time.
    """
    text = _chained(_pieces(doc, 0) + ["\n"])
    if path is None:
        sys.stdout.writelines(text)
        return
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(text)


def check_unit(start, domain: str):
    """``start``; ``ValueError`` when an entry of it lies outside [0, 1], the ``domain``."""
    if not np.all(np.greater_equal(start, 0.0) & np.less_equal(start, 1.0)):
        raise ValueError(f"start {start} lies outside {domain}")
    return start


def check_open_unit(params):
    """Where every field of the dataclass ``params`` lies strictly inside (0, 1) and is
    not subnormal, too small for the closed forms' products: a number field raises
    ``ValueError`` unless it does, and for fields stacked as (B,) arrays, one row per
    trajectory, the result is the (B,) mask of rows inside."""
    inside = True
    for name, v in vars(params).items():
        ok = (sys.float_info.min <= v) & (v < 1.0)
        if np.ndim(ok) == 0 and not ok:
            if 0.0 < v < sys.float_info.min:
                raise ValueError(f"{name} is subnormal, below {sys.float_info.min}, got {v}")
            raise ValueError(f"{name} must lie strictly inside (0,1), got {v}")
        inside = inside & ok
    return inside
