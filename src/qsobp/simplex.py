"""Population states, tolerance settings, and the text of floats and of JSON documents.

A population state, one point of a product of simplexes, is the float array
of its coordinates: the female block, then the male block.  ``check_states``
checks a (k, d) array of them in one pass, and ``make_state`` one state.  States
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


def check_states(states: np.ndarray, n: int) -> None:
    """Raise for the first of the (k, d) ``states`` rows whose female or male block is
    not a point of a simplex: for its female block, then its male block, the first of
    no entry, a ``block_totals`` entry off one by more than NORMALIZATION_EPS (NaN
    included) and an entry below -NEGATIVITY_EPS."""
    blocks, totals = (states[:, :n], states[:, n:]), block_totals(states, n)
    off = [~(np.abs(total - 1.0) <= NORMALIZATION_EPS) for total in totals]
    low = [block.min(axis=1, initial=math.inf) < -NEGATIVITY_EPS for block in blocks]
    for row in np.flatnonzero(np.any([*off, *low], axis=0))[:1]:
        for block, total, block_off, block_low in zip(blocks, totals, off, low):
            if not block.shape[1]:
                raise DimensionMismatchError("a distribution needs at least one entry")
            if block_off[row]:
                raise NotNormalizedError(f"entries sum to {float(total[row])}, expected 1")
            if block_low[row]:
                raise NegativeEntryError(f"entry {float(block[row].min())} < -{NEGATIVITY_EPS}")


@dataclass(frozen=True)
class Tolerance:
    """Numerical knobs: comparison epsilon, iteration stop, iteration budget."""

    abs_eps: float = 1e-9
    iter_eps: float = 1e-12
    max_iters: int = 10**6

    def __post_init__(self):
        for name, value in vars(self).items():
            if not 0 < value < math.inf:
                raise ValueError(f"{name} must be finite and strictly positive, got {value}")


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

    Floats, alone or among Nones, go through ``float_texts`` at once, and strings,
    ints and bools of one kind through one ``map`` or comprehension.  Dicts with
    the same keys are records, a lone dict a record of one: each field is one
    column, and each record one ``%`` format of its field texts.  Values of mixed
    kinds are columns of one value each.  A lone list is the bracket of its items'
    column, a lone numpy array the nested lists of its ``float_texts``, and any
    other value, such as ``{}`` or a float subclass, ``json.dumps``' text.
    """
    kinds = set(map(type, values))
    if kinds <= {float, type(None)}:
        floats = [value for value in values if value is not None]
        texts = iter(float_texts(_finite(floats)).tolist())
        return ["null" if value is None else next(texts) for value in values]
    if kinds == {str}:
        return list(map(encode_basestring_ascii, values))
    if kinds == {int}:
        return list(map(int.__repr__, values))
    if kinds == {bool}:
        return ["true" if value else "false" for value in values]
    keys = values[0].keys() if all(issubclass(kind, dict) for kind in kinds) else ()
    if keys and all(map(keys.__eq__, map(dict.keys, values))):
        names = sorted(keys)
        inner = "\n" + "  " * (depth + 1)
        labels = [encode_basestring_ascii(name).replace("%", "%%") for name in names]
        record = "{" + ",".join(f"{inner}{label}: %s" for label in labels) + "\n" + "  " * depth + "}"
        columns = [_column([value[name] for value in values], depth + 1) for name in names]
        return [record % texts for texts in zip(*columns)]
    if len(values) > 1:
        return [text for value in values for text in _column([value], depth)]
    (value,) = values
    if isinstance(value, (list, tuple)):
        return [_bracket(_column(value, depth + 1), depth)]
    if isinstance(value, np.ndarray):
        return ["".join(_array_text(float_texts(_finite(value)), depth))]
    return [json.dumps(value, allow_nan=False)]


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


def write_json(doc, path: str | None = None) -> None:
    """Write ``doc`` to the file ``path``, or to standard output when it is None, as
    ``json.dumps(doc, indent=2, sort_keys=True)`` and a final newline would, byte
    for byte; a numpy array of floats is written as its nested lists, and dict
    keys are strings.  NaN or infinity raises ``ValueError`` before any byte is
    written.

    ``json.dumps`` with an indent runs the pure-Python encoder, one token at a
    time.  Here the floats of a list, of an array or of one field of many records
    go through ``float_texts`` together (``_column``), which formats each distinct
    one with ``float.__repr__``, JSON's text of a finite float.  A dict document
    is written a field at a time, and the text of an array that is one of its own
    fields, the bulk of an operator document, one (i, ., .) plane at a time.
    """
    if isinstance(doc, dict) and doc:
        pieces = []  # iterables of strings, every field's made before any byte is written
        for k, key in enumerate(sorted(doc)):
            value, head = doc[key], ("," if k else "{") + "\n  " + encode_basestring_ascii(key)
            pieces += [[head + ": "], _array_text(float_texts(_finite(value)), 1)
                       if isinstance(value, np.ndarray) else _column([value], 1)]
        pieces.append(["\n}\n"])
    else:
        pieces = [_column([doc], 0), ["\n"]]
    text = itertools.chain.from_iterable(pieces)
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
