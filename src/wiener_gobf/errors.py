"""Exceptions and warning categories shared across the toolkit, and the one
loader of JSON config documents."""

import collections.abc
import dataclasses
import sys
import typing

import numpy as np


class InvalidSpecError(ValueError):
    """A signal / system / configuration object violates its invariants."""


def json_kwargs(cls, doc, skip=(), localns=None) -> dict:
    """Constructor keywords for the dataclass ``cls`` from the JSON object ``doc``.

    Keys must name fields of ``cls`` not in ``skip``, fields without a default
    are required, and each value must match its field's annotation: int,
    float (finite), str, bool, dict, ``Optional``, ``Sequence[int]`` or
    ``np.ndarray`` (arrays, passed on as tuples), or a class with a
    ``from_json_dict``.  Violations raise ``InvalidSpecError`` naming the key.
    ``localns`` resolves annotations the module of ``cls`` cannot import.
    """
    if not isinstance(doc, dict):
        raise InvalidSpecError(f"expected a JSON object, not {type(doc).__name__}")
    hints = typing.get_type_hints(cls, localns=localns)
    fields = {f.name: f for f in dataclasses.fields(cls) if f.name not in skip}
    unknown = sorted(set(doc) - set(fields))
    if unknown:
        raise InvalidSpecError(f"unknown config key(s): {', '.join(unknown)}")
    for name, f in fields.items():
        if name not in doc and f.default is f.default_factory is dataclasses.MISSING:
            raise InvalidSpecError(f"missing required config key {name!r}")
    return {k: _json_value(k, v, hints[k]) for k, v in doc.items()}


def _json_value(key: str, value, annotation):
    origin, args = typing.get_origin(annotation), typing.get_args(annotation)
    if origin is typing.Union:  # Optional[X]
        return None if value is None else _json_value(key, value, args[0])
    if origin is collections.abc.Sequence or annotation is np.ndarray:
        _expect(key, value, isinstance(value, list), "an array")
        return tuple(_json_value(key, v, args[0] if args else float) for v in value)
    if hasattr(annotation, "from_json_dict"):
        _expect(key, value, isinstance(value, dict), "a JSON object")
        return annotation.from_json_dict(value)
    # type(), not isinstance(): a bool is not an int
    accepted = (int, float) if annotation is float else (annotation,)
    _expect(key, value, type(value) in accepted, annotation.__name__)
    if annotation is not float:
        return value
    if not abs(value) <= sys.float_info.max:
        raise InvalidSpecError(f"config key {key!r} must be finite")
    return float(value)


def _expect(key: str, value, ok: bool, expected: str) -> None:
    if not ok:
        raise InvalidSpecError(f"config key {key!r} must be {expected}, "
                               f"not {type(value).__name__}")


class EstimationError(RuntimeError):
    """A stage of the identification chain failed; the message carries the stage tag."""

    def __init__(self, stage: str, message: str):
        self.stage = stage
        super().__init__(f"stage '{stage}': {message}")


class PoleStabilizationWarning(UserWarning):
    """Unstable pole estimates were reflected into the unit circle."""


class RepeatedPoleWarning(UserWarning):
    """Estimated poles are (nearly) repeated; rate guarantees assume distinct poles."""


class RankDeficiencyWarning(UserWarning):
    """A least-squares problem was rank deficient; minimum-norm solution returned."""
