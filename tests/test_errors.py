import inspect
import pickle

import numpy as np
import pytest

from sorimir import errors


def _unallocatable() -> MemoryError:
    """numpy's own MemoryError subclass, as an unallocatable array raises it."""
    try:
        np.empty(10**15)
    except MemoryError as exc:
        return exc
    raise AssertionError("allocated 8 PB")


# Arguments for each class whose constructor takes more than a message.
_ARGS = {
    errors.MusicXmlParseError: ("bad tag", 7),
    errors.FormatError: ("bad value", 3),
    errors.OrderingError: ("times go back", 4),
    errors.BeatValidationError: ("short measures", (2, 5)),
    errors.PipelineError: ("contours", "*", _unallocatable()),
}
_CLASSES = [c for _, c in inspect.getmembers(errors, inspect.isclass)
            if issubclass(c, BaseException) and c.__module__ == errors.__name__]


def _state(exc) -> tuple:
    """Type, text and attributes of an exception, each nested exception by its own state."""
    attrs = {k: _state(v) if isinstance(v, BaseException) else v for k, v in vars(exc).items()}
    return type(exc), str(exc), exc.args, attrs


@pytest.mark.parametrize("cls", _CLASSES, ids=lambda c: c.__name__)
def test_every_error_survives_pickling(cls):
    exc = cls(*_ARGS.get(cls, ("message",)))
    assert _state(pickle.loads(pickle.dumps(exc))) == _state(exc)


@pytest.mark.parametrize("cause", ["a text", FileNotFoundError(2, "no such file", "x.csv"),
                                   errors.FormatError("bad", 3)])
def test_pipeline_error_keeps_its_cause(cause):
    exc = pickle.loads(pickle.dumps(errors.PipelineError("beats", "d1", cause)))
    assert (exc.stage, exc.daemok_id) == ("beats", "d1")
    assert str(exc) == f"stage 'beats' failed for daemok 'd1': {cause}"
    assert type(exc.cause) is type(cause)


def test_the_classes_are_found():
    assert errors.PipelineError in _CLASSES and errors.SorimirError in _CLASSES
    assert len(_CLASSES) == 19
