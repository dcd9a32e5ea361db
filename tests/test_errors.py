import inspect
import pickle

import pytest

from jamcodec import errors

ERRORS = sorted((cls for cls in vars(errors).values()
                 if isinstance(cls, type) and issubclass(cls, errors.JamcodecError)),
                key=lambda cls: cls.__name__)


def test_every_error_type_is_listed():
    assert errors.TrainingDivergedError in ERRORS and len(ERRORS) == 12


@pytest.mark.parametrize("cls", ERRORS, ids=lambda cls: cls.__name__)
def test_error_round_trips_through_pickle(cls):
    """A worker process's error reaches the caller with its message and attributes."""
    extra = [p.name for p in inspect.signature(cls.__init__).parameters.values()
             if p.kind is p.POSITIONAL_OR_KEYWORD and p.name not in ("self", "message")]
    exc = cls("what went wrong", **{name: 3 for name in extra})
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is cls
    assert str(back) == "what went wrong" and back.args == exc.args
    assert vars(back) == vars(exc) == {name: 3 for name in extra}
