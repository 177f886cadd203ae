import copy
import pickle

import pytest

from treehom import Verdict
from treehom.verdict import verified, violated


def test_verdict_repr():
    assert repr(verified(3)) == "Verdict(status='ok', bound=3, witness=None, detail='')"
    assert repr(violated(2, ("a", "b"), "clash")) == (
        "Verdict(status='witness', bound=2, witness=('a', 'b'), detail='clash')")


@pytest.mark.parametrize("args,message", [
    (("bad", 1), "bad verdict status: 'bad'"),
    (("ok", 1, "t"), "witness must be present exactly when status is 'witness'"),
    (("witness", 1), "witness must be present exactly when status is 'witness'"),
])
def test_verdict_rejects_inconsistent_fields(args, message):
    with pytest.raises(ValueError) as err:
        Verdict(*args)
    assert str(err.value) == message


def test_verdict_equality_and_hash():
    v = violated(2, ("a", "b"), "clash")
    assert v == Verdict("witness", 2, ("a", "b"), "clash")
    assert v != violated(2, ("a", "b"), "other")
    assert v != violated(3, ("a", "b"), "clash")
    assert verified(3) == verified(3) and verified(3) != verified(4)
    assert (verified(3) == "ok") is False
    assert hash(v) == hash(Verdict("witness", 2, ("a", "b"), "clash"))
    assert len({verified(3), verified(3), v}) == 2
    assert copy.copy(v) == v and pickle.loads(pickle.dumps(v)) == v


def test_verdict_is_frozen():
    v = verified(3)
    with pytest.raises(AttributeError, match="cannot assign to field 'bound'"):
        v.bound = 4
    with pytest.raises(AttributeError, match="cannot delete field 'detail'"):
        del v.detail
    with pytest.raises(AttributeError):
        v.other = 1
    assert (v.status, v.bound, v.witness, v.detail, v.is_ok) == ("ok", 3, None, "", True)
