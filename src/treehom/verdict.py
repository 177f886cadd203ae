"""Bounded-check verdicts shared by the hom, automaton, and analyze modules."""

from __future__ import annotations

OK = "ok"
WITNESS = "witness"


class Verdict:
    """Outcome of a bounded check: clean up to ``bound`` or a concrete witness.

    Immutable; equal verdicts have equal fields and hash alike.
    """

    __slots__ = ("status", "bound", "witness", "detail")

    def __init__(self, status: str, bound: int, witness: object = None, detail: str = ""):
        if status not in (OK, WITNESS):
            raise ValueError(f"bad verdict status: {status!r}")
        if (witness is not None) != (status == WITNESS):
            raise ValueError("witness must be present exactly when status is 'witness'")
        _set_status(self, status)
        _set_bound(self, bound)
        _set_witness(self, witness)
        _set_detail(self, detail)

    def _fields(self) -> tuple:
        return (self.status, self.bound, self.witness, self.detail)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        return (f"Verdict(status={self.status!r}, bound={self.bound!r}, "
                f"witness={self.witness!r}, detail={self.detail!r})")

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return Verdict, self._fields()

    @property
    def is_ok(self) -> bool:
        return self.status == OK


# The slot descriptors write the fields past the refusing __setattr__.
_set_status = Verdict.status.__set__
_set_bound = Verdict.bound.__set__
_set_witness = Verdict.witness.__set__
_set_detail = Verdict.detail.__set__


def verified(bound: int) -> Verdict:
    return Verdict(OK, bound)


def violated(bound: int, witness, detail: str = "") -> Verdict:
    return Verdict(WITNESS, bound, witness, detail)
