"""Extended naturals: plain non-negative ints plus a maximal element OMEGA.

Path counts and properness levels are either finite or countably infinite;
OMEGA is the single infinite value and compares strictly above every int.
"""

import functools


@functools.total_ordering
class Omega:
    """Singleton infinity marker, ordered above every integer."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __eq__(self, other):
        return isinstance(other, Omega)

    def __lt__(self, other):
        if isinstance(other, (Omega, int)):
            return False
        return NotImplemented

    def __hash__(self):
        return hash("omega")

    def __repr__(self):
        return "omega"


OMEGA = Omega()


def is_finite(value) -> bool:
    return not isinstance(value, Omega)


def extnat_to_json(value):
    """JSON form: plain int, or the string "omega"."""
    return "omega" if isinstance(value, Omega) else value

