"""The object closure of the labels mod q: the oracle that coset_space's
codes and count_orbit's breakdowns are checked against.  It shares no
code with label_codes or label_entries.

A label is CosetLabel(q, entries), the entries of g mod q or of -g mod q,
whichever tuple is smaller.  The closure multiplies labels one Python
product at a time, breadth first from the identity.
"""

from shearlab.algebra import IntGroupElement
from shearlab.groups import CosetLabel


def label_of(g: IntGroupElement, q: int) -> CosetLabel:
    """The label of the integer element g at level q."""
    plus = tuple(v % q for v in g.entries())
    minus = tuple((-v) % q for v in g.entries())
    return CosetLabel(q, min(plus, minus))


def _times(x: CosetLabel, y: CosetLabel) -> CosetLabel:
    q = x.q
    a, b, c, d = x.entries
    e, f, g, h = y.entries
    prod = ((a * e + b * g) % q, (a * f + b * h) % q,
            (c * e + d * g) % q, (c * f + d * h) % q)
    minus = tuple((-v) % q for v in prod)
    return CosetLabel(q, min(prod, minus))


def coset_closure(spec, q: int) -> frozenset:
    """All labels of the image of the group at level q: the closure of
    the identity's label under the generators' labels."""
    gens = [label_of(g, q) for g in spec.gen_set()]
    seen = {label_of(IntGroupElement.identity(), q)}
    frontier = list(seen)
    while frontier:
        nxt = []
        for lab in frontier:
            for h in gens:
                m = _times(lab, h)
                if m not in seen:
                    seen.add(m)
                    nxt.append(m)
        frontier = nxt
    return frozenset(seen)
