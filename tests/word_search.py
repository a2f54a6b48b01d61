"""The one-letter word search over a group's generators: the oracle that
the syllable walk of count_orbit and the syllable tree of bottom_rows are
checked against.  It shares no code with either."""

from dataclasses import dataclass
from typing import Callable, Optional

from shearlab.groups import GroupSpec, WordBudget


@dataclass
class WordSearchResult:
    elements: list
    saturated: bool
    depth: int
    nodes: int


class SearchBudgetExceeded(Exception):
    """The word search hit its budget; carries the partial result."""

    def __init__(self, partial: WordSearchResult):
        super().__init__(f"word search budget exceeded at depth "
                         f"{partial.depth} ({partial.nodes} nodes)")
        self.partial = partial


def enumerate_words(spec: GroupSpec, budget: WordBudget = WordBudget(),
                    expand: Optional[Callable[[tuple], bool]] = None
                    ) -> WordSearchResult:
    """Breadth-first enumeration of distinct group elements.

    Elements are plain int tuples (a, b, c, d) in the sign representative
    IntGroupElement uses (c > 0, or c = 0 and a > 0); IntGroupElement(*t)
    turns one into an object.  Words are built by right multiplication
    with generators and inverses; immediate backtracking never survives
    the global dedup set, so no separate reduced-word bookkeeping is
    needed.  Every element found is collected; `expand` sees each new
    one once, in collection order, and gates which ones spawn children
    (default: all, so only the budget stops the search).  The search is
    saturated when the frontier closes.
    """
    ident = (1, 0, 0, 1)
    gens = [g.entries() for g in spec.gen_set()]
    seen = {ident}
    frontier = [ident]
    collected = [ident]
    depth = 0
    while frontier:
        if depth >= budget.max_depth:
            raise SearchBudgetExceeded(WordSearchResult(
                collected, False, depth, len(collected)))
        new_frontier = []
        for a, b, c, d in frontier:
            for e, f, g, h in gens:
                ma, mb = a * e + b * g, a * f + b * h
                mc, md = c * e + d * g, c * f + d * h
                if mc < 0 or (mc == 0 and ma < 0):
                    m = (-ma, -mb, -mc, -md)
                else:
                    m = (ma, mb, mc, md)
                if m in seen:
                    continue
                seen.add(m)
                if len(collected) >= budget.max_nodes:  # m is one too many
                    raise SearchBudgetExceeded(WordSearchResult(
                        collected, False, depth, len(collected) + 1))
                collected.append(m)
                if expand is None or expand(m):
                    new_frontier.append(m)
        frontier = new_frontier
        depth += 1
    return WordSearchResult(collected, True, depth, len(collected))
