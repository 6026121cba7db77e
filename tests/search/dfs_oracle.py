"""The recursive canonical enumeration the exact search used to run.

A depth-first search over the slots of ``search.order`` that keeps, per
group element, the index of its first undecided lexicographic comparison
(``cmp_index``) and undoes it on the way back.  It shares nothing with the
level enumeration of :class:`~repro.search.branch_bound.BranchAndBoundSearch`
but the slot order and the group, so the two must agree leaf for leaf and
counter for counter.
"""

from __future__ import annotations


def dfs_enumeration(search):
    """``(leaves, nodes_expanded, pruned_by_symmetry)`` in DFS order.

    ``leaves`` are identifier tuples indexed by position.
    """
    n = search.graph.n
    order = search.order
    slot_of = [0] * n
    for slot, position in enumerate(order):
        slot_of[position] = slot
    identity = tuple(range(n))
    # For each non-identity sigma, the slot holding the value that slot j is
    # compared against in the lex test "assignment <= assignment ∘ sigma".
    sigma_slots = [
        [slot_of[sigma[order[j]]] for j in range(n)]
        for sigma in search.group.elements
        if sigma != identity
    ]
    full_symmetric = search.group.full_symmetric
    val = [-1] * n
    ids_by_position = [-1] * n
    used = [False] * n
    # Index of the first undecided comparison slot; -1 once the element is
    # dismissed (witness strictly larger, can never prune this branch again).
    cmp_index = [0] * len(sigma_slots)
    leaves: list[tuple[int, ...]] = []
    stats = {"nodes": 0, "sym": 0}

    def dfs(depth: int) -> None:
        if depth == n:
            leaves.append(tuple(ids_by_position))
            return
        slot = depth
        position = order[slot]
        candidates = (slot,) if full_symmetric else range(n)
        for identifier in candidates:
            if used[identifier]:
                continue
            stats["nodes"] += 1
            val[slot] = identifier
            ids_by_position[position] = identifier
            used[identifier] = True
            new_depth = depth + 1
            sym_undo: list[tuple[int, int]] = []
            pruned = False
            for s, slots in enumerate(sigma_slots):
                j = cmp_index[s]
                if j < 0:
                    continue
                advanced = j
                verdict = 0
                while advanced < new_depth:
                    other = slots[advanced]
                    if other >= new_depth:
                        break
                    a, b = val[advanced], val[other]
                    if a != b:
                        verdict = -1 if a < b else 1
                        break
                    advanced += 1
                if verdict == 1:
                    stats["sym"] += 1
                    pruned = True
                    sym_undo.append((s, j))
                    cmp_index[s] = advanced
                    break
                new_index = -1 if verdict == -1 else advanced
                if new_index != j:
                    sym_undo.append((s, j))
                    cmp_index[s] = new_index
            if not pruned:
                dfs(new_depth)
            for s, j in sym_undo:
                cmp_index[s] = j
            used[identifier] = False
            ids_by_position[position] = -1
            val[slot] = -1

    dfs(0)
    return leaves, stats["nodes"], stats["sym"]
