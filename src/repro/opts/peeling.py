"""First-iteration loop peeling keyed on phi stamp precision.

From the paper (§IV, Other optimizations): "At the end of every round,
we also apply peeling on a loop's first iteration if we detect that the
loop contains a φ-node (i.e. a variable) whose type is more specific in
that first iteration."

The transformation: the loop body is copied once ahead of the loop with
every header phi substituted by its loop-entry value. In the copy, the
precise entry stamps flow into the body, letting canonicalization
devirtualize and fold first-iteration code; the original loop then
starts from the peeled iteration's results.

Peeling is restricted to loops in *canonical shape* — the shape
structured minij loops compile to — and is skipped otherwise (it is an
opportunistic optimization, not a required one):

- exactly one entry edge into the header;
- no side entries into other body blocks;
- exactly one exit block, whose predecessors all lie inside the loop
  (this makes the exit block dominate every outside use of a
  loop-defined value, so the LCSSA-style proxy phis inserted there are
  sound).
"""

from repro.ir import nodes as n
from repro.ir import stamps as st
from repro.ir.dominators import compute_loops
from repro.ir.graph import _copy_node


def peel_loops(graph, program, max_peels=4):
    """Peel qualifying loops, one iteration each; returns count peeled."""
    peeled = 0
    for _ in range(max_peels):
        loops = compute_loops(graph)
        candidate = None
        for loop in loops:
            if _should_peel(loop, program) and _canonical_shape(loop):
                candidate = loop
                break
        if candidate is None:
            break
        _peel(graph, candidate)
        peeled += 1
    return peeled


def _should_peel(loop, program):
    """True if some header phi is strictly more precise on loop entry."""
    header = loop.header
    for index, pred in enumerate(header.preds):
        if pred in loop.blocks:
            continue
        for phi in header.phis:
            entry = phi.inputs[index]
            if entry is None:
                continue
            # The paper keys peeling on *type* precision, so only
            # reference stamps qualify (an int phi with a constant
            # initializer would otherwise peel every counted loop).
            if entry.stamp.kind != st.Stamp.REF:
                continue
            if st.is_strictly_more_precise(entry.stamp, phi.stamp, program):
                return True
    return False


def _canonical_shape(loop):
    header = loop.header
    body = loop.blocks
    entry_edges = [p for p in header.preds if p not in body]
    if len(entry_edges) != 1:
        return False
    exits = set()
    for block in body:
        for succ in block.successors():
            if succ not in body:
                exits.add(succ)
    if len(exits) != 1:
        return False
    exit_block = exits.pop()
    if any(p not in body for p in exit_block.preds):
        return False
    for block in body:
        if block is header:
            continue
        if any(p not in body for p in block.preds):
            return False
    return True


def _peel(graph, loop):
    header = loop.header
    # Dominance order, so every def is mapped before its in-loop uses
    # are copied (block ids are not dominance-ordered after inlining).
    body = [b for b in graph.reverse_postorder() if b in loop.blocks]
    entry_index = next(
        i for i, p in enumerate(header.preds) if p not in loop.blocks
    )
    entry_pred = header.preds[entry_index]
    exit_block = next(
        succ
        for block in body
        for succ in block.successors()
        if succ not in loop.blocks
    )

    # Seed the value map: header phis resolve to their entry values in
    # the peeled copy. Values defined outside the loop map to themselves
    # (they dominate the peeled copy just as they dominate the loop).
    node_map = _IdentityMap()
    for phi in header.phis:
        node_map[phi] = phi.inputs[entry_index]

    _insert_exit_proxies(graph, loop, exit_block)

    # --- copy the body -------------------------------------------------
    block_map = {}
    for block in body:
        copy = graph.new_block()
        copy.frequency = block.frequency
        block_map[block] = copy
    for block in body:
        copy = block_map[block]
        if block is not header:
            for phi in block.phis:
                new_phi = graph.register(
                    n.PhiNode([None] * len(phi.inputs), phi.stamp)
                )
                copy.add_phi(new_phi)
                node_map[phi] = new_phi
        for node in block.instrs:
            copied = _copy_node(node, node_map, graph)
            copy.append(copied)
            node_map[node] = copied
    for block in body:
        copy = block_map[block]
        if block is not header:
            for phi in block.phis:
                new_phi = node_map[phi]
                for i, value in enumerate(phi.inputs):
                    if value is not None:
                        new_phi.set_input(i, node_map.get(value, value))
            copy.preds = [block_map[p] for p in block.preds]
        copy.set_terminator(
            _copy_peel_terminator(graph, block.terminator, node_map, block_map, header)
        )

    header_copy = block_map[header]
    header_copy.preds = [entry_pred]

    # Entry edge targets the peeled copy now.
    entry_pred.terminator.replace_successor(header, header_copy)

    # The original header's entry slot is replaced by the copied
    # backedge edges (the loop continues after the peeled iteration).
    backedge_indices = [
        i for i, p in enumerate(header.preds) if p in loop.blocks
    ]
    copied_back_preds = [block_map[header.preds[i]] for i in backedge_indices]
    original_back_preds = [header.preds[i] for i in backedge_indices]
    for phi in header.phis:
        backedge_values = [phi.inputs[i] for i in backedge_indices]
        copied_values = [
            node_map.get(v, v) if v is not None else None
            for v in backedge_values
        ]
        phi.clear_inputs()
        for value in copied_values + backedge_values:
            phi.add_input(value)
    header.preds = copied_back_preds + original_back_preds

    # Exit block gains one pred per copied exit edge.
    original_exit_preds = list(exit_block.preds)
    for i, pred in enumerate(original_exit_preds):
        copied_pred = block_map[pred]
        exit_block.preds.append(copied_pred)
        for phi in exit_block.phis:
            value = phi.inputs[i]
            phi.add_input(
                node_map.get(value, value) if value is not None else None
            )
    for phi in exit_block.phis:
        phi.recompute_stamp()


class _IdentityMap(dict):
    """A node map that defaults to the identity for unmapped nodes."""

    def __missing__(self, key):
        return key


def _insert_exit_proxies(graph, loop, exit_block):
    """Funnel outside uses of loop-defined values through exit phis.

    After peeling, the original definition no longer dominates outside
    uses (the copied body provides a second version), so every such use
    must read a merge at the exit block. Pre-existing phis *in* the
    exit block already merge per-edge values and are left alone.
    """
    for block in sorted(loop.blocks, key=lambda b: b.id):
        for node in list(block.all_nodes()):
            if node.is_terminator:
                continue
            outside_uses = [
                user
                for user in node.uses
                if user.block is not None
                and user.block not in loop.blocks
                and not (isinstance(user, n.PhiNode) and user.block is exit_block)
            ]
            if not outside_uses:
                continue
            proxy = graph.register(
                n.PhiNode([node] * len(exit_block.preds), node.stamp)
            )
            exit_block.add_phi(proxy)
            for user in outside_uses:
                user.replace_input(node, proxy)


def _copy_peel_terminator(graph, term, node_map, block_map, header):
    def target(block):
        # Copied backedges re-enter the *original* loop.
        if block is header:
            return header
        return block_map.get(block, block)

    if isinstance(term, n.IfNode):
        copied = n.IfNode(
            node_map.get(term.inputs[0], term.inputs[0]),
            target(term.true_block),
            target(term.false_block),
            term.probability,
        )
    elif isinstance(term, n.GotoNode):
        copied = n.GotoNode(target(term.target))
    elif isinstance(term, n.ReturnNode):
        value = term.value()
        copied = n.ReturnNode(
            node_map.get(value, value) if value is not None else None
        )
    elif isinstance(term, n.DeoptNode):
        copied = n.DeoptNode(
            term.reason,
            frames=term.frames,
            state=[node_map.get(x, x) for x in term.inputs],
        )
    else:
        raise TypeError("unexpected terminator %r" % (term,))
    return graph.register(copied)
