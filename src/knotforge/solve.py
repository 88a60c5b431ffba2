"""One search for the finite constraint systems behind colorings and
hom counts.

Variables take values 0..m-1.  A constraint ``(start, ops, target,
solvers)`` says fold(start, ops) == target: start from the value of
variable ``start`` and apply ``acc = table[acc][value[x]]`` for each
``(table, x)`` in ops.  A crossing rule out = in <|^s over and a
relator w == 1 (against a variable pinned to the identity) both read
this way.  ``solvers`` maps a variable that occurs in the constraint
once to a ``(start, ops)`` fold over the others that computes it.

The plan places every forced variable at once and branches only when
nothing is forced, on the free variable whose forcing closure is
largest (the lowest index on ties).  Each constraint is used once: to
solve one variable, or as a check when its last variable gets a value.
The search runs the plan on an explicit stack, so no input size
reaches the recursion limit.
"""

from __future__ import annotations

from collections import deque


def plan(n_vars: int, cons, known=()) -> tuple[list, list]:
    """The search's levels, and the variables in no constraint.  Level
    0 runs once, each later one branches on its variable.  A level is
    ``(var, steps)``, a step ``(start, ops, target, assign)``: set
    target to the fold, or check that the fold equals it."""
    cvars = [sorted({s, t, *(x for _, x in ops)}) for s, ops, t, _ in cons]
    occ: list[list[int]] = [[] for _ in range(n_vars)]
    for k, vs in enumerate(cvars):
        for v in vs:
            occ[v].append(k)
    done = [False] * n_vars
    unknown = [len(vs) for vs in cvars]
    used = [False] * len(cons)
    steps: list = []
    levels = [(None, steps)]
    queue: deque[int] = deque()

    def place(v: int) -> None:
        done[v] = True
        for k in occ[v]:
            if not used[k]:
                unknown[k] -= 1
                if unknown[k] == 0:
                    used[k] = True
                    steps.append((*cons[k][:3], False))
                elif unknown[k] == 1:
                    queue.append(k)

    def closure(v: int) -> set[int]:
        """v and every variable placing v would force."""
        rem: dict[int, int] = {}
        got = {v}
        todo = [v]
        while todo:
            for k in occ[todo.pop()]:
                if used[k]:
                    continue
                rem[k] = rem.get(k, unknown[k]) - 1
                if rem[k] == 1:
                    u = next((u for u in cvars[k]
                              if not done[u] and u not in got), None)
                    if u in cons[k][3]:
                        got.add(u)
                        todo.append(u)
        return got

    for v in known:
        place(v)
    while True:
        while queue:
            k = queue.popleft()
            if used[k] or unknown[k] != 1:
                continue
            u = next(u for u in cvars[k] if not done[u])
            if u in cons[k][3]:
                used[k] = True
                steps.append((*cons[k][3][u], u, True))
                place(u)
        # a variable in a candidate's closure forces no more than the
        # candidate does, so it need not be tried after it
        best, size, covered = None, 0, set()
        for v in range(n_vars):
            if occ[v] and not done[v] and v not in covered:
                got = closure(v)
                if len(got) > size:
                    best, size = v, len(got)
                covered |= got
        if best is None:
            return levels, [v for v in range(n_vars)
                            if not occ[v] and v not in known]
        steps = []
        levels.append((best, steps))
        place(best)


def _run(steps, vals) -> bool:
    for start, ops, target, assign in steps:
        acc = vals[start]
        for tab, x in ops:
            acc = tab[acc][vals[x]]
        if assign:
            vals[target] = acc
        elif acc != vals[target]:
            return False
    return True


def search(n_vars: int, domain: int, cons, known=None,
           stats: dict | None = None, found: list | None = None) -> int:
    """Number of assignments of 0..domain-1 to the variables, with
    ``known`` (variable -> value) fixed, that satisfy every constraint.
    Each solution is appended to ``found`` as a tuple, if it is a list.
    ``stats``, if a dict, gets the search's ``branch_points``,
    ``forced_steps`` and ``nodes`` (branch values tried) added in."""
    known = known or {}
    levels, free = plan(n_vars, cons, known)
    if found is not None:
        levels += [(v, ()) for v in free]
        free = []
    vals = [known.get(v, 0) for v in range(n_vars)]
    last = len(levels) - 1
    nxt = [0] * len(levels)
    nodes = total = depth = 0
    ok = _run(levels[0][1], vals)
    while True:
        if ok:
            if depth < last:
                depth += 1
            else:
                total += 1
                if found is not None:
                    found.append(tuple(vals))
        while depth and nxt[depth] == domain:
            nxt[depth] = 0
            depth -= 1
        if not depth:
            break
        var, steps = levels[depth]
        vals[var] = nxt[depth]
        nxt[depth] += 1
        nodes += 1
        ok = _run(steps, vals)

    if stats is not None:
        forced = sum(step[3] for _, steps in levels for step in steps)
        for key, n in (("branch_points", last), ("forced_steps", forced),
                       ("nodes", nodes)):
            stats[key] = stats.get(key, 0) + n
    return total * domain ** len(free)
