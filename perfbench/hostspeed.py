"""Host-speed calibration: wall times scaled to a nominal host.

The benchmark runs on shared machines whose speed drifts: on a 2-core
Linux container a fixed pure-Python loop ran anywhere from 1.8 to 4.5
ms per call, in spells of seconds to minutes, so whole 25-second runs
landed in a slow spell and read a third slower than the run before.
No statistic over one run removes a spell that covers the run.

So every timed interval is bracketed by calls to :func:`probe`, which
times a fixed calibration a few times, and the interval is reported
scaled by ``NOMINAL_S / median(probe times)``: the time it would have
taken on a host that runs the calibration in ``NOMINAL_S``. The
calibration mixes the kinds of work the VM does (opcode dispatch over
lists and slots, a recursive walk with string-keyed lookups, CPython's
compiler on generated source and the code it makes) but calls none of
the VM's code, so a change to the VM moves only the measured interval,
never its scale. Against the VM's cold iterations it tracked host
speed better than the dispatch loop alone (slope of log VM time on log
calibration time 0.70 against 0.56). The human report prints the
run's median scale, so wall time is about value / scale.
"""

import random
import statistics
import time

#: The calibration's time on the nominal host (about its fastest on the
#: container above), which makes a scaled time read close to the wall
#: time of an unloaded host.
NOMINAL_S = 0.002
REPS = 3

_CODE = (
    ("push", 1), ("load", 0), ("add", None), ("store", 0),
    ("load", 1), ("push", 1), ("sub", None), ("store", 1),
    ("load", 1), ("jnz", 0),
)


class _Frame:
    __slots__ = ("locals", "stack")

    def __init__(self, count):
        self.locals = [0, count]
        self.stack = []


def _dispatch(count):
    """A stack-machine loop: opcode dispatch, list and slot access."""
    frame = _Frame(count)
    histogram = {}
    pc = 0
    while pc < len(_CODE):
        op, arg = _CODE[pc]
        histogram[op] = histogram.get(op, 0) + 1
        stack = frame.stack
        if op == "push":
            stack.append(arg)
        elif op == "load":
            stack.append(frame.locals[arg])
        elif op == "store":
            frame.locals[arg] = stack.pop()
        elif op == "add":
            right = stack.pop()
            stack.append(stack.pop() + right)
        elif op == "sub":
            right = stack.pop()
            stack.append(stack.pop() - right)
        elif op == "jnz" and stack.pop():
            pc = arg
            continue
        pc += 1
    return frame.locals[0]


class _Node:
    __slots__ = ("kind", "value", "left", "right")

    def __init__(self, kind, value, left=None, right=None):
        self.kind = kind
        self.value = value
        self.left = left
        self.right = right


def _tree(depth, rng):
    if depth == 0:
        return _Node("const", rng.randrange(100))
    return _Node(rng.choice(("add", "sub", "mul", "max")), 0,
                 _tree(depth - 1, rng), _tree(depth - 1, rng))


_TREES = [_tree(7, random.Random(index)) for index in range(4)]
_NAMES = {"k%d" % index: index for index in range(4096)}


def _evaluate(node):
    """A recursive tree walk: calls, attribute and string-keyed lookups."""
    kind = node.kind
    if kind == "const":
        return node.value + _NAMES["k%d" % (node.value * 37 % 4096)]
    left = _evaluate(node.left)
    right = _evaluate(node.right)
    if kind == "add":
        return left + right
    if kind == "sub":
        return left - right
    if kind == "mul":
        return (left * right) & 0xFFFF
    return left if left > right else right


_SOURCE = "".join(
    "def f%d(a, b):\n"
    "    x = a + b * %d\n"
    "    for i in range(b):\n"
    "        x = (x ^ i) & 0xffff\n"
    "    return [x, a, b, {'k': x}]\n" % (index, index)
    for index in range(16)
)


def _compile_and_run():
    """CPython's compiler on generated source, then the code it made."""
    namespace = {}
    exec(compile(_SOURCE, "<calibration>", "exec"), namespace)
    return [namespace["f%d" % index](index, 20) for index in range(16)]


def _calibration():
    _dispatch(300)
    for tree in _TREES:
        _evaluate(tree)
    _compile_and_run()


def probe(reps=REPS):
    """Wall times of *reps* runs of the calibration."""
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        _calibration()
        times.append(time.perf_counter() - start)
    return times


def scale(*probes):
    """The factor from wall time to nominal-host time for an interval
    bracketed by *probes* (each a :func:`probe` result)."""
    return NOMINAL_S / statistics.median(t for one in probes for t in one)
