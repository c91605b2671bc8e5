"""Unit tests for the closure-compilation backend.

Differential coverage at the application level lives in
``tests/integration/test_backend_equivalence.py``; here we pin the
compile-cache behaviour, invalidation, split/resume and observer parity,
and error-message parity of the compiled closures against the tree walker.
"""

import pytest

from repro.errors import InterpreterError
from repro.ir.builder import lower_function
from repro.ir.compiler import compile_function
from repro.ir.interpreter import CycleMeter, Interpreter, SplitHook
from repro.ir.registry import default_registry
from repro.ir.values import Var


@pytest.fixture
def registry():
    registry = default_registry()
    registry.register_function(
        "costly", lambda x: x * 2, cycle_cost=lambda x: 100.0
    )
    registry.register_function(
        "emit", lambda v: None, receiver_only=True, pure=False
    )
    return registry


SIMPLE = "def f(a):\n    b = a + 1\n    c = b * 2\n    return c\n"

#: loop + comparison + binop + native invoke + return
LOOP_SOURCE = (
    "def f(a):\n"
    "    total = 0\n"
    "    i = 0\n"
    "    while i < a:\n"
    "        total = total + i\n"
    "        i = i + 1\n"
    "    emit(total)\n"
    "    return total\n"
)

#: the UG edge between the two loop-body assignments of LOOP_SOURCE
LOOP_EDGE = (6, 7)


class _GenericHook(SplitHook):
    """Only the per-edge protocol: no split_edge_set/capture_specs."""

    def __init__(self, edges, captures):
        self._edges = frozenset(edges)
        self._live = {
            e: frozenset(Var(n) for n in names)
            for e, names in captures.items()
        }

    def should_split(self, edge):
        return edge in self._edges

    def live_vars(self, edge):
        return self._live.get(edge, frozenset())


class _PlanLikeHook(_GenericHook):
    """A fast-path hook like the ones PlanRuntime builds: the full split
    set and per-edge capture names are known up front."""

    def split_edge_set(self):
        return self._edges

    def capture_specs(self):
        # the contract: spec order matches live_vars frozenset iteration
        return {
            e: tuple(v.name for v in live) for e, live in self._live.items()
        }


def _both_errors(registry, source, args):
    """Run *source* under both backends; return the two error messages."""
    fn = lower_function(source, registry)
    messages = []
    for backend in ("tree", "compiled"):
        interp = Interpreter(registry, backend=backend)
        with pytest.raises(InterpreterError) as exc_info:
            interp.run(fn, args)
        messages.append(str(exc_info.value))
    return messages


# -- caching -----------------------------------------------------------------


def test_compile_is_cached_per_function(registry):
    fn = lower_function(SIMPLE, registry)
    first = compile_function(fn, registry)
    second = compile_function(fn, registry)
    assert first is second


def test_registry_change_invalidates_cache(registry):
    fn = lower_function(SIMPLE, registry)
    first = compile_function(fn, registry)
    registry.register_function("late", lambda: None)
    second = compile_function(fn, registry)
    assert first is not second


def test_distinct_registries_do_not_share_code(registry):
    fn = lower_function(SIMPLE, registry)
    first = compile_function(fn, registry)
    other = default_registry()
    other.register_function(
        "costly", lambda x: x * 2, cycle_cost=lambda x: 100.0
    )
    assert compile_function(fn, other) is not first
    # ...and flipping back re-uses nothing stale
    assert compile_function(fn, registry) is not first


def test_interpreter_rejects_unknown_backend(registry):
    for backend in ("jit", "codegen"):
        with pytest.raises(ValueError, match="unknown interpreter backend"):
            Interpreter(registry, backend=backend)


# -- execution parity on the unit level --------------------------------------


def test_compiled_result_and_meter_match_tree(registry):
    fn = lower_function("def f(a):\n    return costly(a) + 1\n", registry)
    outcomes = {}
    for backend in ("tree", "compiled"):
        meter = CycleMeter()
        outcome = Interpreter(registry, backend=backend).run(
            fn, [3], meter=meter
        )
        outcomes[backend] = (
            outcome.value,
            meter.cycles,
            meter.instructions,
        )
    assert outcomes["tree"] == outcomes["compiled"]


def test_unregistered_call_on_dead_branch_still_runs(registry):
    # The tree walker resolves call targets lazily at each execution; the
    # compiled backend must preserve that when the execution registry lacks
    # a name the lowering registry had: compile fine, run dead branches
    # fine, raise only when the call is actually reached.
    source = (
        "def f(a):\n"
        "    if a:\n"
        "        return ghost(a)\n"
        "    return 0\n"
    )
    registry.register_function("ghost", lambda x: x)
    fn = lower_function(source, registry)
    bare = default_registry()
    for backend in ("tree", "compiled"):
        interp = Interpreter(bare, backend=backend)
        assert interp.run(fn, [0]).value == 0
        with pytest.raises(InterpreterError, match="ghost"):
            interp.run(fn, [1])


# -- split / resume and observed edges ---------------------------------------


def test_split_and_resume_match_tree(registry):
    # Both hook shapes: the plan-like one takes the compiled backend's
    # frozenset fast path, the generic one its per-edge should_split path.
    fn = lower_function(LOOP_SOURCE, registry)
    for hook_cls in (_PlanLikeHook, _GenericHook):
        results = {}
        for backend in ("tree", "compiled"):
            interp = Interpreter(registry, backend=backend)
            meter = CycleMeter()
            hook = hook_cls({LOOP_EDGE}, {LOOP_EDGE: ("total", "i", "a")})
            outcome = interp.run(fn, [3], split_hook=hook, meter=meter)
            assert outcome.split, backend
            cont = outcome.continuation
            resumed = interp.resume(fn, cont, meter=meter)
            results[backend] = (
                cont.edge,
                tuple(cont.variables.items()),  # values *and* dict order
                resumed.value,
                meter.cycles,
                meter.instructions,
            )
        assert results["tree"] == results["compiled"], hook_cls.__name__


def test_observed_edges_see_current_meter(registry):
    # Per-PSE cycle attribution reads meter.cycles mid-execution (the
    # modulator's observer), so the meter must be current at every
    # observed edge.
    fn = lower_function(LOOP_SOURCE, registry)
    readings = {}
    for backend in ("tree", "compiled"):
        meter = CycleMeter()
        seen = []
        Interpreter(registry, backend=backend).run(
            fn,
            [4],
            edge_observer=lambda edge, env: seen.append(
                (edge, meter.cycles, meter.instructions, sorted(env))
            ),
            observe_edges=frozenset({LOOP_EDGE}),
            meter=meter,
        )
        readings[backend] = seen
    assert readings["tree"] == readings["compiled"]
    assert len(readings["compiled"]) == 4  # one per loop iteration


# -- error-message parity ----------------------------------------------------


@pytest.mark.parametrize(
    "source,args",
    [
        # variable used before assignment
        ("def f(a):\n    if a:\n        x = 1\n    return x\n", [0]),
        # BinOp type failure
        ("def f(a):\n    return a + 'no'\n", [1]),
        # division by zero
        ("def f(a):\n    return 1 // a\n", [0]),
        # Compare type failure
        ("def f(a):\n    return a < 'no'\n", [1]),
        # UnaryOp type failure
        ("def f(a):\n    return -a\n", ["no"]),
        # call raising inside a native
        ("def f(a):\n    return costly(a, a)\n", [1]),
        # attribute access failure
        ("def f(a):\n    return a.missing\n", [1]),
        # indexing failure
        ("def f(a):\n    return a[5]\n", [[1]]),
    ],
)
def test_error_messages_match_tree_walker(registry, source, args):
    tree_msg, compiled_msg = _both_errors(registry, source, args)
    assert tree_msg == compiled_msg


def test_max_steps_message_matches(registry):
    fn = lower_function("def f(a):\n    while True:\n        a += 1\n", registry)
    messages = []
    for backend in ("tree", "compiled"):
        interp = Interpreter(registry, max_steps=100, backend=backend)
        with pytest.raises(InterpreterError) as exc_info:
            interp.run(fn, [0])
        messages.append(str(exc_info.value))
    assert messages[0] == messages[1]
