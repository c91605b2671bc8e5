"""Parity of the default execution backend against the tree walker.

Every test here builds its fast interpreter as ``Interpreter(registry)``,
with no ``backend`` argument: the configuration that handlers, plans and
endpoints run under.  So these tests pin that the default backend is the
compiled fast path and that it agrees with the tree oracle on results,
meter readings, split/resume captures, observed-edge meter readings and
error messages.  ``tests/ir/test_compiler.py`` runs the same kind of checks
with ``backend="compiled"`` named explicitly.

The module and some test names are historical: they once covered a second,
source-generating fast backend, since removed.  They are kept so the test
ids stay stable.
"""

import pytest

from repro.errors import InterpreterError
from repro.ir.builder import lower_function
from repro.ir.interpreter import CycleMeter, Interpreter
from repro.ir.registry import default_registry
from tests.ir.test_compiler import (
    LOOP_EDGE,
    LOOP_SOURCE,
    _GenericHook,
    _PlanLikeHook,
)


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


def _interpreters(registry, **kwargs):
    """The tree oracle and the default-backend interpreter, by label."""
    return {
        "tree": Interpreter(registry, backend="tree", **kwargs),
        "default": Interpreter(registry, **kwargs),
    }


def _loop_hook(cls):
    return cls({LOOP_EDGE}, {LOOP_EDGE: ("total", "i", "a")})


def _split_and_resume(registry, hook_cls):
    fn = lower_function(LOOP_SOURCE, registry)
    results = {}
    for label, interp in _interpreters(registry).items():
        meter = CycleMeter()
        hook = _loop_hook(hook_cls)
        outcome = interp.run(fn, [3], split_hook=hook, meter=meter)
        assert outcome.split, label
        cont = outcome.continuation
        resumed = interp.resume(fn, cont, meter=meter)
        results[label] = (
            cont.edge,
            tuple(cont.variables.items()),  # values *and* dict ordering
            resumed.value,
            meter.cycles,
            meter.instructions,
        )
    return results


# -- execution parity on the unit level --------------------------------------


def test_codegen_result_and_meter_match_tree(registry):
    assert Interpreter(registry).backend == "compiled"
    fn = lower_function("def f(a):\n    return costly(a) + 1\n", registry)
    outcomes = {}
    for label, interp in _interpreters(registry).items():
        meter = CycleMeter()
        outcome = interp.run(fn, [3], meter=meter)
        outcomes[label] = (outcome.value, meter.cycles, meter.instructions)
    assert outcomes["tree"] == outcomes["default"]


def test_unregistered_call_on_dead_branch_still_runs(registry):
    # Call targets stay late-bound: run dead branches fine, raise only when
    # the unregistered call is actually reached.
    source = (
        "def f(a):\n"
        "    if a:\n"
        "        return ghost(a)\n"
        "    return 0\n"
    )
    registry.register_function("ghost", lambda x: x)
    fn = lower_function(source, registry)
    for interp in _interpreters(default_registry()).values():
        assert interp.run(fn, [0]).value == 0
        with pytest.raises(InterpreterError, match="ghost"):
            interp.run(fn, [1])


# -- split / resume and observed edges ---------------------------------------


def test_split_and_resume_match_tree(registry):
    # A plan-like hook: the full split set and capture specs up front.
    results = _split_and_resume(registry, _PlanLikeHook)
    assert results["tree"] == results["default"]


def test_generic_split_hook_falls_back(registry):
    # A hook with only the per-edge protocol: the default backend falls back
    # from its frozenset split check to asking should_split at each edge.
    results = _split_and_resume(registry, _GenericHook)
    assert results["tree"] == results["default"]


def test_observed_edges_see_flushed_meter(registry):
    # Per-PSE cycle attribution reads meter.cycles mid-execution (the
    # modulator's observer), so the meter must be up to date before every
    # observer call.
    fn = lower_function(LOOP_SOURCE, registry)
    readings = {}
    for label, interp in _interpreters(registry).items():
        meter = CycleMeter()
        seen = []
        interp.run(
            fn,
            [4],
            edge_observer=lambda edge, env: seen.append(
                (edge, meter.cycles, meter.instructions, sorted(env))
            ),
            observe_edges=frozenset({LOOP_EDGE}),
            meter=meter,
        )
        readings[label] = seen
    assert readings["tree"] == readings["default"]
    assert len(readings["default"]) == 4  # one per loop iteration


# -- error-message parity ----------------------------------------------------


@pytest.mark.parametrize(
    "source,args",
    [
        # variable used before assignment (UnboundLocalError translation)
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
    fn = lower_function(source, registry)
    messages = {}
    for label, interp in _interpreters(registry).items():
        with pytest.raises(InterpreterError) as exc_info:
            interp.run(fn, args)
        messages[label] = str(exc_info.value)
    assert messages["tree"] == messages["default"]


def test_max_steps_message_matches(registry):
    fn = lower_function("def f(a):\n    while True:\n        a += 1\n", registry)
    messages = {}
    for label, interp in _interpreters(registry, max_steps=100).items():
        with pytest.raises(InterpreterError) as exc_info:
            interp.run(fn, [0])
        messages[label] = str(exc_info.value)
    assert messages["tree"] == messages["default"]
