"""Shared fixtures: small reference circuits used across the test suite.

Also enforces the per-test wall-clock cap.  ``pyproject.toml`` sets
``timeout = 120`` for pytest-timeout; when that plugin is not installed
this conftest registers the same ini keys (so pytest does not warn about
them) and applies the cap itself with ``SIGALRM`` on POSIX main threads.
Either way a hung solver cannot wedge the whole suite.

And it fails any test module that leaves tracing, metrics or an active
artifact store switched on when it finishes (``no_leaked_global_state``).
"""

from __future__ import annotations

import signal
import threading

import pytest

from repro.netlist import Circuit, CircuitBuilder

try:
    import pytest_timeout  # noqa: F401

    _HAVE_TIMEOUT_PLUGIN = True
except ImportError:
    _HAVE_TIMEOUT_PLUGIN = False


if not _HAVE_TIMEOUT_PLUGIN:

    def pytest_addoption(parser):
        parser.addini("timeout", "per-test seconds cap (SIGALRM fallback)",
                      default="0")
        parser.addini("timeout_method",
                      "accepted for pytest-timeout compatibility; the "
                      "fallback always uses SIGALRM", default="signal")

    def _fallback_seconds(item) -> float:
        marker = item.get_closest_marker("timeout")
        if marker is not None and marker.args:
            return float(marker.args[0])
        try:
            return float(item.config.getini("timeout") or 0)
        except (TypeError, ValueError):
            return 0.0

    @pytest.hookimpl(hookwrapper=True)
    def pytest_runtest_call(item):
        seconds = _fallback_seconds(item)
        usable = (
            seconds > 0
            and hasattr(signal, "SIGALRM")
            and threading.current_thread() is threading.main_thread()
        )
        if not usable:
            yield
            return

        def _expired(signum, frame):
            pytest.fail(f"test exceeded the {seconds:g}s fallback timeout",
                        pytrace=False)

        previous = signal.signal(signal.SIGALRM, _expired)
        signal.setitimer(signal.ITIMER_REAL, seconds)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)


@pytest.fixture(scope="module", autouse=True)
def no_leaked_global_state():
    """Fail a test module that leaves process-global state switched on.

    Tracing, metrics and the active artifact store are process-wide, so
    a module that leaves any of them on changes what every later module
    records or reads.  The state is reset before failing, so a leak is
    reported once, against the module that caused it.
    """
    yield
    from repro import telemetry
    from repro.store import active_store, deactivate_store

    leaked = [
        name
        for name, on in (
            ("tracing", telemetry.tracing_enabled()),
            ("metrics", telemetry.metrics_enabled()),
            ("an active artifact store", active_store() is not None),
        )
        if on
    ]
    if leaked:
        telemetry.disable()
        deactivate_store()
        pytest.fail(f"test module left {', '.join(leaked)} on",
                    pytrace=False)


@pytest.fixture
def fig1_circuit() -> Circuit:
    """The paper's Fig. 1 motivating circuit: F = (A AND B)(C + D).

    Net ``X`` (= AB) feeds only the final AND and is a fanout-free cone;
    net ``Y`` (= C + D) is the ODC trigger: when Y = 0 the final AND
    blocks X entirely.
    """
    circuit = Circuit("fig1")
    circuit.add_inputs(["A", "B", "C", "D"])
    circuit.add_gate("X", "AND", ["A", "B"])
    circuit.add_gate("Y", "OR", ["C", "D"])
    circuit.add_gate("F", "AND", ["X", "Y"])
    circuit.add_output("F")
    circuit.validate()
    return circuit


@pytest.fixture
def fig1_modified() -> Circuit:
    """The paper's Fig. 1 right-hand circuit: X also depends on Y."""
    circuit = Circuit("fig1_mod")
    circuit.add_inputs(["A", "B", "C", "D"])
    circuit.add_gate("Y", "OR", ["C", "D"])
    circuit.add_gate("X", "AND", ["A", "B", "Y"])
    circuit.add_gate("F", "AND", ["X", "Y"])
    circuit.add_output("F")
    circuit.validate()
    return circuit


@pytest.fixture
def adder4() -> Circuit:
    """A 4-bit ripple-carry adder (9 inputs, 5 outputs)."""
    builder = CircuitBuilder("adder4")
    a = builder.inputs("a", 4)
    b = builder.inputs("b", 4)
    cin = builder.input("cin")
    sums, carry = builder.ripple_adder(a, b, cin)
    builder.outputs([f"s{i}" for i in range(4)] + ["cout"])
    for i, net in enumerate(sums):
        builder.circuit.add_gate(f"s{i}", "BUF", [net])
    builder.circuit.add_gate("cout", "BUF", [carry])
    return builder.done()


@pytest.fixture
def deep_chain() -> Circuit:
    """A 6-gate inverter/AND chain with one side input per stage."""
    circuit = Circuit("chain")
    circuit.add_inputs(["x"] + [f"s{i}" for i in range(3)])
    circuit.add_gate("n0", "INV", ["x"])
    circuit.add_gate("n1", "AND", ["n0", "s0"])
    circuit.add_gate("n2", "INV", ["n1"])
    circuit.add_gate("n3", "OR", ["n2", "s1"])
    circuit.add_gate("n4", "NAND", ["n3", "s2"])
    circuit.add_gate("n5", "INV", ["n4"])
    circuit.add_output("n5")
    circuit.validate()
    return circuit


def make_parity(n: int) -> Circuit:
    """XOR parity tree over ``n`` inputs (helper, not a fixture)."""
    builder = CircuitBuilder(f"parity{n}")
    nets = builder.inputs("p", n)
    root = builder.xor_tree(nets)
    builder.output(root)
    return builder.done()


@pytest.fixture
def parity8() -> Circuit:
    return make_parity(8)
