"""A simulated service bus hosting the module endpoints.

Real scientific modules live at provider-owned addresses (EBI's SOAP
endpoints, KEGG's REST resources, locally installed programs).  The
:class:`ServiceBus` models that deployment surface: every module is
published under a scheme-qualified address derived from its provider and
supply interface, calls are dispatched through the matching endpoint
simulator, and an invocation log records what the bus served — the raw
accounting a provider-side provenance collector would keep.

Provider shutdowns (workflow decay) surface exactly as they would in the
wild: the addresses stay resolvable, but calls fail with the transport's
unavailability signal.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

from repro.engine import DirectInvoker, Invoker, default_clock
from repro.modules.errors import ModuleInvocationError
from repro.modules.model import InterfaceKind, Module, ModuleContext
from repro.values import TypedValue

_SCHEMES = {
    InterfaceKind.SOAP_SERVICE: "soap",
    InterfaceKind.REST_SERVICE: "http",
    InterfaceKind.LOCAL_PROGRAM: "file",
}


def address_of(module: Module) -> str:
    """The bus address a module is published under."""
    scheme = _SCHEMES[module.interface]
    host = module.provider.lower().replace(" ", "-")
    if module.interface is InterfaceKind.LOCAL_PROGRAM:
        return f"{scheme}:///usr/local/bin/{module.module_id.replace('.', '_')}"
    return f"{scheme}://{host}.example.org/services/{module.module_id}"


@dataclass(frozen=True)
class CallRecord:
    """One served invocation.

    Attributes:
        address: The endpoint called.
        module_id: The module behind it.
        succeeded: Whether the call terminated normally.
        error: The failure class name for failed calls, empty otherwise.
        sequence: Monotonic position in the bus log.
        duration_ms: Wall-clock service time, measured on the engine
            clock (0.0 in records predating the measurement).
    """

    address: str
    module_id: str
    succeeded: bool
    error: str
    sequence: int
    duration_ms: float = 0.0


@dataclass
class ServiceBus:
    """Publishes modules under addresses and dispatches calls to them.

    The bus is thread-safe: the invocation engine's scheduler dispatches
    calls from worker threads, and the log's ``sequence`` numbers stay
    monotonic and gap-free under that concurrency.  Calls go through an
    :class:`~repro.engine.Invoker` (the direct one by default), so a bus
    can be stacked on a caching/retrying/fault-injecting engine without
    touching its accounting.
    """

    ctx: ModuleContext
    invoker: Invoker = field(default_factory=DirectInvoker)
    _by_address: dict[str, Module] = field(default_factory=dict)
    _log: list[CallRecord] = field(default_factory=list)
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    # ------------------------------------------------------------------
    def publish(self, module: Module) -> str:
        """Publish a module; returns its address.

        Raises:
            ValueError: If the address is already taken by another module.
        """
        address = address_of(module)
        with self._lock:
            existing = self._by_address.get(address)
            if existing is not None and existing.module_id != module.module_id:
                raise ValueError(
                    f"address {address} already serves {existing.module_id}"
                )
            self._by_address[address] = module
        return address

    def publish_all(self, modules) -> "dict[str, str]":
        """Publish a module collection; returns module id -> address."""
        return {module.module_id: self.publish(module) for module in modules}

    def addresses(self) -> tuple[str, ...]:
        """All published addresses, insertion-ordered."""
        with self._lock:
            return tuple(self._by_address)

    def resolve(self, address: str) -> Module:
        """The module behind ``address``.

        Raises:
            KeyError: If nothing is published there.
        """
        with self._lock:
            return self._by_address[address]

    # ------------------------------------------------------------------
    def call(
        self, address: str, bindings: dict[str, TypedValue]
    ) -> dict[str, TypedValue]:
        """Dispatch a call through the endpoint at ``address``.

        The call goes through the module's real supply-interface
        simulator; both outcomes are appended to the bus log.

        Raises:
            KeyError: Unknown address.
            ModuleInvocationError: Propagated from the endpoint.
        """
        with self._lock:
            module = self._by_address[address]
        started = default_clock()
        try:
            outputs = self.invoker.invoke(module, self.ctx, bindings)
        except ModuleInvocationError as error:
            self._record(address, module, False, type(error).__name__, started)
            raise
        self._record(address, module, True, "", started)
        return outputs

    def _record(
        self, address: str, module: Module, succeeded: bool, error: str, started: float
    ) -> None:
        duration_ms = (default_clock() - started) * 1000.0
        with self._lock:
            self._log.append(
                CallRecord(
                    address=address,
                    module_id=module.module_id,
                    succeeded=succeeded,
                    error=error,
                    sequence=len(self._log),
                    duration_ms=duration_ms,
                )
            )

    # ------------------------------------------------------------------
    def log(self) -> tuple[CallRecord, ...]:
        """The full call log, oldest first."""
        with self._lock:
            return tuple(self._log)

    def calls_to(self, module_id: str) -> tuple[CallRecord, ...]:
        """Log entries for one module."""
        with self._lock:
            return tuple(r for r in self._log if r.module_id == module_id)

    def failure_rate(self) -> float:
        """Fraction of failed calls (0.0 for an empty log)."""
        with self._lock:
            if not self._log:
                return 0.0
            return sum(not r.succeeded for r in self._log) / len(self._log)

    def total_service_time_ms(self) -> float:
        """Summed wall-clock service time across the whole log."""
        with self._lock:
            return sum(record.duration_ms for record in self._log)
