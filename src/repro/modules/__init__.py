"""Scientific module model, supply interfaces and the module catalog.

The service bus (:mod:`repro.modules.hosting`) is not re-exported: it
calls through :mod:`repro.engine`, which imports this package's errors
and model, so importing it here would make the two packages' import
order matter.
"""

from repro.modules.behavior import BehaviorSpec, Branch
from repro.modules.errors import (
    InvalidInputError,
    ModuleInvocationError,
    ModuleUnavailableError,
    RestError,
    SoapFault,
    TransportError,
)
from repro.modules.model import (
    Category,
    InterfaceKind,
    Module,
    ModuleContext,
    Parameter,
)

__all__ = [
    "Module",
    "ModuleContext",
    "Parameter",
    "Category",
    "InterfaceKind",
    "BehaviorSpec",
    "Branch",
    "ModuleInvocationError",
    "InvalidInputError",
    "ModuleUnavailableError",
    "TransportError",
    "SoapFault",
    "RestError",
]
