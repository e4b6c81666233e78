"""Exception types shared across the simulator."""


class SimulatorError(Exception):
    """Base class for all errors raised by this package."""


class ShapeError(SimulatorError):
    """Dimension mismatch between states or operators."""


class DomainError(SimulatorError):
    """Argument outside its valid range."""


class CapacityError(DomainError):
    """A 2^n array or dense operator above its qubit cap, refused before allocation."""


class PromiseError(SimulatorError):
    """Oracle construction that cannot satisfy the 2-to-1 promise."""


class IntegrationError(SimulatorError):
    """Time evolution lost unitarity beyond tolerance."""


class ResampleError(SimulatorError):
    """Sampled a measurement branch whose probability underflowed to zero."""


class ContradictionError(SimulatorError):
    """GF(2) system has full rank, which the xor-mask promise forbids."""
