"""Exception types shared across the package."""


class CovsteerError(Exception):
    """Base class for every error raised by this package."""


class ConfigError(CovsteerError):
    """A run configuration is structurally or semantically invalid."""


class InvalidActionError(CovsteerError):
    """An action violates the environment's action space."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(v.message for v in self.violations))


class ScoreboardError(CovsteerError):
    """DUT output disagreed with its golden reference model."""


class BlockFormatError(CovsteerError):
    """Compressed block data cannot be decoded back to a word sequence."""


class AddressDecodeError(CovsteerError):
    """An address falls outside the crossbar's slave map."""


class ReportError(CovsteerError):
    """Episode logs handed to the report command are unusable together."""


class BridgeError(CovsteerError):
    """Base class for wire-protocol failures."""


class BridgeDecodeError(BridgeError):
    """A received line is not a valid protocol message."""


class BridgeProtocolError(BridgeError):
    """The peer violated the request/response protocol (bad version, wrong reply)."""


class RemoteDutError(BridgeError):
    """The serving side answered with an error message."""

    def __init__(self, code, detail):
        self.code = code
        self.detail = detail
        super().__init__(f"{code}: {detail}")


class TransportError(BridgeError):
    """The byte stream closed or timed out mid-session."""
