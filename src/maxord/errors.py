"""Error types shared across the package.

Every error carries a stable ``code`` string so the CLI can emit
machine-readable error records.
"""


class MaxordError(Exception):
    code = "Error"

    def __init__(self, message="", location=None):
        super().__init__(message)
        self.message = message
        self.location = location

    def record(self):
        return {
            "code": self.code,
            "message": self.message,
            "location": self.location,
        }


class ParseError(MaxordError):
    code = "ParseError"


class InputNotIntegral(MaxordError):
    code = "InputNotIntegral"


class RankDeficient(MaxordError):
    code = "RankDeficient"


class NotSublattice(MaxordError):
    code = "NotSublattice"


class AlgebraMismatch(MaxordError):
    code = "AlgebraMismatch"


class NeedsSuppliedIdempotents(MaxordError):
    code = "NeedsSuppliedIdempotents"


class NeedsSuppliedPrimes(MaxordError):
    code = "NeedsSuppliedPrimes"


class BadIdempotents(MaxordError):
    code = "BadIdempotents"


class NotIntegral(MaxordError):
    code = "NotIntegral"


class NotFullRank(MaxordError):
    code = "NotFullRank"


class NotPrime(MaxordError):
    code = "NotPrime"


class NotSemisimple(MaxordError):
    code = "NotSemisimple"


class ZeroElement(MaxordError):
    code = "ZeroElement"


class EmbeddingNotAlgebraMap(MaxordError):
    code = "EmbeddingNotAlgebraMap"


class ActionMismatch(MaxordError):
    code = "ActionMismatch"


class NotContained(MaxordError):
    code = "NotContained"


class NotAModuleMap(MaxordError):
    code = "NotAModuleMap"


class BoundExceeded(MaxordError):
    code = "BoundExceeded"


class InternalError(MaxordError):
    code = "InternalError"
