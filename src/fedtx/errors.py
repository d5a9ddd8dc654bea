"""Exception hierarchy shared across the package."""


class FedtxError(Exception):
    """Base class for all errors raised by this package."""


class UnknownStorage(FedtxError):
    """A key names a storage that is not registered."""


class UnknownView(FedtxError):
    """A view read named a view that was never registered."""


class CapabilityUnsupported(FedtxError):
    """An operation requires an adapter capability that is not declared."""


class AtomicityScopeViolation(FedtxError):
    """A batch (or multi-key read) spans more than one atomic-write scope."""


class JoinIntegrityError(FedtxError):
    """Exactly one half of a split application/metadata record pair exists.

    Split writes always create or remove both halves in one atomic batch, so a
    one-sided row indicates external interference or corruption.
    """


class MissingMetadata(FedtxError):
    """A row read as a record carries none of the ``_tx_*`` metadata columns.

    Every row a transaction writes carries them. A row without them was
    written by hand, or is a split record's application row read by a
    manager whose ``DecoupleConfig`` does not split its namespace.
    """


class ConflictAbort(FedtxError):
    """The transaction lost a conflict and was rolled back.

    Raised by ``commit()`` after the transaction's prepared records have been
    restored and its outcome recorded; the caller may retry with a fresh
    transaction.
    """

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


class RecoveryFailed(FedtxError):
    """An in-doubt record could not be resolved after repeated attempts."""


class TransactionFinished(FedtxError):
    """An operation was attempted on a committed or aborted transaction."""


class InjectedCrash(FedtxError):
    """A planned fault fired; simulates the process dying mid-operation.

    Deliberately NOT handled by the transaction pipeline: whatever state the
    stores are in when this propagates is exactly the state a real crash
    would leave behind.
    """

