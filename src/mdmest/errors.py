"""Exception types shared across the package."""

from __future__ import annotations


def _rebuilt(cls, args, state):
    """The error ``cls`` with the message ``args`` and the fields ``state``,
    made without calling its ``__init__``."""
    exc = cls.__new__(cls)
    exc.args = args
    exc.__dict__.update(state)
    return exc


class MdmError(Exception):
    """Base class for all errors raised by this package.

    ``run`` is the index of the failing run when a batch of runs was
    processed together (``StackedSystem.residues``,
    ``ordinary_estimates``, ``weighted_estimates``) and the error is that
    run's alone, else None: a failure of the design itself (a rank-deficient
    design, a weight band over the assembly budget) fails every run alike
    and carries None.  ``weighted_estimates`` finds the run by solving a
    failed batch again one run at a time, without a projection warning.
    An error pickles as its message and fields, so that one raised in a
    worker process (``run_mc(..., workers=N)``) reaches the caller as it
    was raised: the ``__init__`` of a subclass takes fields, not the
    message, and unpickling by calling it again would fail.
    """

    run: int | None = None

    def __reduce__(self):
        return _rebuilt, (type(self), self.args, self.__dict__)


class ValidationError(MdmError):
    """Model or structure specification is inconsistent.

    Carries the list of findings produced by ``model.validate``.
    """

    def __init__(self, findings: list[str]):
        self.findings = list(findings)
        super().__init__("; ".join(self.findings))


class DataError(MdmError):
    """Measurement data is missing, ragged, or too short for the request."""

    def __init__(self, message: str, run: int | None = None):
        super().__init__(message)
        self.run = run


class NoAnnihilator(MdmError):
    """The target matrix has full row rank, so no left annihilator exists.

    For residue construction this signals that the window length L is too
    small; ``minimal_feasible_l`` is filled in when a scan found a larger
    window that works.  The message is built from the fields when shown.
    """

    def __init__(self, rows: int, rank: int, k: int | None = None,
                 minimal_feasible_l: int | None = None):
        super().__init__(rows, rank)
        self.rows = rows
        self.rank = rank
        self.k = k
        self.minimal_feasible_l = minimal_feasible_l

    def __str__(self) -> str:
        msg = f"matrix with {self.rows} rows has full row rank {self.rank}; no annihilator"
        if self.k is not None:
            msg += f" (time index k={self.k})"
        if self.minimal_feasible_l is not None:
            msg += f"; smallest feasible window length is L={self.minimal_feasible_l}"
        return msg


class RankDeficientDesign(MdmError):
    """The stacked design matrix has numerical rank below n_alpha.

    Fewer noise covariance parameters are identifiable than were requested;
    the design's ``null_basis`` and ``participation`` give the
    unidentifiable directions.
    """

    def __init__(self, rank: int, n_alpha: int):
        self.rank = rank
        self.n_alpha = n_alpha
        super().__init__(
            f"design matrix rank {rank} < {n_alpha} parameters; "
            "not all noise covariance parameters are identifiable"
        )


class IndefiniteWeight(MdmError):
    """The estimated weighting matrix has significantly negative eigenvalues."""


class NotPositiveSemidefinite(MdmError):
    """A covariance matrix that must be PSD is not."""
