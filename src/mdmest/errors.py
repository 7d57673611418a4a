"""Exception types shared across the package."""

from __future__ import annotations


class MdmError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(MdmError):
    """Model or structure specification is inconsistent.

    Carries the list of findings produced by ``model.validate``.
    """

    def __init__(self, findings: list[str]):
        self.findings = list(findings)
        super().__init__("; ".join(self.findings))


class DataError(MdmError):
    """Measurement data is missing, ragged, or too short for the request."""


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
    see ``identifiability_report`` for the unidentifiable directions.
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
