"""Suite reports and deterministic output writers.

Floats written to CSV use 17 significant digits so that a round-trip through
the file reproduces the exact double.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import time
from dataclasses import asdict, dataclass

import numpy as np


def fmt17(value: float) -> str:
    """Format a float with 17 significant digits (lossless for float64)."""
    return format(float(value), ".17g")


@dataclass
class IdentityReport:
    """Outcome of one verification suite, and the tally that builds it.

    ``failures == 0`` means the suite passed; ``max_residual`` is the largest
    finite residual seen (0.0 for exact integer suites), so the report stays
    valid JSON, and ``nonfinite`` counts the NaN and infinite residuals it
    leaves out.  A suite runs inside :meth:`timed` and adds its numeric
    cases with :meth:`record`, one per residual of a float or an array, and
    its exact cases with :meth:`check`; a residual passes only when it is at
    most its tolerance, so NaN and infinity fail.
    """

    suite: str
    cases: int = 0
    failures: int = 0
    max_residual: float = 0.0
    nonfinite: int = 0
    seed: int = 0
    elapsed_ms: int = 0

    @property
    def passed(self) -> bool:
        return self.failures == 0

    @contextlib.contextmanager
    def timed(self):
        """Yields this report and sets ``elapsed_ms`` when the block ends."""
        start = time.perf_counter()
        yield self
        self.elapsed_ms = int((time.perf_counter() - start) * 1000)

    def record(self, residuals, tol: float) -> None:
        """One numeric case per entry of the array ``residuals`` (a float is one case)."""
        residuals = np.asarray(residuals, dtype=np.float64)
        self.check(residuals <= tol)
        finite = residuals[np.isfinite(residuals)]
        self.nonfinite += residuals.size - finite.size
        if finite.size:
            self.max_residual = max(self.max_residual, float(finite.max()))

    def check(self, ok) -> None:
        """One exact case per entry of the boolean array ``ok`` (a bool is one
        case); it leaves ``max_residual`` unchanged."""
        ok = np.asarray(ok)
        self.cases += ok.size
        self.failures += ok.size - int(np.count_nonzero(ok))

    def to_dict(self) -> dict:
        return asdict(self)

    def summary(self) -> str:
        status = "pass" if self.passed else "FAIL"
        return (
            f"[{status}] {self.suite}: cases={self.cases} "
            f"failures={self.failures} max_residual={self.max_residual:.3e} "
            f"nonfinite={self.nonfinite} ({self.elapsed_ms} ms)"
        )


def file_digest(path: str) -> str:
    """SHA-256 hex digest of a file."""
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def write_spectrum_csv(path: str, samples, kind: str, n: int, t: float,
                       id_names=("sample_id",), ids=None) -> None:
    """Write the spectra of ``samples`` (a
    :class:`~octodyson.simulate.SampledSpectra`), one row per sample led by
    its integer ids under the ``id_names`` columns; byte-deterministic for
    fixed arrays.  ``ids`` holds one sequence of ints per id column, each
    with one entry per sample (by default the sample's position).

    The rows are zipped from the columns, and each fills one ``%``-format
    template with ``%d`` ids and multiplicities and ``%.17g`` floats (the
    text of :func:`fmt17`).
    """
    if ids is None:
        ids = [range(len(samples))]
    header = [*id_names, "model", "n", "t", *(f"x{i + 1}" for i in range(n)),
              *(f"mult{i + 1}" for i in range(n)), "spread"]
    fixed = f"{kind},{n},{fmt17(t)},".replace("%", "%%")
    template = "%d," * len(id_names) + fixed + "%.17g," * n + "%d," * n + "%.17g\n"
    rows = zip(*ids, *samples.distinct.T.tolist(), *samples.multiplicities.T.tolist(),
               samples.spread.tolist())
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(map(template.__mod__, rows))


def json_text(payload: dict) -> str:
    """Indented strict JSON of ``payload``, with null for non-finite floats."""
    return json.dumps(json.loads(json.dumps(payload), parse_constant=lambda _: None), indent=2)


def write_stats_json(path: str, payload: dict) -> None:
    """Write :func:`json_text` of ``payload`` plus a newline: statistics,
    suite reports and manifests."""
    with open(path, "w", newline="\n") as fh:
        fh.write(json_text(payload) + "\n")
