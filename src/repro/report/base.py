"""Shared report envelope: one JSON shape for every CLI-facing output.

Every report the toolchain can emit — simulation results, static-analysis
diagnostics, fault-campaign summaries, profiles — derives from
:class:`Report` and serialises through the same envelope::

    {"schema_version": 3, "kind": "<report kind>", ...payload...}

The payload is merged at the top level (not nested under a key) so that
pre-envelope consumers indexing ``d["ok"]`` / ``d["design"]`` keep
working; ``schema_version`` lets them detect shape changes from here on.

Version 2 removed keys that only a stopped or substituted run could set:
``finished`` from ``simulation`` and ``profile`` reports, and
``simulated_design`` / ``pilot`` from ``profile``, ``shrink``,
``faultsim`` and ``fault-campaign`` reports (a run is always the whole
run of the design it names). Version 3 removed ``fell_back`` from each
engine run of ``shard`` reports (an engine that runs is the one asked
for; a compiled run that cannot be lowered raises instead).
"""

from __future__ import annotations

import json
from collections.abc import Mapping
from typing import Any, ClassVar, Dict, Iterator

#: Bump when any report's JSON shape changes incompatibly.
SCHEMA_VERSION = 3


class Report:
    """Base class for every serialisable report.

    Subclasses set :attr:`kind` and implement :meth:`to_dict` (plain,
    JSON-serialisable payload) and :meth:`summary` (one-line human
    digest). :meth:`envelope` / :meth:`to_json` are shared.
    """

    kind: ClassVar[str] = "report"

    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict payload; must be JSON-serialisable."""
        raise NotImplementedError

    def summary(self) -> str:
        """One-line human-readable digest of the report."""
        return f"{self.kind} report"

    def envelope(self) -> Dict[str, Any]:
        """Payload wrapped with the shared version/kind header."""
        return {
            "schema_version": SCHEMA_VERSION,
            "kind": self.kind,
            **self.to_dict(),
        }

    def to_json(self, indent: int = 2) -> str:
        """The envelope as a JSON string."""
        return json.dumps(self.envelope(), indent=indent)

    def write_json(self, path: str) -> None:
        """Write the envelope to ``path`` (the CLI's ``--json PATH``)."""
        with open(path, "w") as fh:
            fh.write(self.to_json() + "\n")


class MappingReport(Report, Mapping):
    """A dict-shaped report behind the shared envelope.

    Implements :class:`collections.abc.Mapping`, so every pre-envelope
    consumer that indexed the plain dict (``report["ok"]``,
    ``report.get("verdict")``, iteration) keeps working unchanged; the
    data is read-only from the outside.
    """

    def __init__(self, data: Dict[str, Any]):
        self._data = data

    def __getitem__(self, key: str) -> Any:
        return self._data[key]

    def __iter__(self) -> Iterator[str]:
        return iter(self._data)

    def __len__(self) -> int:
        return len(self._data)

    def to_dict(self) -> Dict[str, Any]:
        return dict(self._data)
