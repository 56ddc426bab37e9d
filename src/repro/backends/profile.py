"""Declarative backend profiles — markdown-authored engine intelligence.

A :class:`BackendProfile` describes a *real* engine the middleware can sit
in front of: which hint dialect it speaks, which access paths it actually
honors, and its field-observed strengths and gaps.  The profile is authored
as markdown (the document IS the profile — see SNIPPETS.md snippet 3 for
the exemplar) and parsed into a frozen dataclass, so what a human reads in
a review is exactly what parameterizes the planner.

Two things consume a profile:

* the MDP action space — :meth:`BackendProfile.prune_space` drops every
  rewrite option whose hint set the engine cannot honor, so the planner
  never proposes a hint the backend would ignore or reject;
* the simulated engine — :meth:`BackendProfile.sim_profile` derives the
  :class:`~repro.db.database.SimProfile` (hint-ignore probability, noise)
  that keeps the QTE/cost model consistent with the real engine's
  behaviour while training still runs on the in-memory substrate.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import lru_cache

from ..core.options import RewriteOption, RewriteOptionSpace
from ..db.database import SimProfile
from ..db.query import HintSet
from ..db.schema import TableSchema
from ..db.types import ColumnKind
from ..errors import BackendError

__all__ = [
    "BackendProfile",
    "ProfileGap",
    "ProfileNote",
    "backend_profile",
    "duckdb_profile",
    "memory_profile",
    "sqlite_profile",
]


@dataclass(frozen=True)
class ProfileNote:
    """One row of a profile's strengths table."""

    id: str
    summary: str
    note: str


@dataclass(frozen=True)
class ProfileGap:
    """One ``#### [SEVERITY] ID`` gap block of a profile."""

    severity: str
    id: str
    what: str
    why: str
    hunt: str


@dataclass(frozen=True)
class BackendProfile:
    """Declarative description of a real execution backend.

    ``honored_index_kinds`` / ``max_index_hints`` / ``honored_join_methods``
    are the machine-readable capability surface (parsed from the markdown's
    Capabilities table); ``strengths`` and ``gaps`` carry the narrative
    field notes verbatim.
    """

    name: str
    title: str
    briefing: str
    hint_dialect: str
    #: Column kinds whose index hints the engine can actually honor.
    honored_index_kinds: frozenset[ColumnKind]
    #: Maximum index hints per table scan (``None`` = unlimited).
    max_index_hints: int | None
    #: Join-method hints the engine can honor (empty = none).
    honored_join_methods: frozenset[str]
    #: Probability the engine silently ignores honored-looking hints.
    sim_hint_ignore_prob: float
    #: Execution-noise sigma for the derived simulation profile.
    sim_noise_sigma: float
    strengths: tuple[ProfileNote, ...] = field(default=())
    gaps: tuple[ProfileGap, ...] = field(default=())

    # ------------------------------------------------------------------
    # Markdown parsing (the document is the profile)
    # ------------------------------------------------------------------

    _GAP_RE = re.compile(r"^####\s*\[(?P<sev>[A-Z]+)\]\s*(?P<id>[A-Z0-9_]+)\s*$")
    _FIELD_RE = re.compile(r"^\*\*(?P<key>What|Why|Hunt)\*\*:\s*(?P<value>.*)$")

    @classmethod
    def from_markdown(cls, name: str, text: str) -> "BackendProfile":
        title = ""
        briefing_lines: list[str] = []
        capabilities: dict[str, str] = {}
        strengths: list[ProfileNote] = []
        gaps: list[ProfileGap] = []

        section = ""
        gap_head: tuple[str, str] | None = None
        gap_fields: dict[str, str] = {}

        def flush_gap() -> None:
            nonlocal gap_head, gap_fields
            if gap_head is not None:
                severity, gap_id = gap_head
                gaps.append(
                    ProfileGap(
                        severity=severity,
                        id=gap_id,
                        what=gap_fields.get("What", ""),
                        why=gap_fields.get("Why", ""),
                        hunt=gap_fields.get("Hunt", ""),
                    )
                )
            gap_head, gap_fields = None, {}

        for raw in text.splitlines():
            line = raw.strip()
            if line.startswith("# ") and not title:
                title = line[2:].strip()
                continue
            if line.startswith("### "):
                flush_gap()
                section = line[4:].split("—")[0].strip().lower()
                continue
            gap_match = cls._GAP_RE.match(line)
            if gap_match is not None:
                flush_gap()
                gap_head = (gap_match.group("sev"), gap_match.group("id"))
                continue
            if gap_head is not None:
                field_match = cls._FIELD_RE.match(line)
                if field_match is not None:
                    gap_fields[field_match.group("key")] = field_match.group(
                        "value"
                    ).strip()
                continue
            if line.startswith("|"):
                cells = [c.strip() for c in line.strip("|").split("|")]
                # A separator row is dashes in EVERY cell; a single "-" cell
                # is a legitimate empty-set capability value.
                if cells and all(
                    set(c) <= {"-", " ", ":"} and "-" in c for c in cells
                ):
                    continue
                if section == "capabilities" and len(cells) >= 2:
                    if cells[0].lower() in ("key", "value"):
                        continue
                    capabilities[cells[0].lower()] = cells[1]
                elif section == "strengths" and len(cells) >= 3:
                    if cells[0].upper() in ("ID",):
                        continue
                    strengths.append(ProfileNote(cells[0], cells[1], cells[2]))
                continue
            if not section and title and line:
                briefing_lines.append(line)
        flush_gap()

        missing = [
            key
            for key in (
                "hint-dialect",
                "honored-index-kinds",
                "max-index-hints",
                "honored-join-methods",
                "sim-hint-ignore-prob",
                "sim-noise-sigma",
            )
            if key not in capabilities
        ]
        if not title or missing:
            raise BackendError(
                f"backend profile {name!r} markdown is incomplete "
                f"(title={bool(title)}, missing={missing})"
            )

        def parse_set(value: str) -> tuple[str, ...]:
            if value.strip() in ("-", ""):
                return ()
            return tuple(part.strip() for part in value.split(","))

        max_hints_raw = capabilities["max-index-hints"].strip().lower()
        return cls(
            name=name,
            title=title,
            briefing=" ".join(briefing_lines),
            hint_dialect=capabilities["hint-dialect"].strip(),
            honored_index_kinds=frozenset(
                ColumnKind[kind]
                for kind in parse_set(capabilities["honored-index-kinds"])
            ),
            max_index_hints=(
                None if max_hints_raw == "unlimited" else int(max_hints_raw)
            ),
            honored_join_methods=frozenset(
                parse_set(capabilities["honored-join-methods"])
            ),
            sim_hint_ignore_prob=float(capabilities["sim-hint-ignore-prob"]),
            sim_noise_sigma=float(capabilities["sim-noise-sigma"]),
            strengths=tuple(strengths),
            gaps=tuple(gaps),
        )

    # ------------------------------------------------------------------
    # What the planner consumes
    # ------------------------------------------------------------------

    def honors_hint_set(self, hint_set: HintSet, schema: TableSchema) -> bool:
        """Can this engine honor every hint in ``hint_set`` on ``schema``?"""
        if (
            self.max_index_hints is not None
            and len(hint_set.index_on) > self.max_index_hints
        ):
            return False
        for attr in hint_set.index_on:
            if not schema.has_column(attr):
                return False
            if schema.kind_of(attr) not in self.honored_index_kinds:
                return False
        if (
            hint_set.join_method is not None
            and hint_set.join_method not in self.honored_join_methods
        ):
            return False
        return True

    def prune_space(
        self, space: RewriteOptionSpace, schema: TableSchema
    ) -> RewriteOptionSpace:
        """Drop options whose hint sets the engine cannot honor.

        The planner's MDP action space then only contains rewrites the
        active backend will actually apply.  If nothing survives (an engine
        that honors no hints at all), the space degenerates to the bare
        no-hint option so planning still functions.
        """
        kept = [
            option
            for option in space.options
            if self.honors_hint_set(option.hint_set, schema)
        ]
        if not kept:
            kept = [RewriteOption(HintSet())]
        return RewriteOptionSpace(tuple(kept), space.attributes)

    def sim_profile(self) -> SimProfile:
        """Simulation profile consistent with this engine's hint behaviour."""
        return SimProfile(
            name=f"sim-{self.name}",
            hint_ignore_prob=self.sim_hint_ignore_prob,
            noise_sigma=self.sim_noise_sigma,
        )


SQLITE_PROFILE_MD = """\
# SQLite Backend Profile (stdlib sqlite3, in-memory ingest)

Always-on reference backend: ships with CPython, runs in CI. A
single-threaded B-tree engine where `INDEXED BY` makes index hints
mandatory rather than advisory, and every join is a nested loop.

### Capabilities

| Key | Value |
|-----|-------|
| hint-dialect | indexed-by |
| honored-index-kinds | INT, FLOAT, TIMESTAMP |
| max-index-hints | 1 |
| honored-join-methods | nestloop |
| sim-hint-ignore-prob | 0.0 |
| sim-noise-sigma | 0.0 |

### Strengths — DO NOT fight these

| ID | Summary | Note |
|----|---------|------|
| MANDATORY_HINTS | INDEXED BY is enforced, not advisory | the engine errors instead of silently ignoring a hint, so the sim hint-ignore probability is 0 |
| ROWID_ORDER | rowid scans stream in insertion order | ORDER BY mw_rowid costs a sorter only on an INDEXED BY scan, so it is compiled only where LIMIT needs it; otherwise the middleware sorts the fetched ids |
| NATIVE_BINNING | builds with the SQL math functions bin with floor() | probed at connect; heatmaps then need no Python UDF call per row (MW_BIN_ID is the fallback for builds without them) |
| CHEAP_WARM_STARTS | page cache makes repeated probes cheap | warm dashboard refreshes approach in-memory speed |

### Gaps — Hunt for these

#### [HIGH] SINGLE_INDEX_SCAN
**What**: At most one index per table scan; multi-attribute hint sets cannot compile.
**Why**: INDEXED BY names exactly one index and disables every other access path.
**Hunt**: Prune hint sets with more than one attribute from the action space before planning.

#### [HIGH] NO_SPATIAL_OR_TEXT_PATHS
**What**: POINT and TEXT predicates always execute as residual filters.
**Why**: The relational mangling stores points as x/y reals and keywords as a token string — no R-tree or FTS index is built.
**Hunt**: Treat spatial/keyword hints as unhonorable; only numeric-kind hints survive pruning.

#### [MEDIUM] NESTLOOP_ONLY
**What**: Join-method hints other than nestloop cannot be honored.
**Why**: SQLite's only join strategy is the nested loop.
**Hunt**: Drop hash/merge join options from join-aware spaces.
"""


DUCKDB_PROFILE_MD = """\
# DuckDB Backend Profile (optional extra, vectorized OLAP)

Optional columnar backend behind `pip install duckdb`. The vectorized
optimizer picks its own access paths and provides no hint dialect at
all, so Maliva's leverage is approximation rules (sample tables,
limits) rather than physical hints.

### Capabilities

| Key | Value |
|-----|-------|
| hint-dialect | none |
| honored-index-kinds | - |
| max-index-hints | 0 |
| honored-join-methods | - |
| sim-hint-ignore-prob | 1.0 |
| sim-noise-sigma | 0.0 |

### Strengths — DO NOT fight these

| ID | Summary | Note |
|----|---------|------|
| VECTORIZED_SCANS | full scans are already near-optimal | hinting adds nothing; sequential predicates vectorize internally |
| NATIVE_AGGREGATION | grouped aggregation is a single fused pipeline | heatmap binning compiles to floor()+GROUP BY with no UDF round-trips |

### Gaps — Hunt for these

#### [HIGH] NO_HINT_DIALECT
**What**: There is no way to force an access path or join method.
**Why**: DuckDB exposes no INDEXED BY / pg_hint_plan equivalent.
**Hunt**: Prune every non-empty hint set; the sim profile sets hint-ignore probability to 1.0 so the QTE never credits a hint.

#### [MEDIUM] ART_INDEX_BLINDSPOT
**What**: ART indexes rarely beat a vectorized scan on analytic ranges.
**Why**: Point lookups only; range scans fall back to full scans anyway.
**Hunt**: Do not model index speedups; rely on sample-table approximation for budget misses.
"""


MEMORY_PROFILE_MD = """\
# In-Memory Simulated Engine Profile (virtual timing substrate)

The paper-reproduction substrate itself: every hint is modelled, every
access path exists, and timing is virtual (cost-model milliseconds, not
wall clock).

### Capabilities

| Key | Value |
|-----|-------|
| hint-dialect | pg-hint-plan |
| honored-index-kinds | INT, FLOAT, TIMESTAMP, TEXT, POINT |
| max-index-hints | unlimited |
| honored-join-methods | nestloop, hash, merge |
| sim-hint-ignore-prob | 0.02 |
| sim-noise-sigma | 0.04 |

### Strengths — DO NOT fight these

| ID | Summary | Note |
|----|---------|------|
| FULL_HINT_SURFACE | every index kind and join method is hintable | the MDP action space needs no pruning |
| VIRTUAL_TIMING | execution cost is deterministic given a seed | bit-identity contracts hold across serving tiers |

### Gaps — Hunt for these

#### [HIGH] NOT_A_REAL_ENGINE
**What**: Virtual milliseconds are cost-model output, not wall clock.
**Why**: The substrate simulates engine behaviour instead of measuring it.
**Hunt**: Use a real backend (sqlite/duckdb) whenever externally credible timing matters.
"""


@lru_cache(maxsize=None)
def sqlite_profile() -> BackendProfile:
    return BackendProfile.from_markdown("sqlite", SQLITE_PROFILE_MD)


@lru_cache(maxsize=None)
def duckdb_profile() -> BackendProfile:
    return BackendProfile.from_markdown("duckdb", DUCKDB_PROFILE_MD)


@lru_cache(maxsize=None)
def memory_profile() -> BackendProfile:
    return BackendProfile.from_markdown("memory", MEMORY_PROFILE_MD)


_PROFILES = {
    "sqlite": sqlite_profile,
    "duckdb": duckdb_profile,
    "memory": memory_profile,
}


def backend_profile(name: str) -> BackendProfile:
    """Look up a built-in profile by backend name."""
    try:
        factory = _PROFILES[name]
    except KeyError:
        raise BackendError(
            f"unknown backend profile {name!r} (have: {sorted(_PROFILES)})"
        ) from None
    return factory()
