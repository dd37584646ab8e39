"""Hot -> cold lifecycle: which sealed containers move to the object store.

Backup workloads age predictably: the newest run's containers serve
restores and dedup lookups; containers only older runs reference mostly
sit idle.  The lifecycle manager scores every **hot** container from the
vault catalog —

* **age** — runs elapsed since the first run referencing the container;
* **idle** — runs elapsed since the *last* run referencing it (0 while
  the newest run still points at it);

and migrates the ones a :class:`LifecyclePolicy` deems cold (default:
older than one run and allowed to be current — age gates, idle refines).
Containers no catalogued run references at all (GC leftovers awaiting
reclamation) score maximally old and idle.

Migration itself is :meth:`TieredChunkRepository.migrate_to_cold` —
put, verify, unlink — so a crash mid-pass is harmless and the pass is
re-runnable.  ``repro migrate`` and ``repro tier-status`` drive this.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.backend.base import BackendError


@dataclass(frozen=True)
class LifecyclePolicy:
    """When a hot container becomes eligible for the cold tier.

    ``min_age_runs``: runs that must have elapsed since the container was
    first referenced.  ``min_idle_runs``: runs since it was *last*
    referenced — raise it to keep containers the newest runs still share
    (dedup hits) on fast media.
    """

    min_age_runs: int = 1
    min_idle_runs: int = 0

    def eligible(self, age_runs: int, idle_runs: int) -> bool:
        return age_runs >= self.min_age_runs and idle_runs >= self.min_idle_runs


@dataclass
class ContainerAge:
    """Lifecycle score of one container."""

    container_id: int
    tier: str
    age_runs: int
    idle_runs: int
    eligible: bool

    def to_json(self) -> dict:
        return {
            "container_id": self.container_id,
            "tier": self.tier,
            "age_runs": self.age_runs,
            "idle_runs": self.idle_runs,
            "eligible": self.eligible,
        }


@dataclass
class MigrationReport:
    """Outcome of one ``migrate`` pass."""

    examined: int = 0
    migrated: int = 0
    bytes_moved: int = 0
    skipped: int = 0            #: hot but not eligible under the policy
    already_cold: int = 0
    failed: List[str] = field(default_factory=list)

    def to_json(self) -> dict:
        return {
            "examined": self.examined,
            "migrated": self.migrated,
            "bytes_moved": self.bytes_moved,
            "skipped": self.skipped,
            "already_cold": self.already_cold,
            "failed": list(self.failed),
        }


class LifecycleManager:
    """Scores and migrates one vault's containers (see module docstring)."""

    def __init__(self, vault, policy: Optional[LifecyclePolicy] = None) -> None:
        self.vault = vault
        self.policy = policy if policy is not None else LifecyclePolicy()
        registry = vault.telemetry
        self._t_migrated = registry.counter(
            "storage.migrations", "containers migrated hot -> cold"
        ).labels()
        self._t_bytes = registry.counter(
            "storage.migrated_bytes", "container bytes migrated hot -> cold"
        ).labels()

    # -- scoring --------------------------------------------------------------
    def _reference_spans(self) -> Dict[int, List[int]]:
        """container id -> [first run ordinal, last run ordinal] (1-based)."""
        index = self.vault.tpds.index
        spans: Dict[int, List[int]] = {}
        runs = self.vault.catalog.iter_run_fingerprints()
        for ordinal, (_, fps) in enumerate(runs, start=1):
            for fp in fps:
                cid = index.lookup(fp)
                if cid is None:
                    continue
                span = spans.get(cid)
                if span is None:
                    spans[cid] = [ordinal, ordinal]
                else:
                    span[1] = ordinal
        return spans

    def ages(self) -> List[ContainerAge]:
        """Lifecycle scores for every container, hottest-ID order."""
        repo = self.vault.repository
        spans = self._reference_spans()
        total = len(self.vault.catalog)
        out: List[ContainerAge] = []
        for cid in repo.container_ids():
            try:
                tier = repo.tier_of(cid)
            except KeyError:
                continue  # removed mid-scan
            span = spans.get(cid)
            if span is None:
                age = idle = total  # unreferenced: maximally cold
            else:
                age = total - span[0]
                idle = total - span[1]
            out.append(ContainerAge(
                cid, tier, age, idle,
                eligible=self.policy.eligible(age, idle),
            ))
        return out

    # -- migration ------------------------------------------------------------
    def migrate(
        self, limit: Optional[int] = None, dry_run: bool = False
    ) -> MigrationReport:
        """Move every eligible hot container cold (up to ``limit``).

        A backend failure on one container is recorded and the pass moves
        on — a half-throttled object store degrades a migration pass, it
        does not abort it.
        """
        repo = self.vault.repository
        if repo.cold is None:
            raise RuntimeError(
                "no cold tier attached (run enable_cold_tier / --cold-root)"
            )
        report = MigrationReport()
        for score in self.ages():
            if score.tier != "hot":
                report.already_cold += 1
                continue
            report.examined += 1
            if not score.eligible:
                report.skipped += 1
                continue
            if limit is not None and report.migrated >= limit:
                report.skipped += 1
                continue
            if dry_run:
                report.migrated += 1
                continue
            try:
                moved = repo.migrate_to_cold(score.container_id)
            except BackendError as exc:
                report.failed.append(
                    f"container {score.container_id}: {exc}"
                )
                continue
            report.migrated += 1
            report.bytes_moved += moved
            self._t_migrated.inc()
            self._t_bytes.inc(moved)
        return report

    # -- reporting ------------------------------------------------------------
    def tier_status(self) -> dict:
        """The ``repro tier-status`` document: tier totals + per-container
        lifecycle scores + policy in force."""
        repo = self.vault.repository
        doc = {
            "cold_attached": repo.cold is not None,
            "policy": {
                "min_age_runs": self.policy.min_age_runs,
                "min_idle_runs": self.policy.min_idle_runs,
            },
            "tiers": repo.tier_report(),
            "containers": [score.to_json() for score in self.ages()],
        }
        return doc
