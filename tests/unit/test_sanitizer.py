"""Unit tests for the runtime latch/lock-order and WAL sanitizer.

Seeded-violation coverage: each class of violation the sanitizer exists
to catch (latch-pair inversion, unpaired fix at span exit, unforced-log
page externalization) is provoked deliberately — both through the raw
hook API and through the real instrumented components (BufferPool,
LockTable, StableLog) — and must raise :class:`SanitizerViolation`.
"""

from __future__ import annotations

import pytest

from repro.core.log_records import UpdateOp, UpdateRecord
from repro.locking.lock_modes import LockMode
from repro.locking.lock_table import LockTable
from repro.sanitizer import (
    LATCH_PAGE,
    LOCK_LOGICAL,
    LOCK_PHYSICAL,
    Sanitizer,
    SanitizerViolation,
)
from repro.storage.buffer_pool import BufferPool
from repro.storage.page import Page
from repro.storage.stable_log import StableLog


@pytest.fixture
def san():
    return Sanitizer()


class TestLatchOrder:
    def test_consistent_order_is_clean(self, san):
        for _ in range(2):
            san.on_fix("C1-pool", 1)
            san.on_fix("C1-pool", 2)
            san.on_unfix("C1-pool", 2)
            san.on_unfix("C1-pool", 1)
            san.on_span_exit("C1")

    def test_inversion_raises(self, san):
        san.on_fix("C1-pool", 1)
        san.on_fix("C1-pool", 2)
        san.on_unfix("C1-pool", 2)
        san.on_unfix("C1-pool", 1)
        san.on_span_exit("C1")
        san.on_fix("C1-pool", 2)
        with pytest.raises(SanitizerViolation) as exc:
            san.on_fix("C1-pool", 1)
        assert exc.value.kind == "latch-order"

    def test_inversion_across_actors(self, san):
        # The pair-order memory is global: the deadlock seed is two
        # *different* actors pinning the same pair in opposite orders.
        san.on_fix("C1-pool", 7)
        san.on_fix("C1-pool", 8)
        san.on_fix("C2-pool", 8)
        with pytest.raises(SanitizerViolation) as exc:
            san.on_fix("C2-pool", 7)
        assert exc.value.kind == "latch-order"
        assert exc.value.actor == "C2"

    def test_reentrant_pin_is_not_an_ordering(self, san):
        san.on_fix("C1-pool", 1)
        san.on_fix("C1-pool", 1)
        san.on_unfix("C1-pool", 1)
        san.on_unfix("C1-pool", 1)
        san.on_span_exit("C1")
        assert (LATCH_PAGE, LATCH_PAGE) not in san.observed_edges()

    def test_released_latch_orders_nothing(self, san):
        # 1 was released before 2 was pinned: no 1 -> 2 direction is
        # recorded, so the reverse later is legal.
        san.on_fix("C1-pool", 1)
        san.on_unfix("C1-pool", 1)
        san.on_fix("C1-pool", 2)
        san.on_unfix("C1-pool", 2)
        san.on_span_exit("C1")
        san.on_fix("C1-pool", 2)
        san.on_fix("C1-pool", 1)


class TestSpanBoundaries:
    def test_unpaired_fix_at_span_exit(self, san):
        san.on_fix("C1-pool", 3)
        with pytest.raises(SanitizerViolation) as exc:
            san.on_span_exit("C1")
        assert exc.value.kind == "unpaired-fix"
        assert "3" in exc.value.detail

    def test_unpaired_fix_at_park(self, san):
        san.on_fix("C1-pool", 3)
        with pytest.raises(SanitizerViolation) as exc:
            san.on_park("C1")
        assert exc.value.kind == "unpaired-fix"

    def test_locks_survive_span_exit(self, san):
        san.on_lock_acquire("glm-logical", "C1", ("t", 1))
        san.on_span_exit("C1")  # locks may span operations; pins may not

    def test_lock_held_since_previous_span_orders_nothing(self, san):
        san.on_lock_acquire("glm-logical", "C1", ("t", 1))
        san.on_span_exit("C1")
        san.on_fix("C1-pool", 1)
        san.on_unfix("C1-pool", 1)
        assert (LOCK_LOGICAL, LATCH_PAGE) not in san.observed_edges()

    def test_same_span_lock_then_latch_is_an_edge(self, san):
        san.on_lock_acquire("glm-logical", "C1", ("t", 1))
        san.on_fix("C1-pool", 1)
        assert (LOCK_LOGICAL, LATCH_PAGE) in san.observed_edges()

    def test_pool_clear_forgives_pins(self, san):
        san.on_fix("C1-pool", 3)
        san.on_pool_clear("C1-pool")  # crash: the frames are gone
        san.on_span_exit("C1")


class TestLockTracking:
    def test_regrant_is_not_a_new_hold(self, san):
        san.on_lock_acquire("glm-logical", "C1", ("t", 1))
        san.on_lock_acquire("glm-logical", "C1", ("t", 1))  # conversion
        assert (LOCK_LOGICAL, LOCK_LOGICAL) not in san.observed_edges()

    def test_physical_table_classifies_as_physical(self, san):
        san.on_lock_acquire("glm-physical", "C1", 42)
        san.on_lock_acquire("glm-logical", "C1", ("t", 1))
        assert (LOCK_PHYSICAL, LOCK_LOGICAL) in san.observed_edges()

    def test_llm_actor_is_the_owning_client(self, san):
        # LLM owners are txn ids; the actor must still be the client.
        san.on_lock_acquire("llm-C2", "T9", ("t", 1))
        san.on_fix("C2-pool", 5)
        assert (LOCK_LOGICAL, LATCH_PAGE) in san.observed_edges()

    def test_release_all_drops_only_that_table(self, san):
        san.on_lock_acquire("glm-logical", "C1", ("t", 1))
        san.on_fix("C1-pool", 9)
        san.on_lock_release_all("glm-logical", "C1")
        assert san.held_latches("C1") == [9]

    def test_table_clear_drops_across_actors(self, san):
        san.on_lock_acquire("glm-logical", "C1", ("t", 1))
        san.on_lock_acquire("glm-logical", "C2", ("t", 2))
        san.on_table_clear("glm-logical")
        san.on_lock_acquire("glm-logical", "C1", ("t", 1))  # no dedup hit
        assert (LOCK_LOGICAL, LOCK_LOGICAL) not in san.observed_edges()


class TestWalBoundary:
    def test_unforced_page_externalization_raises(self, san):
        san.on_log_append(5, 100)
        with pytest.raises(SanitizerViolation) as exc:
            san.on_page_externalize(1, 5)
        assert exc.value.kind == "wal"

    def test_forced_page_externalization_is_clean(self, san):
        san.on_log_append(5, 100)
        san.on_log_force(100)
        san.on_page_externalize(1, 5)

    def test_partial_force_still_raises(self, san):
        san.on_log_append(5, 100)
        san.on_log_force(60)
        with pytest.raises(SanitizerViolation):
            san.on_page_externalize(1, 5)

    def test_unknown_lsn_is_clean(self, san):
        # Pages whose page_LSN predates the sanitizer's attachment (or
        # the log's retention) carry no pending obligation.
        san.on_page_externalize(1, 12345)

    def test_log_crash_clears_pending(self, san):
        san.on_log_append(5, 100)
        san.on_log_crash(0)
        san.on_page_externalize(1, 5)


# ---------------------------------------------------------------------------
# The same violations provoked through the real instrumented components.
# ---------------------------------------------------------------------------


def _rec(lsn):
    return UpdateRecord(lsn=lsn, client_id="C1", txn_id="T1",
                        prev_lsn=lsn - 1, page_id=1,
                        op=UpdateOp.RECORD_MODIFY, slot=0,
                        before=b"a", after=b"b")


class TestRealComponents:
    def test_buffer_pool_inversion(self, san):
        pool = BufferPool(8, name="C1-pool")
        pool.probe.sanitizer = san
        pool.admit(Page(1))
        pool.admit(Page(2))
        with pool.fixed(1):
            with pool.fixed(2):
                pass
        san.on_span_exit("C1")
        with pytest.raises(SanitizerViolation) as exc:
            with pool.fixed(2):
                with pool.fixed(1):
                    pass
        assert exc.value.kind == "latch-order"

    def test_lock_table_acquisition_edges(self, san):
        pool = BufferPool(8, name="C1-pool")
        pool.probe.sanitizer = san
        table = LockTable("llm-C1")
        table.probe.sanitizer = san
        pool.admit(Page(1))
        table.acquire("T1", ("t", 1), LockMode.X)
        with pool.fixed(1):
            pass
        assert (LOCK_LOGICAL, LATCH_PAGE) in san.observed_edges()
        table.release_all("T1")
        san.on_span_exit("C1")

    def test_lock_table_conversion_no_self_edge(self, san):
        table = LockTable("glm-logical")
        table.probe.sanitizer = san
        table.acquire("C1", ("t", 1), LockMode.S)
        table.acquire("C1", ("t", 1), LockMode.X)  # conversion, same hold
        assert (LOCK_LOGICAL, LOCK_LOGICAL) not in san.observed_edges()

    def test_stable_log_wal_violation(self, san):
        log = StableLog()
        log.probe.sanitizer = san
        log.append(_rec(1))
        log.append(_rec(2))
        with pytest.raises(SanitizerViolation) as exc:
            san.on_page_externalize(1, 2)
        assert exc.value.kind == "wal"
        log.force()
        san.on_page_externalize(1, 2)

    def test_stable_log_crash_settles_obligations(self, san):
        log = StableLog()
        log.probe.sanitizer = san
        log.append(_rec(1))
        log.crash()  # the unforced tail is gone; nothing is pending
        san.on_page_externalize(1, 1)

    def test_violation_is_base_exception(self):
        # Must escape ``except Exception`` domain handlers (the RPC
        # dispatcher converts Exception subclasses into fault replies).
        assert not issubclass(SanitizerViolation, Exception)
        assert issubclass(SanitizerViolation, BaseException)
