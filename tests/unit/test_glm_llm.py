"""Unit tests for the global and local lock managers."""

import pytest

from repro.config import SystemConfig
from repro.core.lsn import NULL_ADDR
from repro.core.system import ClientServerSystem
from repro.errors import LockConflictError
from repro.locking.glm import GlobalLockManager, LockDenied
from repro.locking.llm import LocalLockManager
from repro.locking.lock_modes import LockMode
from repro.net.rpc import DeliveryOutcome, FaultyTransport

M = LockMode


class TestGlmLogical:
    def test_acquire_release(self):
        glm = GlobalLockManager()
        glm.acquire("C1", ("rec", 1, 0), M.X)
        with pytest.raises(LockConflictError):
            glm.acquire("C2", ("rec", 1, 0), M.S)
        glm.release("C1", ("rec", 1, 0))
        glm.acquire("C2", ("rec", 1, 0), M.S)

    def test_release_all(self):
        glm = GlobalLockManager()
        glm.acquire("C1", ("rec", 1, 0), M.X)
        glm.acquire("C1", ("rec", 2, 0), M.S)
        assert len(glm.release_all("C1")) == 2

    def test_request_answers_a_conflict_with_a_denial(self):
        glm = GlobalLockManager()
        assert glm.request("C1", ("rec", 1, 0), M.IX) is M.IX
        glm.acquire("C2", ("rec", 1, 0), M.IX)
        # C1's request converts IX + S to SIX, which C2's IX blocks.
        denied = glm.request("C1", ("rec", 1, 0), M.S)
        assert denied == LockDenied(("rec", 1, 0), "SIX", ("C2",))
        error = denied.error()
        assert isinstance(error, LockConflictError)
        assert (error.resource, error.requested, error.holders) == denied
        assert glm.holders(("rec", 1, 0)) == {"C1": M.IX, "C2": M.IX}


class TestGlmPLocks:
    def test_update_privilege_exclusive(self):
        glm = GlobalLockManager()
        glm.acquire_p_lock("C1", 5, M.X)
        assert glm.update_privilege_owner(5) == "C1"
        with pytest.raises(LockConflictError):
            glm.acquire_p_lock("C2", 5, M.X)

    def test_privilege_transfer(self):
        glm = GlobalLockManager()
        glm.acquire_p_lock("C1", 5, M.X)
        glm.release_p_lock("C1", 5)
        glm.acquire_p_lock("C2", 5, M.X)
        assert glm.update_privilege_owner(5) == "C2"

    def test_pages_with_update_privilege(self):
        glm = GlobalLockManager()
        glm.acquire_p_lock("C1", 5, M.X)
        glm.acquire_p_lock("C1", 3, M.X)
        glm.acquire_p_lock("C2", 9, M.X)
        assert glm.pages_with_update_privilege("C1") == [3, 5]

    def test_release_all_p_locks(self):
        glm = GlobalLockManager()
        glm.acquire_p_lock("C1", 5, M.X)
        glm.acquire_p_lock("C1", 7, M.X)
        assert glm.release_all_p_locks("C1") == [5, 7]
        assert glm.update_privilege_owner(5) is None


class TestGlmRecAddr:
    """The section 2.6.2 lock-table-resident recovery bounds."""

    def test_first_grant_pins_rec_addr(self):
        glm = GlobalLockManager()
        glm.note_update_grant(5, 100)
        glm.note_update_grant(5, 999)  # later grant does not move it
        assert glm.lock_table_rec_addr(5) == 100

    def test_advance_only_forward(self):
        glm = GlobalLockManager()
        glm.note_update_grant(5, 100)
        glm.advance_rec_addr(5, 50)
        assert glm.lock_table_rec_addr(5) == 100
        glm.advance_rec_addr(5, 300)
        assert glm.lock_table_rec_addr(5) == 300

    def test_unknown_page(self):
        glm = GlobalLockManager()
        assert glm.lock_table_rec_addr(7) == NULL_ADDR

    def test_clear_rec_addr(self):
        glm = GlobalLockManager()
        glm.note_update_grant(5, 100)
        glm.clear_rec_addr(5)
        assert glm.lock_table_rec_addr(5) == NULL_ADDR


class TestGlmCrash:
    def test_clear_and_reinstall(self):
        glm = GlobalLockManager()
        glm.acquire("C1", ("rec", 1, 0), M.X)
        glm.acquire_p_lock("C1", 5, M.X)
        glm.clear()
        assert glm.update_privilege_owner(5) is None
        glm.reinstall_client_locks(
            "C1", {("rec", 1, 0): M.X}, {5: M.X}
        )
        assert glm.update_privilege_owner(5) == "C1"
        assert glm.holders(("rec", 1, 0)) == {"C1": M.X}


def make_llm(glm, client_id="C1", cache=True):
    messages = {"requests": 0, "releases": 0}

    def request(resource, mode):
        messages["requests"] += 1
        return glm.acquire(client_id, resource, mode)

    def release(resource):
        messages["releases"] += 1
        glm.release(client_id, resource)

    return LocalLockManager(client_id, request, release, cache_locks=cache), messages


class TestLlm:
    def test_local_grant_after_global(self):
        glm = GlobalLockManager()
        llm, messages = make_llm(glm)
        llm.acquire("T1", ("rec", 1, 0), M.S)
        assert messages["requests"] == 1
        assert llm.is_held("T1", ("rec", 1, 0), M.S)

    def test_second_txn_reuses_cached_global(self):
        """Locks are acquired in LLM names precisely so a second local
        transaction costs no message (section 2.1)."""
        glm = GlobalLockManager()
        llm, messages = make_llm(glm)
        llm.acquire("T1", ("rec", 1, 0), M.S)
        llm.release_transaction("T1")
        llm.acquire("T2", ("rec", 1, 0), M.S)
        assert messages["requests"] == 1
        assert llm.local_only_grants == 1

    def test_upgrade_goes_global(self):
        glm = GlobalLockManager()
        llm, messages = make_llm(glm)
        llm.acquire("T1", ("rec", 1, 0), M.S)
        llm.acquire("T1", ("rec", 1, 0), M.X)
        assert messages["requests"] == 2
        assert glm.holders(("rec", 1, 0)) == {"C1": M.X}

    def test_local_conflict_between_local_txns(self):
        glm = GlobalLockManager()
        llm, _ = make_llm(glm)
        llm.acquire("T1", ("rec", 1, 0), M.X)
        with pytest.raises(LockConflictError) as info:
            llm.acquire("T2", ("rec", 1, 0), M.X)
        assert info.value.holders == ("T1",)

    def test_no_cache_releases_globals(self):
        glm = GlobalLockManager()
        llm, messages = make_llm(glm, cache=False)
        llm.acquire("T1", ("rec", 1, 0), M.S)
        llm.release_transaction("T1")
        assert messages["releases"] == 1
        assert glm.holders(("rec", 1, 0)) == {}

    def test_relinquish_callback_when_idle(self):
        glm = GlobalLockManager()
        llm, _ = make_llm(glm)
        llm.acquire("T1", ("rec", 1, 0), M.S)
        llm.release_transaction("T1")            # cached globally
        assert llm.try_relinquish(("rec", 1, 0)) is True
        assert llm.callbacks_honored == 1

    def test_relinquish_refused_when_held_locally(self):
        glm = GlobalLockManager()
        llm, _ = make_llm(glm)
        llm.acquire("T1", ("rec", 1, 0), M.S)
        assert llm.try_relinquish(("rec", 1, 0)) is False

    def test_crash_clears_state(self):
        glm = GlobalLockManager()
        llm, _ = make_llm(glm)
        llm.acquire("T1", ("rec", 1, 0), M.X)
        llm.crash()
        assert llm.global_locks_snapshot() == {}
        assert not llm.is_held("T1", ("rec", 1, 0), M.X)


class LoseFirstLockReply(FaultyTransport):
    """Loses the response leg of every lock request's first attempt."""

    def plan(self, envelope, attempt):
        if envelope.method == "acquire_lock" and attempt == 0:
            self.fault_plan.note_transport_fault("drop-response")
            return DeliveryOutcome.DROP_RESPONSE, 0.0
        return DeliveryOutcome.DELIVER, 0.0


class TestDenialOverRpc:
    """A GLM wait crosses the RPC as a reply; the requesting client
    raises the same LockConflictError a direct GLM caller would."""

    R = ("rec", 1, 0)

    def complex(self, **overrides):
        system = ClientServerSystem(SystemConfig(**overrides),
                                    client_ids=["C0", "C1"])
        return system, system.client("C0"), system.client("C1")

    def test_conflict_surviving_a_callback_round(self):
        system, c0, c1 = self.complex(llm_cache_locks=True)
        c0.llm.acquire("t0", self.R, M.IX)
        c1.llm.acquire("t1", self.R, M.IX)
        with pytest.raises(LockConflictError) as info:
            c0.llm.acquire("t0", self.R, M.S)
        error = info.value
        # The callback round ran (C1 still needs its IX locally), then
        # the retry was denied too.  The client raised the denial fresh.
        # It does not chain the first conflict, or any server traceback.
        assert system.server.callbacks_sent == 1
        assert (error.resource, error.requested, error.holders) == \
            (self.R, "SIX", ("C1",))
        assert error.__context__ is None
        assert error.__cause__ is None
        assert c0.llm.global_locks_snapshot() == {self.R: M.IX}

    def test_denial_replayed_from_the_dedup_cache(self):
        system, c0, c1 = self.complex(llm_cache_locks=False)
        c1.llm.acquire("t1", self.R, M.X)
        system.network.transport = LoseFirstLockReply()
        dispatcher = system.server.dispatcher
        invoked = dispatcher.invocations["acquire_lock"]
        suppressed = dispatcher.duplicates_suppressed
        with pytest.raises(LockConflictError) as info:
            c0.llm.acquire("t0", self.R, M.S)
        error = info.value
        assert (error.resource, error.requested, error.holders) == \
            (self.R, "S", ("C1",))
        # The handler ran once; the retry was answered from the cache.
        assert dispatcher.invocations["acquire_lock"] == invoked + 1
        assert dispatcher.duplicates_suppressed == suppressed + 1
        assert system.network.stats.drops == 1
        cached = [response.result for slot in dispatcher.slots.values()
                  for response in slot.values()
                  if isinstance(response.result, LockDenied)]
        assert cached == [LockDenied(self.R, "S", ("C1",))]
