#include "core/provenance.hh"

#include "ipf/code_cache.hh"
#include "support/sentinel.hh"

namespace el::core
{

// Indexed by enumerator; the order must match provenance.hh.
const char *
provStateName(ProvState s)
{
    static const char *const names[] = {
        "decoded", "cold", "hot_queued", "session", "published",
        "discarded", "persisted", "adopted", "suspect", "quarantined",
        "retranslated", "pinned"};
    return names[static_cast<size_t>(s)];
}

const char *
provCauseName(ProvCause c)
{
    static const char *const names[] = {
        "none", "heat", "session_ok", "session_abort", "stale_generation",
        "smc_write", "cache_flush", "cache_pressure", "quarantine_blocked",
        "sentinel_divergence", "fault_threshold", "guard_threshold",
        "store_record", "store_hit", "smc_mismatch", "quarantine_purge",
        "cooldown", "misalign"};
    return names[static_cast<size_t>(c)];
}

void
ProvenanceLedger::note(int64_t eip, ProvState state, ProvCause cause,
                       int64_t block_id, double ts)
{
    auto key = static_cast<uint32_t>(eip);
    auto it = timelines_.find(key);
    if (it == timelines_.end())
        it = timelines_
                 .emplace(key, BoundedRing<ProvEvent>(
                                   events_per_eip, RingPolicy::DropOldest))
                 .first;
    uint32_t generation =
        cache_ ? static_cast<uint32_t>(cache_->generation()) : 0;
    it->second.push(ProvEvent{state, cause, static_cast<int32_t>(block_id),
                              generation, ts});
}

void
ProvenanceLedger::observe(const flight::Event &e)
{
    using flight::Kind;
    auto cause = [](int64_t c) { return static_cast<ProvCause>(c); };
    switch (e.kind) {
      case Kind::ColdXlate:
      case Kind::FaultStub:
        note(e.a, ProvState::Decoded, ProvCause::None, e.b, e.ts);
        note(e.a, ProvState::Cold, ProvCause::None, e.b, e.ts);
        break;
      case Kind::HotEnqueue:
        note(e.a, ProvState::HotQueued, ProvCause::Heat, e.c, e.ts);
        break;
      case Kind::HotQueued:
        note(e.a, ProvState::HotQueued, ProvCause::Heat, e.b, e.ts);
        break;
      case Kind::HotResult:
        note(e.a, ProvState::Session,
             e.c ? ProvCause::SessionOk : ProvCause::SessionAbort, e.b,
             e.ts);
        break;
      case Kind::HotCommit:
        // A stored artifact's commit ran no session (no seq).
        if (e.c == flight::none)
            note(e.a, ProvState::Adopted, ProvCause::StoreHit, e.b, e.ts);
        else
            note(e.a, ProvState::Published, ProvCause::SessionOk, e.b,
                 e.ts);
        break;
      case Kind::HotDiscard:
        note(e.a, ProvState::Discarded, cause(e.b), e.c, e.ts);
        break;
      case Kind::BlockDiscard:
        note(e.a, ProvState::Discarded, cause(e.c), e.b, e.ts);
        break;
      case Kind::PersistReject:
        note(e.a, ProvState::Discarded, cause(e.b), -1, e.ts);
        break;
      case Kind::Persisted:
        note(e.a, ProvState::Persisted, ProvCause::StoreRecord, e.b, e.ts);
        break;
      case Kind::Quarantine:
        note(e.a, ProvState::Quarantined, cause(e.c), e.b, e.ts);
        break;
      case Kind::SentinelShift: {
        // The state-machine record; the quarantineBlock path notes the
        // artifact-level conviction with its precise cause.
        auto to = static_cast<sentinel::Health>(e.c);
        if (e.d)
            note(e.a, ProvState::Pinned, ProvCause::None, -1, e.ts);
        else if (to == sentinel::Health::Quarantined)
            note(e.a, ProvState::Quarantined, ProvCause::None, -1, e.ts);
        else if (to == sentinel::Health::Retranslated)
            note(e.a, ProvState::Retranslated, ProvCause::Cooldown, -1,
                 e.ts);
        else
            note(e.a, ProvState::Suspect, ProvCause::None, -1, e.ts);
        break;
      }
      default:
        break;
    }
}

} // namespace el::core
