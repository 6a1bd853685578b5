/**
 * @file
 * Artifact provenance: the lifecycle event stream folded into
 * per-entry-point timelines.
 *
 * Every translation artifact the runtime ever produces for a guest
 * entry point leaves a compact trail here: decoded → cold → hot-queued
 * → session → published/discarded → persisted → adopted → suspect →
 * quarantined → retranslated, each step stamped with the simulated
 * cycle, the code-cache generation, the block id, and a cause code
 * (why did the artifact leave its previous state — heat, an SMC write,
 * cache pressure, a sentinel conviction, ...). When a run ends badly,
 * the ledger answers the first forensic question — "where did the code
 * I was executing come from, and what happened to its ancestors?" —
 * without re-running under a tracer.
 *
 * The ledger is the recorder's fold consumer (support/flightrec.hh):
 * it derives each step's (state, cause) from the emitted event, on the
 * guest thread only. Session outcomes are folded at commit time with
 * the candidate's planned completion time, so timelines are
 * deterministic across translation_threads. Per-eip history is a
 * bounded drop-oldest ring (churning blocks keep their recent
 * lifecycle, not their full history).
 */

#ifndef EL_CORE_PROVENANCE_HH
#define EL_CORE_PROVENANCE_HH

#include <cstdint>
#include <map>

#include "support/flightrec.hh"
#include "support/ring.hh"

namespace el::ipf
{
class CodeCache;
} // namespace el::ipf

namespace el::core
{

/** Lifecycle states an artifact moves through. */
enum class ProvState : uint8_t
{
    Decoded,      //!< Guest bytes decoded at this entry point.
    Cold,         //!< Cold translation published.
    HotQueued,    //!< Registered hot and queued for a session.
    Session,      //!< Hot-translation session ran (worker or inline).
    Published,    //!< Hot artifact committed into the code cache.
    Discarded,    //!< Artifact rejected/killed (see cause).
    Persisted,    //!< Recorded into the on-disk artifact store.
    Adopted,      //!< Stored artifact adopted instead of retranslating.
    Suspect,      //!< Sentinel raised suspicion (fault/guard misses).
    Quarantined,  //!< Sentinel conviction: artifact blacklisted.
    Retranslated, //!< Cooldown expired; eligible to translate again.
    Pinned,       //!< Retry budget exhausted; interpreter-only forever.
};

/** Why the state changed. */
enum class ProvCause : uint8_t
{
    None,
    Heat,               //!< Use counter crossed the heat threshold.
    SessionOk,          //!< Hot session completed successfully.
    SessionAbort,       //!< Hot session failed (incl. injected aborts).
    StaleGeneration,    //!< Cache generation moved under the artifact.
    SmcWrite,           //!< Self-modifying store hit covered bytes.
    CacheFlush,         //!< Bounded-cache flush reclaimed it.
    CachePressure,      //!< Publication refused: cache over capacity.
    QuarantineBlocked,  //!< Commit refused: entry is quarantined.
    SentinelDivergence, //!< Shadow execution disagreed.
    FaultThreshold,     //!< Too many guest faults in the artifact.
    GuardThreshold,     //!< Too many speculation-guard misses.
    StoreRecord,        //!< Captured into the persistent store.
    StoreHit,           //!< Matching record found in the store.
    SmcMismatch,        //!< Store record's guard bytes ≠ live memory.
    QuarantinePurge,    //!< Quarantine scrubbed the store record.
    Cooldown,           //!< Quarantine cooldown expired.
    Misalign,           //!< Regenerated for misalignment avoidance.
};

const char *provStateName(ProvState s);
const char *provCauseName(ProvCause c);

/** One lifecycle step. */
struct ProvEvent
{
    ProvState state = ProvState::Decoded;
    ProvCause cause = ProvCause::None;
    int32_t block_id = -1;    //!< BlockInfo id, -1 when not applicable.
    uint32_t generation = 0;  //!< Code-cache generation at the event.
    double ts = 0;            //!< Simulated cycles.
};

/** The ledger: the stream's provenance fold. Guest thread only. */
class ProvenanceLedger : public flight::Observer
{
  public:
    /** Lifecycle steps kept per eip (oldest dropped). */
    static constexpr size_t events_per_eip = 32;

    /** @p cache stamps each step's generation (null = generation 0). */
    explicit ProvenanceLedger(const ipf::CodeCache *cache = nullptr)
        : cache_(cache)
    {}

    ProvenanceLedger(const ProvenanceLedger &) = delete;
    ProvenanceLedger &operator=(const ProvenanceLedger &) = delete;

    /** Fold one event: append the step(s) its kind implies. */
    void observe(const flight::Event &e) override;

    /** @p eip's timeline, oldest first; null when never seen. */
    const BoundedRing<ProvEvent> *
    timeline(uint32_t eip) const
    {
        auto it = timelines_.find(eip);
        return it == timelines_.end() ? nullptr : &it->second;
    }

    /** All timelines, keyed and iterated by eip (deterministic). */
    const std::map<uint32_t, BoundedRing<ProvEvent>> &
    all() const
    {
        return timelines_;
    }

  private:
    void note(int64_t eip, ProvState state, ProvCause cause,
              int64_t block_id, double ts);

    const ipf::CodeCache *cache_;
    std::map<uint32_t, BoundedRing<ProvEvent>> timelines_;
};

} // namespace el::core

#endif // EL_CORE_PROVENANCE_HH
