/**
 * @file
 * The lifecycle event stream: one recorder for every moment of a
 * translation's life, read by three consumers.
 *
 * Each lifecycle point (cold translate, heat registration, hot
 * session, commit, SMC invalidation, guest fault, ...) makes exactly
 * one emit of a fixed-width Event: a kind, a logical lane, a
 * simulated-cycle timestamp and duration, and four integer payload
 * words. Lane 0 is the guest/runtime thread, lane 1+k is hot-pipeline
 * worker slot k; worker events carry *planned* simulated times from the
 * candidate, never wall clock, so a rerun yields a bit-identical
 * stream regardless of host scheduling.
 *
 * The kind table (kindInfo) says which consumers see each kind:
 *  - the tail: per-thread drop-oldest rings, the always-on black box a
 *    postmortem reads (snapshot());
 *  - the capture: per-thread drop-newest rings exported as Chrome
 *    trace-event JSON for `el_run --trace-out` (chromeJson());
 *  - the fold: one main-thread Observer (core/provenance.hh folds the
 *    stream into per-entry-point timelines).
 * Consumers that are off cost nothing: emit() is one table load and a
 * branch when no enabled consumer reads the kind. Recording charges
 * zero simulated cycles, so guest results and cycle counts are
 * bit-exact whichever consumers are on.
 */

#ifndef EL_SUPPORT_FLIGHTREC_HH
#define EL_SUPPORT_FLIGHTREC_HH

#include <array>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "support/ring.hh"

namespace el::flight
{

/** What happened. Payload words a..d per kind; see DESIGN.md §10. */
enum class Kind : uint8_t
{
    // ----- tail kinds (the postmortem flight) -------------------------
    Dispatch,      //!< Block-map lookup (a=eip, b=lookup #).
    ColdXlate,     //!< Cold block translated (a=eip, b=block, c=insns).
    HotEnqueue,    //!< Candidate snapshotted + queued (a=eip, b=seq,
                   //!< c=cold block).
    HotSession,    //!< Session ran (a=eip, b=seq, c=ok, d=worker slot;
                   //!< none when inline).
    HotCommit,     //!< Hot artifact published (a=eip, b=block, c=seq,
                   //!< d=worker slot; none when inline or stored).
    HotDiscard,    //!< Artifact rejected at commit (a=eip, b=ProvCause,
                   //!< c=cold block).
    SmcInvalidate, //!< SMC write killed blocks (a=addr, b=len, c=count).
    CacheFlush,    //!< Code cache flushed (a=generation).
    PersistAdopt,  //!< Stored artifact adopted (a=eip, b=insns, c=block).
    PersistReject, //!< Stored artifact rejected (a=eip, b=ProvCause).
    SentinelShift, //!< Health transition (a=eip, b=from, c=to, d=pinned).
    Divergence,    //!< Shadow-execution mismatch (a=checkpoint eip,
                   //!< b=boundary eip).
    FaultInject,   //!< Injected fault fired (a=site, b=fire # on lane 0
                   //!< or seq on a worker, d=seq or none).
    GuestFault,    //!< Guest fault delivered (a=eip, b=fault kind).
    // ----- capture-only kinds ----------------------------------------
    HeatRegister,  //!< Use counter crossed the threshold (a=eip,
                   //!< b=block, c=registrations).
    HotInline,     //!< Inline session published (a=eip, b=block).
    AdoptionStall, //!< Finished artifact waited for a boundary (a=seq,
                   //!< b=cycles).
    ExitUnlink,    //!< Block exits restored to stubs (a=eip, b=block).
    ExitRelink,    //!< Exit patched to a direct branch (a=target eip,
                   //!< b=from block).
    GuardRecover,  //!< Speculation guard repaired (a=block, b=kind).
    Quarantine,    //!< Translation blacklisted (a=eip, b=block,
                   //!< c=ProvCause).
    // ----- fold-only kinds -------------------------------------------
    FaultStub,     //!< Undecodable entry got a fault stub (a=eip,
                   //!< b=block).
    HotQueued,     //!< Inline session candidate (a=eip, b=block).
    HotResult,     //!< Session outcome reaches commit (a=eip, b=cold
                   //!< block, c=ok); ts = its planned completion.
    BlockDiscard,  //!< Live block killed (a=eip, b=block, c=ProvCause).
    Persisted,     //!< Published artifact recorded into the store
                   //!< (a=eip, b=block).
    NumKinds
};

constexpr size_t num_kinds = static_cast<size_t>(Kind::NumKinds);

/** A payload word the emitter does not have (never exported). */
constexpr int64_t none = std::numeric_limits<int64_t>::min();

/** Consumer bits of a kind. */
enum Consumer : uint8_t
{
    Tail = 1,
    Capture = 2,
    Fold = 4,
};

/** Static description of a kind: who reads it and how it exports. */
struct KindInfo
{
    const char *name;    //!< Stable name (the tail's "kind" field).
    uint8_t consumers;   //!< Consumer bits.
    const char *chrome;  //!< Chrome event name (Capture kinds).
    const char *cat;     //!< Chrome category.
    bool span;           //!< Chrome 'X' (ts + dur) rather than 'i'.
    const char *args[4]; //!< Chrome arg key per payload word; null =
                         //!< not exported.
};

const KindInfo &kindInfo(Kind kind);

inline const char *
kindName(Kind kind)
{
    return kindInfo(kind).name;
}

/** One fixed-width recorded event. */
struct Event
{
    Kind kind = Kind::Dispatch;
    uint32_t lane = 0; //!< 0 = guest thread, 1+k = worker slot k.
    double ts = 0;     //!< Simulated cycles (planned on workers); span
                       //!< start.
    double dur = 0;    //!< Span length in simulated cycles.
    int64_t a = 0;
    int64_t b = 0;
    int64_t c = 0;
    int64_t d = 0;
};

/** The fold consumer's interface; called on the guest thread only. */
class Observer
{
  public:
    virtual void observe(const Event &e) = 0;

  protected:
    ~Observer() = default;
};

/** The recorder. One instance per run. */
class FlightRecorder
{
  public:
    /**
     * @p tail_capacity Last-N events kept per host thread (0 = no
     * tail). @p capture_capacity First-N capture events kept per host
     * thread (0 = no capture).
     */
    explicit FlightRecorder(size_t tail_capacity = 1024,
                            size_t capture_capacity = 0);

    FlightRecorder(const FlightRecorder &) = delete;
    FlightRecorder &operator=(const FlightRecorder &) = delete;

    /** Attach the fold consumer (null detaches). */
    void attach(Observer *fold);

    /** Simulated-time source for emit() (the guest thread's clock). */
    void setClock(std::function<double()> now) { now_ = std::move(now); }

    /** The clock's now (0 before setClock). */
    double now() const { return now_ ? now_() : 0; }

    /** Guest-thread event at the clock's now. */
    void
    emit(Kind kind, int64_t a = 0, int64_t b = 0, int64_t c = 0,
         int64_t d = 0)
    {
        span(kind, 0, a, b, c, d);
    }

    /** Guest-thread span of @p dur cycles starting at the clock's now. */
    void
    span(Kind kind, double dur, int64_t a = 0, int64_t b = 0,
         int64_t c = 0, int64_t d = 0)
    {
        if (route_[static_cast<size_t>(kind)])
            record(Event{kind, 0, now(), dur, a, b, c, d});
    }

    /** An event with an explicit lane and (planned) time. */
    void
    emitAt(const Event &e)
    {
        if (route_[static_cast<size_t>(e.kind)])
            record(e);
    }

    bool keepsTail() const { return tail_capacity_ > 0; }
    bool capturing() const { return capture_capacity_ > 0; }

    /**
     * The tail: every thread's ring merged and sorted by (ts, lane,
     * kind, a) — a deterministic order for a deterministic event set,
     * independent of which host thread recorded what when.
     */
    std::vector<Event> snapshot() const;

    /** Oldest tail events evicted on ring overflow, across threads. */
    uint64_t dropped() const;

    /** Per-thread tail ring capacity (0 = no tail). */
    size_t ringCapacity() const { return tail_capacity_; }

    /** The capture, merged and sorted like snapshot(). */
    std::vector<Event> captured() const;

    /** Capture events refused on ring overflow, across threads. */
    uint64_t captureDropped() const;

    /** The capture as Chrome trace-event JSON ({"traceEvents": [...]}). */
    std::string chromeJson(size_t *events = nullptr) const;

    /** Write chromeJson() to @p path; false on I/O failure. */
    bool writeChromeJson(const std::string &path,
                         size_t *events = nullptr) const;

  private:
    /** One host thread's rings, appended by their owner only. */
    struct Ring
    {
        mutable std::mutex mu; //!< Owner appends; merges read.
        BoundedRing<Event> tail;
        BoundedRing<Event> capture;

        Ring(size_t tail_capacity, size_t capture_capacity)
            : tail(tail_capacity, RingPolicy::DropOldest),
              capture(capture_capacity, RingPolicy::DropNewest)
        {}
    };

    void record(const Event &e);
    void route();

    /** The calling thread's ring (created on first use). */
    Ring *threadRing();

    std::vector<Event> merged(BoundedRing<Event> Ring::*which) const;
    uint64_t droppedFrom(BoundedRing<Event> Ring::*which) const;

    size_t tail_capacity_;
    size_t capture_capacity_;
    Observer *fold_ = nullptr;
    std::function<double()> now_;
    /** Enabled consumer bits per kind; 0 = emit is a no-op. */
    std::array<uint8_t, num_kinds> route_{};
    /** Distinguishes this instance from a dead recorder that occupied
     *  the same address (the per-thread ring cache keys on both). */
    uint64_t instance_id_;
    mutable std::mutex rings_mu_;
    std::vector<std::unique_ptr<Ring>> rings_;
};

/**
 * Validate a Chrome trace-event JSON file: well-formed JSON, a
 * "traceEvents" array whose entries carry name/ph/ts/tid, and
 * non-decreasing timestamps within each tid. Returns true when valid;
 * otherwise fills @p error. Used by `el_run --validate-trace` and CI.
 */
bool validateChromeTrace(const std::string &json_text, std::string *error);

} // namespace el::flight

#endif // EL_SUPPORT_FLIGHTREC_HH
