/**
 * @file
 * The persistent translation-artifact store.
 *
 * Hot traces are the expensive half of the two-phase translator (~20x
 * cold translation per instruction), and nothing about them depends on
 * the run that produced them: a published artifact is a pure function
 * of the guest image bytes and the emission-relevant Options. This
 * store serializes published hot artifacts — staging code, recovery
 * maps, guard expectations, and SMC-guard windows — keyed by a
 * guest-image fingerprint (image checksum + entry + translator/options
 * version), into an on-disk file with a versioned, CRC-protected
 * record format, so a second run of the same image starts warm
 * (`el_run --cache-dir=<d>`) and `el_aot` can pre-translate and seal a
 * whole image offline.
 *
 * Safety model:
 *  - The fingerprint gates the whole file: a changed image, entry
 *    point, emission toggle, or format version simply misses.
 *  - Every record carries its own magic + CRC; a corrupt or truncated
 *    record is dropped (counted, never crashes, never loads silently
 *    wrong code) and execution falls back to cold translation.
 *  - Decoded records are semantically validated (enum ranges, cache
 *    bounds, stub indices) before they become visible.
 *  - Loaded artifacts re-enter through the translator's normal commit
 *    path, so generation checks, sentinel quarantine, and the baked
 *    SMC guards apply to them exactly as to freshly translated code;
 *    additionally each record's SMC-guard windows are re-validated
 *    against live guest memory at adoption time, so a guest that
 *    patched its code never resurrects a stale trace.
 *
 * Threading: the store is main-thread-only, like the translator's
 * block maps. Pipeline workers never see it; recording happens at the
 * (main-thread) commit point.
 */

#ifndef EL_PERSIST_STORE_HH
#define EL_PERSIST_STORE_HH

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "core/blockinfo.hh"
#include "ipf/insn.hh"
#include "support/stats.hh"

namespace el::guest
{
struct Image;
} // namespace el::guest

namespace el::core
{
struct Options;
} // namespace el::core

namespace el::persist
{

/**
 * On-disk format version. Bump on any layout change, and whenever code
 * the old generator stored must no longer be adopted.
 */
constexpr uint32_t format_version = 2;

/** Identity of a store: which image + translator configuration. */
struct Fingerprint
{
    uint64_t image_hash = 0; //!< Checksum of all sections + entry.
    uint64_t opts_hash = 0;  //!< Emission-relevant options + version.
    uint32_t entry = 0;      //!< Guest entry point (redundant, human-
                             //!< checkable in the filename).

    bool
    operator==(const Fingerprint &o) const
    {
        return image_hash == o.image_hash && opts_hash == o.opts_hash &&
               entry == o.entry;
    }

    /** Filename-safe rendering ("\<image\>-\<opts\>-\<entry\>"). */
    std::string hex() const;
};

/**
 * Fingerprint of (image, options). Only emission-relevant options are
 * hashed — feature toggles and code-shape limits that change what a
 * hot session emits. Thresholds, thread counts, simulated costs, and
 * capacities affect *when* artifacts are built, never their contents,
 * so an `el_aot`-built store (aggressive thresholds) is valid for a
 * default `el_run`.
 */
Fingerprint fingerprintOf(const guest::Image &image,
                          const core::Options &options);

/**
 * One persisted hot artifact: everything the translator's commit path
 * needs to republish the trace into a fresh runtime. The proto
 * BlockInfo and the stub indices are staging-relative, exactly as a
 * worker session hands them over.
 */
struct HotRecord
{
    uint32_t entry_eip = 0;

    // Entry SpecContext, stored as raw fields so the store does not
    // depend on the emitter headers.
    uint8_t spec_tos = 0;
    uint8_t spec_tag = 0;
    uint8_t spec_mmx_domain = 0;
    uint32_t spec_xmm_format = 0;

    core::BlockInfo proto;          //!< Staging-relative metadata,
                                    //!< with the covered interiors.
    std::vector<ipf::Instr> code;   //!< Staged instructions [0, n).
    /** (guest address, expected bytes) per constituent block on a
     *  writable page; re-checked against live memory at adoption. */
    std::vector<std::pair<uint32_t, uint64_t>> smc_guards;
};

/** The in-memory store: records keyed by entry EIP, plus file I/O. */
class ArtifactStore
{
  public:
    ArtifactStore() = default;
    explicit ArtifactStore(const Fingerprint &fp) : fp_(fp) {}

    ArtifactStore(const ArtifactStore &) = delete;
    ArtifactStore &operator=(const ArtifactStore &) = delete;

    ~ArtifactStore() { closeJournal(); }

    /** Set the identity (drops all records and counters' context). */
    void
    resetFingerprint(const Fingerprint &fp)
    {
        closeJournal();
        fp_ = fp;
        records_.clear();
        missed_.clear();
        interior_.clear();
        indexed_.clear();
        sealed_ = false;
    }

    const Fingerprint &fingerprint() const { return fp_; }

    // ----- write side (translator commit path) ----------------------

    /**
     * Insert @p rec, replacing any existing record with the same
     * (entry_eip, spec). No-op on a sealed store (an `el_aot`-sealed
     * store is validated content; runs must not dilute it).
     */
    void record(HotRecord rec);

    /**
     * Drop every record at @p eip. Called when the sentinel
     * quarantines a hot block: convicted code must never be shipped,
     * so it leaves the store before the next save.
     */
    void dropAt(uint32_t eip);

    // ----- read side (dispatch-time adoption) -----------------------

    /** Any live record at @p eip? (The cheap pre-probe.) */
    bool
    hasRecordsAt(uint32_t eip) const
    {
        auto it = records_.find(eip);
        return it != records_.end() && !it->second.empty();
    }

    /** All live records at @p eip (pointers valid until mutation). */
    std::vector<const HotRecord *> recordsAt(uint32_t eip) const;

    /**
     * Is @p eip an interior block of a trace this store loaded from
     * disk? The recording run marked such blocks covered when their
     * trace committed; the translator replays that decision for the
     * cold blocks a warm run creates there, so it does not rebuild
     * what a loaded trace already holds. Only load() and journal
     * replay feed the index — records made in this process never
     * count — and dropAt(), resetFingerprint(), rejectSmc() and a
     * replacing record() take a record's interiors back out.
     */
    bool
    coversInterior(uint32_t eip) const
    {
        return interior_.count(eip) != 0;
    }

    /**
     * Count an adoption-time SMC rejection of @p rec
     * (persist.smc_rejected): the guest patched that code since the
     * store was written, so its interiors stop counting as covered.
     */
    void rejectSmc(const HotRecord *rec);

    /** Count a probe that found nothing usable (once per distinct
     *  EIP, so the counter reads as "blocks we could not warm-start"
     *  rather than "dispatches"). */
    void
    noteMiss(uint32_t eip)
    {
        if (missed_.insert(eip).second)
            stats.add("persist.misses");
    }

    // ----- lifecycle ------------------------------------------------

    size_t recordCount() const;

    /** Mark as validated/complete (`el_aot`); freezes record(). */
    void seal() { sealed_ = true; }
    bool sealed() const { return sealed_; }

    /** The store file path for this fingerprint inside @p dir. */
    std::string pathIn(const std::string &dir) const;

    /**
     * Load the store file for this fingerprint from @p dir. Returns
     * true when at least one record was loaded. Missing, truncated,
     * corrupt, or version-mismatched files are tolerated: bad records
     * are dropped (counted in persist.rejected_*) and a bad header
     * rejects the file — the run then simply starts cold.
     */
    bool load(const std::string &dir);

    /** Write all live records to @p dir (created if needed). */
    bool save(const std::string &dir);

    /** load()/save() against an explicit file path. */
    bool loadFile(const std::string &path);
    bool saveFile(const std::string &path);

    // ----- crash consistency: the append-only hot-artifact journal --

    /** The journal file path for this fingerprint inside @p dir. */
    std::string journalPathIn(const std::string &dir) const;

    /**
     * Start journaling this run's record()/dropAt() mutations into
     * `<fp>.eljournal` in @p dir (truncating any previous journal —
     * the caller compacts first). Mutations are framed into a pending
     * buffer; flushJournal() makes them durable. The runtime flushes
     * at adoption boundaries, so a kill -9 loses at most the
     * artifacts since the last boundary instead of the whole run.
     * No-op (false) on a sealed store: sealed stores are immutable
     * validated content and never journal.
     */
    bool openJournal(const std::string &dir);

    /** Append + fsync every pending frame; true when durable (or when
     *  nothing was pending / no journal is open). */
    bool flushJournal();

    /** Flush pending frames and close the journal fd. */
    void closeJournal();

    /** Frames recorded since the last flush (cheap dirtiness probe
     *  for the runtime's adoption-boundary hook). */
    bool journalDirty() const { return !journal_pending_.empty(); }

    /** Records applied by the last load()'s journal replay. */
    uint64_t journalReplayed() const { return journal_replayed_; }

    /**
     * Fold the journal into the .elstore: durable save() of the full
     * record set, then unlink the journal. Safe against a crash at
     * any point — replay is idempotent (replace-by-(eip, spec)), so
     * dying between the save and the unlink only means the next start
     * replays records the store already holds. Closes an open journal
     * first; reopen with openJournal() to keep recording.
     */
    bool compact(const std::string &dir);

    /**
     * persist.* counters: hits, misses, loaded_blocks, bytes_read,
     * bytes_written, records saved/loaded, and the rejection tallies
     * of the hardened loader. Merged into the run report.
     */
    StatGroup stats;

  private:
    void insertLoaded(HotRecord &&rec);

    /** Add (or take back) @p rec's covered interiors to the index. */
    void indexInterior(const HotRecord *rec);
    void unindexInterior(const HotRecord *rec);

    /** Erase every record at @p eip, unindexing their interiors. */
    size_t eraseAt(uint32_t eip);

    /** Replay one journal file over the in-memory record set; returns
     *  the number of frames applied (adds + drops). Fail-soft: a torn
     *  tail frame is counted (persist.rejected_truncated) and every
     *  intact frame before it still applies. */
    size_t replayJournal(const std::string &path);

    /** Frame one mutation into the pending journal buffer. */
    void journalFrame(uint8_t kind, const std::vector<uint8_t> &payload);

    Fingerprint fp_;
    bool sealed_ = false;
    std::map<uint32_t, std::vector<std::unique_ptr<HotRecord>>> records_;
    std::set<uint32_t> missed_; //!< Distinct-EIP miss dedup.
    /** Interior EIP -> live loaded records covering it. */
    std::unordered_map<uint32_t, uint32_t> interior_;
    /** Loaded records whose interiors are in interior_. */
    std::unordered_set<const HotRecord *> indexed_;

    int journal_fd_ = -1;                  //!< POSIX fd; -1 = closed.
    std::string journal_path_;             //!< Path of the open journal.
    std::vector<uint8_t> journal_pending_; //!< Frames since last flush.
    uint64_t journal_replayed_ = 0;        //!< Applied on last load().
};

} // namespace el::persist

#endif // EL_PERSIST_STORE_HH
