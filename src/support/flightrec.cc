#include "support/flightrec.hh"

#include <algorithm>
#include <atomic>
#include <fstream>
#include <map>

#include "support/json.hh"
#include "support/strfmt.hh"

namespace el::flight
{

namespace
{

constexpr uint8_t TC = Tail | Capture;
constexpr uint8_t TF = Tail | Fold;
constexpr uint8_t TCF = Tail | Capture | Fold;

// Indexed by Kind; the order must match the enum.
const KindInfo kinds[num_kinds] = {
    {"dispatch", Tail, nullptr, nullptr, false, {}},
    {"cold_xlate", TCF, "cold_translate", "translate", true,
     {"eip", "block", "insns"}},
    {"hot_enqueue", TCF, "hot_snapshot", "hot", true,
     {"eip", "seq", "block"}},
    {"hot_session", TC, "hot_emit", "hot", true,
     {"eip", "seq", "ok", "worker"}},
    {"hot_commit", TCF, "hot_commit", "hot", true,
     {"eip", "block", "seq", "worker"}},
    {"hot_discard", TF, nullptr, nullptr, false, {}},
    {"smc_invalidate", TC, "smc_invalidate", "cache", false,
     {"addr", "len", "blocks_dropped"}},
    {"cache_flush", TC, "cache_flush", "cache", true, {"generation"}},
    {"persist_adopt", TC, "persist_adopt", "hot", false,
     {"eip", nullptr, "block"}},
    {"persist_reject", TF, nullptr, nullptr, false, {}},
    {"sentinel_shift", TF, nullptr, nullptr, false, {}},
    {"divergence", TC, "divergence", "fault", false, {"eip", "end_eip"}},
    {"fault_inject", TC, "fault_fire", "fault", false,
     {"site", nullptr, nullptr, "seq"}},
    {"guest_fault", Tail, nullptr, nullptr, false, {}},
    {"heat_register", Capture, "heat_register", "hot", false,
     {"eip", "block", "registrations"}},
    {"hot_inline", Capture, "hot_emit", "hot", true, {"eip", "block"}},
    {"adoption_stall", Capture, "adoption_stall", "hot", false,
     {"seq", "cycles"}},
    {"exit_unlink", Capture, "exit_unlink", "cache", false,
     {"eip", "block"}},
    {"exit_relink", Capture, "exit_relink", "cache", false,
     {"target_eip", "from_block"}},
    {"guard_recover", Capture, "guard_recover", "fault", true,
     {"block", "kind"}},
    {"quarantine", Capture | Fold, "quarantine", "cache", false,
     {"eip", "block"}},
    {"fault_stub", Fold, nullptr, nullptr, false, {}},
    {"hot_queued", Fold, nullptr, nullptr, false, {}},
    {"hot_result", Fold, nullptr, nullptr, false, {}},
    {"block_discard", Fold, nullptr, nullptr, false, {}},
    {"persisted", Fold, nullptr, nullptr, false, {}},
};

/**
 * Does the capture keep @p e? Sessions and commits are drawn only for
 * pipeline work (they carry a worker slot): an inline session draws
 * itself as one HotInline event, and a stored artifact's commit as its
 * PersistAdopt.
 */
bool
onTimeline(const Event &e)
{
    if (e.kind == Kind::HotSession || e.kind == Kind::HotCommit)
        return e.d != none;
    return true;
}

uint64_t
nextInstanceId()
{
    static std::atomic<uint64_t> next{1};
    return next.fetch_add(1, std::memory_order_relaxed);
}

void
writeChromeEvent(json::Writer &w, const Event &e, const char *name,
                 double dur)
{
    const KindInfo &k = kindInfo(e.kind);
    w.beginObject();
    w.kv("name", name);
    w.kv("cat", k.cat);
    w.kv("ph", k.span ? "X" : "i");
    w.kv("ts", e.ts);
    if (k.span)
        w.kv("dur", dur);
    w.kv("pid", 1);
    w.kv("tid", static_cast<uint64_t>(e.lane));
    if (!k.span)
        w.kv("s", "t"); // instant scope: thread
    w.key("args");
    w.beginObject();
    const int64_t words[4] = {e.a, e.b, e.c, e.d};
    for (unsigned i = 0; i < 4; ++i)
        if (k.args[i] && words[i] != none)
            w.kv(k.args[i], words[i]);
    w.endObject();
    w.endObject();
}

} // namespace

const KindInfo &
kindInfo(Kind kind)
{
    return kinds[static_cast<size_t>(kind)];
}

FlightRecorder::FlightRecorder(size_t tail_capacity,
                               size_t capture_capacity)
    : tail_capacity_(tail_capacity), capture_capacity_(capture_capacity),
      instance_id_(nextInstanceId())
{
    route();
}

void
FlightRecorder::attach(Observer *fold)
{
    fold_ = fold;
    route();
}

void
FlightRecorder::route()
{
    uint8_t on = (tail_capacity_ ? Tail : 0) |
                 (capture_capacity_ ? Capture : 0) | (fold_ ? Fold : 0);
    for (size_t k = 0; k < num_kinds; ++k)
        route_[k] = kinds[k].consumers & on;
}

FlightRecorder::Ring *
FlightRecorder::threadRing()
{
    // One recorder per run is the common case, so the hot path is two
    // compares. The instance id guards against address reuse: a new
    // recorder allocated where a dead one lived must not resurrect the
    // dead recorder's ring.
    struct Cache
    {
        const FlightRecorder *owner = nullptr;
        uint64_t owner_id = 0;
        Ring *ring = nullptr;
    };
    thread_local Cache cache;
    if (cache.owner == this && cache.owner_id == instance_id_)
        return cache.ring;

    std::lock_guard<std::mutex> lk(rings_mu_);
    rings_.push_back(
        std::make_unique<Ring>(tail_capacity_, capture_capacity_));
    cache.owner = this;
    cache.owner_id = instance_id_;
    cache.ring = rings_.back().get();
    return cache.ring;
}

void
FlightRecorder::record(const Event &e)
{
    uint8_t to = route_[static_cast<size_t>(e.kind)];
    bool capture = (to & Capture) && onTimeline(e);
    if ((to & Tail) || capture) {
        Ring *ring = threadRing();
        std::lock_guard<std::mutex> lk(ring->mu);
        if (to & Tail)
            ring->tail.push(e);
        if (capture)
            ring->capture.push(e);
    }
    if (to & Fold)
        fold_->observe(e);
}

std::vector<Event>
FlightRecorder::merged(BoundedRing<Event> Ring::*which) const
{
    std::vector<Event> out;
    {
        std::lock_guard<std::mutex> lk(rings_mu_);
        for (const auto &ring : rings_) {
            std::lock_guard<std::mutex> rlk(ring->mu);
            const BoundedRing<Event> &r = (*ring).*which;
            out.insert(out.end(), r.begin(), r.end());
        }
    }
    std::stable_sort(out.begin(), out.end(),
                     [](const Event &x, const Event &y) {
                         if (x.ts != y.ts)
                             return x.ts < y.ts;
                         if (x.lane != y.lane)
                             return x.lane < y.lane;
                         if (x.kind != y.kind)
                             return x.kind < y.kind;
                         return x.a < y.a;
                     });
    return out;
}

uint64_t
FlightRecorder::droppedFrom(BoundedRing<Event> Ring::*which) const
{
    uint64_t n = 0;
    std::lock_guard<std::mutex> lk(rings_mu_);
    for (const auto &ring : rings_) {
        std::lock_guard<std::mutex> rlk(ring->mu);
        n += ((*ring).*which).dropped();
    }
    return n;
}

std::vector<Event>
FlightRecorder::snapshot() const
{
    return merged(&Ring::tail);
}

uint64_t
FlightRecorder::dropped() const
{
    return droppedFrom(&Ring::tail);
}

std::vector<Event>
FlightRecorder::captured() const
{
    return merged(&Ring::capture);
}

uint64_t
FlightRecorder::captureDropped() const
{
    return droppedFrom(&Ring::capture);
}

std::string
FlightRecorder::chromeJson(size_t *events) const
{
    size_t n = 0;
    json::Writer w;
    w.beginObject();
    w.key("traceEvents");
    w.beginArray();
    for (const Event &e : captured()) {
        if (e.kind == Kind::HotInline) {
            // An inline session snapshots, emits and commits on the
            // guest lane back to back: the emit span carries the
            // session cost, the other two are instants-as-spans at the
            // same cycle.
            writeChromeEvent(w, e, "hot_snapshot", 0);
            writeChromeEvent(w, e, "hot_emit", e.dur);
            writeChromeEvent(w, e, "hot_commit", 0);
            n += 3;
            continue;
        }
        writeChromeEvent(w, e, kindInfo(e.kind).chrome, e.dur);
        ++n;
    }
    w.endArray();
    w.kv("displayTimeUnit", "ms");
    w.kv("droppedEvents", captureDropped());
    w.endObject();
    if (events)
        *events = n;
    return w.str();
}

bool
FlightRecorder::writeChromeJson(const std::string &path,
                                size_t *events) const
{
    std::ofstream f(path, std::ios::binary);
    if (!f)
        return false;
    f << chromeJson(events);
    return static_cast<bool>(f);
}

bool
validateChromeTrace(const std::string &json_text, std::string *error)
{
    auto fail = [&](const std::string &why) {
        if (error)
            *error = why;
        return false;
    };

    json::Value root;
    std::string perr;
    if (!json::Parser::parse(json_text, &root, &perr))
        return fail("malformed JSON: " + perr);
    if (!root.isObject())
        return fail("top level is not an object");
    const json::Value *events = root.find("traceEvents");
    if (!events || !events->isArray())
        return fail("missing traceEvents array");

    std::map<uint64_t, double> last_ts; // per-tid monotonicity
    size_t idx = 0;
    for (const json::Value &e : events->arr) {
        if (!e.isObject())
            return fail(strfmt("event %zu is not an object", idx));
        const json::Value *name = e.find("name");
        const json::Value *ph = e.find("ph");
        const json::Value *ts = e.find("ts");
        const json::Value *tid = e.find("tid");
        if (!name || !name->isString() || name->str.empty())
            return fail(strfmt("event %zu lacks a name", idx));
        if (!ph || !ph->isString() ||
            (ph->str != "X" && ph->str != "i"))
            return fail(strfmt("event %zu has bad ph", idx));
        if (!ts || !ts->isNumber() || !tid || !tid->isNumber())
            return fail(strfmt("event %zu lacks ts/tid", idx));
        if (ph->str == "X") {
            const json::Value *dur = e.find("dur");
            if (!dur || !dur->isNumber() || dur->num < 0)
                return fail(strfmt("span %zu has bad dur", idx));
        }
        uint64_t t = static_cast<uint64_t>(tid->num);
        auto it = last_ts.find(t);
        if (it != last_ts.end() && ts->num < it->second)
            return fail(strfmt("ts not monotonic on tid %llu at "
                               "event %zu",
                               static_cast<unsigned long long>(t), idx));
        last_ts[t] = ts->num;
        ++idx;
    }
    return true;
}

} // namespace el::flight
