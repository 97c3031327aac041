#include "core/trace_cache.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>

#include "core/simulator.h"
#include "util/crc32c.h"
#include "util/failpoint.h"
#include "vm/interpreter.h"

namespace bioperf::core {

namespace {

double
now()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

} // namespace

std::string
TraceKey::str() const
{
    std::string s = app ? app->name : "?";
    s += '/';
    s += apps::toString(variant);
    s += '/';
    s += apps::toString(scale);
    s += "/seed";
    s += std::to_string(seed);
    if (registerPressure) {
        s += "/regs";
        s += std::to_string(intRegs);
        s += '-';
        s += std::to_string(fpRegs);
    }
    return s;
}

apps::AppRun
makeWorkload(const TraceKey &key, uint32_t *spills)
{
    apps::AppRun run = key.app->make(key.variant, key.scale, key.seed);
    const uint32_t n =
        key.registerPressure
            ? Simulator::applyRegisterPressure(run, key.intRegs,
                                               key.fpRegs)
            : 0;
    if (spills)
        *spills = n;
    return run;
}

void
TraceCache::Stats::addStagesTo(util::RunManifest &manifest) const
{
    if (records > 0)
        manifest.addStage("trace_record", recordSeconds,
                          recordedInstructions);
    if (replayedInstructions > 0)
        manifest.addStage("trace_replay", replaySeconds,
                          replayedInstructions);
}

void
TraceCache::Stats::addFailuresTo(util::RunManifest &manifest) const
{
    for (const Incident &inc : incidents)
        manifest.addFailure(inc.key, "", inc.stage, inc.error);
}

util::StatusOr<TraceCache::Ptr>
TraceCache::record(const TraceKey &key)
{
    if (BIOPERF_FAILPOINT("cache.record.fail"))
        return util::Status::unavailable(
            "fail point cache.record.fail fired");
    if (!key.app)
        return util::Status::invalidArgument(
            "trace key has no application");
    try {
        auto ct = std::make_shared<CachedTrace>();
        apps::AppRun run = makeWorkload(key, &ct->spills);
        vm::TraceRecorder recorder(*run.prog);
        vm::Interpreter interp(*run.prog);
        interp.addSink(&recorder);
        run.driver(interp);
        ct->verified = run.verify();
        ct->instructions = interp.totalInstrs();
        ct->trace = recorder.finish();
        ct->prog = std::move(run.prog);
        return Ptr(std::move(ct));
    } catch (const util::StatusError &e) {
        util::Status s = e.status();
        return s.withContext("recording " + key.str());
    } catch (const std::exception &e) {
        return util::Status::internal(e.what()).withContext(
            "recording " + key.str());
    }
}

util::StatusOr<TraceCache::Ptr>
TraceCache::obtain(const TraceKey &key)
{
    const std::string k = key.str();
    std::promise<util::StatusOr<Ptr>> promise;
    std::shared_future<util::StatusOr<Ptr>> fut;
    bool recording = false;
    {
        std::lock_guard<std::mutex> lock(mu_);
        auto it = entries_.find(k);
        if (it != entries_.end()) {
            stats_.hits++;
            fut = it->second;
        } else {
            // Single-flight: publish the future before recording so
            // concurrent workers for the same workload block on it
            // instead of recording twice.
            recording = true;
            fut = promise.get_future().share();
            entries_.emplace(k, fut);
        }
    }
    if (!recording)
        return fut.get();
    const double t0 = now();
    util::StatusOr<Ptr> got = record(key);
    if (!got.ok()) {
        {
            std::lock_guard<std::mutex> lock(mu_);
            stats_.recordRetries++;
        }
        got = record(key);
    }
    const double dt = now() - t0;
    {
        std::lock_guard<std::mutex> lock(mu_);
        if (got.ok()) {
            stats_.records++;
            stats_.recordSeconds += dt;
            stats_.recordedInstructions += got.value()->instructions;
        } else {
            // Waiters blocked on the future still receive the
            // failure; dropping the entry lets a later obtain()
            // re-attempt instead of caching the error forever.
            stats_.recordFailures++;
            stats_.incidents.push_back(
                Incident{ "trace_record", k, got.status().str() });
            entries_.erase(k);
        }
    }
    promise.set_value(got);
    return got;
}

TraceCache::Ptr
TraceCache::lookup(const TraceKey &key) const
{
    std::lock_guard<std::mutex> lock(mu_);
    auto it = entries_.find(key.str());
    if (it == entries_.end())
        return nullptr;
    if (it->second.wait_for(std::chrono::seconds(0)) !=
        std::future_status::ready)
        return nullptr;
    const util::StatusOr<Ptr> &got = it->second.get();
    return got.ok() ? got.value() : nullptr;
}

void
TraceCache::insert(const TraceKey &key, Ptr trace)
{
    std::promise<util::StatusOr<Ptr>> promise;
    promise.set_value(util::StatusOr<Ptr>(std::move(trace)));
    std::lock_guard<std::mutex> lock(mu_);
    entries_[key.str()] = promise.get_future().share();
}

void
TraceCache::quarantine(const TraceKey &key, const util::Status &why)
{
    std::lock_guard<std::mutex> lock(mu_);
    if (entries_.erase(key.str()) != 0) {
        stats_.quarantined++;
        stats_.incidents.push_back(
            Incident{ "trace_quarantine", key.str(), why.str() });
    }
}

void
TraceCache::noteLiveFallback(const TraceKey &key,
                             const util::Status &why)
{
    std::lock_guard<std::mutex> lock(mu_);
    stats_.liveFallbacks++;
    stats_.incidents.push_back(
        Incident{ "live_fallback", key.str(), why.str() });
}

void
TraceCache::erase(const TraceKey &key)
{
    std::lock_guard<std::mutex> lock(mu_);
    entries_.erase(key.str());
}

void
TraceCache::clear()
{
    std::lock_guard<std::mutex> lock(mu_);
    entries_.clear();
}

size_t
TraceCache::size() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return entries_.size();
}

size_t
TraceCache::totalBytes() const
{
    std::lock_guard<std::mutex> lock(mu_);
    size_t n = 0;
    for (const auto &[name, fut] : entries_) {
        if (fut.wait_for(std::chrono::seconds(0)) ==
            std::future_status::ready) {
            const util::StatusOr<Ptr> &got = fut.get();
            if (got.ok() && got.value())
                n += got.value()->trace.totalBytes();
        }
    }
    return n;
}

TraceCache::Stats
TraceCache::stats() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return stats_;
}

void
TraceCache::noteReplay(double seconds, uint64_t instructions)
{
    std::lock_guard<std::mutex> lock(mu_);
    stats_.replaySeconds += seconds;
    stats_.replayedInstructions += instructions;
}

// --- .bptrace persistence ---------------------------------------------
//
// Layout (all integers little-endian, host-endian in practice):
//   u8[8]  magic "bptrace\0"
//   u32    version (kTraceFileVersion)
//   u8     variant, u8 scale, u8 registerPressure, u8 verified
//   u32    intRegs, u32 fpRegs
//   u64    seed
//   u32    sidLimit          (fingerprint of the recording program)
//   u64    runs
//   u64    instructions      (up front, so streaming readers know
//                             the expected count before the chunks)
//   u32    spills
//   u32    keyframeInterval  (random-access cadence)
//   u32    appNameLen, bytes
//   u32    numChunks
//   chunk: u32 numEvents, u32 bitmapOffset, u64 startSeq,
//          u8 flags (v3: bit0 = gapBefore),
//          u32 byteLen, u32 payloadCrc (v3), bytes
//   u64    instructions      (trailer: decoded-count cross-check)
//   u32    metaCrc           (v3: CRC32C over every byte above except
//                             chunk payloads, which carry their own)
//   u32    end magic "BPTE"
//
// v1 lacked the header instruction count, keyframe interval and
// per-chunk start seqs; v1 files are rejected (re-record them). v2
// files (no flags, payload CRCs or metadata digest) remain readable;
// integrity verification is skipped for them.
//
// Splitting integrity into per-chunk payload CRCs plus one metadata
// digest lets open() prove the framing genuine during its index scan
// — which never reads payload bytes — while next() proves each
// payload as it actually streams off disk; and it is exactly the
// granularity salvage needs to tell intact chunks from damaged ones.

namespace {

constexpr char kTraceMagic[8] = { 'b', 'p', 't', 'r', 'a', 'c', 'e',
                                  '\0' };
constexpr uint32_t kTraceFileVersion = 3;
constexpr uint32_t kTraceFileVersionV2 = 2;
constexpr uint32_t kTraceEndMagic = 0x45545042; // "BPTE"
constexpr uint8_t kChunkFlagGapBefore = 1u << 0;

struct FileCloser
{
    void operator()(FILE *f) const
    {
        if (f)
            std::fclose(f);
    }
};
using FilePtr = std::unique_ptr<FILE, FileCloser>;

bool
writeBytes(FILE *f, const void *p, size_t n)
{
    return std::fwrite(p, 1, n, f) == n;
}

bool
readBytes(FILE *f, void *p, size_t n)
{
    return std::fread(p, 1, n, f) == n;
}

template <typename T>
bool
readScalar(FILE *f, T &v)
{
    return readBytes(f, &v, sizeof(v));
}

/**
 * Writes metadata bytes while folding them into the file digest;
 * payload bytes go through writeBytes() directly (they carry their
 * own per-chunk CRC).
 */
struct MetaWriter
{
    FILE *f;
    uint32_t crc = 0;
    bool ok = true;

    void bytes(const void *p, size_t n)
    {
        crc = util::crc32cExtend(crc, p, n);
        ok = ok && writeBytes(f, p, n);
    }
    template <typename T> void scalar(T v) { bytes(&v, sizeof(v)); }
};

/**
 * Reads metadata bytes while folding them into the running digest
 * for the v3 cross-check (harmlessly accumulated for v2 too).
 */
struct MetaReader
{
    FILE *f;
    uint32_t crc = 0;

    bool bytes(void *p, size_t n)
    {
        if (!readBytes(f, p, n))
            return false;
        crc = util::crc32cExtend(crc, p, n);
        return true;
    }
    template <typename T> bool scalar(T &v)
    {
        return bytes(&v, sizeof(v));
    }
};

/** Counts onRunEnd() calls during the load-time validation replay. */
struct RunCountSink : vm::TraceSink
{
    uint64_t runs = 0;
    void onInstr(const vm::DynInstr &) override {}
    void onBatch(const vm::DynInstr *, size_t) override {}
    void onRunEnd() override { runs++; }
};

} // namespace

util::Status
saveTraceFile(const std::string &path, const TraceKey &key,
              const CachedTrace &trace)
{
    FilePtr f(std::fopen(path.c_str(), "wb"));
    if (!f)
        return util::Status::ioError("cannot open '" + path +
                                     "' for writing");
    const std::string app_name = key.app ? key.app->name : "";
    MetaWriter w{ f.get() };
    w.bytes(kTraceMagic, sizeof(kTraceMagic));
    w.scalar(kTraceFileVersion);
    w.scalar(static_cast<uint8_t>(key.variant));
    w.scalar(static_cast<uint8_t>(key.scale));
    w.scalar(static_cast<uint8_t>(key.registerPressure ? 1 : 0));
    w.scalar(static_cast<uint8_t>(trace.verified ? 1 : 0));
    w.scalar(key.intRegs);
    w.scalar(key.fpRegs);
    w.scalar(key.seed);
    w.scalar(trace.trace.sidLimit());
    w.scalar(trace.trace.runs());
    w.scalar(trace.trace.instructions());
    w.scalar(trace.spills);
    w.scalar(trace.trace.keyframeInterval());
    w.scalar(static_cast<uint32_t>(app_name.size()));
    w.bytes(app_name.data(), app_name.size());
    w.scalar(static_cast<uint32_t>(trace.trace.chunks().size()));
    for (const auto &chunk : trace.trace.chunks()) {
        if (!w.ok)
            break;
        w.scalar(chunk.numEvents);
        w.scalar(chunk.bitmapOffset);
        w.scalar(chunk.startSeq);
        w.scalar(static_cast<uint8_t>(
            chunk.gapBefore ? kChunkFlagGapBefore : 0));
        w.scalar(static_cast<uint32_t>(chunk.bytes.size()));
        w.scalar(util::crc32c(chunk.bytes.data(), chunk.bytes.size()));
        if (BIOPERF_FAILPOINT("trace.write.short")) {
            // Simulate the write being cut off mid-payload (disk
            // full, signal): report the failure and leave the
            // truncated file behind, exactly what salvage must cope
            // with.
            writeBytes(f.get(), chunk.bytes.data(),
                       chunk.bytes.size() / 2);
            return util::Status::ioError(
                "short write to '" + path +
                "' (fail point trace.write.short)");
        }
        if (BIOPERF_FAILPOINT("codec.chunk.corrupt") &&
            !chunk.bytes.empty()) {
            // Flip one payload bit after its CRC was computed: the
            // save reports success, and the mismatch is only
            // detectable by the reader's checksum pass.
            std::vector<uint8_t> tainted = chunk.bytes;
            tainted[0] ^= 0x01;
            w.ok = w.ok && writeBytes(f.get(), tainted.data(),
                                      tainted.size());
        } else {
            w.ok = w.ok && writeBytes(f.get(), chunk.bytes.data(),
                                      chunk.bytes.size());
        }
    }
    w.scalar(trace.trace.instructions());
    const uint32_t meta_crc = w.crc;
    w.ok = w.ok && writeBytes(f.get(), &meta_crc, sizeof(meta_crc));
    w.ok = w.ok &&
           writeBytes(f.get(), &kTraceEndMagic, sizeof(kTraceEndMagic));
    FILE *raw = f.release();
    if (std::fclose(raw) != 0)
        w.ok = false;
    if (!w.ok)
        return util::Status::ioError("write to '" + path + "' failed");
    return {};
}

// --- TraceFileStream --------------------------------------------------

TraceFileStream::~TraceFileStream()
{
    if (file_)
        std::fclose(file_);
}

util::Status
TraceFileStream::open(const std::string &path)
{
    if (file_) {
        std::fclose(file_);
        file_ = nullptr;
    }
    index_.clear();
    next_chunk_ = 0;

    FilePtr f(std::fopen(path.c_str(), "rb"));
    if (!f)
        return util::Status::notFound("cannot open '" + path + "'");

    MetaReader r{ f.get() };
    char magic[8];
    if (!r.bytes(magic, sizeof(magic)))
        return util::Status::corruptData("truncated file (no header)");
    if (std::memcmp(magic, kTraceMagic, sizeof(magic)) != 0)
        return util::Status::corruptData(
            "not a .bptrace file (bad magic)");
    uint32_t version = 0;
    if (!r.scalar(version))
        return util::Status::corruptData("truncated file (no version)");
    if (version != kTraceFileVersion && version != kTraceFileVersionV2)
        return util::Status::corruptData(
            "unsupported .bptrace version " + std::to_string(version) +
            " (expected " + std::to_string(kTraceFileVersionV2) +
            " or " + std::to_string(kTraceFileVersion) + ")");
    has_integrity_ = version == kTraceFileVersion;

    uint8_t variant = 0, scale = 0, reg_pressure = 0, verified = 0;
    uint32_t int_regs = 0, fp_regs = 0;
    uint32_t name_len = 0, num_chunks = 0;
    uint64_t seed = 0;
    if (!r.scalar(variant) || !r.scalar(scale) ||
        !r.scalar(reg_pressure) || !r.scalar(verified) ||
        !r.scalar(int_regs) || !r.scalar(fp_regs) || !r.scalar(seed) ||
        !r.scalar(sid_limit_) || !r.scalar(runs_) ||
        !r.scalar(instructions_) || !r.scalar(spills_) ||
        !r.scalar(keyframe_interval_) || !r.scalar(name_len))
        return util::Status::corruptData(
            "truncated file (incomplete identity block)");
    if (keyframe_interval_ == 0)
        return util::Status::corruptData(
            "zero keyframe interval (corrupt header)");
    if (name_len > 4096)
        return util::Status::corruptData(
            "implausible app name length (corrupt header)");
    std::string app_name(name_len, '\0');
    if (!r.bytes(app_name.data(), name_len) || !r.scalar(num_chunks))
        return util::Status::corruptData(
            "truncated file (incomplete identity block)");
    verified_ = verified != 0;

    key_ = TraceKey{};
    key_.app = apps::findApp(app_name);
    if (!key_.app)
        return util::Status::notFound(
            "trace was recorded for unknown application '" + app_name +
            "'");
    key_.variant = static_cast<apps::Variant>(variant);
    key_.scale = static_cast<apps::Scale>(scale);
    key_.seed = seed;
    key_.registerPressure = reg_pressure != 0;
    key_.intRegs = int_regs;
    key_.fpRegs = fp_regs;

    // Index pass: read each chunk's framing, skip its payload. After
    // this the reader knows every chunk's offset without having held
    // any payload bytes.
    index_.reserve(num_chunks);
    uint64_t event_instr_bound = 0;
    for (uint32_t i = 0; i < num_chunks; i++) {
        ChunkInfo info;
        uint8_t flags = 0;
        if (!r.scalar(info.numEvents) || !r.scalar(info.bitmapOffset) ||
            !r.scalar(info.startSeq) ||
            (has_integrity_ && !r.scalar(flags)) ||
            !r.scalar(info.byteLen) ||
            (has_integrity_ && !r.scalar(info.crc)))
            return util::Status::corruptData(
                "truncated chunk header (chunk " + std::to_string(i) +
                " of " + std::to_string(num_chunks) + ")");
        info.gapBefore = (flags & kChunkFlagGapBefore) != 0;
        if (info.bitmapOffset > info.byteLen)
            return util::Status::corruptData(
                "chunk bitmap offset beyond payload (corrupt framing)");
        const long pos = std::ftell(f.get());
        if (pos < 0)
            return util::Status::ioError("cannot tell position in '" +
                                         path + "'");
        info.offset = static_cast<uint64_t>(pos);
        if (std::fseek(f.get(), static_cast<long>(info.byteLen),
                       SEEK_CUR) != 0)
            return util::Status::corruptData(
                "truncated chunk payload (chunk " + std::to_string(i) +
                ")");
        event_instr_bound += info.numEvents;
        index_.push_back(info);
    }
    uint64_t trailer_instructions = 0;
    uint32_t end_magic = 0;
    if (!r.scalar(trailer_instructions))
        return util::Status::corruptData("truncated file (no trailer)");
    const uint32_t computed_meta_crc = r.crc;
    if (has_integrity_) {
        uint32_t meta_crc = 0;
        if (!readScalar(f.get(), meta_crc))
            return util::Status::corruptData(
                "truncated file (no metadata digest)");
        if (meta_crc != computed_meta_crc)
            return util::Status::corruptData(
                "metadata digest mismatch (corrupt header, framing or "
                "trailer)");
    }
    if (!readScalar(f.get(), end_magic))
        return util::Status::corruptData("truncated file (no trailer)");
    if (end_magic != kTraceEndMagic)
        return util::Status::corruptData(
            "bad trailer magic (corrupt or truncated file)");
    if (trailer_instructions != instructions_)
        return util::Status::corruptData(
            "trailer instruction count disagrees with the header "
            "(corrupt file)");
    if (instructions_ + runs_ != event_instr_bound)
        return util::Status::corruptData(
            "instruction count disagrees with chunk framing (corrupt "
            "file)");

    file_ = f.release();
    return seekToChunk(0);
}

util::Status
TraceFileStream::seekToChunk(size_t idx)
{
    if (!file_)
        return util::Status::failedPrecondition("stream is not open");
    if (idx > index_.size())
        return util::Status::invalidArgument("chunk index out of range");
    next_chunk_ = idx;
    return {};
}

bool
TraceFileStream::next(vm::EncodedTrace::Chunk &chunk,
                      util::Status &error)
{
    if (next_chunk_ >= index_.size())
        return false;
    const ChunkInfo &info = index_[next_chunk_];
    if (std::fseek(file_, static_cast<long>(info.offset), SEEK_SET) !=
        0) {
        error = util::Status::ioError("cannot seek to chunk " +
                                      std::to_string(next_chunk_));
        return false;
    }
    chunk.numEvents = info.numEvents;
    chunk.bitmapOffset = info.bitmapOffset;
    chunk.startSeq = info.startSeq;
    chunk.keyframe = isKeyframe(next_chunk_);
    chunk.gapBefore = info.gapBefore;
    chunk.bytes.resize(info.byteLen);
    if (!readBytes(file_, chunk.bytes.data(), info.byteLen)) {
        error = util::Status::ioError("truncated chunk payload (chunk " +
                                      std::to_string(next_chunk_) + ")");
        return false;
    }
    if (has_integrity_ &&
        util::crc32c(chunk.bytes.data(), chunk.bytes.size()) !=
            info.crc) {
        error = util::Status::corruptData(
            "payload checksum mismatch (chunk " +
            std::to_string(next_chunk_) + ")");
        return false;
    }
    next_chunk_++;
    return true;
}

util::Status
buildReplayProgram(const TraceKey &key, uint32_t sid_limit,
                   std::unique_ptr<ir::Program> &out)
{
    if (!key.app)
        return util::Status::invalidArgument(
            "trace has no application identity");
    try {
        apps::AppRun run = makeWorkload(key);
        if (run.prog->sidLimit() != sid_limit)
            return util::Status::failedPrecondition(
                "rebuilt program has a different sid space than the "
                "recording (version skew between the trace and this "
                "build)");
        out = std::move(run.prog);
        return {};
    } catch (const util::StatusError &e) {
        util::Status s = e.status();
        return s.withContext("rebuilding replay program for " +
                             key.str());
    }
}

TraceLoadResult
loadTraceFile(const std::string &path)
{
    TraceLoadResult res;
    auto fail = [&res, &path](util::Status why) {
        res.trace = nullptr;
        res.status =
            std::move(why).withContext("loading '" + path + "'");
        return res;
    };

    TraceFileStream stream;
    if (util::Status s = stream.open(path); !s.ok())
        return fail(std::move(s));
    res.key = stream.key();

    auto ct = std::make_shared<CachedTrace>();
    ct->verified = stream.verified();
    ct->spills = stream.spills();
    ct->instructions = stream.instructions();
    ct->trace.setSidLimit(stream.sidLimit());
    ct->trace.setKeyframeInterval(stream.keyframeInterval());
    ct->trace.setCounts(stream.instructions(), stream.runs());
    if (util::Status s =
            buildReplayProgram(res.key, stream.sidLimit(), ct->prog);
        !s.ok())
        return fail(std::move(s));

    // Single pass: each chunk is decode-validated (proving every
    // varint terminates) as it streams off disk, then moved into the
    // in-memory trace.
    RunCountSink counter;
    vm::TraceReplayer validator(*ct->prog);
    validator.addSink(&counter);
    validator.beginStream(0);
    vm::EncodedTrace::Chunk chunk;
    util::Status stream_error;
    while (stream.next(chunk, stream_error)) {
        if (util::Status s = validator.streamChunk(chunk); !s.ok())
            return fail(std::move(s));
        ct->trace.appendChunk(std::move(chunk));
        chunk = vm::EncodedTrace::Chunk{};
    }
    if (!stream_error.ok())
        return fail(std::move(stream_error));
    const uint64_t decoded = validator.endStream();
    if (decoded != stream.instructions() ||
        counter.runs != stream.runs())
        return fail(util::Status::corruptData(
            "decoded event counts disagree with the trailer (corrupt "
            "payload)"));

    res.trace = std::move(ct);
    return res;
}

// --- Salvage ----------------------------------------------------------

TraceSalvageResult
salvageTraceFile(const std::string &path)
{
    TraceSalvageResult res;
    auto fail = [&res, &path](util::Status why) {
        res.trace = nullptr;
        res.status =
            std::move(why).withContext("salvaging '" + path + "'");
        return res;
    };

    FilePtr f(std::fopen(path.c_str(), "rb"));
    if (!f)
        return fail(
            util::Status::notFound("cannot open '" + path + "'"));

    // The header is required: without the recipe there is no program
    // to replay against, so a damaged identity block is beyond
    // salvage. Everything after it is read tolerantly.
    char magic[8];
    if (!readBytes(f.get(), magic, sizeof(magic)) ||
        std::memcmp(magic, kTraceMagic, sizeof(magic)) != 0)
        return fail(util::Status::corruptData(
            "not a .bptrace file (bad magic); header is beyond "
            "salvage"));
    uint32_t version = 0;
    if (!readScalar(f.get(), version) ||
        (version != kTraceFileVersion && version != kTraceFileVersionV2))
        return fail(util::Status::corruptData(
            "unsupported or corrupt version field"));
    const bool has_integrity = version == kTraceFileVersion;

    uint8_t variant = 0, scale = 0, reg_pressure = 0, verified = 0;
    uint32_t int_regs = 0, fp_regs = 0;
    uint32_t name_len = 0, num_chunks = 0;
    uint64_t seed = 0;
    uint32_t sid_limit = 0, spills = 0, keyframe_interval = 0;
    uint64_t runs = 0, instructions = 0;
    if (!readScalar(f.get(), variant) || !readScalar(f.get(), scale) ||
        !readScalar(f.get(), reg_pressure) ||
        !readScalar(f.get(), verified) ||
        !readScalar(f.get(), int_regs) ||
        !readScalar(f.get(), fp_regs) || !readScalar(f.get(), seed) ||
        !readScalar(f.get(), sid_limit) || !readScalar(f.get(), runs) ||
        !readScalar(f.get(), instructions) ||
        !readScalar(f.get(), spills) ||
        !readScalar(f.get(), keyframe_interval) ||
        !readScalar(f.get(), name_len))
        return fail(util::Status::corruptData(
            "truncated identity block; header is beyond salvage"));
    if (keyframe_interval == 0 || name_len > 4096)
        return fail(util::Status::corruptData(
            "implausible identity block; header is beyond salvage"));
    std::string app_name(name_len, '\0');
    if (!readBytes(f.get(), app_name.data(), name_len) ||
        !readScalar(f.get(), num_chunks))
        return fail(util::Status::corruptData(
            "truncated identity block; header is beyond salvage"));

    res.key = TraceKey{};
    res.key.app = apps::findApp(app_name);
    if (!res.key.app)
        return fail(util::Status::notFound(
            "trace was recorded for unknown application '" + app_name +
            "'"));
    res.key.variant = static_cast<apps::Variant>(variant);
    res.key.scale = static_cast<apps::Scale>(scale);
    res.key.seed = seed;
    res.key.registerPressure = reg_pressure != 0;
    res.key.intRegs = int_regs;
    res.key.fpRegs = fp_regs;
    res.totalInstructions = instructions;

    // Tolerant chunk scan. Framing fields are not individually
    // checksummed, so a bit flip inside framing desynchronizes every
    // later file offset; the scan stops at the first implausible
    // record or short read and salvages what was read cleanly before
    // it. A flip inside a *payload* only damages that chunk (v3 CRC
    // catches it; v2 relies on decode validation below).
    struct RawChunk
    {
        vm::EncodedTrace::Chunk data;
        bool good = false;
    };
    std::vector<RawChunk> raw;
    for (uint32_t i = 0; i < num_chunks; i++) {
        uint32_t num_events = 0, bitmap_offset = 0, byte_len = 0;
        uint32_t crc = 0;
        uint64_t start_seq = 0;
        uint8_t flags = 0;
        if (!readScalar(f.get(), num_events) ||
            !readScalar(f.get(), bitmap_offset) ||
            !readScalar(f.get(), start_seq) ||
            (has_integrity && !readScalar(f.get(), flags)) ||
            !readScalar(f.get(), byte_len) ||
            (has_integrity && !readScalar(f.get(), crc)))
            break; // truncated framing: nothing after is addressable
        if (bitmap_offset > byte_len ||
            num_events > vm::TraceRecorder::kChunkEvents ||
            byte_len > (1u << 28))
            break; // desynchronized framing
        RawChunk rc;
        rc.data.numEvents = num_events;
        rc.data.bitmapOffset = bitmap_offset;
        rc.data.startSeq = start_seq;
        rc.data.keyframe = (i % keyframe_interval) == 0;
        rc.data.gapBefore = false;
        rc.data.bytes.resize(byte_len);
        if (!readBytes(f.get(), rc.data.bytes.data(), byte_len)) {
            // Truncated mid-payload; this chunk is lost and nothing
            // follows it.
            raw.push_back(std::move(rc));
            break;
        }
        rc.good =
            !has_integrity ||
            util::crc32c(rc.data.bytes.data(), rc.data.bytes.size()) ==
                crc;
        raw.push_back(std::move(rc));
    }
    res.totalChunks = std::max<size_t>(num_chunks, raw.size());

    std::unique_ptr<ir::Program> prog;
    if (util::Status s = buildReplayProgram(res.key, sid_limit, prog);
        !s.ok())
        return fail(std::move(s));

    // Keep only keyframe-aligned groups whose every chunk is intact:
    // each kept group spans exactly keyframe_interval chunks (the
    // trailing group may be shorter — nothing follows it), so the
    // salvaged chunk vector preserves the modulo-K keyframe geometry
    // that replayRange() and the sampling shard planner rely on.
    auto ct = std::make_shared<CachedTrace>();
    ct->prog = std::move(prog);
    ct->verified = false; // the golden verdict covered the full stream
    ct->spills = spills;
    ct->trace.setSidLimit(sid_limit);
    ct->trace.setKeyframeInterval(keyframe_interval);

    RunCountSink counter;
    vm::TraceReplayer validator(*ct->prog);
    validator.addSink(&counter);

    uint64_t recovered_instrs = 0;
    uint64_t recovered_runs = 0;
    size_t last_kept_group = 0;
    bool kept_any = false;
    const size_t k = keyframe_interval;
    for (size_t g = 0; g * k < raw.size(); g++) {
        const size_t begin = g * k;
        const size_t end = std::min(raw.size(), begin + k);
        bool all_good = true;
        for (size_t i = begin; i < end; i++)
            all_good = all_good && raw[i].good;
        // Any damage drops the whole group: a partial interior group
        // would shift later keyframes off their modulo positions, and
        // a chunk after a damaged one cannot be decoded anyway (delta
        // state only resets at group starts).
        if (!all_good)
            continue;
        // Decode validation: checksums prove the bytes, this proves
        // the encoding (and, for v2 files, is the only corruption
        // check).
        const uint64_t runs_before = counter.runs;
        validator.beginStream(raw[begin].data.startSeq);
        bool decode_ok = true;
        for (size_t i = begin; i < end && decode_ok; i++)
            decode_ok = validator.streamChunk(raw[i].data).ok();
        const uint64_t delivered = validator.endStream();
        if (!decode_ok) {
            counter.runs = runs_before; // sinks saw a doomed prefix
            continue;
        }
        if (kept_any && g != last_kept_group + 1) {
            raw[begin].data.gapBefore = true;
            res.gaps++;
        }
        for (size_t i = begin; i < end; i++)
            ct->trace.appendChunk(std::move(raw[i].data));
        recovered_instrs += delivered;
        recovered_runs += counter.runs - runs_before;
        res.recoveredChunks += end - begin;
        last_kept_group = g;
        kept_any = true;
    }
    res.lostChunks = res.totalChunks - res.recoveredChunks;
    res.recoveredInstructions = recovered_instrs;
    res.lostInstructions =
        res.totalInstructions > recovered_instrs
            ? res.totalInstructions - recovered_instrs
            : 0;

    if (!kept_any)
        return fail(util::Status::corruptData(
            "no intact keyframe-aligned region survives"));

    ct->instructions = recovered_instrs;
    ct->trace.setCounts(recovered_instrs, recovered_runs);
    res.trace = std::move(ct);
    res.status = util::Status();
    return res;
}

} // namespace bioperf::core
