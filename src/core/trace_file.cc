#include "core/trace_file.h"

#include <algorithm>
#include <cstring>

#include "util/crc32c.h"
#include "util/failpoint.h"

namespace bioperf::core {

// Layout (all integers little-endian, host-endian in practice):
//   u8[8]  magic "bptrace\0"
//   u32    version (kTraceFileVersion)
//   u8     variant, u8 scale, u8 registerPressure, u8 verified
//   u32    intRegs, u32 fpRegs
//   u64    seed
//   u64    cfgDigest         (vm::controlFlowDigest of the recording
//                             program; the loader's rebuild must match)
//   u64    runs
//   u64    instructions      (up front, so streaming readers know
//                             the expected count before the chunks)
//   u32    spills
//   u32    keyframeInterval  (random-access cadence)
//   u32    appNameLen, bytes
//   u32    numChunks
//   chunk: u32 numEvents, u32 bitmapOffset,
//          u8 flags (bit0 = gapBefore),
//          u32 byteLen, u32 payloadCrc, bytes
//   u64    instructions      (trailer: decoded-count cross-check)
//   u32    metaCrc           (CRC32C over every byte above except
//                             chunk payloads, which carry their own)
//   u32    end magic "BPTE"
//
// Any other version is rejected; re-record such files.
//
// Splitting integrity into per-chunk payload CRCs plus one metadata
// digest lets open() prove the framing genuine during its index scan
// — which never reads payload bytes — while next() proves each
// payload as it actually streams off disk; and it is exactly the
// granularity salvage needs to tell intact chunks from damaged ones.

namespace {

constexpr char kTraceMagic[8] = { 'b', 'p', 't', 'r', 'a', 'c', 'e',
                                  '\0' };
constexpr uint32_t kTraceFileVersion = 5;
constexpr uint32_t kTraceEndMagic = 0x45545042; // "BPTE"
constexpr uint8_t kChunkFlagGapBefore = 1u << 0;
/** Bytes of framing in front of every chunk payload. */
constexpr uint64_t kFrameBytes = 17;

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

/** Reads metadata bytes while folding them into the running digest. */
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

/**
 * Reads the identity block — magic, version, recipe, counts, chunk
 * count — from the start of @a r's file. The chunk count is checked
 * against the bytes left before anything is sized by it: every chunk
 * frame takes at least kFrameBytes. @a h.key is complete once its app
 * resolves, even when a later check fails.
 */
util::Status
readHeader(MetaReader &r, TraceFileHeader &h)
{
    char magic[8];
    if (!r.bytes(magic, sizeof(magic)))
        return util::Status::corruptData("truncated file (no header)");
    if (std::memcmp(magic, kTraceMagic, sizeof(magic)) != 0)
        return util::Status::corruptData(
            "not a .bptrace file (bad magic)");
    uint32_t version = 0;
    if (!r.scalar(version))
        return util::Status::corruptData("truncated file (no version)");
    if (version != kTraceFileVersion)
        return util::Status::corruptData(
            "unsupported .bptrace version " + std::to_string(version) +
            " (expected " + std::to_string(kTraceFileVersion) + ")");

    uint8_t variant = 0, scale = 0, reg_pressure = 0, verified = 0;
    uint32_t name_len = 0;
    TraceKey &key = h.key;
    if (!r.scalar(variant) || !r.scalar(scale) ||
        !r.scalar(reg_pressure) || !r.scalar(verified) ||
        !r.scalar(key.intRegs) || !r.scalar(key.fpRegs) ||
        !r.scalar(key.seed) || !r.scalar(h.controlFlowDigest) ||
        !r.scalar(h.runs) || !r.scalar(h.instructions) ||
        !r.scalar(h.spills) || !r.scalar(h.keyframeInterval) ||
        !r.scalar(name_len))
        return util::Status::corruptData(
            "truncated file (incomplete identity block)");
    if (h.keyframeInterval == 0)
        return util::Status::corruptData(
            "zero keyframe interval (corrupt header)");
    if (name_len > 4096)
        return util::Status::corruptData(
            "implausible app name length (corrupt header)");
    std::string app_name(name_len, '\0');
    if (!r.bytes(app_name.data(), name_len) || !r.scalar(h.numChunks))
        return util::Status::corruptData(
            "truncated file (incomplete identity block)");
    h.verified = verified != 0;
    key.registerPressure = reg_pressure != 0;
    key.variant = static_cast<apps::Variant>(variant);
    key.scale = static_cast<apps::Scale>(scale);
    key.app = apps::findApp(app_name);
    if (!key.app)
        return util::Status::notFound(
            "trace was recorded for unknown application '" + app_name +
            "'");
    const long pos = std::ftell(r.f);
    std::fseek(r.f, 0, SEEK_END);
    const long size = std::ftell(r.f);
    if (pos < 0 || size < 0 || std::fseek(r.f, pos, SEEK_SET) != 0)
        return util::Status::ioError("cannot measure the file size");
    if (h.numChunks * kFrameBytes > static_cast<uint64_t>(size - pos))
        return util::Status::corruptData(
            "chunk count " + std::to_string(h.numChunks) +
            " exceeds what the file can hold (corrupt header or "
            "truncated file)");
    return {};
}

/**
 * Reads the framing of chunk @a i of @a n (not its payload) and checks
 * that it is plausible: the bitmap inside the payload, no more events
 * than a recorder chunk holds, a payload under 256 MB.
 */
util::Status
readFrame(MetaReader &r, uint32_t i, uint32_t n, TraceChunkFrame &fr)
{
    uint8_t flags = 0;
    if (!r.scalar(fr.numEvents) || !r.scalar(fr.bitmapOffset) ||
        !r.scalar(flags) || !r.scalar(fr.byteLen) || !r.scalar(fr.crc))
        return util::Status::corruptData(
            "truncated chunk header (chunk " + std::to_string(i) +
            " of " + std::to_string(n) + ")");
    fr.gapBefore = (flags & kChunkFlagGapBefore) != 0;
    if (fr.bitmapOffset > fr.byteLen ||
        fr.numEvents > vm::TraceRecorder::kChunkEvents ||
        fr.byteLen > (1u << 28))
        return util::Status::corruptData(
            "implausible chunk framing (chunk " + std::to_string(i) +
            ")");
    return {};
}

/**
 * Reads the payload @a fr frames (chunk @a idx, at the current file
 * position) into @a chunk and checks its CRC: kIoError when the file
 * ends first, kCorruptData on a checksum mismatch.
 */
util::Status
readChunk(FILE *f, const TraceChunkFrame &fr, size_t idx, bool keyframe,
          vm::EncodedTrace::Chunk &chunk)
{
    chunk.numEvents = fr.numEvents;
    chunk.bitmapOffset = fr.bitmapOffset;
    chunk.keyframe = keyframe;
    chunk.gapBefore = fr.gapBefore;
    chunk.bytes.resize(fr.byteLen);
    if (!readBytes(f, chunk.bytes.data(), fr.byteLen))
        return util::Status::ioError("truncated chunk payload (chunk " +
                                     std::to_string(idx) + ")");
    if (util::crc32c(chunk.bytes.data(), chunk.bytes.size()) != fr.crc)
        return util::Status::corruptData(
            "payload checksum mismatch (chunk " + std::to_string(idx) +
            ")");
    return {};
}

/**
 * Decode validation: checksums prove the bytes, streaming chunks
 * through this replayer proves the encoding (every varint terminates);
 * endStream() counts the instructions delivered, the sink the runs.
 */
struct DecodeCheck : vm::TraceSink
{
    vm::TraceReplayer replayer;
    uint64_t runs = 0;

    explicit DecodeCheck(const ir::Program &prog) : replayer(prog)
    {
        replayer.addSink(this);
    }
    void onInstr(const vm::DynInstr &) override {}
    void onBatch(const vm::DynInstr *, size_t) override {}
    void onRunEnd() override { runs++; }
};

/** The replay-ready trace a file describes, still without chunks. */
std::shared_ptr<CachedTrace>
emptyTrace(const TraceFileHeader &h, std::unique_ptr<ir::Program> prog)
{
    auto ct = std::make_shared<CachedTrace>();
    ct->prog = std::move(prog);
    ct->verified = h.verified;
    ct->spills = h.spills;
    ct->instructions = h.instructions;
    ct->trace.setControlFlowDigest(h.controlFlowDigest);
    ct->trace.setKeyframeInterval(h.keyframeInterval);
    ct->trace.setCounts(h.instructions, h.runs);
    return ct;
}

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
    w.scalar(trace.trace.controlFlowDigest());
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
    header_ = TraceFileHeader{};

    FilePtr f(std::fopen(path.c_str(), "rb"));
    if (!f)
        return util::Status::notFound("cannot open '" + path + "'");

    MetaReader r{ f.get() };
    if (util::Status s = readHeader(r, header_); !s.ok())
        return s;

    // Index pass: read each chunk's framing, skip its payload. After
    // this the reader knows every chunk's offset without having held
    // any payload bytes.
    const uint32_t num_chunks = header_.numChunks;
    index_.reserve(num_chunks);
    uint64_t event_instr_bound = 0;
    for (uint32_t i = 0; i < num_chunks; i++) {
        ChunkInfo info;
        if (util::Status s = readFrame(r, i, num_chunks, info); !s.ok())
            return s;
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
    uint32_t meta_crc = 0, end_magic = 0;
    if (!r.scalar(trailer_instructions))
        return util::Status::corruptData("truncated file (no trailer)");
    const uint32_t computed_meta_crc = r.crc;
    if (!readBytes(f.get(), &meta_crc, sizeof(meta_crc)))
        return util::Status::corruptData(
            "truncated file (no metadata digest)");
    if (meta_crc != computed_meta_crc)
        return util::Status::corruptData(
            "metadata digest mismatch (corrupt header, framing or "
            "trailer)");
    if (!readBytes(f.get(), &end_magic, sizeof(end_magic)))
        return util::Status::corruptData("truncated file (no trailer)");
    if (end_magic != kTraceEndMagic)
        return util::Status::corruptData(
            "bad trailer magic (corrupt or truncated file)");
    if (trailer_instructions != header_.instructions)
        return util::Status::corruptData(
            "trailer instruction count disagrees with the header "
            "(corrupt file)");
    if (header_.instructions + header_.runs != event_instr_bound)
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
    error = readChunk(file_, info, next_chunk_,
                      next_chunk_ % header_.keyframeInterval == 0, chunk);
    if (!error.ok())
        return false;
    next_chunk_++;
    return true;
}

util::Status
buildReplayProgram(const TraceKey &key, uint64_t cfg_digest,
                   std::unique_ptr<ir::Program> &out)
{
    if (!key.app)
        return util::Status::invalidArgument(
            "trace has no application identity");
    try {
        apps::AppRun run = makeWorkload(key);
        if (vm::controlFlowDigest(*run.prog) != cfg_digest)
            return util::Status::failedPrecondition(
                "rebuilt program has a different control flow than the "
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
    const TraceFileHeader &h = stream.header();
    res.key = h.key;

    std::unique_ptr<ir::Program> prog;
    if (util::Status s = buildReplayProgram(h.key, h.controlFlowDigest, prog);
        !s.ok())
        return fail(std::move(s));
    std::shared_ptr<CachedTrace> ct = emptyTrace(h, std::move(prog));

    // Single pass: each chunk is decode-validated as it streams off
    // disk, then moved into the in-memory trace.
    DecodeCheck check(*ct->prog);
    check.replayer.beginStream();
    vm::EncodedTrace::Chunk chunk;
    util::Status stream_error;
    while (stream.next(chunk, stream_error)) {
        if (util::Status s = check.replayer.streamChunk(chunk); !s.ok())
            return fail(std::move(s));
        ct->trace.appendChunk(std::move(chunk));
        chunk = vm::EncodedTrace::Chunk{};
    }
    if (!stream_error.ok())
        return fail(std::move(stream_error));
    if (check.replayer.endStream() != h.instructions ||
        check.runs != h.runs)
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
    MetaReader r{ f.get() };
    TraceFileHeader h;
    util::Status header = readHeader(r, h);
    res.key = h.key;
    if (!header.ok())
        return fail(std::move(header).withContext(
            "header is beyond salvage"));
    res.totalInstructions = h.instructions;

    // Tolerant chunk scan. Framing fields are covered only by the
    // whole-file digest, so a bit flip inside framing desynchronizes
    // every later file offset; the scan stops at the first implausible
    // record or short read and salvages what was read cleanly before
    // it. A flip inside a *payload* only damages that chunk (its CRC
    // catches it).
    struct RawChunk
    {
        vm::EncodedTrace::Chunk data;
        bool good = false;
    };
    std::vector<RawChunk> raw;
    for (uint32_t i = 0; i < h.numChunks; i++) {
        TraceChunkFrame fr;
        if (!readFrame(r, i, h.numChunks, fr).ok())
            break; // nothing after a bad frame is addressable
        RawChunk rc;
        const util::Status s =
            readChunk(f.get(), fr, i, i % h.keyframeInterval == 0,
                      rc.data);
        rc.good = s.ok();
        raw.push_back(std::move(rc));
        // Truncated mid-payload: this chunk is lost and nothing
        // follows it.
        if (s.code() == util::StatusCode::kIoError)
            break;
    }
    res.totalChunks = std::max<size_t>(h.numChunks, raw.size());

    std::unique_ptr<ir::Program> prog;
    if (util::Status s = buildReplayProgram(res.key, h.controlFlowDigest, prog);
        !s.ok())
        return fail(std::move(s));

    // Keep only keyframe-aligned groups whose every chunk is intact:
    // each kept group spans exactly keyframeInterval chunks (the
    // trailing group may be shorter — nothing follows it), so the
    // salvaged chunk vector preserves the modulo-K keyframe geometry
    // that keyframe entry and the sampling shard planner rely on.
    std::shared_ptr<CachedTrace> ct = emptyTrace(h, std::move(prog));
    ct->verified = false; // the golden verdict covered the full stream

    DecodeCheck check(*ct->prog);
    uint64_t recovered_instrs = 0;
    uint64_t recovered_runs = 0;
    size_t last_kept_group = 0;
    bool kept_any = false;
    const size_t k = h.keyframeInterval;
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
        check.replayer.beginStream();
        check.runs = 0;
        bool decode_ok = true;
        for (size_t i = begin; i < end && decode_ok; i++)
            decode_ok = check.replayer.streamChunk(raw[i].data).ok();
        const uint64_t delivered = check.replayer.endStream();
        if (!decode_ok)
            continue;
        if (kept_any && g != last_kept_group + 1)
            raw[begin].data.gapBefore = true;
        if (raw[begin].data.gapBefore)
            res.gaps++;
        for (size_t i = begin; i < end; i++)
            ct->trace.appendChunk(std::move(raw[i].data));
        recovered_instrs += delivered;
        recovered_runs += check.runs;
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
