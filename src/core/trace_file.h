#ifndef BIOPERF_CORE_TRACE_FILE_H_
#define BIOPERF_CORE_TRACE_FILE_H_

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "core/trace_cache.h"
#include "util/status.h"
#include "vm/trace_codec.h"

namespace bioperf::core {

/**
 * On-disk .bptrace persistence. The file stores the *recipe* (app,
 * variant, scale, seed, register file) plus the encoded chunks — not
 * the program, which the loader rebuilds deterministically from the
 * registry and validates by its control-flow digest. Layout: versioned
 * header, identity block, per-chunk framing with a CRC32C per chunk
 * payload, trailer with a whole-file metadata digest (see
 * trace_file.cc for the field list). Only format version 4 is read.
 */

/**
 * Writes @a trace as a v4 .bptrace. kIoError on open/write failure
 * (including a short write forced by the trace.write.short fail
 * point); the file contents are unspecified after a failure.
 */
util::Status saveTraceFile(const std::string &path, const TraceKey &key,
                           const CachedTrace &trace);

struct TraceLoadResult
{
    TraceKey key;
    TraceCache::Ptr trace;
    /** OK on success; on failure @a trace is null. */
    util::Status status;
};

/**
 * Loads, validates (magic, version, chunk framing, checksums, trailer
 * count, full decode) and re-materializes the replay program for a
 * saved trace. Built on TraceFileStream, so validation decodes each
 * chunk as it streams off disk in a single pass.
 */
TraceLoadResult loadTraceFile(const std::string &path);

/**
 * Best-effort recovery from a truncated or bit-flipped .bptrace.
 * The header must be intact (it holds the recipe; without it there is
 * nothing to replay against). Chunks are re-scanned tolerantly, each
 * keyframe-aligned group whose chunks all pass checksum + decode
 * validation is kept, and everything else is dropped; the surviving
 * groups form a gap-marked in-memory trace that replays and samples
 * through the normal APIs (cores drain on each gap via
 * TraceSink::onGap()). The salvaged trace's verified flag is always
 * false — the golden-model verdict applied to the full stream, not
 * to a subset.
 */
struct TraceSalvageResult
{
    TraceKey key;
    /** Salvaged trace; null when nothing was recoverable. */
    TraceCache::Ptr trace;
    /** Instruction count the header claimed. */
    uint64_t totalInstructions = 0;
    uint64_t recoveredInstructions = 0;
    uint64_t lostInstructions = 0;
    size_t totalChunks = 0;
    size_t recoveredChunks = 0;
    size_t lostChunks = 0;
    /** Discontinuities in the salvaged stream (onGap() sites). */
    size_t gaps = 0;
    /** OK when at least one keyframe region was recovered. */
    util::Status status;
};

TraceSalvageResult salvageTraceFile(const std::string &path);

/**
 * Rebuilds the replay program for @a key from the app registry and
 * checks its vm::controlFlowDigest() against @a cfg_digest, the
 * recording's (kFailedPrecondition when they differ: a trace implies
 * its sids from the program's control flow). Shared by
 * loadTraceFile() and the streaming consumers (bioperfsim --trace-in,
 * file-based sampling).
 */
util::Status buildReplayProgram(const TraceKey &key, uint64_t cfg_digest,
                                std::unique_ptr<ir::Program> &out);

/** The identity block of a .bptrace: everything before the chunks. */
struct TraceFileHeader
{
    /** Workload identity (app resolved against the registry). */
    TraceKey key;
    uint64_t controlFlowDigest = 0;
    uint64_t runs = 0;
    uint64_t instructions = 0;
    uint32_t spills = 0;
    bool verified = false;
    uint32_t keyframeInterval = 1;
    uint32_t numChunks = 0;
};

/** One chunk's framing as stored in front of its payload. */
struct TraceChunkFrame
{
    uint32_t numEvents = 0;
    uint32_t bitmapOffset = 0;
    uint64_t startSeq = 0;
    bool gapBefore = false;
    uint32_t byteLen = 0;
    uint32_t crc = 0; ///< payload CRC32C
};

/**
 * Chunk-at-a-time .bptrace reader. open() validates the header,
 * scans the chunk framing into an in-memory index (payloads are
 * skipped, not read), and cross-checks the trailer and the whole-file
 * metadata digest, so a valid stream never holds more than one
 * chunk's bytes in memory, and seekToChunk() gives random access at
 * keyframe granularity for sampled replay. next() verifies each
 * chunk's payload CRC32C as it is read.
 *
 * Decode validation is NOT performed here; consumers decode through
 * TraceReplayer, which reports corrupt payloads as statuses.
 */
class TraceFileStream
{
  public:
    TraceFileStream() = default;
    ~TraceFileStream();

    TraceFileStream(const TraceFileStream &) = delete;
    TraceFileStream &operator=(const TraceFileStream &) = delete;

    /**
     * Opens and validates @a path, leaving the reader positioned at
     * chunk 0.
     */
    util::Status open(const std::string &path);

    /** The identity block, valid after a successful open(). */
    const TraceFileHeader &header() const { return header_; }
    uint32_t keyframeInterval() const { return header_.keyframeInterval; }

    size_t numChunks() const { return index_.size(); }
    uint64_t chunkStartSeq(size_t idx) const
    {
        return index_[idx].startSeq;
    }

    /** Positions the reader at chunk @a idx (must be < numChunks()). */
    util::Status seekToChunk(size_t idx);

    /**
     * Reads the chunk at the current position into @a chunk (reusing
     * its buffer), verifies its payload CRC, and advances. @return
     * false at end of the chunk list or on failure (@a error is set
     * only for failures: kIoError for short reads, kCorruptData for
     * checksum mismatches).
     */
    bool next(vm::EncodedTrace::Chunk &chunk, util::Status &error);

  private:
    struct ChunkInfo : TraceChunkFrame
    {
        uint64_t offset = 0; ///< file offset of the payload bytes
    };

    std::FILE *file_ = nullptr;
    std::vector<ChunkInfo> index_;
    size_t next_chunk_ = 0;
    TraceFileHeader header_;
};

} // namespace bioperf::core

#endif // BIOPERF_CORE_TRACE_FILE_H_
