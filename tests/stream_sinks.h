#ifndef BIOPERF_TESTS_STREAM_SINKS_H_
#define BIOPERF_TESTS_STREAM_SINKS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "vm/trace.h"

/** Trace sinks the stream tests share. */
namespace bioperf::test {

/**
 * Hashes the observed stream (FNV-1a over sid, op, addr,
 * loadValueBits, taken) so whole-suite comparisons stay O(1) in
 * memory, counts events whose sid or op disagrees with their static
 * instruction, and records the instruction count at every onRunEnd()
 * to check that batches are flushed before run boundaries.
 */
struct StreamHashSink : vm::TraceSink
{
    uint64_t hash = 1469598103934665603ull;
    uint64_t instrs = 0;
    uint64_t mismatched = 0;
    std::vector<uint64_t> run_end_counts;

    void mix(uint64_t v)
    {
        for (int i = 0; i < 8; i++) {
            hash ^= (v >> (8 * i)) & 0xff;
            hash *= 1099511628211ull;
        }
    }

    void onInstr(const vm::DynInstr &di) override
    {
        mix(di.instr->sid);
        mix(di.sid);
        mix(static_cast<uint64_t>(di.op));
        mismatched += !di.matchesInstr();
        mix(di.addr);
        mix(di.loadValueBits);
        mix(di.taken ? 1 : 0);
        instrs++;
    }

    void onRunEnd() override { run_end_counts.push_back(instrs); }
};

/**
 * Re-frames the stream it receives into batches of exactly @a size
 * events for @a inner (the last one before a run end may be shorter),
 * so a consumer sees batch boundaries the interpreter never makes.
 */
class ReframeSink : public vm::TraceSink
{
  public:
    ReframeSink(vm::TraceSink &inner, size_t size)
        : inner_(inner), size_(size)
    {
    }

    void
    onInstr(const vm::DynInstr &di) override
    {
        buf_.push_back(di);
        if (buf_.size() == size_)
            flush();
    }

    void
    onRunEnd() override
    {
        flush();
        inner_.onRunEnd();
    }

  private:
    void
    flush()
    {
        if (!buf_.empty())
            inner_.onBatch(buf_.data(), buf_.size());
        buf_.clear();
    }

    vm::TraceSink &inner_;
    const size_t size_;
    std::vector<vm::DynInstr> buf_;
};

} // namespace bioperf::test

#endif // BIOPERF_TESTS_STREAM_SINKS_H_
