#include "branch/predictors.h"

#include <algorithm>
#include <cassert>

namespace bioperf::branch {

using detail::counterTaken;
using detail::counterTrain;

bool
BranchPredictor::predictAndTrain(uint32_t sid, bool taken)
{
    const bool p = predict(sid);
    train(sid, taken);
    const bool correct = p == taken;
    noteOutcome(sid, correct);
    return correct;
}

void
BranchPredictor::growStats(uint32_t sid)
{
    exec_.resize(sid + 1, 0);
    miss_.resize(sid + 1, 0);
}

void
BranchPredictor::reset()
{
    std::fill(exec_.begin(), exec_.end(), 0);
    std::fill(miss_.begin(), miss_.end(), 0);
    total_exec_ = 0;
    total_miss_ = 0;
}

double
BranchPredictor::overallMissRate() const
{
    return total_exec_ == 0 ? 0.0
                            : static_cast<double>(total_miss_) /
                                  static_cast<double>(total_exec_);
}

// --------------------------------------------------------------------------
// Bimodal
// --------------------------------------------------------------------------

bool
BimodalPredictor::predict(uint32_t sid)
{
    if (sid >= counters_.size())
        counters_.resize(sid + 1, 2);
    return counterTaken(counters_[sid]);
}

void
BimodalPredictor::train(uint32_t sid, bool taken)
{
    if (sid >= counters_.size())
        counters_.resize(sid + 1, 2);
    counters_[sid] = counterTrain(counters_[sid], taken);
}

void
BimodalPredictor::reset()
{
    BranchPredictor::reset();
    std::fill(counters_.begin(), counters_.end(), 2);
}

// --------------------------------------------------------------------------
// Gshare
// --------------------------------------------------------------------------

namespace {

uint32_t
gshareIndex(uint32_t sid, uint32_t history, uint32_t history_bits)
{
    const uint32_t mask = (1u << history_bits) - 1;
    // Multiply by a large odd constant to spread consecutive static
    // ids across the table before XORing with the history.
    return ((sid * 2654435761u) ^ history) & mask;
}

} // namespace

GsharePredictor::GsharePredictor(uint32_t history_bits)
    : history_bits_(history_bits),
      table_(size_t(1) << history_bits, 2)
{
}

bool
GsharePredictor::predict(uint32_t sid)
{
    return counterTaken(table_[gshareIndex(sid, history_, history_bits_)]);
}

void
GsharePredictor::train(uint32_t sid, bool taken)
{
    uint8_t &c = table_[gshareIndex(sid, history_, history_bits_)];
    c = counterTrain(c, taken);
    history_ = ((history_ << 1) | (taken ? 1 : 0)) &
               ((1u << history_bits_) - 1);
}

void
GsharePredictor::reset()
{
    BranchPredictor::reset();
    std::fill(table_.begin(), table_.end(), 2);
    history_ = 0;
}

// --------------------------------------------------------------------------
// Local
// --------------------------------------------------------------------------

LocalPredictor::LocalPredictor(uint32_t history_bits)
    : history_bits_(history_bits)
{
}

LocalPredictor::Branch &
LocalPredictor::branchOf(uint32_t sid)
{
    if (sid >= branches_.size())
        branches_.resize(size_t(sid) + 1);
    Branch &b = branches_[sid];
    if (b.tablePlus1 == 0) {
        const size_t table = patterns_.size() >> history_bits_;
        b.tablePlus1 = static_cast<uint32_t>(table + 1);
        patterns_.resize((table + 1) << history_bits_, 2);
    }
    return b;
}

bool
LocalPredictor::predict(uint32_t sid)
{
    return counterTaken(counterOf(branchOf(sid)));
}

void
LocalPredictor::train(uint32_t sid, bool taken)
{
    Branch &b = branchOf(sid);
    uint8_t &c = counterOf(b);
    c = counterTrain(c, taken);
    b.history = ((b.history << 1) | (taken ? 1 : 0)) &
                ((1u << history_bits_) - 1);
}

void
LocalPredictor::reset()
{
    // Branches keep their tables; every table and history returns to
    // its initial state.
    BranchPredictor::reset();
    for (Branch &b : branches_)
        b.history = 0;
    std::fill(patterns_.begin(), patterns_.end(), 2);
}

// --------------------------------------------------------------------------
// Hybrid
// --------------------------------------------------------------------------

HybridPredictor::HybridPredictor(uint32_t local_history_bits,
                                 uint32_t global_history_bits)
    : local_history_bits_(local_history_bits),
      local_mask_((1u << local_history_bits) - 1),
      global_mask_((1u << global_history_bits) - 1),
      global_(size_t(1) << global_history_bits, 2)
{
    assert(local_history_bits <= 16 && "Branch::history is 16 bits");
}

void
HybridPredictor::addBranch(uint32_t sid)
{
    if (sid >= branches_.size())
        branches_.resize(size_t(sid) + 1);
    Branch &b = branches_[sid];
    b.patterns = static_cast<uint32_t>(patterns_.size());
    b.seen = true;
    patterns_.resize(patterns_.size() + (size_t(1) << local_history_bits_),
                     2);
}

void
HybridPredictor::reset()
{
    // Branches keep their pattern tables; all state and counts return
    // to their initial values.
    BranchPredictor::reset();
    for (Branch &b : branches_) {
        b.history = 0;
        b.chooser = 2;
        b.executions = 0;
        b.mispredictions = 0;
    }
    std::fill(patterns_.begin(), patterns_.end(), 2);
    std::fill(global_.begin(), global_.end(), 2);
    global_history_ = 0;
}

bool
HybridPredictor::predict(uint32_t sid)
{
    const Branch &b = branchOf(sid);
    const bool local = counterTaken(patterns_[b.patterns + b.history]);
    const bool global = counterTaken(global_[globalIndex(sid)]);
    return counterTaken(b.chooser) ? local : global;
}

void
HybridPredictor::train(uint32_t sid, bool taken)
{
    step(branchOf(sid), sid, taken);
}

// --------------------------------------------------------------------------
// Factory
// --------------------------------------------------------------------------

std::unique_ptr<BranchPredictor>
makePredictor(const std::string &name)
{
    if (name == "perfect")
        return std::make_unique<PerfectPredictor>();
    if (name == "static")
        return std::make_unique<StaticPredictor>();
    if (name == "bimodal")
        return std::make_unique<BimodalPredictor>();
    if (name == "gshare")
        return std::make_unique<GsharePredictor>();
    if (name == "local")
        return std::make_unique<LocalPredictor>();
    if (name == "hybrid")
        return std::make_unique<HybridPredictor>();
    return nullptr;
}

} // namespace bioperf::branch
