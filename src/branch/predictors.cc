#include "branch/predictors.h"

#include <algorithm>

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

GsharePredictor::GsharePredictor(uint32_t history_bits)
    : history_bits_(history_bits),
      table_(size_t(1) << history_bits, 2)
{
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

void
LocalPredictor::addBranch(uint32_t sid)
{
    if (sid >= branches_.size())
        branches_.resize(size_t(sid) + 1);
    const size_t table = patterns_.size() >> history_bits_;
    branches_[sid].tablePlus1 = static_cast<uint32_t>(table + 1);
    patterns_.resize((table + 1) << history_bits_, 2);
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
    : local_(local_history_bits), gshare_(global_history_bits)
{
}

void
HybridPredictor::growChooser(uint32_t sid)
{
    chooser_.resize(sid + 1, 2);
}

void
HybridPredictor::reset()
{
    BranchPredictor::reset();
    local_.reset();
    gshare_.reset();
    std::fill(chooser_.begin(), chooser_.end(), 2);
    last_local_pred_ = false;
    last_gshare_pred_ = false;
}

bool
HybridPredictor::predict(uint32_t sid)
{
    if (sid >= chooser_.size())
        chooser_.resize(sid + 1, 2);
    last_local_pred_ = local_.predictFast(sid);
    last_gshare_pred_ = gshare_.predictFast(sid);
    return counterTaken(chooser_[sid]) ? last_local_pred_
                                       : last_gshare_pred_;
}

void
HybridPredictor::train(uint32_t sid, bool taken)
{
    const bool local_ok = last_local_pred_ == taken;
    const bool gshare_ok = last_gshare_pred_ == taken;
    if (local_ok != gshare_ok) {
        uint8_t &c = chooser_[sid];
        c = counterTrain(c, local_ok);
    }
    local_.trainFast(sid, taken);
    gshare_.trainFast(sid, taken);
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
