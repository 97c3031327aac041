#ifndef BIOPERF_BRANCH_PREDICTORS_H_
#define BIOPERF_BRANCH_PREDICTORS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace bioperf::branch {

namespace detail {

/** Saturating 2-bit counter helpers: >=2 means predict taken. */
constexpr bool
counterTaken(uint8_t c)
{
    return c >= 2;
}

constexpr uint8_t
counterTrain(uint8_t c, bool taken)
{
    if (taken)
        return c < 3 ? c + 1 : 3;
    return c > 0 ? c - 1 : 0;
}

} // namespace detail

/**
 * Abstract conditional branch predictor keyed by static branch id.
 *
 * The characterization experiments use HybridPredictor with one entry
 * per static branch (no aliasing), as the paper specifies. Per-branch
 * accuracy statistics are collected in the base class so Table 4's
 * per-sequence misprediction rates can be derived.
 */
class BranchPredictor
{
  public:
    virtual ~BranchPredictor() = default;

    virtual const char *name() const = 0;

    /**
     * Predicts branch @a sid, trains on the actual outcome, records
     * statistics, and returns true iff the prediction was correct.
     */
    virtual bool predictAndTrain(uint32_t sid, bool taken);

    /** Dynamic executions observed for branch @a sid. */
    uint64_t executions(uint32_t sid) const
    {
        return sid < exec_.size() ? exec_[sid] : 0;
    }
    /** Mispredictions observed for branch @a sid. */
    uint64_t mispredictions(uint32_t sid) const
    {
        return sid < miss_.size() ? miss_[sid] : 0;
    }
    /** Per-branch misprediction rate in [0, 1]. */
    double missRate(uint32_t sid) const
    {
        const uint64_t e = executions(sid);
        return e == 0 ? 0.0
                      : static_cast<double>(mispredictions(sid)) /
                            static_cast<double>(e);
    }

    uint64_t totalExecutions() const { return total_exec_; }
    uint64_t totalMispredictions() const { return total_miss_; }
    double overallMissRate() const;

    /**
     * Returns the predictor to its initial state — statistics and all
     * trained tables — while keeping allocated storage, mirroring
     * mem::CacheHierarchy::reset(). Sampling shard workers call this
     * between shards instead of reconstructing the predictor.
     */
    virtual void reset();

    /**
     * Direct access to the prediction/training machinery without the
     * statistics bookkeeping, so predictors can be composed (the
     * hybrid uses these on its components).
     */
    bool rawPredict(uint32_t sid) { return predict(sid); }
    void rawTrain(uint32_t sid, bool taken) { train(sid, taken); }

  protected:
    virtual bool predict(uint32_t sid) = 0;
    virtual void train(uint32_t sid, bool taken) = 0;

    /** Inline fast path; table growth stays out of line. */
    void
    noteOutcome(uint32_t sid, bool correct)
    {
        if (sid >= exec_.size()) [[unlikely]]
            growStats(sid);
        exec_[sid]++;
        total_exec_++;
        if (!correct) {
            miss_[sid]++;
            total_miss_++;
        }
    }

  private:
    void growStats(uint32_t sid);

    std::vector<uint64_t> exec_;
    std::vector<uint64_t> miss_;
    uint64_t total_exec_ = 0;
    uint64_t total_miss_ = 0;
};

/** Always predicts the actual outcome (an oracle, for ablations). */
class PerfectPredictor : public BranchPredictor
{
  public:
    const char *name() const override { return "perfect"; }

    bool
    predictAndTrain(uint32_t sid, bool) override
    {
        noteOutcome(sid, true);
        return true;
    }

  protected:
    bool predict(uint32_t) override { return true; }
    void train(uint32_t, bool) override {}
};

/** Static predict-taken (or not-taken) baseline. */
class StaticPredictor : public BranchPredictor
{
  public:
    explicit StaticPredictor(bool predict_taken = true)
        : taken_(predict_taken)
    {
    }
    const char *name() const override
    {
        return taken_ ? "static-taken" : "static-not-taken";
    }

  protected:
    bool predict(uint32_t) override { return taken_; }
    void train(uint32_t, bool) override {}

  private:
    bool taken_;
};

/** One saturating 2-bit counter per static branch. */
class BimodalPredictor : public BranchPredictor
{
  public:
    const char *name() const override { return "bimodal"; }
    void reset() override;

  protected:
    bool predict(uint32_t sid) override;
    void train(uint32_t sid, bool taken) override;

  private:
    std::vector<uint8_t> counters_; ///< 2-bit, initialized weakly taken
};

/**
 * Gshare: global history XOR branch id indexes a shared table of
 * 2-bit counters.
 */
class GsharePredictor final : public BranchPredictor
{
  public:
    explicit GsharePredictor(uint32_t history_bits = 12);
    const char *name() const override { return "gshare"; }
    void reset() override;

    /**
     * Non-virtual inline prediction/training core, so composing
     * predictors (the hybrid) reach the tables without virtual
     * dispatch and per-branch callers fold the table arithmetic into
     * their own loop. Same behaviour as predict()/train().
     */
    bool
    predictFast(uint32_t sid)
    {
        return detail::counterTaken(table_[index(sid)]);
    }
    void
    trainFast(uint32_t sid, bool taken)
    {
        uint8_t &c = table_[index(sid)];
        c = detail::counterTrain(c, taken);
        history_ = ((history_ << 1) | (taken ? 1 : 0)) &
                   ((1u << history_bits_) - 1);
    }

  protected:
    bool predict(uint32_t sid) override { return predictFast(sid); }
    void train(uint32_t sid, bool taken) override
    {
        trainFast(sid, taken);
    }

  private:
    uint32_t
    index(uint32_t sid) const
    {
        const uint32_t mask = (1u << history_bits_) - 1;
        // Multiply by a large odd constant to spread consecutive
        // static ids across the table before XORing with the history.
        return ((sid * 2654435761u) ^ history_) & mask;
    }

    uint32_t history_bits_;
    uint32_t history_ = 0;
    std::vector<uint8_t> table_;
};

/**
 * Two-level local predictor with a private history register and a
 * private pattern table per static branch (no aliasing).
 */
class LocalPredictor final : public BranchPredictor
{
  public:
    explicit LocalPredictor(uint32_t history_bits = 10);
    const char *name() const override { return "local"; }
    void reset() override;

    /** Non-virtual inline core; see GsharePredictor::predictFast(). */
    bool
    predictFast(uint32_t sid)
    {
        return detail::counterTaken(counterOf(branchOf(sid)));
    }
    void trainFast(uint32_t sid, bool taken) { predictThenTrain(sid, taken); }
    /**
     * predictFast() then trainFast() on one table lookup: returns the
     * prediction made before training on @a taken.
     */
    bool
    predictThenTrain(uint32_t sid, bool taken)
    {
        Branch &b = branchOf(sid);
        uint8_t &c = counterOf(b);
        const bool p = detail::counterTaken(c);
        c = detail::counterTrain(c, taken);
        b.history = ((b.history << 1) | (taken ? 1 : 0)) &
                    ((1u << history_bits_) - 1);
        return p;
    }

  protected:
    bool predict(uint32_t sid) override { return predictFast(sid); }
    void train(uint32_t sid, bool taken) override
    {
        trainFast(sid, taken);
    }

  private:
    /**
     * One static branch: the index + 1 of its pattern table (0 until
     * the branch is first seen) and its local history, side by side
     * so a lookup costs one load before the pattern table's.
     */
    struct Branch
    {
        uint32_t tablePlus1 = 0;
        uint32_t history = 0;
    };

    Branch &
    branchOf(uint32_t sid)
    {
        if (sid >= branches_.size() || branches_[sid].tablePlus1 == 0)
            [[unlikely]]
            addBranch(sid);
        return branches_[sid];
    }
    void addBranch(uint32_t sid);
    /** The pattern-table counter @a b's history selects. */
    uint8_t &
    counterOf(const Branch &b)
    {
        return patterns_[(size_t(b.tablePlus1 - 1) << history_bits_) +
                         b.history];
    }

    uint32_t history_bits_;
    std::vector<Branch> branches_; ///< indexed by sid
    /**
     * Per-branch pattern tables stored contiguously (table @a t spans
     * [t << history_bits_, (t + 1) << history_bits_)). A table is
     * added when its branch is first seen, so the tables grow with
     * the branches seen rather than the largest sid, and a lookup is
     * one indexed load instead of chasing a per-branch allocation.
     */
    std::vector<uint8_t> patterns_;
};

/**
 * McFarling-style hybrid: a local and a gshare component with a 2-bit
 * chooser per static branch. This is the configuration the paper uses
 * for its Table 4 misprediction rates.
 */
class HybridPredictor final : public BranchPredictor
{
  public:
    HybridPredictor(uint32_t local_history_bits = 10,
                    uint32_t global_history_bits = 12);
    const char *name() const override { return "hybrid"; }
    void reset() override;

    /**
     * Flat inline override of the predict+train+record sequence: one
     * chooser lookup and direct (non-virtual) component calls, with
     * behaviour identical to the base-class implementation. This
     * predictor runs once per dynamic conditional branch in every
     * characterization, so the call layering matters.
     */
    bool
    predictAndTrain(uint32_t sid, bool taken) override
    {
        if (sid >= chooser_.size()) [[unlikely]]
            growChooser(sid);
        // The local component trains as it predicts; nothing below
        // reads its state.
        last_local_pred_ = local_.predictThenTrain(sid, taken);
        last_gshare_pred_ = gshare_.predictFast(sid);
        const bool p = detail::counterTaken(chooser_[sid])
                           ? last_local_pred_
                           : last_gshare_pred_;
        const bool local_ok = last_local_pred_ == taken;
        const bool gshare_ok = last_gshare_pred_ == taken;
        if (local_ok != gshare_ok) {
            uint8_t &c = chooser_[sid];
            c = detail::counterTrain(c, local_ok);
        }
        gshare_.trainFast(sid, taken);
        const bool correct = p == taken;
        noteOutcome(sid, correct);
        return correct;
    }

  protected:
    bool predict(uint32_t sid) override;
    void train(uint32_t sid, bool taken) override;

  private:
    void growChooser(uint32_t sid);

    LocalPredictor local_;
    GsharePredictor gshare_;
    std::vector<uint8_t> chooser_; ///< 2-bit; >=2 prefers local
    bool last_local_pred_ = false;
    bool last_gshare_pred_ = false;
};

/** Factory by name: perfect, static, bimodal, gshare, local, hybrid. */
std::unique_ptr<BranchPredictor> makePredictor(const std::string &name);

} // namespace bioperf::branch

#endif // BIOPERF_BRANCH_PREDICTORS_H_
